"""Cross-check of the engine's descriptors by Pauli back-propagation, without numpy.

A descriptor component at boundary t is U^dagger sigma U for a bare Pauli
sigma and the gates U of slots 0..t-1.  :func:`cross_check` rebuilds it apart
from the engine's rules: it conjugates sigma by one gate at a time, latest
slot first (Pauli propagation, Rudolph et al., arXiv:2505.21606), skipping
the gates off its past light cone, walked once per site for its three
components.  A gate on k qubits maps the letters P of a string on its qubits
to strings Q with coefficients tr(Q^dagger G^dagger P G) / 2**k, read off the
gate matrices of :func:`_gate_matrix`, which the dense oracle uses too.  The
gates are real, so every coefficient is real.  The ``h``, ``cx`` and ``ch``
tables are built once per process, on first use, an ``ry`` table once per
distinct gate and check.  A carried-over site is neither back-propagated nor
compared again.  Coefficients below :data:`DROP_TOLERANCE` drop as the next
gate reads them and after the last; a small one adds nothing either way, so
the result is bit for bit that of the engine's drop after every gate.  An
operator is a dict from each string's masks ``(x, z)`` to its coefficient.
"""
from __future__ import annotations

import math
from math import fsum
from typing import NamedTuple

from .engine import COMPONENTS, Circuit, GateStep, Trace
from .pauli import DROP_TOLERANCE, _term_masks, vacuum_expectation

__all__ = ["CrossCheckReport", "cross_check"]

_ROOT_HALF = 1 / math.sqrt(2)
_H = ((_ROOT_HALF, _ROOT_HALF), (_ROOT_HALF, -_ROOT_HALF))
# 4x4 matrices indexed by (control_bit * 2 + target_bit)
_FIXED_MATRICES = {
    "h": _H,
    "cx": ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 1.0, 0.0)),
    "ch": ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, *_H[0]), (0.0, 0.0, *_H[1])),
}
_FIXED_TABLES: dict[str, tuple] = {}  # filled on first use, never at import


def _gate_matrix(step: GateStep) -> tuple[tuple[float, ...], ...]:
    """The real matrix of ``step``; ``step.qubits[0]`` owns the most significant bit of its index."""
    if step.kind == "ry":
        c, s = math.cos(step.angle / 2), math.sin(step.angle / 2)
        return ((c, -s), (s, c))
    return _FIXED_MATRICES[step.kind]  # KeyError for a kind without a matrix here


def _conjugation_table(g: tuple[tuple[float, ...], ...]) -> tuple[tuple[tuple[int, int, float], ...], ...]:
    """(px ^ qx, pz ^ qz, c) per string Q in G^T P G = sum c Q, for each local P of masks px | pz << k.

    With X^x Z^z |b> = (-1)^{popcount(b & z)} |b ^ x> and P = i^{#Y} X^px Z^pz,
    c = i^{#Y(P) - #Y(Q)} tr(Z^qz X^qx G^T X^px Z^pz G) / 2**k, which a real G
    makes 0 when the two #Y differ in parity.  G^T I G = I exactly.
    """
    d = len(g)
    table = [((0, 0, 1.0),)]
    for px, pz in ((p % d, p // d) for p in range(1, d * d)):
        row = []
        for qx, qz in ((q % d, q // d) for q in range(d * d)):
            if (turn := (px & pz).bit_count() - (qx & qz).bit_count()) & 1:
                continue
            c = fsum(
                (-1) ** ((s & qz).bit_count() + ((a ^ px) & pz).bit_count()) * g[a][s ^ qx] * g[a ^ px][s]
                for a in range(d)
                for s in range(d)
            ) / d
            if abs(c) >= DROP_TOLERANCE:
                row.append((px ^ qx, pz ^ qz, -c if turn & 2 else c))
        table.append(tuple(row))
    return tuple(table)


def _gate_rows(step: GateStep) -> tuple[int, dict[tuple[int, int], tuple[tuple[int, int, float], ...]]]:
    """``step``'s qubit mask and its table on full-width masks.

    The rows of a string's masks on the gate's qubits, ``(x & mask, z & mask)``,
    list (dx, dz, c): the string becomes ``(x ^ dx, z ^ dz)`` with its coefficient times c.
    """
    if step.angle is not None:
        table = _conjugation_table(_gate_matrix(step))
    elif (table := _FIXED_TABLES.get(step.kind)) is None:
        table = _FIXED_TABLES[step.kind] = _conjugation_table(_gate_matrix(step))
    d = 1 << len(step.qubits)
    spread = [sum(1 << q for i, q in enumerate(reversed(step.qubits)) if local >> i & 1) for local in range(d)]
    rows = {}
    for p, entries in enumerate(table):
        rows[spread[p % d], spread[p // d]] = tuple((spread[dx], spread[dz], c) for dx, dz, c in entries)
    return spread[-1], rows


def _conjugated(terms: dict, mask: int, rows: dict) -> dict:
    """G^dagger A G for a gate of ``mask`` and ``rows``, skipping each term of ``terms`` below the drop tolerance."""
    out: dict[tuple[int, int], float] = {}
    for (x, z), c in terms.items():
        if abs(c) >= DROP_TOLERANCE:
            for dx, dz, t in rows[x & mask, z & mask]:
                key = (x ^ dx, z ^ dz)
                out[key] = out.get(key, 0.0) + c * t
    return out


def _site(slots: list, t: int, qubit: int) -> list[dict]:
    """U^dagger sigma U for sigma = X, Y and Z on ``qubit``, U the gates of slots 0..t-1; small terms drop at the end.

    One walk, latest slot first, grows the past light cone and conjugates all three at each gate on it.
    """
    cone = 1 << qubit
    x, y, z = {(cone, 0): 1.0}, {(cone, cone): 1.0}, {(0, cone): 1.0}
    for s in range(t - 1, -1, -1):
        for mask, rows in slots[s]:
            if cone & mask:
                cone |= mask
                x, y, z = _conjugated(x, mask, rows), _conjugated(y, mask, rows), _conjugated(z, mask, rows)
    return [{key: c for key, c in op.items() if abs(c) >= DROP_TOLERANCE} for op in (x, y, z)]


def _deviations(op, reference: dict) -> tuple[float, float]:
    """|engine mean - reference mean| and the largest coefficient gap between ``op`` and ``reference``.

    The engine's mean is read without the Hermiticity guard, so an imaginary residue
    shows up as a coefficient gap; a NaN one still raises.  ``reference`` is consumed.
    """
    mean, gap = fsum(c for (x, _), c in reference.items() if not x), 0.0
    for x, z, c in _term_masks(op):
        if (size := abs(c - reference.pop((x, z), 0.0))) > gap:
            gap = size
    for c in reference.values():  # what the pass left, the terms op lacks, each a gap of its whole coefficient
        if (size := abs(c)) > gap:
            gap = size
    return abs(vacuum_expectation(op, math.inf) - mean), gap


class CrossCheckReport(NamedTuple):
    max_expectation_dev: float
    max_matrix_dev: float
    worst_site: dict

    def to_json(self) -> dict:
        return {"format_version": 1, **self._asdict(), "worst_site": dict(self.worst_site)}


def cross_check(trace: Trace, circuit: Circuit) -> CrossCheckReport:
    """Compare the engine trace against Pauli back-propagation of the bare Paulis.

    For every boundary, qubit and component this measures the gap between
    the vacuum expectations of the engine's operator and of U^dagger sigma U
    (``max_expectation_dev``), and the largest gap between their Pauli
    coefficients (``max_matrix_dev``); both should sit at numerical noise.
    A site (t, q) whose qubit no gate of slot t - 1 touched, and whose engine
    descriptor is the very object of boundary t - 1, has its deviations
    counted already (for G acting off q, G^dagger sigma_q G = sigma_q
    exactly) and is skipped.  A trace that does not fit the circuit raises
    ValueError.  The engine's means are read without the Hermiticity guard, so
    an imaginary residue counts as a coefficient gap, but a NaN one raises
    :class:`~heisensim.pauli.HermiticityError`.
    """
    if len(trace) != circuit.max_slot + 2:
        raise ValueError("trace and circuit disagree on slot count")
    for t, state in enumerate(trace):
        if (width := len(state.descriptors)) != circuit.n_qubits:
            raise ValueError(f"trace has {width} qubits, circuit has {circuit.n_qubits}, at boundary {t}")
    rows = {}  # equal gates share one table
    for step in circuit.steps:
        if (key := (step.kind, step.qubits, step.angle)) not in rows:
            rows[key] = _gate_rows(step)
    slots = [[rows[step.kind, step.qubits, step.angle] for step in group] for group in circuit.slot_groups()]
    max_exp = max_mat = 0.0
    worst = {"slot": 0, "qubit": 0, "component": "x"}
    for t, state in enumerate(trace):
        touched = sum(mask for mask, _ in slots[t - 1]) if t else 0  # a slot's gates are disjoint
        for q, d in enumerate(state.descriptors):
            if t and not touched >> q & 1 and d is trace[t - 1].descriptors[q]:
                continue  # its deviations are already in the maxima, and worst moves only on a strict >
            for comp, op, reference in zip(COMPONENTS, d.triple, _site(slots, t, q)):
                dev, mat_dev = _deviations(op, reference)
                if max(dev, mat_dev) > max(max_exp, max_mat):
                    worst = {"slot": t, "qubit": q, "component": comp}
                max_exp = max(max_exp, dev)
                max_mat = max(max_mat, mat_dev)
    return CrossCheckReport(max_exp, max_mat, worst)
