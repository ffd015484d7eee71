"""Dense-matrix validation route: state vectors and generic conjugation.

Everything here is the straightforward (exponentially sized) reference
implementation used to cross-check the sparse descriptor engine: dense
expansion of operators, Schrodinger state evolution, and descriptor
construction by conjugating bare Pauli matrices with the accumulated
circuit unitary.

A Pauli string P = i^{#Y} X^x Z^z is a signed permutation,
P|c> = i^{#Y} (-1)^{popcount(c & z)} |c ^ x>: one signed-row rule, which
:func:`expand` writes once per term and :func:`_pauli_rows` applies to a
state or a unitary.  A gate is applied by one ``np.tensordot`` on the [2]*n
view.  Every gate kind (``ry``, ``h``, ``cx``, ``ch``) has a real matrix,
so the accumulated unitary U stays real orthogonal and each conjugation
U^T (sigma U) is one real product; a Y component is i times a real matrix.

One walk, :func:`_walk`, carries a state vector or a unitary across the
slot boundaries; :func:`evolve_state` and :func:`conjugate_descriptor` read
their boundaries off it, and :func:`cross_check` walks the state side by
side with the trace.  :func:`cross_check` conjugates each site on a causal
register rather than on all n qubits: a descriptor changes only through
the gates of its past light cone (Deutsch & Hayden, quant-ph/9906007).
:func:`_site_matrix_devs` states the register rule and :class:`_LightCones`
how the cones' unitaries are built.  A site whose qubit no gate of the
previous slot touched, and whose engine descriptor is the very object of
the previous boundary, keeps its previous matrix deviation: for a gate G
acting off q, G^dagger sigma_q G = sigma_q exactly.

Bit convention, fixed project-wide: basis index bit k holds qubit k's value
(qubit 0 is the least significant bit), and bit value 0 is the +1
eigenstate of Z.  The dense route is capped at :data:`SIZE_CAP` qubits;
it exists for desk-scale validation, not performance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .engine import COMPONENTS, Circuit, Descriptor, GateStep, Trace
from .pauli import PauliSum, _support_mask, vacuum_expectation

__all__ = [
    "SIZE_CAP",
    "expand",
    "evolve_state",
    "conjugate_descriptor",
    "state_expectation",
    "CrossCheckReport",
    "cross_check",
]

SIZE_CAP = 12

_H2 = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
# 4x4 blocks indexed by (control_bit * 2 + target_bit)
_CNOT4 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
_CH4 = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), _H2]])
_FIXED_MATRICES = {"h": _H2, "cx": _CNOT4, "ch": _CH4}

# i^k for k = #Y mod 4; real where it can be, so X/Z-only strings stay real.
_I_POWERS = (1, 1j, -1, -1j)


def _check_cap(n_qubits: int, cap: int):
    if n_qubits > cap:
        raise ValueError(f"dense route capped at {cap} qubits, got {n_qubits}")


def _z_signs(rows: np.ndarray, z: int) -> np.ndarray:
    """(-1)^{popcount(row & z)} per row, by XOR-folding the rows at z's bits."""
    parity = np.zeros_like(rows)
    bit = 0
    while z:
        if z & 1:
            parity ^= rows >> bit
        z >>= 1
        bit += 1
    return 1 - 2 * (parity & 1)


def expand(a: PauliSum) -> np.ndarray:
    """Dense 2^n x 2^n matrix of an operator, one signed permutation per term."""
    _check_cap(a.n_qubits, SIZE_CAP)
    dim = 2 ** a.n_qubits
    cols = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for (x, z), coeff in a._terms.items():
        out[cols ^ x, cols] += coeff * _I_POWERS[(x & z).bit_count() % 4] * _z_signs(cols, z)
    return out


def _small_matrix(step: GateStep) -> np.ndarray:
    if step.kind == "ry":
        c, s = math.cos(step.angle / 2), math.sin(step.angle / 2)
        return np.array([[c, -s], [s, c]])
    return _FIXED_MATRICES[step.kind]  # KeyError for a kind without a matrix here


def _apply_small(small: np.ndarray, qubits: tuple[int, ...], array: np.ndarray, n: int) -> np.ndarray:
    """Apply a small unitary on ``qubits`` to a state (2**n,) or to columns (2**n, m).

    ``qubits[0]`` owns the most significant bit of the small matrix index;
    qubit q is axis n-1-q of the C-order [2]*n reshape.
    """
    k = len(qubits)
    axes = [n - 1 - q for q in qubits]
    tensor = array.reshape([2] * n + list(array.shape[1:]))
    out = np.tensordot(small.reshape([2] * 2 * k), tensor, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes).reshape(array.shape)


def _walk(circuit: Circuit, array: np.ndarray):
    """Yield (gates ending at t, array at t) for every boundary t = 0..max_slot+1.

    ``array`` is a state (2**n,) or a stack of columns (2**n, m); each slot's
    gates are applied in list order.  An empty slot yields the same object again.
    """
    yield (), array
    for group in circuit.slot_groups():
        for step in group:
            array = _apply_small(_small_matrix(step), step.qubits, array, circuit.n_qubits)
        yield group, array


def evolve_state(circuit: Circuit, cap: int = SIZE_CAP) -> list[np.ndarray]:
    """State vector at every slot boundary, starting from the all-zeros state."""
    _check_cap(circuit.n_qubits, cap)
    psi = np.zeros(2 ** circuit.n_qubits, dtype=complex)
    psi[0] = 1.0
    states = []
    for _, psi in _walk(circuit, psi):
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > 1e-12:
            raise AssertionError(f"state norm drifted to {norm}")
        states.append(psi.copy())
    return states


def _pauli_rows(array: np.ndarray, qubit: int, letter: str) -> tuple[complex, np.ndarray]:
    """sigma A as (phase, rows) with sigma A = phase * rows, for a single-qubit Pauli.

    rows[r] = (-1)^{popcount((r ^ x) & z)} A[r ^ x] and phase = i^{#Y}; A is a
    state vector or a matrix whose rows are indexed by the basis.
    """
    x, z = int(letter in "XY") << qubit, int(letter in "YZ") << qubit
    rows = np.arange(array.shape[0]) ^ x
    signs = _z_signs(rows, z).reshape((-1,) + (1,) * (array.ndim - 1))
    return _I_POWERS[(x & z).bit_count()], signs * array[rows]


def _conjugated(total: np.ndarray, qubit: int, letter: str) -> np.ndarray:
    """U^dagger sigma U for a real U: one product, real unless the letter is Y."""
    phase, rows = _pauli_rows(total, qubit, letter)
    return phase * (total.T @ rows)


def conjugate_descriptor(circuit: Circuit, upto_slot: int) -> list[dict[str, np.ndarray]]:
    """Dense descriptor triples at boundary ``upto_slot`` via conjugation.

    Returns one ``{"x": matrix, "y": ..., "z": ...}`` per qubit, each equal
    to U^dagger sigma U for the ordered product U of all gates in slots
    0..upto_slot-1.
    """
    _check_cap(circuit.n_qubits, SIZE_CAP)
    if not 0 <= upto_slot <= circuit.max_slot + 1:
        raise IndexError(f"boundary {upto_slot} out of range (0..{circuit.max_slot + 1})")
    n = circuit.n_qubits
    _, total = next(islice(_walk(circuit, np.eye(2 ** n)), upto_slot, None))
    return [{comp: _conjugated(total, q, comp.upper()).astype(complex) for comp in COMPONENTS} for q in range(n)]


def state_expectation(psi: np.ndarray, qubit: int, letter: str) -> float:
    """<psi| sigma_letter(qubit) |psi> for a single-qubit Pauli."""
    phase, rows = _pauli_rows(psi, qubit, letter)
    return float(np.vdot(psi, phase * rows).real)


@dataclass(frozen=True)
class CrossCheckReport:
    max_expectation_dev: float
    max_matrix_dev: float
    worst_site: dict

    def to_json(self) -> dict:
        return {
            "format_version": 1,
            "max_expectation_dev": self.max_expectation_dev,
            "max_matrix_dev": self.max_matrix_dev,
            "worst_site": dict(self.worst_site),
        }


def _qubits(mask: int) -> tuple[int, ...]:
    return tuple(q for q in range(mask.bit_length()) if mask >> q & 1)


class _LightCones:
    """Past light-cone unitaries of one circuit, for sites asked in boundary order.

    A cluster is a set of qubits joined by the gates so far; the unitary of
    the gates up to the current boundary is the tensor product of each
    cluster's own product, kept on the cluster's register with one gate
    application per gate.

    The cone of site (t, q) is walked back slot by slot.  Its frontier f(s)
    holds the qubits from which a gate path reaches (t, q) after boundary s:
    a gate of slot s-1 that meets f(s) joins the cone and adds its qubits to
    f(s-1), and f(0) is the cone's register.  Once f(s) is q's cluster, the
    cluster's product serves on the same register and the walk stops.  A
    cone narrower than its cluster is fixed below boundary s by the key
    (s, f(s)): ``nodes[s, f]`` holds its register, the product of its gates
    up to s on that register, and the keys of the nodes below it.  A walk
    also stops at the first stored key and applies the cone's gates from
    there up to t.  Each qubit keeps the nodes where its latest walk's
    frontier changed; its next walk has a frontier that contains the old
    one at every boundary and first equals it at one of those nodes, so it
    walks only the slots since the two cones parted.
    """

    def __init__(self, circuit: Circuit):
        self.groups = [[(sum(1 << q for q in step.qubits), step) for step in group] for group in circuit.slot_groups()]
        self.boundary = 0
        self.clusters = {q: ((q,), np.eye(2)) for q in range(circuit.n_qubits)}
        self.nodes: dict[tuple[int, int], tuple[tuple[int, ...], np.ndarray, tuple]] = {}
        self.kept: dict[int, list[tuple[int, int]]] = {}

    def _advance(self, t: int):
        for group in self.groups[self.boundary : t]:
            for _, step in group:
                (register, unitary), *rest = {id(self.clusters[q]): self.clusters[q] for q in step.qubits}.values()
                for more, other in rest:
                    register, unitary = register + more, np.kron(other, unitary)
                if rest:  # sort the register; qubit register[i] is axis k-1-i of the [2]*k view
                    k = len(register)
                    axes = [k - 1 - i for i in sorted(range(k), key=register.__getitem__, reverse=True)]
                    unitary = unitary.reshape([2] * 2 * k).transpose(axes + [k + a for a in axes]).reshape(unitary.shape)
                    register = tuple(sorted(register))
                local = {q: i for i, q in enumerate(register)}
                unitary = _apply_small(_small_matrix(step), tuple(local[q] for q in step.qubits), unitary, len(local))
                self.clusters.update(dict.fromkeys(register, (register, unitary)))
        self.boundary = max(self.boundary, t)

    def unitary(self, t: int, qubit: int) -> tuple[tuple[int, ...], np.ndarray]:
        """Register and W, with U^dagger sigma U = (W^dagger sigma W) x I for sigma on ``qubit``."""
        self._advance(t)
        cluster = self.clusters[qubit]
        whole = sum(1 << q for q in cluster[0])
        frontier, path = 1 << qubit, []
        while t and frontier != whole and (t, frontier) not in self.nodes:
            gates = [(mask, step) for mask, step in self.groups[t - 1] if mask & frontier]
            path.append((t, frontier, gates))
            for mask, _ in gates:
                frontier |= mask
            t -= 1
        if frontier == whole:
            return cluster
        register, unitary, below = self.nodes.get((t, frontier)) or (_qubits(frontier), np.eye(2 ** frontier.bit_count()), ())
        local = {q: i for i, q in enumerate(register)}
        rise = [(t, frontier, [])] + path[::-1]
        keys = list(below)
        for i, (s, f, gates) in enumerate(rise):
            for _, step in gates:
                unitary = _apply_small(_small_matrix(step), tuple(local[q] for q in step.qubits), unitary, len(local))
            if i + 1 == len(rise) or rise[i + 1][1] != f:
                self.nodes[s, f] = register, unitary, tuple(keys)
                keys.append((s, f))
        self.kept[qubit] = keys
        live = {key for kept in self.kept.values() for key in kept}
        for key in self.nodes.keys() - live:
            del self.nodes[key]
        return register, unitary


def _on_register(op: PauliSum, register: tuple[int, ...]) -> PauliSum:
    """``op`` read on ``register``: bit i of each key is bit register[i] of the old key.

    A stretch of consecutive qubits is read with one shift, and a register
    of all the qubits in order leaves ``op`` as it is.
    """
    if register == tuple(range(op.n_qubits)):
        return op
    runs = []  # (shift, width mask, position)
    for i, q in enumerate(register):
        if runs and q == runs[-1][0] + runs[-1][1].bit_length():
            shift, width, position = runs[-1]
            runs[-1] = shift, width << 1 | 1, position
        else:
            runs.append((q, 1, i))
    terms = {
        (sum((x >> a & w) << b for a, w, b in runs), sum((z >> a & w) << b for a, w, b in runs)): c
        for (x, z), c in op._terms.items()
    }
    return PauliSum._from_dict(len(register), terms)


def _site_matrix_devs(cones: _LightCones, t: int, qubit: int, descriptor: Descriptor) -> list[float]:
    """Matrix deviation of each component of ``qubit``'s ``descriptor`` at boundary ``t``.

    Both sides are built on the site's register R: the light cone, then the
    qubits where only the engine's components act, on which W acts as the
    identity.  Without those qubits a wrong term off the cone would not be
    compared against the identity there.  (A x I) - (B x I) has the entries
    of A - B, so the deviation on R is the full register's.
    """
    cone, unitary = cones.unitary(t, qubit)
    extra = _support_mask(*descriptor.triple) & ~sum(1 << q for q in cone)
    register = cone + _qubits(extra)
    if extra:
        unitary = np.kron(np.eye(2 ** extra.bit_count()), unitary)
    devs = []
    for comp, op in zip(COMPONENTS, descriptor.triple):
        conjugated = _conjugated(unitary, register.index(qubit), comp.upper())
        devs.append(float(np.max(np.abs(expand(_on_register(op, register)) - conjugated))))
    return devs


def cross_check(trace: Trace, circuit: Circuit) -> CrossCheckReport:
    """Compare the engine trace against both dense routes.

    For every slot, qubit, and component this measures the gap between the
    engine's vacuum expectation and the evolved state's expectation, and
    between the dense engine operator and the conjugated bare Pauli.  Both
    maxima should sit at numerical noise.  The matrix gap of a site is
    taken on its causal register (see :func:`_site_matrix_devs`), and
    carried over from the previous boundary when no gate of the previous
    slot touched its qubit and its engine descriptor is the same object;
    every expectation gap is computed afresh.
    """
    states = evolve_state(circuit)
    if len(states) != len(trace):
        raise ValueError("trace and circuit disagree on slot count")
    n = circuit.n_qubits
    if trace[0].n_qubits != n:
        raise ValueError(f"trace has {trace[0].n_qubits} qubits, circuit has {n}")
    groups = circuit.slot_groups()
    cones = _LightCones(circuit)
    mat_devs: dict[int, list[float]] = {}
    max_exp = 0.0
    max_mat = 0.0
    worst = {"slot": 0, "qubit": 0, "component": "x"}
    for t, (state, psi) in enumerate(zip(trace, states)):
        touched = {q for step in groups[t - 1] for q in step.qubits} if t else set()
        for q in range(n):
            d = state.descriptor(q)
            if t == 0 or q in touched or d is not trace[t - 1].descriptor(q):
                mat_devs[q] = _site_matrix_devs(cones, t, q, d)
            for comp, op, mat_dev in zip(COMPONENTS, d.triple, mat_devs[q]):
                dev = abs(vacuum_expectation(op) - state_expectation(psi, q, comp.upper()))
                if max(dev, mat_dev) > max(max_exp, max_mat):
                    worst = {"slot": t, "qubit": q, "component": comp}
                max_exp = max(max_exp, dev)
                max_mat = max(max_mat, mat_dev)
    return CrossCheckReport(max_exp, max_mat, worst)
