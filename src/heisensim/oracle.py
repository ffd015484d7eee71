"""Dense-matrix validation route: state vectors and generic conjugation.

Everything here is the straightforward (exponentially sized) reference
implementation used to cross-check the sparse descriptor engine: dense
expansion of operators, Schrodinger state evolution, and descriptor
construction by conjugating bare Pauli matrices with the accumulated
circuit unitary.

A Pauli string P = i^{#Y} X^x Z^z is a signed permutation,
P|c> = i^{#Y} (-1)^{popcount(c & z)} |c ^ x>: one signed-row rule, which
:func:`_pauli_rows` applies to a state or a unitary for one single-qubit
Pauli or a stack of them, and :func:`_scatter` to all terms of a few
operators at once on any register, with each term's masks x and z as
``pauli`` hands them out already moved onto the register's bits, in dict
order; :func:`expand` checks its register and scatters one operator.  A
gate is applied by one ``np.tensordot`` on the [2]*n view.  Every gate kind
(``ry``, ``h``, ``cx``, ``ch``) has a real matrix, so the accumulated
unitary U stays real orthogonal and each conjugation U^T (sigma U) is one
real product; a Y component is i times a real matrix.

One walk, :func:`_walk`, applies every gate.  It carries blocks of qubits
across the slot boundaries, each block's product on its own register, each
gate applied once, and each qubit's past light cone as a mask.
:func:`evolve_state` and :func:`conjugate_descriptor` walk one block that
holds every qubit, a state vector or the identity.  :func:`cross_check`
zips the state walk with the trace and with a walk that starts from one
identity block per qubit, so its blocks are the clusters the gates have
joined.  A descriptor changes only through the gates of its past light
cone (Deutsch & Hayden, quant-ph/9906007), so each site is conjugated on
its cone plus the engine operator's support, read off its cluster's
product by the slab rule of :func:`_site_matrix_devs`.  Each boundary's
state gives all 3n one-point values in one gather, and each fresh site
scatters its three engine components at once.  A site whose qubit
no gate of the previous slot touched, and whose engine descriptor is the
very object of the previous boundary, keeps its previous matrix deviations
and engine means: for a gate G acting off q, G^dagger sigma_q G = sigma_q
exactly.

Bit convention, fixed project-wide: basis index bit k holds qubit k's value
(qubit 0 is the least significant bit), and bit value 0 is the +1
eigenstate of Z.  The dense route is capped at :data:`SIZE_CAP` qubits;
it exists for desk-scale validation, not performance.
"""
from __future__ import annotations

import math
from functools import reduce
from itertools import islice
from typing import NamedTuple

import numpy as np

from .engine import COMPONENTS, Circuit, Descriptor, GateStep, Trace
from .pauli import _I_POWERS, PauliSum, _integer, _register_masks, _support_mask, vacuum_expectation

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


def _check_cap(n_qubits: int, cap: int):
    if n_qubits > cap:
        raise ValueError(f"dense route capped at {cap} qubits, got {n_qubits}")


def expand(a: PauliSum, register: tuple[int, ...] | None = None) -> np.ndarray:
    """Dense matrix of ``a`` with bit i of the basis index on qubit ``register[i]``.

    The default register is every qubit in order; any other lists distinct
    qubits of ``a``, each qubit where ``a`` acts among them.
    """
    register = tuple(range(a.n_qubits) if register is None else map(_integer, register))
    width, mask = len(register), sum(1 << q for q in register if 0 <= q < a.n_qubits)
    _check_cap(width, SIZE_CAP)
    if mask.bit_count() != width or _support_mask(a) & ~mask:
        raise ValueError(
            f"register {register} repeats a qubit, names one outside the operator or misses one where it acts"
        )
    return _scatter((a,), register)[0]


def _scatter(ops: tuple[PauliSum, ...], register: tuple[int, ...]) -> np.ndarray:
    """Dense matrices of ``ops``, stacked, on a register that holds every qubit where they act.

    One ``np.add.at`` scatters the signed rows of all terms, each operator's in dict order.
    """
    terms = [term for op in ops for term in _register_masks(op, register)]
    which = np.repeat(np.arange(len(ops)), [len(op) for op in ops])
    x = np.array([x for x, _, _ in terms], dtype=np.int64)
    z = np.array([z for _, z, _ in terms], dtype=np.int64)
    cols = np.arange(2 ** len(register))
    signs = np.where(np.bitwise_count(cols & z[:, None]) & 1, -1, 1)
    phases = np.array(_I_POWERS)[np.bitwise_count(x & z) % 4]
    coeffs = np.array([c for _, _, c in terms], dtype=complex) * phases
    out = np.zeros((len(ops), len(cols), len(cols)), dtype=complex)
    np.add.at(out, (which[:, None], cols ^ x[:, None], cols), coeffs[:, None] * signs)
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


def _walk(circuit: Circuit, blocks: dict[int, tuple[tuple[int, ...], np.ndarray]]):
    """Yield (gates ending at t, blocks, cones) for every boundary t = 0..max_slot+1.

    ``blocks[q]`` is (register, A) for the block that holds qubit q, with bit
    i of A's basis index on qubit register[i]; A is a state (2**k,) or a stack
    of columns (2**k, m).  Each slot's gates are applied in list order, each
    once, to the block of its qubits; a gate whose qubits sit in several
    blocks first joins them with ``np.kron``.  ``cones[q]`` is q's past light
    cone as a mask: a gate sets the cone of each of its qubits to the union of
    their cones.  Both dicts are updated in place and yielded again.
    """
    cones = {q: 1 << q for q in range(circuit.n_qubits)}
    yield (), blocks, cones
    for group in circuit.slot_groups():
        for step in group:
            (register, array), *rest = {id(blocks[q]): blocks[q] for q in step.qubits}.values()
            for more, other in rest:
                register, array = register + more, np.kron(other, array)
            local = {q: i for i, q in enumerate(register)}
            array = _apply_small(_small_matrix(step), tuple(local[q] for q in step.qubits), array, len(local))
            blocks.update(dict.fromkeys(register, (register, array)))
            cones.update(dict.fromkeys(step.qubits, reduce(int.__or__, (cones[q] for q in step.qubits))))
        yield group, blocks, cones


def evolve_state(circuit: Circuit, cap: int = SIZE_CAP) -> list[np.ndarray]:
    """State vector at every slot boundary, starting from the all-zeros state."""
    _check_cap(circuit.n_qubits, _integer(cap))
    psi = np.zeros(2 ** circuit.n_qubits, dtype=complex)
    psi[0] = 1.0
    states, register = [], tuple(range(circuit.n_qubits))
    for _, blocks, _ in _walk(circuit, dict.fromkeys(register, (register, psi))):
        psi = blocks[0][1]
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > 1e-12:
            raise AssertionError(f"state norm drifted to {norm}")
        states.append(psi.copy())
    return states


def _masks(qubit: int, letter: str) -> tuple[int, int]:
    """The masks x and z of the Pauli ``letter`` on ``qubit``."""
    return int(letter != "Z") << qubit, int(letter != "X") << qubit


def _pauli_rows(array: np.ndarray, x, z) -> np.ndarray:
    """rows with sigma A = i^{#Y} rows, for the single-qubit Pauli sigma of masks x and z.

    rows[r] = (-1)^{popcount((r ^ x) & z)} A[r ^ x]; A is a state vector or a
    matrix whose rows are indexed by the basis.  Columns of masks give a stack,
    rows[k] for the k-th Pauli.  The signs multiply the gathered copy A[r ^ x],
    which is C-ordered whatever the layout of A, so the rows have the same bits
    for a C-order and an F-order A.
    """
    rows = np.arange(array.shape[0]) ^ x
    return np.where(rows & z, -1, 1).reshape(rows.shape + (1,) * (array.ndim - 1)) * array[rows]


def _conjugated(total: np.ndarray, qubit: int, letter: str) -> np.ndarray:
    """U^dagger sigma U for a real U: one product, real unless the letter is Y."""
    product = total.T @ _pauli_rows(total, *_masks(qubit, letter))
    return 1j * product if letter == "Y" else product


def _expectations(psi: np.ndarray, qubits, letters) -> list[float]:
    """<psi| sigma |psi> for the Pauli letters[k] on qubits[k], each k: one gather for all."""
    x, z = np.array([_masks(q, letter) for q, letter in zip(qubits, letters)]).T[..., None]
    rows = _pauli_rows(psi, x, z)
    return [float(np.vdot(psi, 1j * row if letter == "Y" else row).real) for letter, row in zip(letters, rows)]


def conjugate_descriptor(circuit: Circuit, upto_slot: int) -> list[dict[str, np.ndarray]]:
    """Dense descriptor triples at boundary ``upto_slot`` via conjugation.

    Returns one ``{"x": matrix, "y": ..., "z": ...}`` per qubit, each equal
    to U^dagger sigma U for the ordered product U of all gates in slots
    0..upto_slot-1.
    """
    _check_cap(circuit.n_qubits, SIZE_CAP)
    if not 0 <= (upto_slot := _integer(upto_slot)) <= circuit.max_slot + 1:
        raise IndexError(f"boundary {upto_slot} out of range (0..{circuit.max_slot + 1})")
    n, register = circuit.n_qubits, tuple(range(circuit.n_qubits))
    _, blocks, _ = next(islice(_walk(circuit, dict.fromkeys(register, (register, np.eye(2 ** n)))), upto_slot, None))
    total = blocks[0][1]
    return [{comp: _conjugated(total, q, comp.upper()).astype(complex) for comp in COMPONENTS} for q in range(n)]


def state_expectation(psi: np.ndarray, qubit: int, letter: str) -> float:
    """<psi| sigma_letter(qubit) |psi> for a single-qubit Pauli letter X, Y or Z."""
    if letter not in ("X", "Y", "Z"):
        raise ValueError(f"Pauli letter must be X, Y or Z, got {letter!r}")
    if (psi := np.asarray(psi)).ndim != 1:  # a list of amplitudes passes, as its array
        raise ValueError(f"a state is one vector of amplitudes, got an array of shape {psi.shape}")
    if len(psi) < 2 or len(psi) & (len(psi) - 1):
        raise ValueError(f"a state of {len(psi)} amplitudes is no register of qubits: the length must be 2**n, n >= 1")
    if not 0 <= (qubit := _integer(qubit)) < len(psi).bit_length() - 1:
        raise IndexError(f"qubit {qubit} is outside a state of {len(psi)} amplitudes")
    return _expectations(psi, [qubit], [letter])[0]


class CrossCheckReport(NamedTuple):
    max_expectation_dev: float
    max_matrix_dev: float
    worst_site: dict

    def to_json(self) -> dict:
        return {"format_version": 1, **self._asdict(), "worst_site": dict(self.worst_site)}


def _site_matrix_devs(cluster: tuple, cone: int, qubit: int, descriptor: Descriptor) -> list[float]:
    """Matrix deviation of each component of ``qubit``'s ``descriptor``, given its cluster and cone.

    The slab rule: V is the product on q's cluster register K, and R is q's
    cone plus the qubits where the engine's components act.  The gates of V
    off the cone commute past sigma_q, so V^T sigma_q V = X x I with X on
    R within K and I on the rest of K.  X is therefore S^T sigma_q S, where
    the slab S holds the columns of V whose basis states are 0 on K off R.
    Qubits of R outside K get I x X, so a wrong term off the cone is still
    compared against the identity there; :func:`_scatter` reads the engine
    components on the same register, all three in one stack.  (A x I) - (B x I)
    has the entries of A - B, so the deviation on R is the full register's.
    """
    register, unitary = cluster
    support = _support_mask(*descriptor.triple)
    inside = [i for i, q in enumerate(register) if (cone | support) >> q & 1]
    slab = unitary[:, np.flatnonzero((np.arange(len(unitary)) & ~sum(1 << i for i in inside)) == 0)]
    outside = [q for q in range(descriptor.x.n_qubits) if support >> q & 1 and q not in register]
    stack = _scatter(descriptor.triple, tuple(register[i] for i in inside) + tuple(outside))
    at = register.index(qubit)
    for comp, dense in zip(COMPONENTS, stack):
        conjugated = _conjugated(slab, at, comp.upper())
        if outside:
            conjugated = np.kron(np.eye(2 ** len(outside)), conjugated)
        dense -= conjugated
    return np.abs(stack).max(axis=(1, 2)).tolist()


def cross_check(trace: Trace, circuit: Circuit) -> CrossCheckReport:
    """Compare the engine trace against both dense routes.

    For every slot, qubit, and component this measures the gap between the
    engine's vacuum expectation and the evolved state's expectation, and
    between the dense engine operator and the conjugated bare Pauli; both
    should sit at numerical noise.  A site's matrix gaps come from the slab
    rule of :func:`_site_matrix_devs` and its engine means from
    ``vacuum_expectation``, or both from the previous boundary if that slot
    left its qubit and descriptor object alone.  Only a trace that does
    not fit the circuit raises: an imaginary residue is a matrix gap here,
    though a NaN one still raises ``HermiticityError``.
    """
    states = evolve_state(circuit)
    if len(states) != len(trace):
        raise ValueError("trace and circuit disagree on slot count")
    n = circuit.n_qubits
    if trace[0].n_qubits != n:
        raise ValueError(f"trace has {trace[0].n_qubits} qubits, circuit has {n}")
    sites: dict[int, tuple[list[float], list[float]]] = {}  # each qubit's matrix deviations and engine means
    max_exp = 0.0
    max_mat = 0.0
    worst = {"slot": 0, "qubit": 0, "component": "x"}
    qubits, letters = zip(*((q, comp.upper()) for q in range(n) for comp in COMPONENTS))
    walk = _walk(circuit, {q: ((q,), np.eye(2)) for q in range(n)})  # one block per qubit, joined by gates
    for t, (state, psi, (group, blocks, cones)) in enumerate(zip(trace, states, walk)):
        touched = {q for step in group for q in step.qubits}
        means = _expectations(psi, qubits, letters)
        for q in range(n):
            d = state.descriptor(q)
            if t == 0 or q in touched or d is not trace[t - 1].descriptor(q):
                engine = [vacuum_expectation(op, math.inf) for op in d.triple]
                sites[q] = _site_matrix_devs(blocks[q], cones[q], q, d), engine
            for comp, mat_dev, engine_mean, mean in zip(COMPONENTS, *sites[q], means[3 * q : 3 * q + 3]):
                dev = abs(engine_mean - mean)
                if max(dev, mat_dev) > max(max_exp, max_mat):
                    worst = {"slot": t, "qubit": q, "component": comp}
                max_exp = max(max_exp, dev)
                max_mat = max(max_mat, mat_dev)
    return CrossCheckReport(max_exp, max_mat, worst)
