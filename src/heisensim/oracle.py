"""Dense test reference: state vectors, dense operators and generic conjugation.

The exponentially sized route that the tests hold the engine and the
back-propagation check of :mod:`heisensim.check` against, which re-exports
its ``cross_check`` here.  :func:`expand` scatters the signed rows of every
term, P|c> = i^{#Y} (-1)^{popcount(c & z)} |c ^ x> for P = i^{#Y} X^x Z^z;
:func:`_walk` applies each gate, the check's matrix as an ``np.array``, by
one ``np.tensordot`` on the [2]*n view of a state or of the identity.  The
gates are real, so U stays real orthogonal and each conjugation U^T (sigma
U) is one real product; a Y component is i times a real matrix.

Bit convention, fixed project-wide: basis index bit k holds qubit k's value
(qubit 0 is the least significant bit), and bit value 0 is the +1
eigenstate of Z.  The dense route is capped at :data:`SIZE_CAP` qubits.
"""
from __future__ import annotations

from itertools import islice

import numpy as np

from .check import CrossCheckReport, _gate_matrix, cross_check
from .engine import COMPONENTS, Circuit
from .pauli import _I_POWERS, PauliSum, _integer, _term_masks

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

# Bytes of dense matrices :func:`conjugate_descriptor` may hold at once.
_CONJUGATE_BYTES = 1 << 30


def _check_cap(n_qubits: int, cap: int):
    if n_qubits > cap:
        raise ValueError(f"dense route capped at {cap} qubits, got {n_qubits}")


def expand(a: PauliSum) -> np.ndarray:
    """Dense matrix of ``a``, bit q of the basis index on qubit q.

    One ``np.add.at`` scatters the signed rows of all terms, in dict order.
    """
    _check_cap(a.n_qubits, SIZE_CAP)
    terms = _term_masks(a)
    x = np.array([x for x, _, _ in terms], dtype=np.int64)
    z = np.array([z for _, z, _ in terms], dtype=np.int64)
    cols = np.arange(2 ** a.n_qubits)
    signs = np.where(np.bitwise_count(cols & z[:, None]) & 1, -1, 1)
    phases = np.array(_I_POWERS)[np.bitwise_count(x & z) % 4]
    coeffs = np.array([c for _, _, c in terms], dtype=complex) * phases
    out = np.zeros((len(cols), len(cols)), dtype=complex)
    np.add.at(out, (cols ^ x[:, None], cols), coeffs[:, None] * signs)
    return out


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
    """Yield ``array`` at every boundary t = 0..max_slot+1, with the gates of slots 0..t-1 applied.

    ``array`` is a state (2**n,) or a stack of columns (2**n, m); each slot's
    gates are applied in list order, each once.
    """
    yield array
    for group in circuit.slot_groups():
        for step in group:
            array = _apply_small(np.array(_gate_matrix(step)), step.qubits, array, circuit.n_qubits)
        yield array


def evolve_state(circuit: Circuit, cap: int = SIZE_CAP) -> list[np.ndarray]:
    """State vector at every slot boundary, starting from the all-zeros state."""
    _check_cap(circuit.n_qubits, _integer(cap))
    psi = np.zeros(2 ** circuit.n_qubits, dtype=complex)
    psi[0] = 1.0
    states = []
    for psi in _walk(circuit, psi):
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
    matrix whose rows are indexed by the basis.
    """
    rows = np.arange(array.shape[0]) ^ x
    return np.where(rows & z, -1, 1).reshape(rows.shape + (1,) * (array.ndim - 1)) * array[rows]


def _conjugated(total: np.ndarray, qubit: int, letter: str) -> np.ndarray:
    """U^dagger sigma U for a real U: one product, real unless the letter is Y."""
    product = total.T @ _pauli_rows(total, *_masks(qubit, letter))
    return 1j * product if letter == "Y" else product


def conjugate_descriptor(circuit: Circuit, upto_slot: int) -> list[dict[str, np.ndarray]]:
    """Dense descriptor triples at boundary ``upto_slot`` via conjugation.

    Returns one ``{"x": matrix, "y": ..., "z": ...}`` per qubit, each equal
    to U^dagger sigma U for the ordered product U of all gates in slots
    0..upto_slot-1.  It holds 3n + 1 complex 2^n x 2^n matrices at once, and
    refuses with ValueError, before it allocates, when they pass 1 GiB (from
    n = 11).
    """
    n = circuit.n_qubits
    _check_cap(n, SIZE_CAP)
    if (size := (3 * n + 1) * 16 << 2 * n) > _CONJUGATE_BYTES:
        raise ValueError(f"dense conjugation on {n} qubits needs {size} bytes, over the {_CONJUGATE_BYTES}-byte limit")
    if not 0 <= (upto_slot := _integer(upto_slot)) <= circuit.max_slot + 1:
        raise IndexError(f"boundary {upto_slot} out of range (0..{circuit.max_slot + 1})")
    total = next(islice(_walk(circuit, np.eye(2 ** n)), upto_slot, None))
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
    row = _pauli_rows(psi, *_masks(qubit, letter))
    return float(np.vdot(psi, 1j * row if letter == "Y" else row).real)
