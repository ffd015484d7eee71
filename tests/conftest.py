import random

import numpy as np
import pytest

import heisensim as hs
from heisensim import oracle, pauli
from heisensim.pauli import DEFAULT_TOLERANCE

R, A, S, B, U_R, U_A, W_S, W_B = range(8)

# The four single-qubit Pauli matrices, for building dense references in tests.
LETTER_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def term(coeff, letters=()):
    """The ``((x, z), coeff)`` term of ``PauliSum`` for ``coeff`` times ``{qubit: letter}``."""
    x = z = 0
    for q, letter in dict(letters).items():
        xb, zb = _BITS[letter]
        x, z = x | xb << q, z | zb << q
    return (x, z), coeff


def canonical_terms(a):
    """``(coeff, {qubit: letter})`` per term of ``a`` in canonical order, read off ``to_json``."""
    return [(complex(*t["coeff"]), {int(q): v for q, v in t["letters"].items()}) for t in a.to_json()]


def allclose(a, b, tol=DEFAULT_TOLERANCE):
    """Every coefficient of ``a`` and ``b`` agrees to ``tol``, compared key by key
    on the operands themselves: ``a - b`` would drop differences below 1e-12."""
    keys = a._terms.keys() | b._terms.keys()
    return a.n_qubits == b.n_qubits and all(abs(a._terms.get(k, 0j) - b._terms.get(k, 0j)) <= tol for k in keys)


def commutes(a, b, tol=DEFAULT_TOLERANCE):
    """[a, b] vanishes to ``tol``; disjoint supports commute exactly."""
    return not (a.support & b.support) or allclose(a @ b, b @ a, tol)


def gate_unitary(step, n_qubits):
    """Full 2^n x 2^n unitary of one gate: the oracle's own walk and embedding
    carry the identity across a one-gate circuit, so tests of it pin the
    oracle's tensor-axis mapping."""
    *_, unitary = oracle._walk(hs.Circuit(n_qubits, (step,)), np.eye(2 ** n_qubits, dtype=complex))
    return unitary


@pytest.fixture
def every_product_vectorised(monkeypatch):
    """Every Pauli product on at most 31 qubits runs in the numpy kernel, however few its term pairs."""
    monkeypatch.setattr(pauli, "_CROSSOVER", 0)


@pytest.fixture(scope="session")
def fr_circuit():
    return hs.preset_fr()


@pytest.fixture(scope="session")
def fr_trace(fr_circuit):
    return hs.run_circuit(fr_circuit)


@pytest.fixture(scope="session")
def fr_states(fr_circuit):
    return hs.evolve_state(fr_circuit)


@pytest.fixture(scope="session")
def fr_crosscheck(fr_trace, fr_circuit):
    return hs.cross_check(fr_trace, fr_circuit)


@pytest.fixture(scope="session")
def fr_watch(fr_circuit):
    return hs.default_watch_pairs(fr_circuit)


@pytest.fixture(scope="session")
def fr_timeline(fr_trace, fr_watch):
    return hs.foliation_timeline(fr_trace, fr_watch)


def chain(k: int) -> hs.Circuit:
    """The fr protocol on k labs of two qubits each, recorded by 2k outside agents.

    Lab i holds qubits (2i, 2i+1): 2i is the system, 2i+1 its memory.  Lab 0
    prepares qubit 0 with ``ry(FR_ANGLE)`` and measures it (slots 0 and 1);
    lab i >= 1 receives its system from the previous memory through a
    controlled-Hadamard and measures it (slots 2i and 2i+1).  Then every lab
    takes a Bell-basis measurement (slots 2k and 2k+1), and qubit j's outcome
    is recorded into agent 2k+j (slot 2k+2).  ``chain(2)`` is the fr preset.
    """
    steps = [hs.ry(0, hs.FR_ANGLE, slot=0), hs.cx(0, 1, slot=1)]
    for i in range(1, k):
        steps += [hs.ch(2 * i - 1, 2 * i, slot=2 * i), hs.cx(2 * i, 2 * i + 1, slot=2 * i + 1)]
    steps += [hs.cx(2 * i, 2 * i + 1, slot=2 * k) for i in range(k)]
    steps += [hs.h(2 * i, slot=2 * k + 1) for i in range(k)]
    steps += [hs.cx(j, 2 * k + j, slot=2 * k + 2) for j in range(2 * k)]
    return hs.Circuit(4 * k, tuple(steps))


def random_circuit(rng: random.Random, n_qubits: int, n_gates: int) -> hs.Circuit:
    """One gate per slot, kinds weighted to keep term growth moderate."""
    steps = []
    for slot in range(n_gates):
        kind = rng.choices(("ry", "h", "cx", "ch"), weights=(35, 20, 30, 15))[0]
        if kind == "ry":
            steps.append(hs.ry(rng.randrange(n_qubits), rng.uniform(0, 6.283), slot=slot))
        elif kind == "h":
            steps.append(hs.h(rng.randrange(n_qubits), slot=slot))
        else:
            c, t = rng.sample(range(n_qubits), 2)
            step = hs.cx(c, t, slot=slot) if kind == "cx" else hs.ch(c, t, slot=slot)
            steps.append(step)
    return hs.Circuit(n_qubits, tuple(steps))


def random_parallel_circuit(rng: random.Random, n_qubits: int, n_slots: int) -> hs.Circuit:
    """Several gates per slot on disjoint qubits, with some qubits left idle."""
    steps = []
    for slot in range(n_slots):
        free = rng.sample(range(n_qubits), n_qubits)
        while free:
            kind = rng.choices(("idle", "ry", "h", "cx", "ch"), weights=(20, 35, 20, 30, 15))[0]
            if kind == "idle" or (kind in ("cx", "ch") and len(free) < 2):
                free.pop()
            elif kind == "ry":
                steps.append(hs.ry(free.pop(), rng.uniform(0, 6.283), slot=slot))
            elif kind == "h":
                steps.append(hs.h(free.pop(), slot=slot))
            else:
                c, t = free.pop(), free.pop()
                steps.append(hs.cx(c, t, slot=slot) if kind == "cx" else hs.ch(c, t, slot=slot))
    return hs.Circuit(n_qubits, tuple(steps))
