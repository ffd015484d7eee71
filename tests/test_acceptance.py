"""Acceptance suite for the bundled eight-qubit preset and the engine at large.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per check.

The S,B projection cells at (3,4) and (4,5) are (2/3, 1/3).  After lab 1
(slot 2) the (R, A, S) register is (|000> + |110> + |111>)/sqrt(3), the
three-branch profile pinned by ``test_state_profile_after_lab_one``; bit 0
is the +1 eigenstate of Z, so S sits in its +1 branch with weight 2/3.  In
slots 3 and 4 S is only ever a control, so its z-marginal is unchanged.
Both cells are derived from the same constants as that profile check, so
the two pins cannot drift apart.  Earlier versions of this table held
(1/3, 2/3) there: the weight of S's |1> branch, as read off the FR
narrative's spin labels (heads prepares a down spin with weight 2/3) with
up taken as +1.  This circuit sends heads to |0>, the +1 of Z.
"""
import importlib
import json
import math
import pkgutil
import random
from pathlib import Path

import numpy as np
import pytest

import heisensim as hs
from heisensim.cli import render_table
from heisensim.engine import trace_json_doc
from heisensim.foliation import NON_SHARP, SHARP, ZeroWeightBranch, tree_to_dot
from heisensim.oracle import evolve_state, state_expectation
from heisensim.pauli import PauliSum, vacuum_expectation

from conftest import LETTER_MATRICES, A, B, R, S, U_A, U_R, W_B, W_S, chain, gate_unitary, random_circuit
from conftest import allclose, canonical_terms, commutes

GOLDEN = Path(__file__).parent / "golden"

TOL = 1e-9

# Three-branch profile after lab 1, as (R, A, S) bits, each of equal weight.
LAB_ONE_BRANCHES = ((0, 0, 0), (1, 1, 0), (1, 1, 1))
LAB_ONE_WEIGHT = 1 / 3

# S's branch weights (P_+1, P_-1) read off that profile: bit 0 is the +1
# eigenstate of Z, so (2/3, 1/3).  Slots 3 and 4 use S only as a control,
# so the S,B rows at (3,4) and (4,5) carry this marginal unchanged.
S_AFTER_LAB_ONE = tuple(
    sum(LAB_ONE_WEIGHT for branch in LAB_ONE_BRANCHES if branch[2] == bit)
    for bit in (0, 1)
)

# interval, parties, verdict, (proj_plus, proj_minus) -- one row per gate
REFERENCE_ROWS = [
    ((0, 1), "-", "-", None),
    ((1, 2), "R,A", "Sharp", (1 / 3, 2 / 3)),
    ((2, 3), "A,S", "Non-sharp", (1 / 3, 2 / 3)),
    ((3, 4), "S,B", "Sharp", S_AFTER_LAB_ONE),
    ((4, 5), "R,A", "Non-sharp", (1 / 3, 2 / 3)),
    ((4, 5), "S,B", "Non-sharp", S_AFTER_LAB_ONE),
    ((5, 6), "R,A", "Non-sharp", (5 / 6, 1 / 6)),
    ((5, 6), "S,B", "Non-sharp", (5 / 6, 1 / 6)),
    ((6, 7), "R,U_R", "Sharp", (5 / 6, 1 / 6)),
    ((6, 7), "A,U_A", "Sharp", (1.0, 0.0)),
    ((6, 7), "S,W_S", "Sharp", (5 / 6, 1 / 6)),
    ((6, 7), "B,W_B", "Sharp", (1.0, 0.0)),
]


@pytest.fixture(scope="module")
def fr_rows(fr_circuit, fr_trace, fr_watch):
    return hs.report_rows(fr_circuit, hs.foliation_timeline(fr_trace, fr_watch, TOL))


# -- 1: summary-table reproduction --------------------------------------------


def test_report_verdict_sequence(fr_rows):
    assert [row.verdict for row in fr_rows] == [r[2] for r in REFERENCE_ROWS]
    assert [row.parties for row in fr_rows] == [r[1] for r in REFERENCE_ROWS]
    assert [row.interval for row in fr_rows] == [r[0] for r in REFERENCE_ROWS]


@pytest.mark.parametrize(
    "index,reference",
    [(i, row) for i, row in enumerate(REFERENCE_ROWS) if row[3] is not None],
    ids=[f"{row[0]}-{row[1]}" for row in REFERENCE_ROWS if row[3] is not None],
)
def test_report_projections(fr_rows, index, reference):
    row = fr_rows[index]
    assert row.proj is not None
    assert abs(row.proj[0] - reference[3][0]) <= TOL
    assert abs(row.proj[1] - reference[3][1]) <= TOL


# -- 2: preparation rotation ---------------------------------------------------


def test_preparation_rotation(fr_trace):
    z_mean = vacuum_expectation(fr_trace[1].descriptor(R).z)
    assert abs(z_mean - (-1 / 3)) <= TOL
    c, s = math.cos(hs.FR_ANGLE), math.sin(hs.FR_ANGLE)
    assert abs(c * c + s * s - 1.0) <= 1e-12


# -- 3: interference bubble ------------------------------------------------------


def test_interference_bubble(fr_trace):
    state = fr_trace[3]
    zz = vacuum_expectation(state.descriptor(A).z @ state.descriptor(S).z)
    assert abs(zz - 1 / 3) <= TOL
    assert hs.entangled(state, A, S).entangled
    assert hs.sharp_foliation(state, A, S).verdict == NON_SHARP


# -- 4: conditional sharpness ----------------------------------------------------


def test_conditional_branch_sharpness(fr_trace):
    def assert_sharp_conditionals(t, control, target, signs):
        state = fr_trace[t]
        for sign in signs:
            value = hs.conditional_expectation(state, target, "z", control, sign)
            assert abs(value - sign) <= TOL

    assert_sharp_conditionals(2, R, A, (1, -1))
    assert_sharp_conditionals(4, S, B, (1, -1))
    assert_sharp_conditionals(7, R, U_R, (1, -1))
    assert_sharp_conditionals(7, S, W_S, (1, -1))
    # the deterministic records only ever have a +1 branch
    assert_sharp_conditionals(7, A, U_A, (1,))
    assert_sharp_conditionals(7, B, W_B, (1,))
    for control, target in ((A, U_A), (B, W_B)):
        with pytest.raises(ZeroWeightBranch):
            hs.conditional_expectation(fr_trace[7], target, "z", control, -1)


# -- 5: state-vector cross-check ---------------------------------------------------


def test_state_profile_after_lab_one(fr_states):
    probs = np.abs(fr_states[3]) ** 2
    marginal = {}
    for idx, p in enumerate(probs):
        key = ((idx >> R) & 1, (idx >> A) & 1, (idx >> S) & 1)
        marginal[key] = marginal.get(key, 0.0) + p
    for key in LAB_ONE_BRANCHES:
        assert abs(marginal.pop(key) - LAB_ONE_WEIGHT) <= TOL
    assert all(p <= TOL for p in marginal.values())


def _assert_engine_means_match_states(trace, states, tol):
    # every component's vacuum value against the evolved state's expectation, at every boundary
    assert len(trace) == len(states)
    for state, psi in zip(trace, states):
        for d in state.descriptors:
            for comp, op in zip("XYZ", d.triple):
                assert abs(vacuum_expectation(op) - state_expectation(psi, d.qubit, comp)) <= tol


def test_engine_matches_state_vector_everywhere(fr_trace, fr_states, fr_crosscheck):
    _assert_engine_means_match_states(fr_trace, fr_states, TOL)
    assert fr_crosscheck.max_expectation_dev <= TOL
    assert fr_crosscheck.max_matrix_dev <= TOL


# -- 6: algebra preservation on random circuits -------------------------------------


class _CachedExpander:
    """Per-register string-matrix cache so repeated expands stay cheap."""

    def __init__(self, n_qubits):
        self.n = n_qubits
        self.cache = {}

    def __call__(self, a: PauliSum) -> np.ndarray:
        out = np.zeros((2 ** self.n, 2 ** self.n), dtype=complex)
        for coeff, letters in canonical_terms(a):
            key = tuple(letters.items())
            mat = self.cache.get(key)
            if mat is None:
                mat = np.array([[1]], dtype=complex)
                for k in range(self.n):
                    mat = np.kron(LETTER_MATRICES[letters.get(k, "I")], mat)
                self.cache[key] = mat
            out += coeff * mat
        return out


def _check_descriptor_algebra(state, qubit, ident):
    d = state.descriptor(qubit)
    x, y, z = d.x, d.y, d.z
    assert allclose(x @ x, ident, TOL)
    assert allclose(y @ y, ident, TOL)
    assert allclose(z @ z, ident, TOL)
    assert allclose(x @ y, z * 1j, TOL)
    assert allclose(y @ z, x * 1j, TOL)
    assert allclose(z @ x, y * 1j, TOL)
    p_plus = hs.projector(state, qubit, +1)
    p_minus = hs.projector(state, qubit, -1)
    assert allclose(p_plus + p_minus, ident, TOL)
    assert allclose(p_plus @ p_plus, p_plus, TOL)
    assert allclose(p_plus @ p_minus, PauliSum(ident.n_qubits), TOL)


def _check_circuit(circuit):
    trace = hs.run_circuit(circuit)
    n = circuit.n_qubits
    ident = PauliSum.identity(n)
    expander = _CachedExpander(n)
    sigma = {
        (q, comp): expander(PauliSum.single(n, q, letter))
        for q in range(n)
        for comp, letter in (("x", "X"), ("y", "Y"), ("z", "Z"))
    }
    by_slot = {}
    for step in circuit.steps:
        by_slot.setdefault(step.slot, []).append(step)

    total_u = np.eye(2 ** n, dtype=complex)
    commutation_seen = set()
    for t, state in enumerate(trace):
        if t > 0:
            for step in by_slot.get(t - 1, ()):
                total_u = gate_unitary(step, n) @ total_u
            touched = {q for step in by_slot.get(t - 1, ()) for q in step.qubits}
        else:
            touched = set(range(n))
        # algebra + branch projectors: descriptors unchanged since the last
        # slot are the same objects and have already been checked
        for q in touched:
            _check_descriptor_algebra(state, q, ident)
        # cross-qubit commutation, memoised on object identity
        for q1 in range(n):
            for q2 in range(q1 + 1, n):
                for c1 in "xyz":
                    for c2 in "xyz":
                        a = state.descriptor(q1).component(c1)
                        b = state.descriptor(q2).component(c2)
                        key = (id(a), id(b))
                        if key in commutation_seen:
                            continue
                        commutation_seen.add(key)
                        assert commutes(a, b, TOL)
        # dense conjugation agreement for the touched descriptors
        for q in touched:
            for comp in "xyz":
                engine_mat = expander(state.descriptor(q).component(comp))
                dense = total_u.conj().T @ sigma[(q, comp)] @ total_u
                assert np.max(np.abs(engine_mat - dense)) <= TOL


def test_random_circuit_algebra_preservation():
    rng = random.Random(20250810)
    for i in range(100):
        n = rng.choice((2, 2, 3, 3, 4))
        circuit = random_circuit(rng, n, rng.randint(4, 12))
        _check_circuit(circuit)


# -- 7: golden outputs ------------------------------------------------------------


def _current_outputs(fr_circuit, fr_trace, fr_watch):
    timeline = hs.foliation_timeline(fr_trace, fr_watch)
    report = render_table(hs.report_rows(fr_circuit, timeline))
    trace_doc = json.dumps(trace_json_doc(fr_circuit, fr_trace), indent=2) + "\n"
    tree = hs.build_branch_tree(fr_circuit, timeline)
    dot = tree_to_dot(tree)
    return report, trace_doc, dot


def test_outputs_stable_across_runs(fr_circuit, fr_watch):
    first = _current_outputs(fr_circuit, hs.run_circuit(fr_circuit), fr_watch)
    second = _current_outputs(fr_circuit, hs.run_circuit(fr_circuit), fr_watch)
    assert first == second


def test_golden_report(fr_circuit, fr_trace, fr_watch):
    report, _, _ = _current_outputs(fr_circuit, fr_trace, fr_watch)
    assert report == (GOLDEN / "fr_report.txt").read_text()


def test_golden_trace(fr_circuit, fr_trace, fr_watch):
    _, trace_doc, _ = _current_outputs(fr_circuit, fr_trace, fr_watch)
    assert trace_doc == (GOLDEN / "fr_trace.json").read_text()


def test_golden_tree(fr_circuit, fr_trace, fr_watch):
    _, _, dot = _current_outputs(fr_circuit, fr_trace, fr_watch)
    assert dot == (GOLDEN / "fr_tree.dot").read_text()


def test_golden_outputs_with_every_product_vectorised(fr_circuit, fr_watch, every_product_vectorised):
    # every fr product is below the crossover, so only here do its products run in the kernel
    outputs = _current_outputs(fr_circuit, hs.run_circuit(fr_circuit), fr_watch)
    assert outputs == tuple((GOLDEN / name).read_text() for name in ("fr_report.txt", "fr_trace.json", "fr_tree.dot"))


# -- 8: the protocol on k labs ---------------------------------------------------------


def test_chain_of_two_labs_is_the_fr_preset():
    assert chain(2).steps == hs.get_preset("fr").steps


@pytest.fixture(scope="module", params=range(1, 9), ids=lambda k: f"k{k}")
def chain_trace(request):
    return request.param, hs.run_circuit(chain(request.param))


def test_chain_memory_weights(chain_trace):
    # Memory 1 reads R's +1 branch, of weight cos^2(FR_ANGLE / 2) = 1/3.  Lab i's
    # system is |0> on the previous memory's +1 branch and |+> on its -1 branch,
    # so w_i = w_(i-1) + (1 - w_(i-1))/2 and 1 - w_i = (2/3) 2^-i, after the labs
    k, trace = chain_trace
    for i in range(k):
        weight = vacuum_expectation(hs.projector(trace[2 * k], 2 * i + 1, +1))
        assert abs(weight - (1 - 2 / 3 * 2.0 ** -i)) <= 1e-12


def test_chain_records_end_sharp(chain_trace):
    # the Bell stage's cx returns each memory to |0>, which its record copies
    k, trace = chain_trace
    for i in range(k):
        report = hs.sharp_foliation(trace[-1], 2 * i + 1, 2 * k + 2 * i + 1)
        assert report.verdict == SHARP
        assert abs(report.proj_plus - 1) <= 1e-12 and abs(report.proj_minus) <= 1e-12


@pytest.mark.parametrize("k", [2, 3])
def test_chain_tree_events(k):
    # each memory's cx creates a sharp pair, each ch opens a bubble, the Bell
    # stage diffuses every lab, and the records create 2k sharp pairs
    expected = [(2 * i + 2, (2 * i, 2 * i + 1), "created-sharp") for i in range(k)]
    expected += [(2 * i + 1, (2 * i - 1, 2 * i), "non-sharp-bubble") for i in range(1, k)]
    expected += [(2 * k + 1, (2 * i, 2 * i + 1), "diffused") for i in range(k)]
    expected += [(2 * k + 3, (j, 2 * k + j), "created-sharp") for j in range(2 * k)]
    circuit = chain(k)
    timeline = hs.foliation_timeline(hs.run_circuit(circuit), hs.default_watch_pairs(circuit))
    nodes = hs.build_branch_tree(circuit, timeline).nodes[1:]  # past the trunk
    assert sorted((n.slot, n.pair, n.kind) for n in nodes) == sorted(expected)


def test_chain_of_three_labs_matches_state_vector():
    circuit = chain(3)
    trace = hs.run_circuit(circuit)
    _assert_engine_means_match_states(trace, evolve_state(circuit), 1e-12)
    report = hs.cross_check(trace, circuit)
    assert report.max_expectation_dev <= 1e-12
    assert report.max_matrix_dev <= 1e-12


def test_chain_of_three_labs_final_system_weights():
    # the +1 weights of systems 0, 2 and 4 at the last boundary, by the engine and by the
    # state vector; the middle one is no multiple of a sixth, and format_weight prints 0.735702
    expected = {0: 5 / 6, 2: 1 / 2 + math.sqrt(2) / 6, 4: 2 / 3}
    circuit = chain(3)
    final = hs.run_circuit(circuit)[-1]
    psi = evolve_state(circuit)[-1]
    basis = np.arange(len(psi))
    for q, weight in expected.items():
        assert abs(vacuum_expectation(hs.projector(final, q, +1)) - weight) <= 1e-12
        assert abs(np.sum(np.abs(psi[basis >> q & 1 == 0]) ** 2) - weight) <= 1e-12


# -- 9: public names ------------------------------------------------------------------


@pytest.mark.parametrize(
    "module", ["heisensim"] + [f"heisensim.{m.name}" for m in pkgutil.iter_modules(hs.__path__)]
)
def test_exported_names_resolve_once(module):
    # a stale entry would otherwise surface only as a broken star import
    exported = importlib.import_module(module).__all__
    assert len(exported) == len(set(exported))
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(exported) <= namespace.keys()
