"""Dense-route tests: expansions, unitaries, state evolution, cross-checks."""
import hashlib
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heisensim as hs
from heisensim import oracle
from heisensim.oracle import (
    conjugate_descriptor,
    cross_check,
    evolve_state,
    expand,
    state_expectation,
)
from heisensim.pauli import _I_POWERS, PauliSum, _lettered, _register_masks, _support_mask

from conftest import (
    LETTER_MATRICES, A, R, S, U_R, W_B, canonical_terms, gate_unitary, random_circuit, random_parallel_circuit, term,
)


def kron_chain(*mats):
    out = np.array([[1]], dtype=complex)
    for m in mats:
        out = np.kron(m, out)
    return out


# -- expand -------------------------------------------------------------------


def test_expand_identity():
    assert np.allclose(expand(PauliSum.identity(3)), np.eye(8))


def test_expand_z_on_qubit0_is_bit0_diagonal():
    mat = expand(PauliSum.single(2, 0, "Z"))
    assert np.allclose(mat, np.diag([1, -1, 1, -1]))


def test_expand_z_on_qubit1():
    mat = expand(PauliSum.single(2, 1, "Z"))
    assert np.allclose(mat, np.diag([1, 1, -1, -1]))


def test_expand_is_multiplicative():
    rng = random.Random(11)
    for _ in range(20):
        def rand_string():
            letters = {
                q: rng.choice("XYZ") for q in rng.sample(range(3), rng.randrange(4))
            }
            return term(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), letters)

        s1, s2 = rand_string(), rand_string()
        a = PauliSum(3, [s1])
        b = PauliSum(3, [s2])
        assert np.allclose(expand(a @ b), expand(a) @ expand(b), atol=1e-12)


def test_expand_linear():
    a = PauliSum.single(2, 0, "X", 0.5)
    b = PauliSum.single(2, 1, "Y", -2.0)
    assert np.allclose(expand(a + b), expand(a) + expand(b))


def test_expand_matches_kron_chain_with_y_letters():
    rng = random.Random(17)
    for n in range(1, 6):
        for _ in range(20):
            strings = []
            for _ in range(rng.randrange(1, 4)):
                letters = {q: rng.choice("XYZ") for q in rng.sample(range(n), rng.randrange(n + 1))}
                letters[rng.randrange(n)] = "Y"
                strings.append((complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), letters))
            reference = sum(
                coeff * kron_chain(*(LETTER_MATRICES[letters.get(k, "I")] for k in range(n)))
                for coeff, letters in strings
            )
            assert np.allclose(expand(PauliSum(n, [term(*s) for s in strings])), reference, rtol=0, atol=1e-15)


def test_expand_size_cap():
    with pytest.raises(ValueError):
        expand(PauliSum.identity(13))
    with pytest.raises(ValueError):
        expand(PauliSum.identity(20), tuple(range(13)))


@pytest.mark.parametrize("register", [None, (3, 0, 2, 1), (5, 1, 3, 0, 2)])
def test_expand_sums_terms_in_dict_order_bit_for_bit(register):
    # np.add.at documents no order for repeated indices.  The 16 terms of each
    # x mask hit the same entries, so only a sum in dict order gives these bits
    on = register or range(4)
    strings = [
        ((x, z), complex(math.sqrt(2 + 3 * z + x), math.pi / (1 + z + 5 * x))) for x in (5, 11) for z in range(16)
    ]
    a = PauliSum(max(on) + 1, strings)
    n = a.n_qubits
    reference = np.zeros((2 ** len(on),) * 2, dtype=complex)
    for key, coeff in a._terms.items():  # the letter of qubit q is bit n + q (x) plus twice bit q (z) of the key
        letters = ["IXZY"[(key >> n + q & 1) + 2 * (key >> q & 1)] for q in on]
        reference += coeff * kron_chain(*(LETTER_MATRICES[letter] for letter in letters))
    assert np.array_equal(expand(a, register), reference)


@pytest.mark.parametrize("register", [(39, 3, 35), (np.int64(3), 35, 39)])
def test_expand_wide_operator_on_register_bit_for_bit(register):
    # a key x << 40 | z does not fit an int64; expand reads each term's letters on the register.
    # Three terms share the x mask of qubit 3 and two that of qubits 3 and 39, so their sums show the order
    strings = [
        (complex(math.sqrt(2), 1 / 3), {3: "X", 35: "Z"}),
        (complex(-math.pi, 0.5), {3: "X"}),
        (complex(1 / 7, -math.e), {3: "X", 39: "Y"}),
        (complex(0.25, math.sqrt(7)), {35: "Y", 39: "Z"}),
        (complex(math.sqrt(3), -1 / 9), {3: "Y", 35: "Z", 39: "X"}),
        (complex(-2 / 3, math.sqrt(5)), {3: "Y"}),
        (complex(math.sqrt(11), 1 / 13), {35: "Z", 39: "Z"}),
    ]
    a = PauliSum(40, [term(coeff, letters) for coeff, letters in strings])
    reference = np.zeros((8, 8), dtype=complex)
    for coeff, letters in strings:  # distinct keys keep their input order in the dict
        reference += coeff * kron_chain(*(LETTER_MATRICES[letters.get(q, "I")] for q in register))
    assert np.array_equal(expand(a, register), reference)


def _lettered_masks(op, register):
    # the letters route: each term's letters, in dict order, mapped onto the register's bits by hand
    bit = {q: 1 << i for i, q in enumerate(register)}
    return [
        (sum(bit[q] for q, letter in letters if letter != "Z"), sum(bit[q] for q, letter in letters if letter != "X"), c)
        for letters, c in _lettered(op)
    ]


def _lettered_scatter(ops, register):
    # the letters route's scatter: the same signed rows, with masks from _lettered_masks
    terms = [(k, *t) for k, op in enumerate(ops) for t in _lettered_masks(op, register)]
    which = np.array([k for k, _, _, _ in terms], dtype=np.intp)
    x = np.array([x for _, x, _, _ in terms], dtype=np.int64)
    z = np.array([z for _, _, z, _ in terms], dtype=np.int64)
    cols = np.arange(2 ** len(register))
    signs = 1 - 2 * (np.bitwise_count(cols & z[:, None]).astype(np.int64) & 1)
    coeffs = np.array([c for _, _, _, c in terms], dtype=complex) * np.array(_I_POWERS)[np.bitwise_count(x & z) % 4]
    out = np.zeros((len(ops), len(cols), len(cols)), dtype=complex)
    np.add.at(out, (which[:, None], cols ^ x[:, None], cols), coeffs[:, None] * signs)
    return out


@st.composite
def operators_on_a_register(draw):
    """One to three operators on 1-40 qubits and a register of at most 6 of them that holds their support.

    The register is laid out as a site's: a cluster's qubits in any order,
    then qubits outside the cluster in increasing order.
    """
    n = draw(st.integers(1, 40))
    cluster = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 4), unique=True))
    rest = [q for q in range(n) if q not in cluster]  # empty when the cluster is every qubit
    outside = draw(st.lists(st.sampled_from(rest), max_size=2, unique=True)) if rest else []
    register = tuple(cluster) + tuple(sorted(outside))
    coeffs = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    strings = st.dictionaries(st.sampled_from(register), st.sampled_from("XYZ"))
    ops = draw(st.lists(st.lists(st.tuples(coeffs, strings), max_size=12), min_size=1, max_size=3))
    return tuple(PauliSum(n, [term(c, letters) for c, letters in op]) for op in ops), register


# a Y on qubit 39 of a 40-qubit operator, on a register of 3 qubits in shuffled order
@example(((PauliSum(40, [term(0.5 - 1j / 3, {39: "Y", 3: "X"}), term(1.5, {35: "Z"})]),), (35, 39, 3)))
@given(operators_on_a_register())
@settings(max_examples=200, deadline=None)
def test_register_masks_and_scatter_equal_the_letters_route_bit_for_bit(case):
    ops, register = case
    for op in ops:
        assert _register_masks(op, register) == _lettered_masks(op, register)
    stack = oracle._scatter(ops, register)
    assert stack.tobytes() == _lettered_scatter(ops, register).tobytes()
    assert expand(ops[0], register).tobytes() == stack[0].tobytes()


@pytest.mark.parametrize("register", [(0, 1, 1, 2), (2, 0), (0, 1, 3)])
def test_expand_rejects_register_that_repeats_or_misses_a_qubit(register):
    a = PauliSum(3, [term(0.5, {0: "X", 2: "Z"}), term(1.0, {1: "Y"})])
    with pytest.raises(ValueError, match="register"):
        expand(a, register)


@pytest.mark.parametrize("register", [(0, 7), (0, -1), (2, 0)], ids=["past-end", "negative", "past-end-first"])
def test_expand_rejects_register_qubit_outside_operator(register):
    with pytest.raises(ValueError, match="register .* names one outside the operator"):
        expand(PauliSum.single(2, 0, "X"), register)


# -- gate unitaries ------------------------------------------------------------


def test_hadamard_squares_to_identity():
    u = gate_unitary(hs.h(0), 2)
    assert np.allclose(u @ u, np.eye(4), atol=1e-12)


def test_rotation_zero_is_identity():
    u = gate_unitary(hs.ry(1, 0.0), 2)
    assert np.allclose(u, np.eye(4))


def test_cnot_squares_to_identity():
    u = gate_unitary(hs.cx(0, 1), 2)
    assert np.allclose(u @ u, np.eye(4))


def test_gate_unitaries_are_unitary():
    for step in (hs.ry(0, 1.234), hs.h(1), hs.cx(2, 0), hs.ch(1, 2)):
        u = gate_unitary(step, 3)
        assert np.allclose(u.conj().T @ u, np.eye(8), atol=1e-12)


def test_cnot_embedding_orientation():
    # control qubit 0 (low bit), target 1: |01> (index 1) -> |11> (index 3)
    u = gate_unitary(hs.cx(0, 1), 2)
    state = np.zeros(4, dtype=complex)
    state[1] = 1.0
    assert np.allclose(u @ state, np.eye(4)[3])
    # reversed roles: |10> (index 2) -> |11>
    u = gate_unitary(hs.cx(1, 0), 2)
    state = np.zeros(4, dtype=complex)
    state[2] = 1.0
    assert np.allclose(u @ state, np.eye(4)[3])


def test_controlled_hadamard_blocks():
    u = gate_unitary(hs.ch(0, 1), 2)
    h2 = LETTER_MATRICES["X"] + LETTER_MATRICES["Z"]
    h2 = h2 / math.sqrt(2)
    # control bit 0 fixed: identity on target; control bit 1: hadamard
    assert np.allclose(u[np.ix_([0, 2], [0, 2])], np.eye(2))
    assert np.allclose(u[np.ix_([1, 3], [1, 3])], h2)


@pytest.mark.parametrize("kind", ["cx", "ch"])
def test_controlled_gates_on_every_ordered_pair(kind):
    # reversed and non-adjacent pairs exercise the tensor-axis mapping
    n = 4
    eye, x = LETTER_MATRICES["I"], LETTER_MATRICES["X"]
    target_op = x if kind == "cx" else (x + LETTER_MATRICES["Z"]) / math.sqrt(2)
    proj0, proj1 = (eye + LETTER_MATRICES["Z"]) / 2, (eye - LETTER_MATRICES["Z"]) / 2
    for c in range(n):
        for t in range(n):
            if c == t:
                continue
            reference = kron_chain(*(proj0 if k == c else eye for k in range(n))) + kron_chain(
                *(proj1 if k == c else target_op if k == t else eye for k in range(n))
            )
            u = gate_unitary(getattr(hs, kind)(c, t), n)
            assert np.allclose(u, reference, rtol=0, atol=1e-15), (c, t)


# -- state evolution -----------------------------------------------------------


def test_evolve_empty_circuit():
    states = evolve_state(hs.Circuit(2))
    assert len(states) == 1
    assert np.allclose(states[0], [1, 0, 0, 0])


def test_evolve_fr_three_branch_profile(fr_states):
    # after the lab-1 preparation, the (R, A, S) marginal carries weight 1/3
    # on exactly three basis patterns
    probs = np.abs(fr_states[3]) ** 2
    marginal = {}
    for idx, p in enumerate(probs):
        key = ((idx >> R) & 1, (idx >> A) & 1, (idx >> S) & 1)
        marginal[key] = marginal.get(key, 0.0) + p
    expected = {(0, 0, 0): 1 / 3, (1, 1, 0): 1 / 3, (1, 1, 1): 1 / 3}
    for key in expected:
        assert marginal.pop(key) == pytest.approx(1 / 3, abs=1e-9)
    assert all(p < 1e-12 for p in marginal.values())


def test_evolve_fr_final_record_weights(fr_states):
    born_plus = (1 + state_expectation(fr_states[7], U_R, "Z")) / 2
    assert born_plus == pytest.approx(5 / 6, abs=1e-9)


def test_evolve_norm_preserved(fr_states):
    for psi in fr_states:
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_state_expectation_matches_kron_reference_on_complex_states():
    # every gate is real, so evolved states never carry a Y expectation
    rng = np.random.default_rng(31)
    for n in range(1, 6):
        for _ in range(4):
            psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            psi /= np.linalg.norm(psi)
            for q in range(n):
                for letter in "XYZ":
                    sigma = kron_chain(*(LETTER_MATRICES[letter if k == q else "I"] for k in range(n)))
                    reference = np.vdot(psi, sigma @ psi).real
                    assert state_expectation(psi, q, letter) == pytest.approx(reference, abs=1e-12)


def _single_expectation(psi, qubit, letter):
    # the one-Pauli route: gather the signed rows of sigma psi alone, then one vdot
    x, z = int(letter in "XY") << qubit, int(letter in "YZ") << qubit
    rows = np.arange(len(psi)) ^ x
    return float(np.vdot(psi, (1j if x & z else 1) * ((1 - 2 * (rows & z != 0)) * psi[rows])).real)


def _assert_batched_expectations_bit_for_bit(psi):
    from heisensim import oracle

    n = len(psi).bit_length() - 1
    sites = [(q, letter) for q in range(n) for letter in "XYZ"]
    batched = oracle._expectations(psi, *zip(*sites))
    assert batched == [state_expectation(psi, q, letter) for q, letter in sites]
    assert batched == [_single_expectation(psi, q, letter) for q, letter in sites]


def test_batched_expectations_equal_single_pauli_route_on_complex_states():
    rng = np.random.default_rng(37)
    for n in range(1, 11):
        for _ in range(3):
            psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            _assert_batched_expectations_bit_for_bit(psi / np.linalg.norm(psi))


def test_batched_expectations_equal_single_pauli_route_on_fr_boundaries(fr_states):
    for psi in fr_states:
        _assert_batched_expectations_bit_for_bit(psi)


@pytest.mark.parametrize(
    "qubit, letter, error, size",
    [
        pytest.param(qubit, letter, error, 2, id=f"{qubit}-{letter}-{error.__name__}")
        for qubit, letter, error in [
            (0, "Q", ValueError), (0, "x", ValueError), (0, "", ValueError), (0, "XY", ValueError),
            (0, "I", ValueError), (1, "Z", IndexError), (3, "Z", IndexError), (-1, "X", IndexError),
        ]
    ]
    # a state whose length is no power of two >= 2 holds no register of qubits
    + [pytest.param(0, "Z", ValueError, size, id=f"{size}-amplitudes") for size in (6, 12, 3, 1)]
    # nor does a matrix, though its length is a power of two
    + [pytest.param(0, "Z", ValueError, shape, id=f"shape-{shape[0]}x{shape[1]}") for shape in ((2, 2), (4, 1))],
)
def test_state_expectation_rejects_bad_letter_or_qubit(qubit, letter, error, size):
    psi = evolve_state(hs.Circuit(1, (hs.ry(0, 0.7),)))[-1] if size == 2 else np.full(size, np.prod(size) ** -0.5)
    with pytest.raises(error):
        state_expectation(psi, qubit, letter)


def test_state_expectation_reads_a_list_of_amplitudes():
    amplitudes = [0.6, 0.0, 0.0, -0.8]
    for q in range(2):
        for letter in "XYZ":
            assert state_expectation(amplitudes, q, letter) == state_expectation(np.array(amplitudes), q, letter)
    assert state_expectation([1, 0], 0, "Z") == 1.0
    with pytest.raises(ValueError, match="^a state is one vector of amplitudes, got an array of shape \\(\\)$"):
        state_expectation("10", 0, "Z")


_PSI = np.array([1, 0, 0, 0], dtype=complex)


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda: expand(PauliSum.single(2, 0, "X"), (False, True)), False),
        (lambda: expand(PauliSum.single(2, 0, "X"), (0.0, 1.0)), 0.0),
        (lambda: conjugate_descriptor(hs.get_preset("fr"), True), True),
        (lambda: conjugate_descriptor(hs.get_preset("fr"), 2.0), 2.0),
        (lambda: state_expectation(_PSI, True, "Z"), True),
        (lambda: state_expectation(_PSI, 1.0, "Z"), 1.0),
        (lambda: evolve_state(hs.Circuit(2, (hs.h(0),)), cap=True), True),
        (lambda: evolve_state(hs.Circuit(2, (hs.h(0),)), cap=12.5), 12.5),
    ],
    ids=["expand-bool", "expand-float", "conjugate-bool", "conjugate-float", "state-bool", "state-float",
         "cap-bool", "cap-float"],
)
def test_entry_points_refuse_bools_and_floats_as_integers(call, bad):
    # a bool would pass as qubit, boundary or cap 0 or 1, and a float would pass or fail deep inside numpy
    with pytest.raises(TypeError, match=f"^{re.escape(f'expected an integer, got {bad!r}')}$"):
        call()


# -- conjugation ---------------------------------------------------------------


def test_conjugate_descriptor_initial_is_bare(fr_circuit):
    dense = conjugate_descriptor(fr_circuit, 0)
    for q in range(8):
        for comp, letter in (("x", "X"), ("y", "Y"), ("z", "Z")):
            assert np.allclose(dense[q][comp], expand(PauliSum.single(8, q, letter)))


def test_conjugate_descriptor_matches_engine_early(fr_circuit, fr_trace):
    dense = conjugate_descriptor(fr_circuit, 2)
    for comp in "xyz":
        engine_mat = expand(fr_trace[2].descriptor(R).component(comp))
        assert np.max(np.abs(engine_mat - dense[R][comp])) < 1e-9


def test_conjugate_descriptor_matches_engine_full(fr_circuit, fr_trace):
    dense = conjugate_descriptor(fr_circuit, 7)
    for q in range(8):
        for comp in "xyz":
            engine_mat = expand(fr_trace[7].descriptor(q).component(comp))
            assert np.max(np.abs(engine_mat - dense[q][comp])) < 1e-9


@pytest.mark.parametrize("upto_slot", [-1, 8])
def test_conjugate_descriptor_rejects_boundary_out_of_range(fr_circuit, upto_slot):
    with pytest.raises(IndexError, match=rf"boundary {upto_slot} out of range \(0\.\.7\)"):
        conjugate_descriptor(fr_circuit, upto_slot)


def test_heisenberg_schrodinger_duality():
    rng = random.Random(23)
    circuit = random_circuit(rng, 3, 8)
    states = evolve_state(circuit)
    for t in range(len(states)):
        dense = conjugate_descriptor(circuit, t)
        for q in range(3):
            for comp, letter in (("x", "X"), ("y", "Y"), ("z", "Z")):
                heis = dense[q][comp][0, 0].real
                schr = state_expectation(states[t], q, letter)
                assert heis == pytest.approx(schr, abs=1e-10)


# -- cross-check ---------------------------------------------------------------


def test_cross_check_fr(fr_crosscheck):
    assert fr_crosscheck.max_expectation_dev <= 1e-9
    assert fr_crosscheck.max_matrix_dev <= 1e-9
    assert set(fr_crosscheck.worst_site) == {"slot", "qubit", "component"}


def test_cross_check_empty():
    circuit = hs.Circuit(2)
    report = cross_check(hs.run_circuit(circuit), circuit)
    assert report.max_expectation_dev == 0.0
    assert report.max_matrix_dev == 0.0


def test_cross_check_random_circuits():
    rng = random.Random(5)
    for _ in range(3):
        circuit = random_circuit(rng, 4, 10)
        report = cross_check(hs.run_circuit(circuit), circuit)
        assert report.max_expectation_dev <= 1e-9
        assert report.max_matrix_dev <= 1e-9


def test_cross_check_report_json(fr_crosscheck):
    doc = fr_crosscheck.to_json()
    assert doc["format_version"] == 1
    assert doc["max_expectation_dev"] <= 1e-9
    assert list(doc) == ["format_version", "max_expectation_dev", "max_matrix_dev", "worst_site"]
    assert doc["max_matrix_dev"] == fr_crosscheck.max_matrix_dev
    assert doc["worst_site"] == fr_crosscheck.worst_site and doc["worst_site"] is not fr_crosscheck.worst_site


def test_cross_check_parallel_slot_circuits():
    rng = random.Random(29)
    for _ in range(4):
        circuit = random_parallel_circuit(rng, 5, 6)
        assert max(len(group) for group in circuit.slot_groups()) >= 2
        report = cross_check(hs.run_circuit(circuit), circuit)
        assert report.max_expectation_dev <= 1e-9
        assert report.max_matrix_dev <= 1e-9


@pytest.mark.parametrize("n_trace", [2, 4], ids=["smaller", "larger"])
def test_cross_check_rejects_trace_of_other_width(n_trace):
    # same slot count, different register: the dense arrays would not broadcast
    def circuit(n):
        return hs.Circuit(n, (hs.h(0), hs.cx(0, 1, slot=1)))

    with pytest.raises(ValueError, match=f"trace has {n_trace} qubits, circuit has 3"):
        cross_check(hs.run_circuit(circuit(n_trace)), circuit(3))


def test_cross_check_rejects_trace_of_other_length():
    circuit = hs.Circuit(2, (hs.h(0), hs.cx(0, 1, slot=1)))
    trace = hs.run_circuit(circuit)
    for other in (trace[:-1], trace + trace[-1:]):
        with pytest.raises(ValueError, match="^trace and circuit disagree on slot count$"):
            cross_check(other, circuit)


def _with_fault(trace, t, q, letter="X", coeff=1e-6):
    """``trace`` with qubit q's descriptor at boundary t replaced by a copy
    whose x carries an extra term, by default the Hermitian 1e-6 * X, on another qubit."""
    d = trace[t].descriptor(q)
    other = (q + 4) % d.x.n_qubits
    faulty = d._replace(x=d.x + PauliSum.single(d.x.n_qubits, other, letter, coeff))
    descriptors = list(trace[t].descriptors)
    descriptors[q] = faulty
    out = list(trace)
    out[t] = hs.NetworkState(trace[t].time, tuple(descriptors))
    return out


@pytest.mark.parametrize("qubit", [A, R], ids=["untouched", "touched"])
def test_cross_check_finds_fault_at_any_qubit(fr_circuit, fr_trace, qubit):
    # slot 5 holds h on R and S only, so A is untouched from boundary 5 to 6
    touched = {q for step in fr_circuit.slot_groups()[5] for q in step.qubits}
    assert (qubit in touched) == (qubit == R)
    report = cross_check(_with_fault(fr_trace, 6, qubit), fr_circuit)
    assert report.max_matrix_dev == pytest.approx(1e-6, abs=1e-12)
    assert report.max_expectation_dev <= 1e-9
    assert report.worst_site == {"slot": 6, "qubit": qubit, "component": "x"}


def test_cross_check_finds_stale_descriptor_at_touched_qubit(fr_circuit, fr_trace):
    # an engine that skipped slot 5's h on R would hand on R's previous
    # descriptor object unchanged; the dense route must still compare it
    descriptors = list(fr_trace[6].descriptors)
    descriptors[R] = fr_trace[5].descriptor(R)
    trace = list(fr_trace)
    trace[6] = hs.NetworkState(fr_trace[6].time, tuple(descriptors))
    report = cross_check(trace, fr_circuit)
    assert report.max_matrix_dev > 0.5
    assert report.worst_site["slot"] == 6 and report.worst_site["qubit"] == R


@pytest.mark.parametrize("seed", range(4))
def test_cross_check_fault_sweep_on_parallel_slots(seed):
    # a 1e-6 term on qubit q+4 mod 5 often lies off q's light cone: the site's
    # register must still hold it, on every qubit, early, midway and last
    circuit = random_parallel_circuit(random.Random(seed), 5, 8)
    trace = hs.run_circuit(circuit)
    for t in sorted({1, len(trace) // 2, len(trace) - 1}):
        for q in range(5):
            report = cross_check(_with_fault(trace, t, q), circuit)
            assert report.max_matrix_dev == pytest.approx(1e-6, abs=1e-12), (t, q)
            assert report.max_expectation_dev <= 1e-9
            assert report.worst_site == {"slot": t, "qubit": q, "component": "x"}, (t, q)


def test_cross_check_ten_qubit_random_circuit():
    # on the full register every site would cost a 1024 x 1024 product
    circuit = random_circuit(random.Random(3), 10, 20)
    report = cross_check(hs.run_circuit(circuit), circuit)
    assert report.max_expectation_dev <= 1e-9
    assert report.max_matrix_dev <= 1e-9


def test_cross_check_reports_coefficient_drift_instead_of_raising():
    # 200 random gates drift the engine's coefficients past the Hermiticity
    # guard; the dense check measures the drift rather than stopping at it
    circuit = random_circuit(random.Random(0), 3, 200)
    report = cross_check(hs.run_circuit(circuit), circuit)
    for dev in (report.max_expectation_dev, report.max_matrix_dev):
        assert math.isfinite(dev) and dev > 1e-9


def test_cross_check_reports_an_imaginary_residue_as_a_matrix_deviation(fr_circuit, fr_trace):
    # 1e-6j * Z makes A's x non-Hermitian, with an imaginary vacuum value
    report = cross_check(_with_fault(fr_trace, 6, A, "Z", 1e-6j), fr_circuit)
    assert report.max_matrix_dev == pytest.approx(1e-6, abs=1e-12)
    assert report.max_expectation_dev <= 1e-9
    assert report.worst_site == {"slot": 6, "qubit": A, "component": "x"}


def test_cross_check_measures_off_cone_terms_on_their_own_qubit(fr_circuit, fr_trace):
    # A's past light cone at boundary 4 is {R, A, S}; a wrong 1e-6 (X + Y) on
    # W_B must be compared there too, where its largest entry is |1 + i| 1e-6
    d = fr_trace[4].descriptor(A)
    wrong = PauliSum.single(8, W_B, "X", 1e-6) + PauliSum.single(8, W_B, "Y", 1e-6)
    descriptors = list(fr_trace[4].descriptors)
    descriptors[A] = d._replace(x=d.x + wrong)
    trace = list(fr_trace)
    trace[4] = hs.NetworkState(fr_trace[4].time, tuple(descriptors))
    report = cross_check(trace, fr_circuit)
    assert report.max_matrix_dev == pytest.approx(math.sqrt(2) * 1e-6, abs=1e-12)
    assert report.worst_site == {"slot": 4, "qubit": A, "component": "x"}


def _spectator_circuit(n_slots):
    # qubit 2 joins 0's cluster through qubit 1 after 1's last gate with 0, so
    # 0's light cone {0, 1, 3} stays narrower than its cluster {0, 1, 2, 3}
    steps = [hs.cx(0, 1, slot=0), hs.cx(1, 2, slot=1)]
    for slot in range(2, n_slots):
        steps.append(hs.cx(0, 3, slot=slot) if slot % 2 else hs.ry(0, 0.1 * slot, slot=slot))
        steps.append(hs.h(2, slot=slot))
    return hs.Circuit(4, tuple(steps))


@pytest.mark.parametrize(
    "circuit",
    [random_circuit(random.Random(0), 4, 60), _spectator_circuit(40)],
    ids=["cones-fill-register", "cone-inside-cluster"],
)
def test_cross_check_deep_circuit_applies_each_gate_a_few_times(circuit, monkeypatch):
    # a site's cone is not rebuilt from slot 0: the gate applications, the
    # state walk's included, stay proportional to the circuit's gate count
    from heisensim import oracle

    applied = []
    apply_small = oracle._apply_small
    monkeypatch.setattr(oracle, "_apply_small", lambda *args: applied.append(1) or apply_small(*args))
    trace = hs.run_circuit(circuit)
    report = cross_check(trace, circuit)
    assert report.max_expectation_dev <= 1e-9 and report.max_matrix_dev <= 1e-9
    assert len(applied) <= 5 * len(circuit.steps)
    last = len(trace) - 1
    for q in range(4):
        report = cross_check(_with_fault(trace, last, q), circuit)
        assert report.max_matrix_dev == pytest.approx(1e-6, abs=1e-9), q
        assert report.worst_site == {"slot": last, "qubit": q, "component": "x"}, q


def _backward_cone(groups, t, qubit):
    # frontier walk from (t, qubit) back to slot 0: a gate meeting the frontier joins it
    frontier = 1 << qubit
    for group in reversed(groups[:t]):
        frontier |= sum(mask for mask in (sum(1 << q for q in step.qubits) for step in group) if mask & frontier)
    return frontier


def _assert_walk_cones_match_backward_frontier_walk(circuit, blocks):
    from heisensim import oracle

    groups = circuit.slot_groups()
    for t, (group, blocks, cones) in enumerate(oracle._walk(circuit, blocks)):
        assert group == (groups[t - 1] if t else ())
        for q in range(circuit.n_qubits):
            assert cones[q] == _backward_cone(groups, t, q), (t, q)
            assert cones[q] & ~sum(1 << p for p in blocks[q][0]) == 0, (t, q)
    assert t == len(groups)


_CONE_CIRCUITS = pytest.mark.parametrize(
    "circuit",
    [random_parallel_circuit(random.Random(seed), 5, 8) for seed in range(4)] + [_spectator_circuit(40)],
    ids=[f"parallel-{seed}" for seed in range(4)] + ["spectator"],
)


@_CONE_CIRCUITS
def test_cluster_walk_cones_match_backward_frontier_walk(circuit):
    # the cross-check's walk: one identity block per qubit, joined by the gates
    blocks = {q: ((q,), np.eye(2)) for q in range(circuit.n_qubits)}
    _assert_walk_cones_match_backward_frontier_walk(circuit, blocks)


@_CONE_CIRCUITS
def test_whole_register_walk_cones_match_backward_frontier_walk(circuit):
    # the state and unitary walks: one block holds every qubit from the start
    register = tuple(range(circuit.n_qubits))
    blocks = dict.fromkeys(register, (register, np.eye(2 ** circuit.n_qubits)))
    _assert_walk_cones_match_backward_frontier_walk(circuit, blocks)


@pytest.mark.parametrize(
    "circuit",
    [hs.preset_fr(), random_circuit(random.Random(0), 4, 60), random_parallel_circuit(random.Random(1), 5, 8)],
    ids=["fr", "random", "parallel"],
)
def test_cross_check_applies_each_gate_twice(circuit, monkeypatch):
    # once in the state walk and once in the cluster walk, never again
    from heisensim import oracle

    applied = []
    apply_small = oracle._apply_small
    monkeypatch.setattr(oracle, "_apply_small", lambda *args: applied.append(1) or apply_small(*args))
    cross_check(hs.run_circuit(circuit), circuit)
    assert len(applied) == 2 * len(circuit.steps)


def test_cross_check_reads_each_fresh_site_once(fr_circuit, fr_trace, fr_crosscheck, monkeypatch):
    # 29 fresh sites on fr: each has its slab rule run once and its three engine
    # means taken once; a site no gate touched carries both from the boundary before
    site_calls, mean_calls = [], []
    site_devs, mean = oracle._site_matrix_devs, oracle.vacuum_expectation
    monkeypatch.setattr(oracle, "_site_matrix_devs", lambda *args: site_calls.append(1) or site_devs(*args))
    monkeypatch.setattr(oracle, "vacuum_expectation", lambda *args: mean_calls.append(1) or mean(*args))
    report = cross_check(fr_trace, fr_circuit)
    assert (len(site_calls), len(mean_calls)) == (29, 87)
    assert repr(report) == repr(fr_crosscheck)


def test_conjugated_gives_the_same_bits_on_c_and_f_order_slabs(monkeypatch):
    # A slab is unitary[:, idx], which numpy hands back in F order.  Signs
    # multiplied into the slab itself (tempting for a Z, whose x = 0 moves no row) make the
    # product's right operand F-ordered too, and on the (64, 8) slab of this
    # circuit that product rounded 1.1e-16 away from the one on the gathered
    # C-order copy, which DENSE_ROUTE_DIGESTS would catch.  _conjugated
    # multiplies the signs into the gathered copy, whatever the slab's layout
    circuit = random_circuit(random.Random(2), 6, 30)
    calls = []
    conjugated = oracle._conjugated
    monkeypatch.setattr(oracle, "_conjugated", lambda *args: calls.append(args) or conjugated(*args))
    cross_check(hs.run_circuit(circuit), circuit)
    assert any(slab.shape == (64, 8) and letter == "Z" for slab, _, letter in calls)
    for slab, qubit, letter in calls:
        c_order = conjugated(np.ascontiguousarray(slab), qubit, letter)
        assert conjugated(np.asfortranarray(slab), qubit, letter).tobytes() == c_order.tobytes()


def _dense_route_circuits():
    yield "fr", hs.preset_fr()
    for seed in range(6):
        yield f"random-{seed}", random_circuit(random.Random(seed), 6, 25)
    for seed in range(4):
        yield f"parallel-{seed}", random_parallel_circuit(random.Random(seed), 5, 8)


# SHA-256 over the raw bytes of every evolve_state state, every
# conjugate_descriptor matrix at every boundary (qubit order, then x, y, z)
# and the repr of the cross_check report, computed before the state walk,
# the unitary walk and the cluster walk became one generator.
DENSE_ROUTE_DIGESTS = {
    "fr": "4b432f4b8ff52397e0d379d286812bdb662d794a5d20a45b4a2af542f48bb7ae",
    "random-0": "c1bf524ed3e00b0c1455496ed3268b014b1e4dbac8e7d077d67da7fc3b84b645",
    "random-1": "1fa9334caaba4b3542ce67a51641d2552d7fc52aa7008ff12a77e854e6e600a8",
    "random-2": "30e8ae3c6afc192c112b987762b6cdaaa6a128c6571d8f601659b28342a8ca7f",
    "random-3": "a7a250934582caf961136995d6aa85eacb7c441eba0cdfc3c930e290484e517b",
    "random-4": "0d64b41f43f7ffaeb7a57a05046f1c2fc83c5f3568730217e8f4a8f288a0c0ec",
    "random-5": "492397957309911a2b098d1105a4014b4b5f685d39efebd4a6f5191791efc606",
    "parallel-0": "b38c800e13f72c8fe06d79c269cdf4f25cb161a48340b69d0339a3b4b055592a",
    "parallel-1": "845d623857a3f0946733404dcaf058e3e78e2b5b7c6470b82b612ebf87566ed0",
    "parallel-2": "ae74b0335e026c3ed51f5d8907889b70b272d6ef92f9838d2fb9f429f727df35",
    "parallel-3": "ef111c93d5cdc804efd915de2a727cbb22701917c16e1dc1c1a001729755de8d",
}


@pytest.mark.parametrize("name, circuit", [pytest.param(*case, id=case[0]) for case in _dense_route_circuits()])
def test_dense_route_bytes_pinned(name, circuit):
    digest = hashlib.sha256()
    for psi in evolve_state(circuit):
        digest.update(psi.tobytes())
    for t in range(circuit.max_slot + 2):
        for triple in conjugate_descriptor(circuit, t):
            for comp in "xyz":
                digest.update(triple[comp].tobytes())
    digest.update(repr(cross_check(hs.run_circuit(circuit), circuit)).encode())
    assert digest.hexdigest() == DENSE_ROUTE_DIGESTS[name]


def _per_component_devs(cluster, cone, qubit, descriptor):
    # the site route one component at a time: expand it, conjugate sigma, subtract
    from heisensim import oracle

    register, unitary = cluster
    support = _support_mask(*descriptor.triple)
    inside = [i for i, q in enumerate(register) if (cone | support) >> q & 1]
    slab = unitary[:, np.flatnonzero((np.arange(len(unitary)) & ~sum(1 << i for i in inside)) == 0)]
    outside = [q for q in range(descriptor.x.n_qubits) if support >> q & 1 and q not in register]
    on = tuple(register[i] for i in inside) + tuple(outside)
    devs = []
    for comp, op in zip("xyz", descriptor.triple):
        conjugated = oracle._conjugated(slab, register.index(qubit), comp.upper())
        if outside:
            conjugated = np.kron(np.eye(2 ** len(outside)), conjugated)
        devs.append(float(np.max(np.abs(expand(op, on) - conjugated))))
    return devs


@pytest.mark.parametrize("name, circuit", [pytest.param(*case, id=case[0]) for case in _dense_route_circuits()])
def test_site_scatter_equals_per_component_route_bit_for_bit(name, circuit, monkeypatch):
    from heisensim import oracle

    site_devs, sites = oracle._site_matrix_devs, []

    def site_devs_against_reference(*args):
        devs = site_devs(*args)
        assert devs == _per_component_devs(*args)
        sites.append(devs)
        return devs

    monkeypatch.setattr(oracle, "_site_matrix_devs", site_devs_against_reference)
    cross_check(hs.run_circuit(circuit), circuit)
    assert len(sites) >= circuit.n_qubits


def test_cross_check_expands_each_fresh_site_on_cone_and_support(fr_circuit, fr_trace, monkeypatch):
    # a check that fell back to whole clusters would pass every value test;
    # the width of each site's scatter shows the register it was read on
    from heisensim import oracle

    widths = []
    scatter = oracle._scatter

    def scatter_recording_width(ops, register):
        assert len(ops) == 3
        widths.append(len(register))
        return scatter(ops, register)

    monkeypatch.setattr(oracle, "_scatter", scatter_recording_width)
    cross_check(fr_trace, fr_circuit)
    groups = fr_circuit.slot_groups()
    expected = []
    for t, state in enumerate(fr_trace):
        touched = {q for step in groups[t - 1] for q in step.qubits} if t else set()
        for q, d in enumerate(state.descriptors):
            if t == 0 or q in touched or d is not fr_trace[t - 1].descriptor(q):
                support = sum({1 << k for op in d.triple for _, letters in canonical_terms(op) for k in letters})
                expected.append((_backward_cone(groups, t, q) | support).bit_count())
    assert widths == expected
    assert min(widths) == 1 and max(widths) < fr_circuit.n_qubits
