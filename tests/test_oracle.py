"""Dense-route tests (expansions, unitaries, state evolution) and the back-propagation cross-check."""
import hashlib
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heisensim as hs
from heisensim import check, oracle
from heisensim.oracle import (
    conjugate_descriptor,
    cross_check,
    evolve_state,
    expand,
    state_expectation,
)
from heisensim.pauli import _I_POWERS, DROP_TOLERANCE, PauliSum, _lettered, _term_masks, vacuum_expectation

from conftest import (
    LETTER_MATRICES, A, R, S, U_R, W_B, chain, gate_unitary, random_circuit, random_parallel_circuit, term,
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


@pytest.mark.parametrize("register", [None, (3, 0, 2, 1), (5, 1, 3, 0, 2)])
def test_expand_sums_terms_in_dict_order_bit_for_bit(register):
    # np.add.at documents no order for repeated indices.  The 16 terms of each
    # x mask hit the same entries, so only a sum in dict order gives these bits.
    # Bit i of each string's masks sits on qubit register[i], on an operator
    # one qubit wider than the register's largest
    on = register or range(4)
    n = max(on) + 1

    def moved(mask):
        return sum(1 << q for i, q in enumerate(on) if mask >> i & 1)

    strings = [
        ((moved(x), moved(z)), complex(math.sqrt(2 + 3 * z + x), math.pi / (1 + z + 5 * x)))
        for x in (5, 11)
        for z in range(16)
    ]
    a = PauliSum(n, strings)
    reference = np.zeros((2 ** n,) * 2, dtype=complex)
    for key, coeff in a._terms.items():  # the letter of qubit q is bit n + q (x) plus twice bit q (z) of the key
        letters = ["IXZY"[(key >> n + q & 1) + 2 * (key >> q & 1)] for q in range(n)]
        reference += coeff * kron_chain(*(LETTER_MATRICES[letter] for letter in letters))
    assert np.array_equal(expand(a), reference)


def _lettered_masks(op):
    # the letters route: each term's letters, in dict order, turned into masks by hand
    def mask(letters, other):
        return sum(1 << q for q, letter in letters if letter != other)

    return [(mask(letters, "Z"), mask(letters, "X"), c) for letters, c in _lettered(op)]


def _lettered_expansion(op):
    # the letters route's scatter: the same signed rows, with masks from _lettered_masks
    terms = _lettered_masks(op)
    x = np.array([x for x, _, _ in terms], dtype=np.int64)
    z = np.array([z for _, z, _ in terms], dtype=np.int64)
    cols = np.arange(2 ** op.n_qubits)
    signs = 1 - 2 * (np.bitwise_count(cols & z[:, None]).astype(np.int64) & 1)
    coeffs = np.array([c for _, _, c in terms], dtype=complex) * np.array(_I_POWERS)[np.bitwise_count(x & z) % 4]
    out = np.zeros((len(cols), len(cols)), dtype=complex)
    np.add.at(out, (cols ^ x[:, None], cols), coeffs[:, None] * signs)
    return out


@st.composite
def operators(draw):
    """An operator of up to 12 terms on 1-40 qubits, on at most 6 about half the time."""
    n = draw(st.one_of(st.integers(1, 6), st.integers(7, 40)))
    coeffs = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    strings = st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ"))
    return PauliSum(n, [term(c, letters) for c, letters in draw(st.lists(st.tuples(coeffs, strings), max_size=12))])


# a Y on qubit 39 of a 40-qubit operator
@example(PauliSum(40, [term(0.5 - 1j / 3, {39: "Y", 3: "X"}), term(1.5, {35: "Z"})]))
@given(operators())
@settings(max_examples=200, deadline=None)
def test_term_masks_and_expand_equal_the_letters_route_bit_for_bit(op):
    # the one term reader serves expand and the back-propagation check
    assert _term_masks(op) == _lettered_masks(op)
    if op.n_qubits <= 6:
        assert expand(op).tobytes() == _lettered_expansion(op).tobytes()


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


def _assert_single_pauli_route_bit_for_bit(psi):
    n = len(psi).bit_length() - 1
    for q in range(n):
        for letter in "XYZ":
            assert state_expectation(psi, q, letter).hex() == _single_expectation(psi, q, letter).hex(), (q, letter)


def test_state_expectation_equals_single_pauli_route_on_complex_states():
    rng = np.random.default_rng(37)
    for n in range(1, 11):
        for _ in range(3):
            psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            _assert_single_pauli_route_bit_for_bit(psi / np.linalg.norm(psi))


def test_state_expectation_equals_single_pauli_route_on_fr_boundaries(fr_states):
    for psi in fr_states:
        _assert_single_pauli_route_bit_for_bit(psi)


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
        (lambda: conjugate_descriptor(hs.get_preset("fr"), True), True),
        (lambda: conjugate_descriptor(hs.get_preset("fr"), 2.0), 2.0),
        (lambda: state_expectation(_PSI, True, "Z"), True),
        (lambda: state_expectation(_PSI, 1.0, "Z"), 1.0),
        (lambda: evolve_state(hs.Circuit(2, (hs.h(0),)), cap=True), True),
        (lambda: evolve_state(hs.Circuit(2, (hs.h(0),)), cap=12.5), 12.5),
    ],
    ids=["conjugate-bool", "conjugate-float", "state-bool", "state-float",
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


@pytest.mark.parametrize("k, n, size", [(3, 12, 9932111872), (None, 11, 2281701376)], ids=["chain3", "eleven"])
def test_conjugate_descriptor_refuses_past_one_gib(k, n, size):
    # 3n + 1 complex 2^n x 2^n matrices: 0.5 GB at 10 qubits passes, 2.3 GB at 11 and 9.9 GB at 12 do not
    circuit = chain(k) if k else hs.Circuit(n, (hs.h(0),))
    message = f"dense conjugation on {n} qubits needs {size} bytes, over the 1073741824-byte limit"
    with pytest.raises(ValueError, match=f"^{message}$"):
        conjugate_descriptor(circuit, 0)


def test_conjugate_descriptor_admits_ten_qubits():
    # 0.5 GB passes the memory check: a boundary out of range is the next refusal, before any allocation
    with pytest.raises(IndexError, match=r"^boundary 2 out of range \(0\.\.1\)$"):
        conjugate_descriptor(hs.Circuit(10, (hs.h(0),)), 2)


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


@pytest.mark.parametrize("width", [7, 9], ids=["short", "long"])
def test_cross_check_rejects_a_later_boundary_of_other_width(fr_circuit, fr_trace, width):
    # boundary 0 fits; boundary 5 has one descriptor too few, or is a whole 9-qubit state
    trace = list(fr_trace)
    trace[5] = hs.NetworkState(5, fr_trace[5].descriptors[:7] if width == 7 else hs.init_network(9).descriptors)
    with pytest.raises(ValueError, match=f"^trace has {width} qubits, circuit has 8, at boundary 5$"):
        cross_check(trace, fr_circuit)


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
    # descriptor object unchanged; the check must still compare it
    descriptors = list(fr_trace[6].descriptors)
    descriptors[R] = fr_trace[5].descriptor(R)
    trace = list(fr_trace)
    trace[6] = hs.NetworkState(fr_trace[6].time, tuple(descriptors))
    report = cross_check(trace, fr_circuit)
    assert report.max_matrix_dev > 0.5
    assert report.worst_site["slot"] == 6 and report.worst_site["qubit"] == R


def test_cross_check_finds_a_term_the_engine_dropped(fr_circuit, fr_trace):
    # a term the back-propagated operator holds and the engine's lacks is a gap of its whole coefficient
    d = fr_trace[6].descriptor(R)
    x, z, c = max(_term_masks(d.z), key=lambda t: abs(t[2]))
    descriptors = list(fr_trace[6].descriptors)
    descriptors[R] = d._replace(z=d.z - PauliSum(8, [((x, z), c)]))
    trace = list(fr_trace)
    trace[6] = hs.NetworkState(fr_trace[6].time, tuple(descriptors))
    report = cross_check(trace, fr_circuit)
    assert report.max_matrix_dev == pytest.approx(abs(c), abs=1e-12)
    assert report.worst_site == {"slot": 6, "qubit": R, "component": "z"}


@pytest.mark.parametrize("seed", range(4))
def test_cross_check_fault_sweep_on_parallel_slots(seed):
    # a 1e-6 term on qubit q+4 mod 5 often lies off q's light cone, where the
    # back-propagated operator has no term: it must still count, on every qubit,
    # early, midway and last
    circuit = random_parallel_circuit(random.Random(seed), 5, 8)
    trace = hs.run_circuit(circuit)
    for t in sorted({1, len(trace) // 2, len(trace) - 1}):
        for q in range(5):
            report = cross_check(_with_fault(trace, t, q), circuit)
            assert report.max_matrix_dev == pytest.approx(1e-6, abs=1e-12), (t, q)
            assert report.max_expectation_dev <= 1e-9
            assert report.worst_site == {"slot": t, "qubit": q, "component": "x"}, (t, q)


def test_cross_check_ten_qubit_random_circuit():
    # ten qubits, twenty gates of every kind
    circuit = random_circuit(random.Random(3), 10, 20)
    report = cross_check(hs.run_circuit(circuit), circuit)
    assert report.max_expectation_dev <= 1e-9
    assert report.max_matrix_dev <= 1e-9


def test_cross_check_reports_coefficient_drift_instead_of_raising():
    # 200 random gates drift the engine's coefficients past the Hermiticity
    # guard; the check measures the drift rather than stopping at it
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
    # W_B must be compared there too, where each of its two coefficients is 1e-6 off
    d = fr_trace[4].descriptor(A)
    wrong = PauliSum.single(8, W_B, "X", 1e-6) + PauliSum.single(8, W_B, "Y", 1e-6)
    descriptors = list(fr_trace[4].descriptors)
    descriptors[A] = d._replace(x=d.x + wrong)
    trace = list(fr_trace)
    trace[4] = hs.NetworkState(fr_trace[4].time, tuple(descriptors))
    report = cross_check(trace, fr_circuit)
    assert report.max_matrix_dev == pytest.approx(1e-6, abs=1e-12)
    assert report.worst_site == {"slot": 4, "qubit": A, "component": "x"}


def test_cross_check_reads_each_fresh_site_once(fr_circuit, fr_trace, fr_crosscheck, monkeypatch):
    # 29 fresh sites on fr: each has its three components back-propagated once and
    # its three engine means taken once; a site no gate touched carries both over
    propagated, means = [], []
    propagate, mean = check._propagated, check.vacuum_expectation
    monkeypatch.setattr(check, "_propagated", lambda *args: propagated.append(1) or propagate(*args))
    monkeypatch.setattr(check, "vacuum_expectation", lambda *args: means.append(1) or mean(*args))
    report = cross_check(fr_trace, fr_circuit)
    assert (len(propagated), len(means)) == (87, 87)
    assert repr(report) == repr(fr_crosscheck)


def test_cross_check_builds_fixed_gate_tables_once_per_process(fr_circuit, fr_trace, monkeypatch):
    # the h, cx and ch tables are built on first use and kept; an ry table once per distinct gate and check
    monkeypatch.setattr(check, "_FIXED_TABLES", {})
    built = []
    table = check._conjugation_table
    monkeypatch.setattr(check, "_conjugation_table", lambda g: built.append(len(g)) or table(g))
    rotations = sum(step.kind == "ry" for step in fr_circuit.steps)
    cross_check(fr_trace, fr_circuit)
    assert set(check._FIXED_TABLES) == {"h", "cx", "ch"}
    assert len(built) == 3 + rotations
    cross_check(fr_trace, fr_circuit)
    assert len(built) == 3 + 2 * rotations


def test_cross_check_builds_gate_rows_once_per_distinct_gate(fr_circuit, fr_trace, fr_crosscheck, monkeypatch):
    # fr's 12 steps hold 10 distinct gates: cx 0 1 and cx 2 3 each act in two slots
    built = []
    rows = check._gate_rows
    monkeypatch.setattr(check, "_gate_rows", lambda step: built.append(step) or rows(step))
    report = cross_check(fr_trace, fr_circuit)
    assert (len(built), len(fr_circuit.steps)) == (10, 12)
    assert repr(report) == repr(fr_crosscheck)


def _brute_force_check(trace, circuit):
    """``cross_check`` with no carry-over and no reuse: each component of every site at every
    boundary walks every slot for itself, drops its coefficients below the drop tolerance after
    every gate, and takes its gaps key by key over both operators."""
    max_exp = max_mat = 0.0
    worst = {"slot": 0, "qubit": 0, "component": "x"}
    slots = [[check._gate_rows(step) for step in group] for group in circuit.slot_groups()]
    for t, state in enumerate(trace):
        for q in range(circuit.n_qubits):
            for comp in "xyz":
                reference, cone = {(int(comp != "z") << q, int(comp != "x") << q): 1.0}, 1 << q
                for slot in reversed(slots[:t]):
                    for mask, rows in slot:
                        if cone & mask:
                            cone |= mask
                            reference = check._conjugated(reference, mask, rows)
                            reference = {k: c for k, c in reference.items() if abs(c) >= DROP_TOLERANCE}
                op = state.descriptor(q).component(comp)
                engine = {(x, z): c for x, z, c in _term_masks(op)}
                keys = engine.keys() | reference.keys()
                mat_dev = max((abs(engine.get(k, 0.0) - reference.get(k, 0.0)) for k in keys), default=0.0)
                mean = math.fsum(c for (x, _), c in reference.items() if not x)
                dev = abs(vacuum_expectation(op, math.inf) - mean)
                if max(dev, mat_dev) > max(max_exp, max_mat):
                    worst = {"slot": t, "qubit": q, "component": comp}
                max_exp, max_mat = max(max_exp, dev), max(max_mat, mat_dev)
    return check.CrossCheckReport(max_exp, max_mat, worst)


# tiny angles: coefficients below the drop tolerance appear between gates and are carried to the next
TINY_ANGLES = hs.Circuit(
    3,
    (
        hs.ry(0, 2e-7, 0), hs.ry(1, 2e-7, 0), hs.cx(0, 1, 1), hs.ry(0, 2e-7, 2),
        hs.ry(1, 3e-7, 2), hs.ch(1, 2, 3), hs.cx(0, 2, 4), hs.ry(2, 2e-7, 5),
    ),
)


@pytest.mark.parametrize(
    "circuit",
    [hs.preset_fr(), chain(3), hs.Circuit(3, random_circuit(random.Random(0), 3, 200).steps[:120]), TINY_ANGLES],
    ids=["fr", "chain3", "drifting-120", "tiny-angles"],
)
def test_cross_check_equals_brute_force_reference(circuit):
    # carrying sites over, one cone walk per site, one table per distinct gate and
    # dropping small coefficients as the next gate reads them change no bit
    trace = hs.run_circuit(circuit)
    assert repr(cross_check(trace, circuit)) == repr(_brute_force_check(trace, circuit))


def test_tiny_angles_leave_small_coefficients_between_gates(monkeypatch):
    # the case above tests the drop only if gates leave coefficients below the tolerance:
    # 68 in one check, 28 of which a next gate reads and 40 a cone's last gate leaves
    made, read = [], []
    conjugated = check._conjugated

    def counting(terms, mask, rows):
        read.extend(c for c in terms.values() if abs(c) < DROP_TOLERANCE)
        out = conjugated(terms, mask, rows)
        made.extend(c for c in out.values() if abs(c) < DROP_TOLERANCE)
        return out

    monkeypatch.setattr(check, "_conjugated", counting)
    report = cross_check(hs.run_circuit(TINY_ANGLES), TINY_ANGLES)
    assert (len(made), len(read)) == (68, 28)
    assert repr(report) == (
        "CrossCheckReport(max_expectation_dev=2.9999999976475914e-14, max_matrix_dev=3.999999998628107e-14, "
        "worst_site={'slot': 6, 'qubit': 2, 'component': 'z'})"
    )


def _dense_route_circuits():
    yield "fr", hs.preset_fr()
    for seed in range(6):
        yield f"random-{seed}", random_circuit(random.Random(seed), 6, 25)
    for seed in range(4):
        yield f"parallel-{seed}", random_parallel_circuit(random.Random(seed), 5, 8)


_DENSE_ROUTE_CASES = pytest.mark.parametrize(
    "name, circuit", [pytest.param(*case, id=case[0]) for case in _dense_route_circuits()]
)


# SHA-256 over the raw bytes of every evolve_state state and every
# conjugate_descriptor matrix at every boundary (qubit order, then x, y, z),
# computed before the dense route became a test reference only.
DENSE_ROUTE_DIGESTS = {
    "fr": "78395512e8fd54fe5f61f9052a1bcc798c1c2b448fd9f39971958927f8d91cbb",
    "random-0": "c02ff47423beddcffca1100a0dc3b69b9b50bb716233cc5c6a2d722e6647bb80",
    "random-1": "669eb52c713c049929d6b87a980a0a35117bb290569c2ca6f0f9935d14c81abe",
    "random-2": "6abe0c2de365b6e8f3c853a95167b1e759ecd2c0b1d0d979b46b7216dc01d0cb",
    "random-3": "5226b42832007b27526dd88ecadf270e4460d7060d3a7d3c12e691770cb8b4d5",
    "random-4": "e6e3c1a0bbc1ad15b73158f16bde287561e2edb2e38de6ad622c05ac122c110f",
    "random-5": "1724228c50a73dbbbb140943ef299c9a201325b44896506198baf5a313908c13",
    "parallel-0": "e78abc71683177a5d1ee6164aa7ceddb46b4028e3fd20c9c26cec8d5e86e0c38",
    "parallel-1": "6d532f922311a1504ffba046883339d3b72e3f996dec0c9bcdfe47b2725ef379",
    "parallel-2": "9c6f7a723a1256cc3eaec652b7ff24778aefd883933715ce6a3593548422ff1f",
    "parallel-3": "541f44c98a931b550ca1f12dc4f830bc69db9e677b78e74e9dfc6cfa667cca06",
}


@_DENSE_ROUTE_CASES
def test_dense_route_bytes_pinned(name, circuit):
    digest = hashlib.sha256()
    for psi in evolve_state(circuit):
        digest.update(psi.tobytes())
    for t in range(circuit.max_slot + 2):
        for triple in conjugate_descriptor(circuit, t):
            for comp in "xyz":
                digest.update(triple[comp].tobytes())
    assert digest.hexdigest() == DENSE_ROUTE_DIGESTS[name]


# The repr of each cross_check report, as the back-propagation check first gave it.
CROSS_CHECK_REPRS = {
    "fr": "CrossCheckReport(max_expectation_dev=4.440892098500626e-16, max_matrix_dev=3.3306690738754696e-16, "
    "worst_site={'slot': 6, 'qubit': 2, 'component': 'z'})",
    "random-0": "CrossCheckReport(max_expectation_dev=8.881784197001252e-16, max_matrix_dev=8.881784197001252e-16, "
    "worst_site={'slot': 20, 'qubit': 1, 'component': 'x'})",
    "random-1": "CrossCheckReport(max_expectation_dev=8.881784197001252e-16, max_matrix_dev=9.992007221626409e-16, "
    "worst_site={'slot': 23, 'qubit': 3, 'component': 'z'})",
    "random-2": "CrossCheckReport(max_expectation_dev=4.440892098500626e-16, max_matrix_dev=4.440892098500626e-16, "
    "worst_site={'slot': 20, 'qubit': 4, 'component': 'x'})",
    "random-3": "CrossCheckReport(max_expectation_dev=6.661338147750939e-16, max_matrix_dev=6.661338147750939e-16, "
    "worst_site={'slot': 22, 'qubit': 1, 'component': 'y'})",
    "random-4": "CrossCheckReport(max_expectation_dev=5.551115123125783e-16, max_matrix_dev=1.1102230246251565e-15, "
    "worst_site={'slot': 24, 'qubit': 1, 'component': 'y'})",
    "random-5": "CrossCheckReport(max_expectation_dev=7.771561172376096e-16, max_matrix_dev=6.106226635438361e-16, "
    "worst_site={'slot': 16, 'qubit': 5, 'component': 'z'})",
    "parallel-0": "CrossCheckReport(max_expectation_dev=5.551115123125783e-16, max_matrix_dev=7.771561172376096e-16, "
    "worst_site={'slot': 6, 'qubit': 2, 'component': 'y'})",
    "parallel-1": "CrossCheckReport(max_expectation_dev=4.440892098500626e-16, max_matrix_dev=1.3322676295501878e-15, "
    "worst_site={'slot': 6, 'qubit': 0, 'component': 'y'})",
    "parallel-2": "CrossCheckReport(max_expectation_dev=5.551115123125783e-16, max_matrix_dev=4.440892098500626e-16, "
    "worst_site={'slot': 7, 'qubit': 0, 'component': 'x'})",
    "parallel-3": "CrossCheckReport(max_expectation_dev=6.661338147750939e-16, max_matrix_dev=8.881784197001252e-16, "
    "worst_site={'slot': 4, 'qubit': 3, 'component': 'y'})",
}


@_DENSE_ROUTE_CASES
def test_cross_check_repr_pinned(name, circuit):
    assert repr(cross_check(hs.run_circuit(circuit), circuit)) == CROSS_CHECK_REPRS[name]


def _propagated_sums(circuit, t):
    # the back-propagated components at boundary t, as PauliSums keyed (qubit, component)
    slots = [[check._gate_rows(step) for step in group] for group in circuit.slot_groups()[:t]]
    n = circuit.n_qubits
    return {
        (q, comp): PauliSum(n, check._propagated(check._cone(slots, q), q, comp).items())
        for q in range(n)
        for comp in "xyz"
    }


@_DENSE_ROUTE_CASES
def test_back_propagation_agrees_with_dense_conjugation(name, circuit):
    # each back-propagated component, expanded, is the dense U^dagger sigma U at every boundary
    for t in range(circuit.max_slot + 2):
        dense = conjugate_descriptor(circuit, t)
        for (q, comp), propagated in _propagated_sums(circuit, t).items():
            assert np.max(np.abs(expand(propagated) - dense[q][comp])) <= 1e-12, (t, q, comp)


def test_back_propagation_agrees_with_state_vector_on_chain_of_three_labs():
    # on 12 qubits the dense conjugation of one boundary would hold 36 complex 4096 x 4096
    # matrices, 9.7 GB: here each component's vacuum value meets the evolved state's instead
    circuit = chain(3)
    for t, psi in enumerate(evolve_state(circuit)):
        for (q, comp), propagated in _propagated_sums(circuit, t).items():
            assert abs(vacuum_expectation(propagated) - state_expectation(psi, q, comp.upper())) <= 1e-12, (t, q, comp)
