"""Descriptor engine tests against frozen protocol values and the dense oracle."""
import hashlib
import json
import math
import pickle
import random
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import heisensim as hs
from heisensim import check, engine, pauli
from heisensim.engine import GATE_KINDS, trace_json_doc
from heisensim.lang import parse_circuit, serialize_circuit
from heisensim.oracle import conjugate_descriptor, expand, state_expectation
from heisensim.pauli import PauliSum, _term_masks, vacuum_expectation

from conftest import A, B, R, S, allclose, chain, commutes, random_circuit, random_parallel_circuit, term

PHI = hs.FR_ANGLE
C = math.cos(PHI)  # -1/3
SIN = math.sin(PHI)  # sqrt(8)/3


def proj_plus_weight(state, qubit):
    return vacuum_expectation(hs.projector(state, qubit, +1))


def after_gates(n_qubits, *steps):
    """The network after the last slot of a circuit of ``steps``."""
    return hs.run_circuit(hs.Circuit(n_qubits, steps))[-1]


# -- initialisation ----------------------------------------------------------


def test_init_network_single_qubit():
    state = hs.init_network(1)
    d = state.descriptor(0)
    assert d.x == PauliSum.single(1, 0, "X")
    assert d.y == PauliSum.single(1, 0, "Y")
    assert d.z == PauliSum.single(1, 0, "Z")
    assert state.time == 0


@pytest.mark.parametrize("n_qubits", [1, 3, np.int64(20), 64])
def test_init_network_builds_single_letters_bit_for_bit(n_qubits):
    def bits(op):
        return type(op.n_qubits), op.n_qubits, [(k, c.real.hex(), c.imag.hex()) for k, c in op._terms.items()]

    for d in hs.init_network(n_qubits).descriptors:
        assert [bits(op) for op in d.triple] == [bits(PauliSum.single(n_qubits, d.qubit, letter)) for letter in "XYZ"]


def test_init_network_eight_disjoint_triples():
    state = hs.init_network(8)
    for q1 in range(8):
        for q2 in range(q1 + 1, 8):
            for c1 in "xyz":
                for c2 in "xyz":
                    a = state.descriptor(q1).component(c1)
                    b = state.descriptor(q2).component(c2)
                    assert commutes(a, b)


def test_init_network_sharp_z():
    state = hs.init_network(2)
    for q in range(2):
        assert vacuum_expectation(state.descriptor(q).z) == 1.0


def test_init_network_rejects_empty():
    with pytest.raises(ValueError):
        hs.init_network(0)


# -- rotation ----------------------------------------------------------------


def test_rotation_prepares_third_weight():
    state = after_gates(1, hs.ry(0, PHI))
    d = state.descriptor(0)
    expected_z = PauliSum(1, [term(C, {0: "Z"}), term(-SIN, {0: "X"})])
    assert allclose(d.z, expected_z, 1e-12)
    assert vacuum_expectation(d.z) == pytest.approx(-1 / 3, abs=1e-9)


def test_rotation_zero_angle_is_identity():
    before = hs.init_network(2)
    after = after_gates(2, hs.ry(1, 0.0))
    for comp in "xyz":
        assert allclose(after.descriptor(1).component(comp), before.descriptor(1).component(comp), 1e-15)


def test_rotation_pi_flips_x_and_z():
    before = hs.init_network(1)
    after = after_gates(1, hs.ry(0, math.pi))
    assert allclose(after.descriptor(0).x, -before.descriptor(0).x, 1e-12)
    assert allclose(after.descriptor(0).z, -before.descriptor(0).z, 1e-12)
    assert allclose(after.descriptor(0).y, before.descriptor(0).y, 1e-15)


def test_rotation_forms_no_intermediate_operator(monkeypatch):
    # ry's two rotated components come out of one pass over x and z; a return to the
    # operator expressions, with their throw-away sums and scalings, would show up here
    circuit = hs.Circuit(3, tuple(hs.ry(q, 0.3 + q + slot, slot=slot) for slot in range(4) for q in range(3)))
    expected = hs.run_circuit(circuit)

    def refuse(*args):
        raise AssertionError("the ry rule formed an intermediate operator")

    for name in ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__"):
        monkeypatch.setattr(PauliSum, name, refuse)
    assert hs.run_circuit(circuit) == expected


# -- hadamard ----------------------------------------------------------------


def test_hadamard_swaps_x_and_z():
    state = after_gates(1, hs.h(0))
    d = state.descriptor(0)
    assert d.x == PauliSum.single(1, 0, "Z")
    assert d.z == PauliSum.single(1, 0, "X")
    assert vacuum_expectation(d.z) == 0.0


def test_hadamard_involution():
    start = after_gates(1, hs.ry(0, 0.7))
    twice = after_gates(1, hs.ry(0, 0.7), hs.h(0, slot=1), hs.h(0, slot=2))
    for comp in "xyz":
        assert allclose(twice.descriptor(0).component(comp), start.descriptor(0).component(comp), 1e-12)


def test_hadamard_bell_stage_weight(fr_trace):
    assert proj_plus_weight(fr_trace[6], R) == pytest.approx(5 / 6, abs=1e-9)


# -- controlled-not ----------------------------------------------------------


def test_cnot_records_sharp_product(fr_trace):
    state = fr_trace[2]
    zz = state.descriptor(R).z @ state.descriptor(A).z
    assert vacuum_expectation(zz) == pytest.approx(1.0, abs=1e-9)
    assert proj_plus_weight(state, R) == pytest.approx(1 / 3, abs=1e-9)


def test_cnot_fresh_pair_keeps_target_sharp():
    state = after_gates(2, hs.cx(0, 1))
    assert vacuum_expectation(state.descriptor(1).z) == pytest.approx(1.0)


def test_cnot_second_lab_weights(fr_trace, fr_states):
    # engine weight must equal the state-vector Born weight for S's +1 branch
    state = fr_trace[4]
    born = (1 + state_expectation(fr_states[4], S, "Z")) / 2
    assert born == pytest.approx(2 / 3, abs=1e-9)
    assert proj_plus_weight(state, S) == pytest.approx(born, abs=1e-9)


# -- controlled-hadamard -----------------------------------------------------


def test_controlled_hadamard_bubble_product(fr_trace):
    state = fr_trace[3]
    zz = state.descriptor(A).z @ state.descriptor(S).z
    assert vacuum_expectation(zz) == pytest.approx(1 / 3, abs=1e-9)


def test_controlled_hadamard_sharp_control_leaves_target():
    state = after_gates(2, hs.ch(0, 1))
    assert vacuum_expectation(state.descriptor(1).z) == pytest.approx(1.0, abs=1e-12)


def test_controlled_hadamard_matches_dense_conjugation():
    rng = random.Random(7)
    pre = random_circuit(rng, 3, 5)
    steps = tuple(pre.steps) + (hs.ch(0, 2, slot=pre.max_slot + 1),)
    circuit = hs.Circuit(3, steps)
    trace = hs.run_circuit(circuit)
    dense = conjugate_descriptor(circuit, len(trace) - 1)
    for q in range(3):
        for comp in "xyz":
            engine_mat = expand(trace[-1].descriptor(q).component(comp))
            assert np.max(np.abs(engine_mat - dense[q][comp])) < 1e-9


# -- run_circuit -------------------------------------------------------------


def test_run_circuit_boundary_count(fr_circuit, fr_trace):
    assert fr_circuit.max_slot == 6
    assert len(fr_trace) == 8
    assert [state.time for state in fr_trace] == list(range(8))


def test_run_circuit_empty():
    trace = hs.run_circuit(hs.Circuit(3))
    assert len(trace) == 1
    assert trace[0].time == 0


def test_run_circuit_final_records_guaranteed(fr_trace):
    state = fr_trace[7]
    assert proj_plus_weight(state, A) == pytest.approx(1.0, abs=1e-9)
    assert proj_plus_weight(state, B) == pytest.approx(1.0, abs=1e-9)


def test_same_slot_gates_commute_bytewise(fr_circuit):
    # slot 6 holds four disjoint gates; reversing their list order must not
    # change a single serialised byte
    steps = list(fr_circuit.steps)
    head, tail = steps[:-4], steps[-4:]
    reordered = hs.Circuit(8, tuple(head + tail[::-1]), fr_circuit.labels)
    doc1 = json.dumps(trace_json_doc(fr_circuit, hs.run_circuit(fr_circuit)))
    doc2 = json.dumps(trace_json_doc(reordered, hs.run_circuit(reordered)))
    assert doc1 == doc2


class _TwoArgumentError(Exception):
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def test_run_circuit_names_failing_slot_and_chains_cause(fr_circuit, monkeypatch):
    arity, takes_angle, text, rule = engine._GATES["cx"]

    def failing(dc, dt):  # cx(S, B) first acts in slot 3
        if (dc.qubit, dt.qubit) == (S, B):
            raise _TwoArgumentError(7, "no such rule")
        return rule(dc, dt)

    monkeypatch.setitem(engine._GATES, "cx", (arity, takes_angle, text, failing))
    with pytest.raises(hs.SlotError) as info:
        hs.run_circuit(fr_circuit)
    assert isinstance(info.value, ValueError)
    assert info.value.slot == 3
    assert "slot 3" in str(info.value) and "7: no such rule" in str(info.value)
    assert isinstance(info.value.__cause__, _TwoArgumentError)


@pytest.mark.parametrize(
    "circuit, estimate",
    [
        (hs.Circuit(10**6, (hs.h(0),)), "1000000 qubits over 2 slot boundaries needs about 501552002048"),
        (hs.Circuit(2, (hs.h(0, 10**9),)), "2 qubits over 1000000002 slot boundaries needs about 1040000005154"),
    ],
    ids=["wide", "deep"],
)
def test_run_circuit_refuses_a_run_past_one_gib_before_it_allocates(circuit, estimate, monkeypatch):
    # the fresh network of 10**6 qubits holds about 0.5 TB of keys, and 10**9 empty
    # slots a record each: neither the network nor the slot groups may be built
    def allocating(*args):
        raise AssertionError("the run allocated before it was refused")

    monkeypatch.setattr(engine, "init_network", allocating)
    monkeypatch.setattr(hs.Circuit, "slot_groups", allocating)
    tracemalloc.start()
    try:
        message = f"^a run of {estimate} bytes, over the 1073741824-byte limit$"
        with pytest.raises(hs.RunTooLarge, match=message) as info:
            hs.run_circuit(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(info.value, ValueError)
    assert peak < 1 << 16


def test_gate_locality_shares_untouched_descriptors(fr_trace):
    before, after = fr_trace[2], fr_trace[3]  # slot 2 touches only A and S
    for q in range(8):
        if q in (A, S):
            assert after.descriptor(q) is not before.descriptor(q)
        else:
            assert after.descriptor(q) is before.descriptor(q)


# -- projectors --------------------------------------------------------------


def test_projector_fresh_weights():
    state = hs.init_network(1)
    assert vacuum_expectation(hs.projector(state, 0, +1)) == 1.0
    assert vacuum_expectation(hs.projector(state, 0, -1)) == 0.0


def test_projector_after_measurement(fr_trace):
    assert proj_plus_weight(fr_trace[2], R) == pytest.approx(1 / 3, abs=1e-9)


def test_projector_rejects_bad_sign(fr_trace):
    with pytest.raises(ValueError):
        hs.projector(fr_trace[0], 0, 2)


def test_pvm_identities(fr_trace):
    ident = PauliSum.identity(8)
    zero = PauliSum(8)
    for state in fr_trace:
        for q in range(8):
            p_plus = hs.projector(state, q, +1)
            p_minus = hs.projector(state, q, -1)
            assert allclose(p_plus + p_minus, ident, 1e-9)
            assert allclose(p_plus @ p_plus, p_plus, 1e-9)
            assert allclose(p_minus @ p_minus, p_minus, 1e-9)
            assert allclose(p_plus @ p_minus, zero, 1e-9)
            total = vacuum_expectation(p_plus) + vacuum_expectation(p_minus)
            assert total == pytest.approx(1.0, abs=1e-9)


# -- invariants --------------------------------------------------------------


def test_algebra_preserved_at_every_slot(fr_trace):
    ident = PauliSum.identity(8)
    for state in fr_trace:
        for q in range(8):
            d = state.descriptor(q)
            x, y, z = d.x, d.y, d.z
            assert allclose(x @ x, ident, 1e-9)
            assert allclose(y @ y, ident, 1e-9)
            assert allclose(z @ z, ident, 1e-9)
            assert allclose(x @ y, z * 1j, 1e-9)
            assert allclose(y @ z, x * 1j, 1e-9)
            assert allclose(z @ x, y * 1j, 1e-9)


def test_cross_qubit_commutation(fr_trace):
    for state in fr_trace:
        for q1 in range(8):
            for q2 in range(q1 + 1, 8):
                for c1 in "xyz":
                    for c2 in "xyz":
                        a = state.descriptor(q1).component(c1)
                        b = state.descriptor(q2).component(c2)
                        assert commutes(a, b, 1e-9)


def test_picture_equivalence(fr_crosscheck):
    assert fr_crosscheck.max_expectation_dev <= 1e-9
    assert fr_crosscheck.max_matrix_dev <= 1e-9


# -- validation --------------------------------------------------------------


def test_apply_out_of_range():
    with pytest.raises(IndexError):
        hs.Circuit(2, (hs.h(5),))
    with pytest.raises(IndexError):
        hs.Circuit(2, (hs.ry(-1, 0.3),))


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_gate_step_rejects_non_finite_angle(angle):
    with pytest.raises(ValueError, match="finite"):
        hs.ry(0, angle)


@pytest.mark.parametrize("angle", [10**400, -(10**400), Fraction(10**400, 3)], ids=["int", "negative-int", "fraction"])
def test_gate_step_rejects_angle_beyond_float_range(angle):
    # float() overflows on these; the gate says why instead of leaking OverflowError
    with pytest.raises(ValueError, match="ry angle must be finite, got a number beyond the float range"):
        hs.ry(0, angle)


def test_circuit_rejects_repeated_labels():
    with pytest.raises(ValueError, match="'R' already names qubit 0"):
        hs.Circuit(2, (), {0: "R", 1: "R"})
    with pytest.raises(IndexError):
        hs.Circuit(2, (), {2: "R"})


@pytest.mark.parametrize("name", ["", "my R", "a\tb", "a#b", "a,b", "a;b", "q1", "q2", "2", "01"])
def test_circuit_rejects_unaddressable_label(name):
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        hs.Circuit(3, (), {0: name})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: hs.GateStep("h", (1.5,), 0), "qubits and slot must be integers, got (1.5,) and 0"),
        (lambda: hs.cx(0, "1"), "qubits and slot must be integers, got (0, '1') and 0"),
        (lambda: hs.h(0, slot=1.5), "qubits and slot must be integers, got (0,) and 1.5"),
        (lambda: hs.Circuit(2.5, ()), "n_qubits must be an integer, got 2.5"),
        (lambda: hs.cx(True, False), "qubits and slot must be integers, got (True, False) and 0"),
        (lambda: hs.h(0, slot=True), "qubits and slot must be integers, got (0,) and True"),
        (lambda: hs.Circuit(True), "n_qubits must be an integer, got True"),
        (lambda: hs.init_network(True), "expected an integer, got True"),
        (lambda: hs.init_network(2.5), "expected an integer, got 2.5"),
        (lambda: hs.ry(0, True), "ry angle must be a real number, got True"),
        (lambda: hs.ry(0, np.True_), f"ry angle must be a real number, got {np.True_!r}"),
        (lambda: hs.ry(0, "0.5"), "ry angle must be a real number, got '0.5'"),
        (lambda: hs.ry(0, 0.5 + 0j), "ry angle must be a real number, got (0.5+0j)"),
    ],
    ids=[
        "float-qubit", "str-qubit", "float-slot", "float-n-qubits", "bool-qubit", "bool-slot", "bool-n-qubits",
        "bool-network", "float-network",
        "bool-angle", "numpy-bool-angle", "str-angle", "complex-angle",
    ],
)
def test_non_integer_fields_rejected_at_construction(build, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: hs.GateStep("cz", (0, 1), 0), ValueError, "unknown gate kind 'cz'"),
        (lambda: hs.h(0, slot=-1), ValueError, "slot must be non-negative"),
        (lambda: hs.Circuit(0), ValueError, "circuit needs at least one qubit"),
        (lambda: hs.init_network(0), ValueError, "network needs at least one qubit"),
        (lambda: hs.init_network(1).descriptor(0).component("w"), ValueError, "no component 'w'"),
        (lambda: hs.init_network(2).descriptor(-1), IndexError, "qubit -1 out of range"),
        (lambda: hs.init_network(2).descriptor(2), IndexError, "qubit 2 out of range"),
    ],
    ids=["unknown-kind", "negative-slot", "empty-circuit", "empty-network", "bad-component", "negative-qubit", "qubit-past-end"],
)
def test_bad_values_rejected(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_integer_fields_stored_as_int():
    step = hs.cx(np.int64(0), np.int32(1), slot=np.int64(2))
    circuit = hs.Circuit(np.int64(2), (step,))
    assert step == hs.cx(0, 1, slot=2)
    assert {type(v) for v in (*step.qubits, step.slot, circuit.n_qubits)} == {int}
    assert len(hs.run_circuit(circuit)) == 4


@pytest.mark.parametrize("key", [0.5, "0", True])
def test_circuit_rejects_non_integer_label_key(key):
    with pytest.raises(TypeError, match=f"^label keys must be integer qubit indices, got {re.escape(repr(key))}$"):
        hs.Circuit(2, (hs.cx(0, 1),), {key: "a", 1: "b"})


def test_numpy_integer_label_keys_stored_as_int():
    circuit = hs.Circuit(2, (hs.cx(0, 1),), {np.int64(0): "a", np.int32(1): "b"})
    assert circuit.labels == {0: "a", 1: "b"}
    assert {type(q) for q in circuit.labels} == {int}
    assert parse_circuit(serialize_circuit(circuit)) == circuit


# Per gate kind: qubits, angle, and the gate text on qubits labelled P (0) and Q (1).
# A kind added to the engine without a case here fails the test below.
KIND_CASES = {
    "ry": ((0,), 0.7, "Rotation on P"),
    "h": ((1,), None, "Hadamard on Q"),
    "cx": ((0, 1), None, "Controlled-not"),
    "ch": ((1, 0), None, "Controlled-H"),
}


@pytest.mark.parametrize("kind", GATE_KINDS)
def test_gate_kind_defined_across_layers(kind):
    qubits, angle, text = KIND_CASES[kind]
    for wrong in (qubits[:-1], qubits + (2,)):
        with pytest.raises(ValueError, match=f"^{kind} takes {len(qubits)} qubit"):
            hs.GateStep(kind, wrong, 0, angle)
    with pytest.raises(ValueError, match=f"^{kind} (needs an|takes no) angle$"):
        hs.GateStep(kind, qubits, 0, 0.5 if angle is None else None)
    step = hs.GateStep(kind, qubits, 0, angle)
    circuit = hs.Circuit(2, (step,), {0: "P", 1: "Q"})
    assert circuit.gate_text(step) == text
    assert parse_circuit(serialize_circuit(circuit)) == circuit
    assert np.array(check._gate_matrix(step)).shape == (2 ** len(qubits),) * 2
    report = hs.cross_check(hs.run_circuit(circuit), circuit)
    assert report.max_expectation_dev <= 1e-12
    assert report.max_matrix_dev <= 1e-12


def test_oracle_has_no_matrix_for_unknown_kind():
    # GateStep admits only the engine's kinds, so a stand-in step carries the unknown one
    with pytest.raises(KeyError, match="swap"):
        check._gate_matrix(SimpleNamespace(kind="swap", qubits=(0, 1), angle=None))


def test_gate_step_rejects_self_control():
    with pytest.raises(ValueError):
        hs.cx(1, 1)


def test_circuit_rejects_slot_clash():
    with pytest.raises(ValueError):
        hs.Circuit(2, (hs.h(0, slot=0), hs.cx(0, 1, slot=0)))


def test_circuit_rejects_decreasing_slots():
    with pytest.raises(ValueError):
        hs.Circuit(2, (hs.h(0, slot=2), hs.h(1, slot=1)))


@pytest.mark.parametrize("steps", [hs.h(0), ("h", (0,), 0, None)], ids=["one-step", "plain-tuple"])
def test_circuit_rejects_steps_that_are_not_gate_steps(steps):
    # a GateStep is a tuple, so a lone step iterates as its fields; neither is a gate
    with pytest.raises(TypeError, match="^a circuit's steps must be GateSteps, got "):
        hs.Circuit(2, steps)


def _error(build) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


def test_gate_step_replace_and_make_check_as_the_constructor_does():
    step = hs.cx(0, 1)
    expected = (ValueError, "cx control and target must differ")
    assert _error(lambda: step._replace(qubits=(0, 0))) == _error(lambda: hs.cx(0, 0)) == expected
    assert _error(lambda: hs.GateStep._make(("cx", (0, 0), 0, None))) == expected
    assert _error(lambda: step._replace(angle=0.5)) == (ValueError, "cx takes no angle")
    assert _error(lambda: step._replace(slot=1.5)) == (TypeError, "qubits and slot must be integers, got (0, 1) and 1.5")
    moved = step._replace(qubits=[np.int64(1), 0])  # coerced as the constructor coerces
    assert type(moved) is hs.GateStep and moved == hs.cx(1, 0) and {type(q) for q in moved.qubits} == {int}
    assert hs.ry(0, 1)._replace(slot=2).angle.hex() == (1.0).hex()


@pytest.mark.parametrize(
    "change, error, message",
    [
        ({"n_qubits": 0}, ValueError, "circuit needs at least one qubit"),
        ({"n_qubits": 1}, IndexError, "qubit 1 out of range (0..0)"),
        ({"steps": (hs.h(0), hs.cx(0, 1))}, ValueError, "slot 0 already uses qubit(s) [0]"),
        ({"labels": {0: "R", 1: "R"}}, ValueError, "label 'R' already names qubit 0"),
        ({"labels": {0: "a b"}}, ValueError, "label 'a b' must be a non-empty name without whitespace, '#', ',' or ';'"),
    ],
    ids=["no-qubits", "qubit-out-of-range", "slot-clash", "repeated-label", "bad-label"],
)
def test_circuit_replace_and_make_check_as_the_constructor_does(change, error, message):
    circuit = hs.Circuit(2, (hs.h(0), hs.h(1, slot=0)), {1: "R"})
    fields = {**circuit._asdict(), **change}
    assert _error(lambda: circuit._replace(**change)) == _error(lambda: hs.Circuit(**fields)) == (error, message)
    assert _error(lambda: hs.Circuit._make(fields.values())) == (error, message)


def test_circuit_replace_keeps_one_label_form():
    circuit = hs.Circuit(2, (hs.cx(0, 1),), {np.int64(0): "R"})
    assert circuit._replace(labels={}) == hs.Circuit(2, (hs.cx(0, 1),)) and circuit._replace(labels={}).labels is None
    assert type(circuit._replace()) is hs.Circuit and circuit._replace() == circuit
    assert circuit._replace().labels is not circuit.labels  # each circuit holds its own dict


def _records(circuit, trace, timeline, crosscheck) -> list:
    """One value of every record type, from the engine, the fold, the tree, the table and the oracle."""
    report = timeline[1][-1][(R, A)]
    tree = hs.build_branch_tree(circuit, timeline)
    row = hs.report_rows(circuit, timeline)[0]
    return [circuit.steps[0], circuit, trace[1].descriptor(R), trace[1], report.witness, report,
            tree.nodes[1], tree.edges[0], tree, row, crosscheck]


def test_records_are_immutable(fr_circuit, fr_trace, fr_timeline, fr_crosscheck):
    records = _records(fr_circuit, fr_trace, fr_timeline, fr_crosscheck)
    assert len({type(record) for record in records}) == 11
    for record in records:
        name = type(record).__name__
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], record[0])
        with pytest.raises(AttributeError):
            record.extra = 1
        assert repr(record).startswith(f"{name}({record._fields[0]}=")


def test_records_compare_equal_to_the_tuple_of_their_fields(fr_circuit):
    # the records are named tuples: equal to a plain tuple of their fields, iterable and hashable
    step = hs.h(0, slot=3)
    assert step == ("h", (0,), 3, None) and tuple(step) == ("h", (0,), 3, None)
    assert hash(step) == hash(("h", (0,), 3, None))
    assert hs.Circuit(*fr_circuit) == fr_circuit


def test_records_round_trip_through_pickle(fr_circuit, fr_trace, fr_timeline):
    report = fr_timeline[1][-1][(R, A)]
    for record in (fr_circuit.steps[0], hs.ry(0, 0.25, slot=1), fr_circuit, fr_trace[2].descriptor(A), report):
        restored = pickle.loads(pickle.dumps(record))
        assert type(restored) is type(record) and restored == record and repr(restored) == repr(record)


def test_trace_json_shape(fr_circuit, fr_trace):
    doc = trace_json_doc(fr_circuit, fr_trace)
    assert doc["format_version"] == 1
    assert doc["n_qubits"] == 8
    assert doc["labels"]["4"] == "U_R"
    assert len(doc["slots"]) == 8
    first = doc["slots"][0]["descriptors"][0]
    assert first["z"] == [{"coeff": [1.0, 0.0], "letters": {"0": "Z"}}]


def test_trace_json_doc_serialises_each_operator_object_once(fr_circuit, fr_trace, monkeypatch):
    # run_circuit hands untouched components on as the same objects, and h
    # moves x and z to each other's place: each object is serialised once,
    # and every component that is it shares that one list of terms
    calls = []
    to_json = PauliSum.to_json
    monkeypatch.setattr(PauliSum, "to_json", lambda op: calls.append(op) or to_json(op))
    doc = trace_json_doc(fr_circuit, fr_trace)
    ops = [op for state in fr_trace for d in state.descriptors for op in d.triple]
    lists = [d[name] for slot in doc["slots"] for d in slot["descriptors"] for name in "xyz"]
    assert len(ops) == len(lists) == 192
    assert len(calls) == len({id(op) for op in calls}) == len({id(op) for op in ops}) == 65
    assert len({(id(op), id(terms)) for op, terms in zip(ops, lists)}) == len({id(terms) for terms in lists}) == 65


# SHA-256 of json.dumps(trace_json_doc(...)) for random_circuit(Random(seed),
# n, gates), computed with the pure-Python product loop; the operators reach
# 1620, 800 and 3601 terms per component, beyond the few-term operators the
# fr goldens cover, and seed 2 on 8 qubits multiplies 2037 by 2432 terms.
# Seed 9 on 20 qubits reaches 4000 terms, and 82% of its term pairs are in
# products with a one-term operand or on disjoint supports, which skip the merge.
LARGE_TRACE_DIGESTS = [
    (4, 8, 40, "24eee2d07d029e8f066ccf377f4723dd00b9d5317b4c63cf28592a7e66240843"),
    (2, 12, 40, "5e105bfb19445c9352c1ff60c1097e7bf2b4338595fdd22b1c34b275b7c9dee1"),
    (2, 8, 40, "4f345fe348478af78fc0302b0cf93e024473519797b4bdbef2293e5990ede3db"),
    (9, 20, 50, "ea47a4a89dceb1b3d4fdc46819ec68aa507c1e38d9093d4004d1f80425b33841"),
]
_DIGEST_IDS = [f"{seed}-{n}-{digest}" for seed, n, _, digest in LARGE_TRACE_DIGESTS]


@pytest.mark.parametrize("seed,n_qubits,n_gates,digest", LARGE_TRACE_DIGESTS, ids=_DIGEST_IDS)
def test_trace_json_bytes_pinned_on_large_operators(seed, n_qubits, n_gates, digest):
    circuit = random_circuit(random.Random(seed), n_qubits, n_gates)
    text = json.dumps(trace_json_doc(circuit, hs.run_circuit(circuit)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("seed,n_qubits,n_gates,digest", LARGE_TRACE_DIGESTS, ids=_DIGEST_IDS)
def test_trace_json_bytes_pinned_with_every_product_vectorised(
    seed, n_qubits, n_gates, digest, every_product_vectorised
):
    test_trace_json_bytes_pinned_on_large_operators(seed, n_qubits, n_gates, digest)


@st.composite
def parallel_circuits(draw):
    """``random_parallel_circuit`` on 2-6 qubits and at most 30 slots.

    At most 60 qubit-slots, so the operators stay a few hundred terms: a
    6-qubit circuit of 27 slots grows them past 2000, and both routes with
    their oracle checks then take about 40 s of CPU on a 2-vCPU Xeon.
    Deeper circuits drift (ROADMAP item 12).
    """
    n_qubits = draw(st.integers(2, 6))
    n_slots = draw(st.integers(1, min(30, 60 // n_qubits)))
    return random_parallel_circuit(draw(st.randoms(use_true_random=False)), n_qubits, n_slots)


# No shrink phase: each shrink step reruns both routes and the oracle, and a
# kernel that summed keys out of pair order took 22 minutes to shrink.
@given(parallel_circuits())
@settings(max_examples=30, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_loop_and_kernel_traces_agree_byte_for_byte_and_with_the_oracle(circuit):
    texts = []
    for crossover in (math.inf, 0):  # every product in the loop, then every product in the kernel
        with mock.patch.object(pauli, "_CROSSOVER", crossover):
            trace = hs.run_circuit(circuit)
        texts.append(json.dumps(trace_json_doc(circuit, trace)))
        report = hs.cross_check(trace, circuit)
        assert report.max_expectation_dev <= 1e-9 and report.max_matrix_dev <= 1e-9
    assert texts[0] == texts[1]


def _moved_key(key: int, n: int, perm) -> int:
    """``key`` (x << n | z) with the letter on each qubit q moved to qubit perm[q]."""
    return sum(1 << (i - i % n + perm[i % n]) for i in range(2 * n) if key >> i & 1)


def _term_bits(op: PauliSum, perm=None) -> list:
    """Each term's key, moved by ``perm`` if given, and its coefficient's bits, in dict order."""
    n = op.n_qubits
    return [(key if perm is None else _moved_key(key, n, perm), c.real.hex(), c.imag.hex()) for key, c in op._terms.items()]


_INVARIANT_CIRCUITS = [chain(3)] + [random_parallel_circuit(random.Random(s), 6, 10) for s in range(3)]
_INVARIANT_IDS = ["chain3"] + [f"parallel{s}" for s in range(3)]


_RELABELLING_CASES = [
    pytest.param(circuit, vectorised, id=f"{name}-{'kernel' if vectorised else 'loop'}")
    for circuit, name in zip(_INVARIANT_CIRCUITS, _INVARIANT_IDS)
    for vectorised in (False, True)
] + [  # kept out of _INVARIANT_CIRCUITS, so the other tests that read it stay fast
    pytest.param(chain(7), False, id="chain7-loop"),  # 28 qubits
    pytest.param(chain(7), True, id="chain7-kernel"),
    pytest.param(chain(8), False, id="chain8-loop"),  # 32 qubits: the kernel takes at most 31
]


@pytest.mark.parametrize("circuit, vectorised", _RELABELLING_CASES)
def test_relabelling_qubits_moves_every_key_and_keeps_every_bit(circuit, vectorised, request):
    # a relabelling maps keys one to one and keeps every popcount, pair order
    # and summation order, so qubit perm[q] gets q's terms moved, bit for bit
    if vectorised:
        request.getfixturevalue("every_product_vectorised")
    n = circuit.n_qubits
    perm = random.Random(n).sample(range(n), n)
    assert perm != list(range(n))
    moved = hs.Circuit(n, tuple(s._replace(qubits=tuple(perm[q] for q in s.qubits)) for s in circuit.steps))
    for state, image in zip(hs.run_circuit(circuit), hs.run_circuit(moved), strict=True):
        for q in range(n):
            for op, op_image in zip(state.descriptor(q).triple, image.descriptor(perm[q]).triple):
                assert _term_bits(op_image) == _term_bits(op, perm)


# No shrink phase, as in the loop-and-kernel test above: each shrink step reruns both routes
@given(parallel_circuits(), st.data())
@settings(max_examples=30, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_relabelling_random_parallel_circuits_keeps_every_bit(circuit, data):
    n = circuit.n_qubits
    perm = data.draw(st.permutations(range(n)), label="perm")
    moved = hs.Circuit(n, tuple(s._replace(qubits=tuple(perm[q] for q in s.qubits)) for s in circuit.steps))
    for crossover in (math.inf, 0):  # every product in the loop, then every product in the kernel
        with mock.patch.object(pauli, "_CROSSOVER", crossover):
            pairs = zip(hs.run_circuit(circuit), hs.run_circuit(moved), strict=True)
            for state, image in pairs:
                for q in range(n):
                    for op, op_image in zip(state.descriptor(q).triple, image.descriptor(perm[q]).triple):
                        assert _term_bits(op_image) == _term_bits(op, perm)


@pytest.mark.parametrize("vectorised", [False, True], ids=["loop", "kernel"])
@pytest.mark.parametrize("circuit", _INVARIANT_CIRCUITS, ids=_INVARIANT_IDS)
def test_one_gate_per_slot_keeps_the_final_descriptors(circuit, vectorised, request):
    # each qubit meets its gates in the same order, so every operator comes
    # from the same operands by the same operations
    if vectorised:
        request.getfixturevalue("every_product_vectorised")
    serial = hs.Circuit(circuit.n_qubits, tuple(s._replace(slot=t) for t, s in enumerate(circuit.steps)))
    final, serial_final = hs.run_circuit(circuit)[-1], hs.run_circuit(serial)[-1]
    for q in range(circuit.n_qubits):
        for op, op_serial in zip(final.descriptor(q).triple, serial_final.descriptor(q).triple):
            assert _term_bits(op_serial) == _term_bits(op)


def _retimed(circuit: hs.Circuit, delays) -> hs.Circuit:
    """``circuit`` with each gate, in list order, put ``delays[i]`` slots after the latest
    gate on its qubits: each qubit keeps its gates in order, and a slot's gates stay disjoint."""
    free = [0] * circuit.n_qubits  # the first slot each qubit is free in
    steps = []
    for step, delay in zip(circuit.steps, delays, strict=True):
        slot = max(free[q] for q in step.qubits) + delay
        for q in step.qubits:
            free[q] = slot + 1
        steps.append(step._replace(slot=slot))
    return hs.Circuit(circuit.n_qubits, tuple(sorted(steps, key=lambda s: s.slot)))


# No shrink phase, as in the loop-and-kernel test above: each shrink step reruns both routes
@given(parallel_circuits(), st.data())
@settings(max_examples=20, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_retiming_random_parallel_circuits_keeps_the_final_descriptors(circuit, data):
    # each qubit meets its gates in the same order, so every operator comes from the
    # same operands by the same operations, whatever slots the gates land in
    delays = data.draw(st.lists(st.integers(0, 2), min_size=len(circuit.steps), max_size=len(circuit.steps)))
    retimed = _retimed(circuit, delays)
    for crossover in (math.inf, 0):  # every product in the loop, then every product in the kernel
        with mock.patch.object(pauli, "_CROSSOVER", crossover):
            final, retimed_final = hs.run_circuit(circuit)[-1], hs.run_circuit(retimed)[-1]
        for q in range(circuit.n_qubits):
            for op, op_retimed in zip(final.descriptor(q).triple, retimed_final.descriptor(q).triple):
                assert _term_bits(op_retimed) == _term_bits(op)


@pytest.mark.parametrize("circuit", [hs.preset_fr()] + _INVARIANT_CIRCUITS, ids=["fr"] + _INVARIANT_IDS)
def test_real_gates_keep_every_component_in_its_y_grading(circuit):
    # every gate matrix is real, so U is real orthogonal: x and z hold only strings
    # with an even number of Y letters and y only odd ones, every coefficient is
    # real, and no odd string has x mask 0, so every y mean is exactly 0.0
    for state in hs.run_circuit(circuit):
        for d in state.descriptors:
            for parity, op in zip((0, 1, 0), d.triple):
                assert all((x & z).bit_count() % 2 == parity and c.imag == 0 for x, z, c in _term_masks(op))
            assert repr(vacuum_expectation(d.y)) == "0.0"
