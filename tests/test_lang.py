"""Circuit grammar: parsing, diagnostics, expression evaluation, round-trips."""
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heisensim as hs
from heisensim import engine, lang
from heisensim.lang import CircuitSyntaxError, parse_circuit, serialize_circuit

from conftest import random_circuit


def test_parse_minimal_two_qubit_document():
    circuit = parse_circuit("qubits 2\nry 0 2*arcsin(sqrt(2/3))\ncx 0 1\n")
    assert circuit.n_qubits == 2
    assert [s.slot for s in circuit.steps] == [0, 1]
    assert circuit.steps[0].angle == pytest.approx(hs.FR_ANGLE, abs=1e-15)
    assert circuit.steps[1].kind == "cx"


def test_preset_file_angle_is_fr_angle():
    assert hs.preset_fr().steps[0].angle == hs.FR_ANGLE  # bit-exact


def test_preset_calls_return_fresh_circuits():
    first, second = hs.preset_fr(), hs.preset_fr()
    assert first == second
    assert first.labels is not second.labels
    first.labels[0] = "changed"
    assert hs.preset_fr().labels[0] == "R"


def test_preset_calls_check_no_gate(monkeypatch):
    # the preset's gates were admitted once, as its file was parsed; a call copies them unchecked
    hs.get_preset("fr")  # parsed here if no earlier test read it
    calls = []
    monkeypatch.setattr(engine, "check_step", lambda *args: calls.append(args))
    first, second = hs.get_preset("fr"), hs.get_preset("fr")
    assert calls == []
    assert first == second and len(first.steps) == 12
    assert first.labels == second.labels and first.labels is not second.labels


def test_parse_checks_each_gate_once(monkeypatch):
    # the parser admits each gate line as it reads it; the circuit it builds is not checked again
    circuit = random_circuit(random.Random(3), 6, 50)
    text, check, calls = serialize_circuit(circuit), engine.check_step, []

    def counted(step, *args):
        calls.append(step)
        return check(step, *args)

    monkeypatch.setattr(lang, "check_step", counted)
    monkeypatch.setattr(engine, "check_step", counted)
    assert parse_circuit(text) == circuit
    assert calls == list(circuit.steps)


def test_self_controlled_gate_diagnostic_line():
    with pytest.raises(CircuitSyntaxError, match="line 1") as err:
        parse_circuit("cx 0 0")
    assert err.value.line == 1
    with pytest.raises(CircuitSyntaxError, match="line 2.*differ"):
        parse_circuit("qubits 2\ncx 0 0")


def test_comments_and_blank_lines_ignored():
    text = "# preamble\n\nqubits 1\n\nh 0  # trailing\n"
    circuit = parse_circuit(text)
    assert len(circuit.steps) == 1


def test_explicit_slots_group_gates():
    circuit = parse_circuit("qubits 4\n@0 cx 0 1\n@0 cx 2 3\nh 0\n")
    assert [s.slot for s in circuit.steps] == [0, 0, 1]


def test_slot_overlap_diagnostic():
    with pytest.raises(CircuitSyntaxError, match="line 3.*already uses"):
        parse_circuit("qubits 2\n@0 h 0\n@0 cx 0 1\n")


def test_slot_backwards_diagnostic():
    with pytest.raises(CircuitSyntaxError, match="line 3.*backwards"):
        parse_circuit("qubits 2\n@2 h 0\n@1 h 1\n")


def test_unknown_gate_diagnostic():
    with pytest.raises(CircuitSyntaxError, match="line 2.*unknown gate 'cz'"):
        parse_circuit("qubits 2\ncz 0 1\n")


def test_index_out_of_range_diagnostic():
    with pytest.raises(CircuitSyntaxError, match="line 2.*out of range"):
        parse_circuit("qubits 2\nh 7\n")


@pytest.mark.parametrize("expr", ["1e999", "1e999-1e999"])
def test_non_finite_angle_diagnostic(expr):
    with pytest.raises(CircuitSyntaxError, match="line 2.*finite") as err:
        parse_circuit(f"qubits 1\nry 0 {expr}\n")
    assert err.value.line == 2


@pytest.mark.parametrize("expr", ["10**400", "9" * 400])
def test_angle_beyond_float_range_diagnostic(expr):
    # the parser reports the overflow itself, before a gate is built
    with pytest.raises(CircuitSyntaxError, match="line 2: cannot evaluate") as err:
        parse_circuit(f"qubits 1\nry 0 {expr}\n")
    assert err.value.line == 2


def test_duplicate_label_name_diagnostic():
    with pytest.raises(CircuitSyntaxError, match="line 3.*'R' already names qubit 0"):
        parse_circuit("qubits 2\nlabel 0 R\nlabel 1 R\n")


def test_qubit_labelled_twice_diagnostic():
    with pytest.raises(CircuitSyntaxError, match="line 4.*qubit 0 is already labelled 'R'"):
        parse_circuit("qubits 2\nlabel 0 R\nlabel 1 A\nlabel 0 S\n")


def test_label_index_out_of_range_diagnostic():
    with pytest.raises(CircuitSyntaxError, match="line 2.*out of range"):
        parse_circuit("qubits 2\nlabel 2 R\n")


def test_labels_round_trip():
    circuit = parse_circuit("qubits 2\nlabel 0 R\nlabel 1 A\ncx 0 1\n")
    assert circuit.labels == {0: "R", 1: "A"}
    assert parse_circuit(serialize_circuit(circuit)) == circuit
    # an empty label mapping parses back from a document with no label lines
    unlabelled = hs.Circuit(2, (hs.h(0),), {})
    assert parse_circuit(serialize_circuit(unlabelled)) == unlabelled


@pytest.mark.parametrize("name", ["a,b", "a;b", "q1", "1"])
def test_unaddressable_label_diagnostic(name):
    with pytest.raises(CircuitSyntaxError, match=f"line 3.*label {re.escape(repr(name))}") as err:
        parse_circuit(f"qubits 2\n# labels\nlabel 0 {name}\n")
    assert err.value.line == 3


def test_accepted_label_names_round_trip():
    # q0 is qubit 0's own default name, q9 names no qubit of five, q01 no qubit at all
    labels = {0: "q0", 1: "U_R", 2: "q01", 3: "q9", 4: "état.2"}
    circuit = hs.Circuit(5, (hs.h(0), hs.cx(0, 4, slot=1)), labels)
    again = parse_circuit(serialize_circuit(circuit))
    assert again == circuit
    assert again.labels == labels


def test_label_after_gate_rejected():
    with pytest.raises(CircuitSyntaxError, match="line 3.*before gates"):
        parse_circuit("qubits 2\nh 0\nlabel 0 R\n")


def test_missing_qubits_directive():
    with pytest.raises(CircuitSyntaxError, match="qubits"):
        parse_circuit("h 0\n")
    with pytest.raises(CircuitSyntaxError, match="line 1"):
        parse_circuit("")


@pytest.mark.parametrize("count", ["0", "two", "²"])
def test_bad_qubit_count_diagnostic(count):
    with pytest.raises(CircuitSyntaxError, match="line 1.*expected: qubits <positive integer>"):
        parse_circuit(f"qubits {count}\nh 0\n")


@pytest.mark.parametrize("token", ["1_0", "\u0663", "-0", "+1"], ids=["underscore", "arabic-3", "minus", "plus"])
@pytest.mark.parametrize("line", ["h {}", "label {} R", "@{} h 0"], ids=["gate", "label", "slot"])
def test_numbers_are_ascii_digits_only(line, token):
    # int() would read these as 10, 3, 0 and 1
    with pytest.raises(CircuitSyntaxError, match=f"line 3: bad .*{re.escape(repr(token))}") as err:
        parse_circuit(f"qubits 12\n# ASCII digits only\n{line.format(token)}\n")
    assert err.value.line == 3


def test_qubits_must_come_first():
    with pytest.raises(CircuitSyntaxError, match="line 3.*duplicate"):
        parse_circuit("qubits 2\nh 0\nqubits 2\n")
    for text in ("label 0 R\nqubits 2\n", "@0 h 0\nqubits 2\n"):
        with pytest.raises(CircuitSyntaxError, match="^line 1: qubits directive must come before anything else$"):
            parse_circuit(text)


@pytest.mark.parametrize(
    "line, message",
    [
        ("label 0", "expected: label <index> <name>"),
        ("label 0 R A", "expected: label <index> <name>"),
        ("@3", "slot prefix without a gate"),
        ("ry 0", "expected: ry <q> <angle-expr>"),
        ("cx 0", "cx takes 2 qubit(s), got (0,)"),
    ],
    ids=["label-without-name", "label-with-two-names", "bare-slot", "ry-without-angle", "cx-one-qubit"],
)
def test_incomplete_line_diagnostic(line, message):
    with pytest.raises(CircuitSyntaxError, match=f"^line 2: {re.escape(message)}$"):
        parse_circuit(f"qubits 2\n{line}\n")


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match=r"^unknown preset 'nope' \(available: fr\)$"):
        hs.get_preset("nope")


# -- angle expressions ---------------------------------------------------------


@pytest.mark.parametrize(
    "expr,value",
    [
        ("pi/2", math.pi / 2),
        ("2*arcsin(sqrt(2/3))", hs.FR_ANGLE),
        ("-0.5", -0.5),
        ("1+2*3", 7.0),
        ("2**3", 8.0),
        ("cos(0)", 1.0),
        ("arccos(-1)", math.pi),
        ("2*asin(sqrt(2/3))", hs.FR_ANGLE),
        ("acos(-1)", math.pi),
        ("4*atan(1)", math.pi),
        ("arctan(1)", math.pi / 4),
    ],
)
def test_angle_expressions(expr, value):
    circuit = parse_circuit(f"qubits 1\nry 0 {expr}\n")
    assert circuit.steps[0].angle == pytest.approx(value, abs=1e-15)


def test_malformed_expression_diagnostic():
    with pytest.raises(CircuitSyntaxError, match="line 2.*malformed"):
        parse_circuit("qubits 1\nry 0 sqrt(\n")


def test_expression_rejects_unknown_names_and_calls():
    with pytest.raises(CircuitSyntaxError, match="unknown name"):
        parse_circuit("qubits 1\nry 0 x\n")
    with pytest.raises(CircuitSyntaxError, match="unknown function"):
        parse_circuit("qubits 1\nry 0 __import__(1)\n")
    with pytest.raises(CircuitSyntaxError, match="unsupported syntax"):
        parse_circuit("qubits 1\nry 0 [1]\n")
    with pytest.raises(CircuitSyntaxError, match="line 2, column 1: sqrt takes one positional argument"):
        parse_circuit("qubits 1\nry 0 sqrt(1, 2)\n")


@pytest.mark.parametrize(
    "expr",
    ["-" * 1500 + "1", "2**" * 3000 + "2", "1" + "+1" * 5000],
    ids=["deep-unary", "deep-power", "long-sum"],
)
def test_deeply_nested_expression_diagnostic(expr):
    # parsing or walking these exhausts the stack; the file gets a line, not a traceback
    with pytest.raises(CircuitSyntaxError, match="line 2: angle expression is nested too deeply"):
        parse_circuit(f"qubits 1\nry 0 {expr}\n")


@pytest.mark.parametrize("expr", ["True", "False", "-True", "2*False"])
def test_bool_constants_are_not_angles(expr):
    with pytest.raises(CircuitSyntaxError, match="line 2.*unsupported syntax"):
        parse_circuit(f"qubits 1\nry 0 {expr}\n")


def test_expression_domain_error_diagnostic():
    with pytest.raises(CircuitSyntaxError, match="line 2.*cannot evaluate"):
        parse_circuit("qubits 1\nry 0 arcsin(2)\n")


# -- round trips ----------------------------------------------------------------


def test_round_trip_preserves_exact_angles():
    circuit = hs.Circuit(1, (hs.ry(0, hs.FR_ANGLE, slot=0),))
    again = parse_circuit(serialize_circuit(circuit))
    assert again.steps[0].angle == circuit.steps[0].angle  # bit-exact
    # numpy and int angles are stored as float, so their repr is a number the parser reads
    for angle in (np.float64(0.5), np.float32(0.1), np.int64(-2), 1):
        circuit = hs.Circuit(1, (hs.ry(0, angle),))
        assert type(circuit.steps[0].angle) is float and circuit.steps[0].angle == float(angle)
        assert parse_circuit(serialize_circuit(circuit)) == circuit
    assert serialize_circuit(hs.Circuit(1, (hs.ry(0, 1),))) == "qubits 1\n@0 ry 0 1.0\n"


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_round_trip_random_circuits(seed):
    rng = random.Random(seed)
    circuit = random_circuit(rng, rng.randint(2, 5), rng.randint(0, 8))
    assert parse_circuit(serialize_circuit(circuit)) == circuit
