"""Line-based circuit description language.

::

    # comment
    qubits 8
    label 0 R
    label 1 A
    @0 ry 0 2*arcsin(sqrt(2/3))
    @1 cx 0 1
    h 0                 # no @slot: previous slot + 1

* ``qubits <n>`` must come first; ``label <idx> <name>`` lines may follow
  before any gate, one per qubit, each name used once.  A name is one token
  without ``#``, ``,`` or ``;``, and not ``q<k>`` for another qubit k.
* Gate lines are ``ry <q> <angle-expr>``, ``h <q>``, ``cx <c> <t>``,
  ``ch <c> <t>``, optionally prefixed with ``@<slot>``.  Without a prefix a
  gate occupies the slot after the previous gate's; an explicit ``@<slot>``
  may repeat the current slot to run gates in parallel (on disjoint
  qubits) but may not go backwards.  Counts, indices and slots are
  written in ASCII digits only.
* Angle expressions allow numbers, ``pi``, arithmetic (+ - * / **), and
  ``sqrt``, ``arcsin``, ``arccos``, ``arctan`` (or ``asin``, ``acos``,
  ``atan``), ``sin``, ``cos``, ``tan``; the value must be finite.

The parser checks only the syntax.  Each gate line becomes a
:class:`~heisensim.engine.GateStep` and each gate and label line goes
through :func:`~heisensim.engine.check_step` or
:func:`~heisensim.engine.check_label`, the checks :class:`Circuit` itself
makes, so a file and a hand-built circuit are held to the same rules.  Each
line is checked once, as it is read, so every diagnostic carries the
offending line number.
"""
from __future__ import annotations

import ast
import math
import re

from .engine import _GATES, Circuit, GateStep, _is_ascii_number, check_label, check_step

__all__ = ["CircuitSyntaxError", "parse_circuit", "serialize_circuit"]


class CircuitSyntaxError(ValueError):
    """Parse failure, addressed by line (and column where available)."""

    def __init__(self, message: str, line: int, column: int | None = None):
        at = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{at}: {message}")
        self.line = line
        self.column = column


_ANGLE_FUNCS = {
    "sqrt": math.sqrt,
    "arcsin": math.asin,
    "arccos": math.acos,
    "arctan": math.atan,
    "asin": math.asin,
    "acos": math.acos,
    "atan": math.atan,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
}
_ANGLE_NAMES = {"pi": math.pi}
_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a ** b,
}
# A finite float as repr writes it, in ASCII with a point or an exponent: ``float`` reads it
# to the bits of the same literal, so it needs no parse
_REPR_FLOAT = re.compile(r"-?[0-9]+(?:\.[0-9]+(?:e[+-][0-9]+)?|e[+-][0-9]+)")


def _eval_angle(expr: str, line: int) -> float:
    if _REPR_FLOAT.fullmatch(expr) and math.isfinite(value := float(expr)):
        return value

    def walk(node: ast.AST) -> float:
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):  # no bool
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id in _ANGLE_NAMES:
                return _ANGLE_NAMES[node.id]
            raise CircuitSyntaxError(f"unknown name {node.id!r}", line, node.col_offset + 1)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            value = walk(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id not in _ANGLE_FUNCS:
                raise CircuitSyntaxError(
                    f"unknown function {node.func.id!r}", line, node.col_offset + 1
                )
            if len(node.args) != 1 or node.keywords:
                raise CircuitSyntaxError(
                    f"{node.func.id} takes one positional argument", line, node.col_offset + 1
                )
            return _ANGLE_FUNCS[node.func.id](walk(node.args[0]))
        raise CircuitSyntaxError(
            f"unsupported syntax in expression {expr!r}", line, getattr(node, "col_offset", 0) + 1
        )

    try:
        return walk(ast.parse(expr, mode="eval").body)
    except CircuitSyntaxError:
        raise
    except SyntaxError as exc:
        raise CircuitSyntaxError(f"malformed expression {expr!r}", line, exc.offset) from None
    except (RecursionError, MemoryError):
        # parsing or walking a deeply nested expression exhausts the stack
        raise CircuitSyntaxError("angle expression is nested too deeply", line) from None
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise CircuitSyntaxError(f"cannot evaluate {expr!r}: {exc}", line) from None


def _parse_index(token: str, line: int, what: str = "qubit index") -> int:
    """An index written in ASCII digits only, as ``qubits`` and ``--watch`` read them."""
    if not _is_ascii_number(token):
        raise CircuitSyntaxError(f"bad {what} {token!r}", line)
    return int(token)


def parse_circuit(text: str) -> Circuit:
    """Parse a circuit document into a :class:`~heisensim.engine.Circuit`."""
    n_qubits: int | None = None
    labels: dict[int, str] = {}
    steps: list[GateStep] = []
    slot = -1
    held: set[int] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]

        if head == "qubits":
            if n_qubits is not None:
                raise CircuitSyntaxError("duplicate qubits directive", lineno)
            if len(tokens) != 2 or not _is_ascii_number(tokens[1]) or int(tokens[1]) < 1:
                raise CircuitSyntaxError("expected: qubits <positive integer>", lineno)
            n_qubits = int(tokens[1])
            continue

        if n_qubits is None:
            raise CircuitSyntaxError("qubits directive must come before anything else", lineno)

        if head == "label":
            if steps:
                raise CircuitSyntaxError("labels must come before gates", lineno)
            if len(tokens) != 3:
                raise CircuitSyntaxError("expected: label <index> <name>", lineno)
            q, name = _parse_index(tokens[1], lineno), tokens[2]
            try:
                check_label(labels, q, name, n_qubits)
            except (ValueError, IndexError) as exc:
                raise CircuitSyntaxError(str(exc), lineno) from None
            continue

        # gate line, with optional @slot prefix
        next_slot = slot + 1
        if head.startswith("@"):
            next_slot = _parse_index(head[1:], lineno, "slot")
            tokens = tokens[1:]
            if not tokens:
                raise CircuitSyntaxError("slot prefix without a gate", lineno)
            head = tokens[0]

        if head not in _GATES:
            raise CircuitSyntaxError(f"unknown gate {head!r}", lineno)
        arity, takes_angle, _, _ = _GATES[head]
        angle = None
        if takes_angle:
            if len(tokens) < arity + 2:
                raise CircuitSyntaxError(f"expected: {head} {'<q> ' * arity}<angle-expr>", lineno)
            angle = _eval_angle(" ".join(tokens[arity + 1:]), lineno)
            tokens = tokens[:arity + 1]
        qubits = tuple(_parse_index(token, lineno) for token in tokens[1:])

        try:
            step = GateStep(head, qubits, next_slot, angle)
            check_step(step, n_qubits, slot, held)
        except (ValueError, IndexError) as exc:
            raise CircuitSyntaxError(str(exc), lineno) from None
        steps.append(step)
        slot = next_slot

    if n_qubits is None:
        raise CircuitSyntaxError("missing qubits directive", 1)
    return Circuit._from_checked(n_qubits, tuple(steps), labels)


def serialize_circuit(circuit: Circuit) -> str:
    """Textual form that parses back to an equal circuit (angles via repr)."""
    lines = [f"qubits {circuit.n_qubits}"]
    if circuit.labels:
        for q in sorted(circuit.labels):
            lines.append(f"label {q} {circuit.labels[q]}")
    for step in circuit.steps:
        angle = "" if step.angle is None else f" {step.angle!r}"  # GateStep: an angle only where one is taken
        lines.append(f"@{step.slot} {step.kind} {' '.join(map(str, step.qubits))}{angle}")
    return "\n".join(lines) + "\n"
