"""Descriptor network: per-qubit Heisenberg observables evolved gate by gate.

Each qubit carries a descriptor, the triple (x, y, z) of operators that at
time 0 equals its local (sigma_x, sigma_y, sigma_z) and thereafter evolves
under the circuit while the global state stays pinned to the all-zeros
vector.  Gates act through closed-form update rules on the pre-gate
components.  The private table ``_GATES`` is the one definition of a gate
kind (arity, angle, :meth:`Circuit.gate_text` template, rule); ``check``
keeps its own gate matrices on purpose, as the independent cross-check:

* ``ry(phi)``:   x' = x cos(phi) + z sin(phi),  y' = y,
  z' = z cos(phi) - x sin(phi)
* ``h``:         (x, y, z) -> (z, -y, x)
* ``cx(c, t)``:  control (x t_x, y t_x, z); target (t_x, t_y c_z, t_z c_z)
* ``ch(c, t)``:  control (x u, y u, z) with u = (t_x + t_z)/sqrt(2);
  target (t_x P+ + t_z P-, t_y c_z, t_z P+ + t_x P-) where
  P+- = (I +- c_z)/2 are the branch projectors of the control.

Gates occupy integer time slots; a slot's gates act on disjoint qubits, so
their application order inside the slot is irrelevant.  A run produces one
network state per slot boundary t = 0..max_slot+1; :func:`run_circuit` is
the one way to apply gates.  States are immutable; untouched descriptors
are shared between consecutive states.

:func:`check_step` and :func:`check_label` are the one circuit validation
path: :class:`Circuit` and the circuit-file parser both run them, so qubit
range, slot order, slot clashes and unique, addressable labels are checked
in one place.
:class:`GateStep` checks each gate on its own (kind, arity, integer qubits
and slot, finite angle, stored as ``float``).
"""
from __future__ import annotations

import math
import numbers
import re
from typing import Mapping, NamedTuple

from .pauli import PauliSum, _integer, _rotated_pair

__all__ = [
    "GATE_KINDS",
    "GateStep",
    "SlotError",
    "RunTooLarge",
    "Circuit",
    "Descriptor",
    "NetworkState",
    "Trace",
    "ry",
    "h",
    "cx",
    "ch",
    "check_step",
    "check_label",
    "init_network",
    "run_circuit",
    "projector",
    "trace_json_doc",
]

COMPONENTS = ("x", "y", "z")

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_DEFAULT_LABEL = re.compile(r"q(0|[1-9][0-9]*)")


def _is_ascii_number(token: str) -> bool:
    """The one number format of circuit files and ``--watch``: ASCII digits only."""
    return token.isascii() and token.isdigit()


class SlotError(ValueError):
    """A gate failed while the engine applied one time slot.

    ``slot`` is the failing slot; the original exception is ``__cause__``.
    """

    def __init__(self, slot: int, exc: Exception):
        super().__init__(slot, exc)  # args rebuild the error when it is pickled
        self.slot = slot

    def __str__(self) -> str:
        return f"slot {self.slot}: {self.args[1]}"


class RunTooLarge(ValueError):
    """A run that :func:`run_circuit` refuses before it allocates: its estimated bytes pass ``_RUN_BYTES``."""


_RUN_BYTES = 1 << 30  # 1 GiB


class _GateFields(NamedTuple):
    kind: str
    qubits: tuple[int, ...]
    slot: int
    angle: float | None = None


class GateStep(_GateFields):
    """One gate occupying the time interval (slot, slot + 1)."""

    __slots__ = ()

    def __new__(cls, kind: str, qubits: tuple[int, ...], slot: int, angle: float | None = None):
        try:  # numpy integers pass and are stored as int
            qubits, slot = tuple(map(_integer, qubits)), _integer(slot)
        except TypeError:
            raise TypeError(f"qubits and slot must be integers, got {qubits!r} and {slot!r}") from None
        if kind not in _GATES:
            raise ValueError(f"unknown gate kind {kind!r}")
        arity, takes_angle, _, _ = _GATES[kind]
        if len(qubits) != arity:
            raise ValueError(f"{kind} takes {arity} qubit(s), got {qubits}")
        if arity == 2 and qubits[0] == qubits[1]:
            raise ValueError(f"{kind} control and target must differ")
        if takes_angle:
            if angle is None:
                raise ValueError(f"{kind} needs an angle")
            if not isinstance(angle, numbers.Real) or isinstance(angle, bool):
                raise TypeError(f"{kind} angle must be a real number, got {angle!r}")
            try:
                angle = float(angle)  # so the angle's repr parses back
            except OverflowError:  # an int or Fraction beyond the float range
                raise ValueError(f"{kind} angle must be finite, got a number beyond the float range") from None
            if not math.isfinite(angle):
                raise ValueError(f"{kind} angle must be finite, got {angle!r}")
        elif angle is not None:
            raise ValueError(f"{kind} takes no angle")
        if slot < 0:
            raise ValueError("slot must be non-negative")
        return tuple.__new__(cls, (kind, qubits, slot, angle))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through _make, so it checks too


def ry(qubit: int, angle: float, slot: int = 0) -> GateStep:
    return GateStep("ry", (qubit,), slot, angle)


def h(qubit: int, slot: int = 0) -> GateStep:
    return GateStep("h", (qubit,), slot)


def cx(control: int, target: int, slot: int = 0) -> GateStep:
    return GateStep("cx", (control, target), slot)


def ch(control: int, target: int, slot: int = 0) -> GateStep:
    return GateStep("ch", (control, target), slot)


def check_step(step: GateStep, n_qubits: int, prev_slot: int, held: set[int]) -> None:
    """Admit ``step`` as the next gate of an ``n_qubits`` circuit.

    ``prev_slot`` is the previous gate's slot (-1 before the first) and
    ``held`` the qubits its slot already uses; ``held`` is updated in place.
    """
    if not isinstance(step, GateStep):
        raise TypeError(f"a circuit's steps must be GateSteps, got {step!r}")
    for q in step.qubits:
        if not 0 <= q < n_qubits:
            raise IndexError(f"qubit {q} out of range (0..{n_qubits - 1})")
    if step.slot < prev_slot:
        raise ValueError(f"slot {step.slot} goes backwards (current slot is {prev_slot})")
    if step.slot > prev_slot:
        held.clear()
    if not held.isdisjoint(step.qubits):
        raise ValueError(f"slot {step.slot} already uses qubit(s) {sorted(held.intersection(step.qubits))}")
    held.update(step.qubits)


def check_label(labels: dict[int, str], qubit: int, name: str, n_qubits: int) -> None:
    """Admit ``name`` for ``qubit`` into ``labels``: in range, each qubit and name once.

    A name is one circuit-file token that ``--watch`` can address: non-empty,
    with no whitespace, ``#``, ``,`` or ``;``, not all ASCII digits, which
    ``--watch`` reads as a qubit index, and not ``q<k>`` for another qubit
    k, which is how an unlabelled qubit k prints.  ``labels`` is updated in
    place; numpy integer keys pass and are stored as int.
    """
    try:
        qubit = _integer(qubit)
    except TypeError:
        raise TypeError(f"label keys must be integer qubit indices, got {qubit!r}") from None
    if not 0 <= qubit < n_qubits:
        raise IndexError(f"label for qubit {qubit} out of range (0..{n_qubits - 1})")
    if qubit in labels:
        raise ValueError(f"qubit {qubit} is already labelled {labels[qubit]!r}")
    if not isinstance(name, str) or not name or any(ch.isspace() or ch in "#,;" for ch in name):
        raise ValueError(f"label {name!r} must be a non-empty name without whitespace, '#', ',' or ';'")
    if _is_ascii_number(name):
        raise ValueError(f"label {name!r} is all digits, which reads as a qubit index")
    default = _DEFAULT_LABEL.fullmatch(name)
    if default and int(default[1]) != qubit and int(default[1]) < n_qubits:
        raise ValueError(f"label {name!r} is the default name of qubit {default[1]}")
    for q, other in labels.items():
        if other == name:
            raise ValueError(f"label {name!r} already names qubit {q}")
    labels[qubit] = name


class _CircuitFields(NamedTuple):
    n_qubits: int
    steps: tuple[GateStep, ...] = ()
    labels: Mapping[int, str] | None = None


class Circuit(_CircuitFields):
    """An ordered gate list on ``n_qubits``, with optional qubit labels."""

    __slots__ = ()

    def __new__(cls, n_qubits: int, steps: tuple[GateStep, ...] = (), labels: Mapping[int, str] | None = None):
        try:
            n_qubits = _integer(n_qubits)
        except TypeError:
            raise TypeError(f"n_qubits must be an integer, got {n_qubits!r}") from None
        steps = tuple(steps)
        if n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        held: set[int] = set()
        prev_slot = -1
        for step in steps:
            check_step(step, n_qubits, prev_slot, held)
            prev_slot = step.slot
        checked: dict[int, str] = {}
        for q, name in (labels or {}).items():
            check_label(checked, q, name, n_qubits)
        return tuple.__new__(cls, (n_qubits, steps, checked or None))  # one form, so {} round-trips equal

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through _make, so it checks too

    @classmethod
    def _from_checked(cls, n_qubits: int, steps: tuple[GateStep, ...], labels: dict[int, str]) -> "Circuit":
        """Internal fast path: each step passed :func:`check_step` in order and each label :func:`check_label`."""
        return tuple.__new__(cls, (n_qubits, steps, labels or None))

    @property
    def max_slot(self) -> int:
        return max((s.slot for s in self.steps), default=-1)

    def slot_groups(self) -> list[tuple[GateStep, ...]]:
        """The gates of each slot 0..max_slot, in list order; empty slots give ``()``."""
        groups: list[list[GateStep]] = [[] for _ in range(self.max_slot + 1)]
        for step in self.steps:
            groups[step.slot].append(step)
        return [tuple(group) for group in groups]

    def label(self, qubit: int) -> str:
        if self.labels and qubit in self.labels:
            return self.labels[qubit]
        return f"q{qubit}"

    def gate_text(self, step: GateStep) -> str:
        """Human-readable gate description, e.g. ``Rotation on R``."""
        return _GATES[step.kind][2].format(*map(self.label, step.qubits))


class Descriptor(NamedTuple):
    """The (x, y, z) observable triple attached to one qubit."""

    qubit: int
    x: PauliSum
    y: PauliSum
    z: PauliSum

    def component(self, name: str) -> PauliSum:
        if name not in COMPONENTS:
            raise ValueError(f"no component {name!r}")
        return getattr(self, name)

    @property
    def triple(self) -> tuple[PauliSum, PauliSum, PauliSum]:
        return (self.x, self.y, self.z)


class NetworkState(NamedTuple):
    """All descriptors at one slot boundary."""

    time: int
    descriptors: tuple[Descriptor, ...]

    @property
    def n_qubits(self) -> int:
        return len(self.descriptors)

    def descriptor(self, qubit: int) -> Descriptor:
        if not 0 <= (qubit := _integer(qubit)) < len(self.descriptors):
            raise IndexError(f"qubit {qubit} out of range")
        return self.descriptors[qubit]


Trace = list[NetworkState]


def init_network(n_qubits: int) -> NetworkState:
    """Fresh network: qubit k carries (X_k, Y_k, Z_k) at time 0."""
    if (n_qubits := _integer(n_qubits)) < 1:
        raise ValueError("network needs at least one qubit")
    return NetworkState(0, tuple(Descriptor(q, *letters) for q, letters in enumerate(PauliSum._fresh_triples(n_qubits))))


def _rotated(d: Descriptor, angle: float) -> tuple[Descriptor]:
    x, z = _rotated_pair(d.x, d.z, math.cos(angle), math.sin(angle))
    return (Descriptor(d.qubit, x, d.y, z),)


def _hadamarded(d: Descriptor) -> tuple[Descriptor]:
    return (Descriptor(d.qubit, d.z, -d.y, d.x),)


def _cnotted(dc: Descriptor, dt: Descriptor) -> tuple[Descriptor, Descriptor]:
    control = Descriptor(dc.qubit, dc.x @ dt.x, dc.y @ dt.x, dc.z)
    target = Descriptor(dt.qubit, dt.x, dt.y @ dc.z, dt.z @ dc.z)
    return control, target


def _chadamarded(dc: Descriptor, dt: Descriptor) -> tuple[Descriptor, Descriptor]:
    u = (dt.x + dt.z) * _SQRT_HALF
    p_plus = _branch_projector(dc.z, 1)
    p_minus = _branch_projector(dc.z, -1)
    control = Descriptor(dc.qubit, dc.x @ u, dc.y @ u, dc.z)
    target = Descriptor(
        dt.qubit,
        dt.x @ p_plus + dt.z @ p_minus,
        dt.y @ dc.z,
        dt.z @ p_plus + dt.x @ p_minus,
    )
    return control, target


# kind: (arity, takes an angle, gate_text template, rule); a rule maps the descriptors
# of step.qubits, then the angle if taken, to their updates, in the same order.
_GATES = {
    "ry": (1, True, "Rotation on {}", _rotated),
    "h": (1, False, "Hadamard on {}", _hadamarded),
    "cx": (2, False, "Controlled-not", _cnotted),
    "ch": (2, False, "Controlled-H", _chadamarded),
}
GATE_KINDS = tuple(_GATES)


def run_circuit(circuit: Circuit) -> Trace:
    """Evolve the network slot by slot; one state per slot boundary.

    ``trace[0]`` is the fresh network and ``trace[t]`` holds the descriptors
    after every gate in slots 0..t-1, so a last gate in slot k yields k + 2
    states.  A slot's gates act on disjoint qubits, so in any order they write
    into one copy of the previous descriptors, from which one state is built.

    Before anything is allocated, a run whose fresh network and per-boundary
    records would pass 1 GiB raises :class:`RunTooLarge`.  The estimate counts
    the network's keys (about n + q bits for qubit q of n) and objects, and per
    boundary a state's tuple, its slot group and a fold's record of one pair;
    term growth is not counted.
    """
    n, boundaries = circuit.n_qubits, circuit.max_slot + 2
    if (size := n * (n // 2 + 1536) + boundaries * (1024 + 8 * n)) > _RUN_BYTES:
        limit = f"over the {_RUN_BYTES}-byte limit"
        raise RunTooLarge(f"a run of {n} qubits over {boundaries} slot boundaries needs about {size} bytes, {limit}")
    trace = [init_network(n)]
    for slot, group in enumerate(circuit.slot_groups()):
        descriptors = list(trace[-1].descriptors)
        for step in group:
            try:
                args = [descriptors[q] for q in step.qubits]
                if step.angle is not None:
                    args.append(step.angle)
                for q, d in zip(step.qubits, _GATES[step.kind][3](*args)):
                    descriptors[q] = d
            except Exception as exc:
                raise SlotError(slot, exc) from exc
        trace.append(NetworkState(slot + 1, tuple(descriptors)))
    return trace


def projector(state: NetworkState, qubit: int, sign: int) -> PauliSum:
    """Branch projector (I + sign * q_z)/2 for one qubit's current z component."""
    if isinstance(sign, bool) or sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return _branch_projector(state.descriptor(qubit).z, sign)


def _branch_projector(z: PauliSum, sign: int) -> PauliSum:
    ident = PauliSum.identity(z.n_qubits)
    return (ident + z if sign > 0 else ident - z) * 0.5


def trace_json_doc(circuit: Circuit, trace: Trace) -> dict:
    """JSON document for a trace; term order is canonical, output byte-stable.

    Each distinct operator object is serialised once, and every component that
    is that object, at any boundary and under any name, shares its list of terms.
    """
    ops = {id(op): op for state in trace for d in state.descriptors for op in d.triple}
    terms = {key: op.to_json() for key, op in ops.items()}  # ops keeps each id's object alive
    return {
        "format_version": 1,
        "n_qubits": circuit.n_qubits,
        "labels": {str(q): circuit.labels[q] for q in sorted(circuit.labels)} if circuit.labels else {},
        "slots": [
            {
                "t": state.time,
                "descriptors": [
                    {"qubit": d.qubit, "x": terms[id(d.x)], "y": terms[id(d.y)], "z": terms[id(d.z)]}
                    for d in state.descriptors
                ],
            }
            for state in trace
        ],
    }
