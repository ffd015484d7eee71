"""Heisenberg-picture qubit network simulator.

Propagates per-qubit observable triples (descriptors) through a circuit of
rotations, Hadamards, controlled-nots, and controlled-Hadamards; detects
entanglement and sharp/non-sharp foliations of qubit pairs; builds the
branching tree of foliation events; and cross-validates the descriptors by
Pauli back-propagation, against a dense state-vector oracle in the tests.

``cross_check`` and the oracle's ``expand`` and ``evolve_state`` are
resolved on first use, so importing the package loads neither; only the
oracle loads numpy.
"""
from .engine import (
    Circuit,
    Descriptor,
    GateStep,
    NetworkState,
    RunTooLarge,
    SlotError,
    ch,
    cx,
    h,
    init_network,
    projector,
    run_circuit,
    ry,
    trace_json_doc,
)
from .foliation import (
    BranchTree,
    EntanglementWitness,
    FoliationPrecondition,
    FoliationReport,
    ZeroWeightBranch,
    build_branch_tree,
    conditional_expectation,
    default_watch_pairs,
    entangled,
    foliation_timeline,
    relative_descriptor,
    report_rows,
    sharp_foliation,
    tree_json_doc,
    tree_to_dot,
)
from .lang import CircuitSyntaxError, parse_circuit, serialize_circuit
from .pauli import (
    DEFAULT_TOLERANCE,
    DROP_TOLERANCE,
    PauliSum,
    pair_expectation,
    vacuum_expectation,
)
from .presets import FR_ANGLE, get_preset, preset_fr

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # pauli
    "PauliSum",
    "vacuum_expectation",
    "pair_expectation",
    "DEFAULT_TOLERANCE",
    "DROP_TOLERANCE",
    # engine
    "Circuit",
    "GateStep",
    "Descriptor",
    "NetworkState",
    "SlotError",
    "RunTooLarge",
    "ry",
    "h",
    "cx",
    "ch",
    "init_network",
    "run_circuit",
    "projector",
    "trace_json_doc",
    # foliation
    "EntanglementWitness",
    "FoliationReport",
    "FoliationPrecondition",
    "ZeroWeightBranch",
    "BranchTree",
    "entangled",
    "sharp_foliation",
    "relative_descriptor",
    "conditional_expectation",
    "default_watch_pairs",
    "foliation_timeline",
    "build_branch_tree",
    "report_rows",
    "tree_json_doc",
    "tree_to_dot",
    # check and oracle
    "expand",
    "evolve_state",
    "cross_check",
    # lang / presets
    "parse_circuit",
    "serialize_circuit",
    "CircuitSyntaxError",
    "preset_fr",
    "get_preset",
    "FR_ANGLE",
]

_LAZY_NAMES = {"expand": "oracle", "evolve_state": "oracle", "cross_check": "check"}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals()) + list(_LAZY_NAMES)
