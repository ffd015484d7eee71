"""Heisenberg-picture qubit network simulator.

Propagates per-qubit observable triples (descriptors) through a circuit of
rotations, Hadamards, controlled-nots, and controlled-Hadamards; detects
entanglement and sharp/non-sharp foliations of qubit pairs; builds the
branching tree of foliation events; and cross-validates the descriptors by
Pauli back-propagation, against a dense state-vector oracle in the tests.

``cross_check`` is resolved on first use, so importing the package does not
load :mod:`heisensim.check`; the dense oracle, which loads numpy, exports its
names from :mod:`heisensim.oracle` only.
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
    # check
    "cross_check",
    # lang / presets
    "parse_circuit",
    "serialize_circuit",
    "CircuitSyntaxError",
    "preset_fr",
    "get_preset",
    "FR_ANGLE",
]

def __getattr__(name: str):
    if name == "cross_check":
        from .check import cross_check

        return cross_check
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals()) + ["cross_check"]
