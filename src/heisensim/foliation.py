"""Entanglement tests, sharp/non-sharp foliation verdicts, branching trees.

Two qubits count as entangled when some pair of their descriptor
components violates expectation factorisation,
``<q_i q'_j> != <q_i><q'_j>`` over the nine component pairs.  Every
two-point expectation comes from :func:`~heisensim.pauli.pair_expectation`,
which reads ``<0|q_i q'_j|0>`` off the term pairs with equal x masks and
never forms the operator product.

A control/target pair admits a sharp foliation when the product of their z
components is sharp, ``<q_Cz q_Tz> = +1`` (or -1, reported as anti-sharp
with the branch pairing swapped), *and* the pair is genuinely correlated
rather than trivially aligned.  Correlation is certified by either the
(z, z) factorisation violation or by an operator-level record: one
partner's z component acting on the other's qubit.  The record clause is
what recognises a deterministic measurement -- a copy gate whose control
is already sharp -- as the single-branch foliation it creates (branch
weights (1, 0)); without it such a pair is indistinguishable from two
fresh qubits.

Verdicts for a pair, in order:

* ``sharp`` / ``anti-sharp`` -- conditions above; the report carries the
  control's branch projector weights.  Branch data -- the relative
  descriptors and per-branch conditional expectations -- comes from
  :func:`relative_descriptor` and :func:`conditional_expectation`.
* ``non-sharp`` -- no sharp z-z product, but the pair is inside one
  interference bubble: entangled, or their descriptor supports meet.
* ``unentangled`` -- everything else.

The instantaneous verdict cannot see history: after a foliation diffuses
(a later interaction destroys the sharp product) the pair may look
componentwise uncorrelated again, yet its branches have merely blurred
into the bubble.  The bookkeeping layer used by the report table and the
branching tree therefore runs a per-pair status machine over the trace --
trunk, sharp, bubble -- in which leaving ``sharp`` always lands in
``bubble``.  That diffusion rule is this library's own convention; the
instantaneous verdict function stays pure.

One fold of that machine, :func:`foliation_timeline`, feeds both the
table (:func:`report_rows`) and the tree (:func:`build_branch_tree`).  The
fold evaluates a pair afresh only when one of its two descriptors changed
since the previous boundary and carries the earlier report over otherwise.
The tree's events are the fold's status changes, read off the timeline.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product as _cartesian

from .engine import COMPONENTS, Circuit, Descriptor, NetworkState, Trace, projector
from .pauli import DEFAULT_TOLERANCE, pair_expectation, vacuum_expectation

__all__ = [
    "SHARP",
    "ANTI_SHARP",
    "NON_SHARP",
    "UNENTANGLED",
    "EntanglementWitness",
    "FoliationReport",
    "ZeroWeightBranch",
    "FoliationPrecondition",
    "entangled",
    "sharp_foliation",
    "relative_descriptor",
    "conditional_expectation",
    "default_watch_pairs",
    "Timeline",
    "foliation_timeline",
    "TreeNode",
    "TreeEdge",
    "BranchTree",
    "build_branch_tree",
    "tree_json_doc",
    "tree_to_dot",
    "ReportRow",
    "report_rows",
    "format_weight",
]

SHARP = "sharp"
ANTI_SHARP = "anti-sharp"
NON_SHARP = "non-sharp"
UNENTANGLED = "unentangled"


class ZeroWeightBranch(ValueError):
    """Conditioning on a branch whose projector weight is negligible."""


class FoliationPrecondition(ValueError):
    """Relative descriptors requested for a pair without a sharp foliation."""


@dataclass(frozen=True)
class EntanglementWitness:
    """First component pair violating expectation factorisation, if any."""

    pair: tuple[int, int]
    component_pair: tuple[str, str]
    joint: float
    product: float
    entangled: bool


def _scan(
    state: NetworkState, q1: int, q2: int, tol: float, z_guard: float
) -> tuple[EntanglementWitness, float, float]:
    """:func:`entangled`'s witness with <q1_z> and <q2_z>, whose Hermiticity guard is ``z_guard``."""
    d1, d2 = state.descriptor(q1), state.descriptor(q2)
    guards = {"x": DEFAULT_TOLERANCE, "y": DEFAULT_TOLERANCE, "z": z_guard}
    means1 = {c: vacuum_expectation(d1.component(c), guards[c]) for c in COMPONENTS}
    means2 = {c: vacuum_expectation(d2.component(c), guards[c]) for c in COMPONENTS}
    zz_joint = zz_product = 0.0
    for i, j in _cartesian(COMPONENTS, repeat=2):
        joint = pair_expectation(d1.component(i), d2.component(j))
        prod = means1[i] * means2[j]
        if i == j == "z":
            zz_joint, zz_product = joint, prod
        if abs(joint - prod) > tol:
            return EntanglementWitness((q1, q2), (i, j), joint, prod, True), means1["z"], means2["z"]
    return EntanglementWitness((q1, q2), ("z", "z"), zz_joint, zz_product, False), means1["z"], means2["z"]


def entangled(
    state: NetworkState, q1: int, q2: int, tol: float = DEFAULT_TOLERANCE
) -> EntanglementWitness:
    """Scan the nine component pairs of (q1, q2) for a factorisation violation.

    Pairs are scanned in (x, y, z) x (x, y, z) order and the first
    violation is returned as the witness; when all nine factorise the
    witness records the (z, z) values with ``entangled=False``.
    """
    if q1 == q2:
        raise ValueError("entanglement test needs two distinct qubits")
    return _scan(state, q1, q2, tol, DEFAULT_TOLERANCE)[0]


@dataclass(frozen=True)
class FoliationReport:
    """Verdict of an ordered (control, target) pair at one slot boundary.

    ``proj_plus``/``proj_minus`` are the control's branch weights and
    ``zz_product`` is <q_Cz q_Tz>.  The report holds no branch data: ask
    :func:`relative_descriptor` or :func:`conditional_expectation`.
    """

    pair: tuple[int, int]
    slot: int
    verdict: str
    proj_plus: float
    proj_minus: float
    zz_product: float
    witness: EntanglementWitness


def _z_record(state: NetworkState, control: int, target: int) -> bool:
    zc = state.descriptor(control).z
    zt = state.descriptor(target).z
    return control in zt.support or target in zc.support


def _supports_meet(state: NetworkState, q1: int, q2: int) -> bool:
    s1 = frozenset().union(*(c.support for c in state.descriptor(q1).triple))
    s2 = frozenset().union(*(c.support for c in state.descriptor(q2).triple))
    return bool(s1 & s2)


def sharp_foliation(
    state: NetworkState, control: int, target: int, tol: float = DEFAULT_TOLERANCE
) -> FoliationReport:
    """Instantaneous foliation verdict for an ordered pair.

    The reported projector weights are the control-side branch weights
    ``<P_+1[q_Cz]>`` and ``<P_-1[q_Cz]>``.
    """
    if control == target:
        raise ValueError("foliation test needs two distinct qubits")
    dc = state.descriptor(control)
    dt = state.descriptor(target)
    # the scan's z means, read once under both its default guard and tol
    witness, z_mean_c, z_mean_t = _scan(state, control, target, tol, min(tol, DEFAULT_TOLERANCE))
    # a scan that got as far as (z, z) has already read <q_Cz q_Tz>
    zz = witness.joint if witness.component_pair == ("z", "z") else pair_expectation(dc.z, dt.z, tol)
    proj_plus = (1.0 + z_mean_c) / 2.0
    proj_minus = (1.0 - z_mean_c) / 2.0

    correlated = abs(zz - z_mean_c * z_mean_t) > tol or _z_record(state, control, target)
    verdict = UNENTANGLED
    if abs(zz - 1.0) <= tol and correlated:
        verdict = SHARP
    elif abs(zz + 1.0) <= tol and correlated:
        verdict = ANTI_SHARP
    elif witness.entangled or _supports_meet(state, control, target):
        verdict = NON_SHARP

    return FoliationReport(
        pair=(control, target),
        slot=state.time,
        verdict=verdict,
        proj_plus=proj_plus,
        proj_minus=proj_minus,
        zz_product=zz,
        witness=witness,
    )


def relative_descriptor(
    state: NetworkState, target: int, control: int, sign: int, tol: float = DEFAULT_TOLERANCE
) -> Descriptor:
    """Target descriptor restricted to one branch of the control.

    Each component is right-multiplied by (I + sign*q_Cz)/2; the triple
    obeys the Pauli algebra with the projector in place of the identity.
    Only defined on pairs whose instantaneous verdict is sharp or
    anti-sharp.
    """
    p = projector(state, control, sign)
    report = sharp_foliation(state, control, target, tol)
    if report.verdict not in (SHARP, ANTI_SHARP):
        raise FoliationPrecondition(
            f"pair ({control}, {target}) is {report.verdict} at t={state.time}"
        )
    dt = state.descriptor(target)
    return Descriptor(dt.qubit, dt.x @ p, dt.y @ p, dt.z @ p)


def conditional_expectation(
    state: NetworkState,
    target: int,
    component: str,
    control: int,
    sign: int,
    tol: float = DEFAULT_TOLERANCE,
) -> float:
    """Branch expectation <q_T P_sign>/<P_sign> of one target component.

    Raises :class:`ZeroWeightBranch` when the branch weight <P_sign> is at
    most ``tol``.
    """
    p = projector(state, control, sign)
    weight = vacuum_expectation(p, tol)
    if weight <= tol:
        raise ZeroWeightBranch(f"branch {sign:+d} of qubit {control} has weight {weight:g}")
    return pair_expectation(state.descriptor(target).component(component), p, tol) / weight


# ---------------------------------------------------------------------------
# Bookkeeping over a trace: status machine, report rows, branching tree.
# ---------------------------------------------------------------------------

_TRUNK = "trunk"
_STATUS_SHARP = "sharp"
_BUBBLE = "bubble"


def default_watch_pairs(circuit: Circuit) -> tuple[tuple[int, int], ...]:
    """All (control, target) pairs sharing a two-qubit gate, in first-use order."""
    seen: list[tuple[int, int]] = []
    for step in circuit.steps:
        if len(step.qubits) == 2:
            pair = (step.control, step.target)
            if pair not in seen and (pair[1], pair[0]) not in seen:
                seen.append(pair)
    return tuple(seen)


#: What :func:`foliation_timeline` returns: per-slot statuses and per-slot
#: instantaneous reports, each dict keyed by the watch pairs in watch order.
Timeline = tuple[
    list[dict[tuple[int, int], str]],
    list[dict[tuple[int, int], FoliationReport]],
]


def foliation_timeline(
    trace: Trace,
    watch: tuple[tuple[int, int], ...],
    tol: float = DEFAULT_TOLERANCE,
) -> Timeline:
    """Fold the status machine over every slot boundary.

    Returns per-slot statuses and per-slot instantaneous reports.
    Statuses: ``trunk`` (never foliated), ``sharp``, ``bubble`` (non-sharp,
    or sharp in the past and since diffused).  A sharp or anti-sharp
    verdict makes a pair ``sharp``; a non-sharp verdict, or any other
    verdict while the pair is ``sharp``, makes it ``bubble``; otherwise its
    status stays.  A pair whose two descriptors are the same objects as at
    the previous boundary keeps that boundary's report, restamped with the
    new slot.
    """
    status = {pair: _TRUNK for pair in watch}
    statuses: list[dict[tuple[int, int], str]] = []
    reports: list[dict[tuple[int, int], FoliationReport]] = []
    previous: NetworkState | None = None
    for state in trace:
        slot_reports = {}
        for pair in watch:
            control, target = pair
            # A verdict reads only the pair's two descriptors and tol, and
            # run_circuit hands a descriptor no gate touched on as the same
            # object, so an unchanged pair's earlier report still holds.
            if (
                previous is not None
                and state.descriptor(control) is previous.descriptor(control)
                and state.descriptor(target) is previous.descriptor(target)
            ):
                report = replace(reports[-1][pair], slot=state.time)
            else:
                report = sharp_foliation(state, control, target, tol)
            slot_reports[pair] = report
            if report.verdict in (SHARP, ANTI_SHARP):
                status[pair] = _STATUS_SHARP
            elif report.verdict == NON_SHARP or status[pair] == _STATUS_SHARP:
                # unentangled after sharp history still means the pair diffused
                status[pair] = _BUBBLE
        statuses.append(dict(status))
        reports.append(slot_reports)
        previous = state
    return statuses, reports


@dataclass(frozen=True)
class TreeNode:
    id: str
    kind: str  # "trunk" | "created-sharp" | "diffused" | "non-sharp-bubble"
    slot: int
    pair: tuple[int, int] | None
    labels: tuple[str, ...]
    weights: tuple[float, float] | None = None


@dataclass(frozen=True)
class TreeEdge:
    src: str
    dst: str
    sign: int | None
    weight: float


@dataclass(frozen=True)
class BranchTree:
    nodes: tuple[TreeNode, ...]
    edges: tuple[TreeEdge, ...]


#: Tree event kind of each status change (before, after) of a watch pair.
_EVENT_KINDS = {
    (_TRUNK, _STATUS_SHARP): "created-sharp",
    (_BUBBLE, _STATUS_SHARP): "created-sharp",
    (_STATUS_SHARP, _BUBBLE): "diffused",
    (_TRUNK, _BUBBLE): "non-sharp-bubble",
}


def _branch_labels(report: FoliationReport, names: tuple[str, str], tol: float) -> tuple[str, ...]:
    cname, tname = names
    labels = []
    pairing = {1: 1, -1: -1} if report.verdict != ANTI_SHARP else {1: -1, -1: 1}
    for sign, weight in ((1, report.proj_plus), (-1, report.proj_minus)):
        if weight > tol:
            labels.append(f"{cname}{sign:+d}/{tname}{pairing[sign]:+d}")
    return tuple(labels)


def _events(timeline: Timeline):
    """(kind, report) of every status change, by boundary, then sorted pair."""
    statuses, reports = timeline
    before: dict[tuple[int, int], str] = {}
    for status, slot_reports in zip(statuses, reports):
        for pair in sorted(status):
            change = (before.get(pair, _TRUNK), status[pair])
            if change in _EVENT_KINDS:
                yield _EVENT_KINDS[change], slot_reports[pair]
        before = status


def build_branch_tree(
    circuit: Circuit,
    timeline: Timeline,
    tol: float = DEFAULT_TOLERANCE,
) -> BranchTree:
    """Event graph of foliation creation and diffusion from a folded timeline.

    Each status change of a watch pair becomes a node; a node hangs off the
    pair's previous event when it has one (a creation feeding its own
    diffusion contributes one signed edge per branch, weighted by the
    creation's projector values), and otherwise off the most recent event
    touching either qubit, or the trunk.  Node order is (slot, pair).
    """
    trunk = TreeNode("trunk", "trunk", 0, None, ())
    nodes = [trunk]
    edges: list[TreeEdge] = []
    last_for_pair: dict[tuple[int, int], TreeNode] = {}
    last_for_qubit: dict[int, tuple[int, TreeNode]] = {}

    for seq, (kind, report) in enumerate(_events(timeline)):
        pair = report.pair
        names = (circuit.label(pair[0]), circuit.label(pair[1]))
        node_id = f"{kind}:{names[0]}-{names[1]}@t{report.slot}"
        if kind == "created-sharp":
            node_labels = _branch_labels(report, names, tol)
        else:
            node_labels = (f"{names[0]}/{names[1]}",)
        node = TreeNode(node_id, kind, report.slot, pair, node_labels, (report.proj_plus, report.proj_minus))
        nodes.append(node)

        pred = last_for_pair.get(pair)
        if pred is None:
            shared = [last_for_qubit[q] for q in pair if q in last_for_qubit]
            pred = max(shared, key=lambda item: item[0])[1] if shared else trunk
        if pred.kind == "created-sharp" and pred.pair == pair:
            for sign, weight in zip((1, -1), pred.weights):
                if weight > tol:
                    edges.append(TreeEdge(pred.id, node.id, sign, weight))
        else:
            edges.append(TreeEdge(pred.id, node.id, None, 1.0))

        last_for_pair[pair] = node
        for q in pair:
            last_for_qubit[q] = (seq, node)

    return BranchTree(tuple(nodes), tuple(edges))


def tree_json_doc(tree: BranchTree) -> dict:
    return {
        "format_version": 1,
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind,
                "slot": n.slot,
                "pair": list(n.pair) if n.pair else None,
                "labels": list(n.labels),
                "weights": list(n.weights) if n.weights else None,
            }
            for n in tree.nodes
        ],
        "edges": [
            {"from": e.src, "to": e.dst, "sign": e.sign, "weight": e.weight}
            for e in tree.edges
        ],
    }


def format_weight(value: float, tol: float = DEFAULT_TOLERANCE) -> str:
    """Sixths and thirds print as exact fractions, everything else as 6 digits."""
    scaled = round(value * 6)
    if abs(value - scaled / 6) <= tol:
        frac = Fraction(int(scaled), 6)
        return str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"
    return f"{value:.6g}"


_DOT_SHAPES = {
    "trunk": "circle",
    "created-sharp": "box",
    "diffused": "diamond",
    "non-sharp-bubble": "ellipse",
}


def tree_to_dot(tree: BranchTree) -> str:
    """Graphviz source; edge width scales with branch weight."""
    lines = ["digraph foliations {", "  rankdir=LR;", "  node [fontsize=10];"]
    for n in tree.nodes:
        label = n.id if n.kind == "trunk" else f"t={n.slot}\\n" + "\\n".join(n.labels)
        style = ', style="dashed"' if n.kind == "non-sharp-bubble" else ""
        lines.append(
            f'  "{n.id}" [shape={_DOT_SHAPES[n.kind]}, label="{label}"{style}];'
        )
    for e in tree.edges:
        width = 1.0 + 4.0 * e.weight
        label = f"{e.sign:+d} ({format_weight(e.weight)})" if e.sign is not None else ""
        lines.append(
            f'  "{e.src}" -> "{e.dst}" [label="{label}", penwidth={width:.2f}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReportRow:
    """One gate's row in the foliation summary table."""

    interval: tuple[int, int]
    parties: str
    gate: str
    verdict: str
    proj: tuple[float, float] | None


_VERDICT_TEXT = {_STATUS_SHARP: "Sharp", _BUBBLE: "Non-sharp", _TRUNK: "-"}


def report_rows(circuit: Circuit, timeline: Timeline) -> list[ReportRow]:
    """Summary table of a folded timeline: one row per gate.

    Two-qubit gates report their own (control, target) pair, or its
    reverse when that is the watched one, and no parties when neither is.  A
    single-qubit gate reports the live (sharp or bubble) watch pairs led by
    its qubit -- the pairs whose printed projections it steers -- falling
    back to any live pair containing it, and carries no parties when the
    qubit sits in no live pair.  Projections are the first party's branch
    weights at the end of the interval.  Anti-sharp verdicts surface as
    ``Anti-sharp``.
    """
    statuses, reports = timeline
    rows = []
    for step in circuit.steps:
        t_end = step.slot + 1
        status = statuses[t_end]
        if len(step.qubits) == 2:
            own = (step.control, step.target)
            pairs = [pair for pair in (own, own[::-1]) if pair in status][:1]
        else:
            q = step.qubits[0]
            live = [pair for pair in status if q in pair and status[pair] != _TRUNK]
            pairs = [pair for pair in live if pair[0] == q] or live
        interval = (step.slot, t_end)
        gate = circuit.gate_text(step)
        if not pairs:
            rows.append(ReportRow(interval, "-", gate, "-", None))
        for pair in pairs:
            report = reports[t_end][pair]
            verdict = "Anti-sharp" if report.verdict == ANTI_SHARP else _VERDICT_TEXT[status[pair]]
            parties = ",".join(circuit.label(q) for q in pair)
            rows.append(ReportRow(interval, parties, gate, verdict, (report.proj_plus, report.proj_minus)))
    return rows
