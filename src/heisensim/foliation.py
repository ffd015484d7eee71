"""Entanglement tests, sharp/non-sharp foliation verdicts, branching trees.

Two qubits count as entangled when some pair of their descriptor
components violates expectation factorisation,
``<q_i q'_j> != <q_i><q'_j>`` over the nine component pairs.  That scan
is part of the verdict: :func:`sharp_foliation`, the one pair evaluator,
reads the two descriptors once and returns the first violation as its
witness, and :func:`entangled` is that witness.  When both descriptors
keep the real-gate grading of :mod:`heisensim.pauli`, the four mixed
pairs (x,y), (y,x), (y,z) and (z,y) read 0.0 against a product of +-0.0
and cannot violate it, so the scan reads the other five; a descriptor
outside the grading gets all nine.  Every two-point expectation comes
from :func:`~heisensim.pauli.pair_expectation`, which reads
``<0|q_i q'_j|0>`` off the term pairs with equal x masks and never forms
the operator product.

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
It reads each descriptor's means, supports and grading once per fold, in
one pass over its terms, however many pairs share that descriptor; the
two-point expectations stay per pair.
The tree's events are the fold's status changes, read off the timeline.
"""
from __future__ import annotations

import math
from itertools import product as _cartesian
from typing import NamedTuple

from .engine import COMPONENTS, Circuit, Descriptor, NetworkState, Trace, projector
from .pauli import DEFAULT_TOLERANCE, _graded_profile, _integer, pair_expectation, vacuum_expectation

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


def _checked(tol: float) -> float:
    """``tol`` if it is finite and >= 0; NaN, negative and infinite tolerances raise ValueError."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    return tol


class EntanglementWitness(NamedTuple):
    """First component pair violating expectation factorisation, if any."""

    pair: tuple[int, int]
    component_pair: tuple[str, str]
    joint: float
    product: float
    entangled: bool


def entangled(
    state: NetworkState, q1: int, q2: int, tol: float = DEFAULT_TOLERANCE
) -> EntanglementWitness:
    """The entanglement witness of :func:`sharp_foliation` for (q1, q2)."""
    state.descriptor(q1), state.descriptor(q2)  # a bool, a float or a qubit out of range raises first
    if q1 == q2:
        raise ValueError("entanglement test needs two distinct qubits")
    return sharp_foliation(state, q1, q2, tol).witness


class FoliationReport(NamedTuple):
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


#: The scan's component pairs, (x, y, z) x (x, y, z) as indices.  On two graded descriptors the
#: mixed pairs (x,y), (y,x), (y,z) and (z,y) read 0.0 against a product of +-0.0, never a witness.
_EVERY_PAIR = tuple(_cartesian(range(3), repeat=2))
_GRADED_PAIRS = ((0, 0), (0, 2), (1, 1), (2, 0), (2, 2))


def sharp_foliation(
    state: NetworkState, control: int, target: int, tol: float = DEFAULT_TOLERANCE, *, _profiles: dict | None = None
) -> FoliationReport:
    """Instantaneous foliation verdict for an ordered pair.

    The reported projector weights are the control-side branch weights
    ``<P_+1[q_Cz]>`` and ``<P_-1[q_Cz]>``.  The witness is the first of the
    component pairs, in (x, y, z) x (x, y, z) order, that violates
    factorisation; when all factorise it records the (z, z) values with
    ``entangled=False``.  The scan reads all nine pairs, or only the five
    that can violate factorisation when both descriptors keep the
    real-gate grading of :mod:`heisensim.pauli`.  An expectation whose
    imaginary part exceeds ``min(tol, DEFAULT_TOLERANCE)`` raises
    :class:`~heisensim.pauli.HermiticityError`; a NaN, negative or infinite
    ``tol`` raises ValueError.  ``_profiles`` is :func:`foliation_timeline`'s
    cache of each descriptor's means, supports and grading for one fold and
    one ``tol``; a direct call builds both profiles afresh.
    """
    dc, dt = state.descriptor(control), state.descriptor(target)
    if control == target:
        raise ValueError("foliation test needs two distinct qubits")
    # each mean and pair is read once, under one Hermiticity guard whichever pair ends the scan
    guard = min(_checked(tol), DEFAULT_TOLERANCE)
    profiles = {} if _profiles is None else _profiles
    for d in (dc, dt):
        if id(d) not in profiles:  # the entry holds d, so no other object takes its id while the cache lives
            profiles[id(d)] = (d, *_graded_profile(d.triple, guard))
    (_, means_c, masks_c, graded_c), (_, means_t, masks_t, graded_t) = profiles[id(dc)], profiles[id(dt)]
    # the scan: the first component pair violating factorisation is the witness
    ops_c, ops_t = dc.triple, dt.triple
    for i, j in _GRADED_PAIRS if graded_c and graded_t else _EVERY_PAIR:
        joint = pair_expectation(ops_c[i], ops_t[j], guard)
        product = means_c[i] * means_t[j]
        violated = abs(joint - product) > tol
        if violated:
            break
    witness = EntanglementWitness((control, target), (COMPONENTS[i], COMPONENTS[j]), joint, product, violated)
    # a scan that got as far as (z, z) has already read <q_Cz q_Tz>
    zz = joint if i == j == 2 else pair_expectation(dc.z, dt.z, guard)
    z_mean_c, z_mean_t = means_c[2], means_t[2]

    # correlation: the (z, z) factorisation violation, or a record -- one
    # partner's z component acting on the other's qubit
    sharp = abs(zz - 1.0) <= tol
    if (sharp or abs(zz + 1.0) <= tol) and (
        abs(zz - z_mean_c * z_mean_t) > tol or masks_t[2] >> control & 1 or masks_c[2] >> target & 1
    ):
        verdict = SHARP if sharp else ANTI_SHARP
    elif violated or (masks_c[0] | masks_c[1] | masks_c[2]) & (masks_t[0] | masks_t[1] | masks_t[2]):
        verdict = NON_SHARP  # one bubble: entangled, or the supports meet
    else:
        verdict = UNENTANGLED

    return FoliationReport(
        pair=(control, target),
        slot=state.time,
        verdict=verdict,
        proj_plus=(1.0 + z_mean_c) / 2.0,
        proj_minus=(1.0 - z_mean_c) / 2.0,
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
    most ``tol``, and :class:`HermiticityError` and ValueError as :func:`sharp_foliation` does.
    """
    p, guard = projector(state, control, sign), min(_checked(tol), DEFAULT_TOLERANCE)
    weight = vacuum_expectation(p, guard)
    if weight <= tol:
        raise ZeroWeightBranch(f"branch {sign:+d} of qubit {control} has weight {weight:g}")
    return pair_expectation(state.descriptor(target).component(component), p, guard) / weight


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
            pair = step.qubits
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
    new slot.  The pairs and ``tol`` are checked up front, even on an empty trace.
    """
    _checked(tol)
    for control, target in watch:
        _integer(control), _integer(target)
    status = {pair: _TRUNK for pair in watch}
    statuses: list[dict[tuple[int, int], str]] = []
    reports: list[dict[tuple[int, int], FoliationReport]] = []
    profiles: dict = {}  # each descriptor's means, supports and grading, read once in this fold
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
                and state.descriptors[control] is previous.descriptors[control]
                and state.descriptors[target] is previous.descriptors[target]
            ):
                report = reports[-1][pair]._replace(slot=state.time)
            else:
                report = sharp_foliation(state, control, target, tol, _profiles=profiles)
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


class TreeNode(NamedTuple):
    id: str
    kind: str  # "trunk" | "created-sharp" | "diffused" | "non-sharp-bubble"
    slot: int
    pair: tuple[int, int] | None
    labels: tuple[str, ...]
    weights: tuple[float, float] | None = None


class TreeEdge(NamedTuple):
    src: str
    dst: str
    sign: int | None
    weight: float


class BranchTree(NamedTuple):
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
    flip = -1 if report.verdict == ANTI_SHARP else 1  # anti-sharp pairs the opposite branches
    weights = ((1, report.proj_plus), (-1, report.proj_minus))
    return tuple(f"{names[0]}{sign:+d}/{names[1]}{sign * flip:+d}" for sign, weight in weights if weight > tol)


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
    touching either qubit, or the trunk.  Node order is (slot, pair).  A
    NaN, negative or infinite ``tol`` raises ValueError.
    """
    _checked(tol)
    trunk = TreeNode("trunk", "trunk", 0, None, ())
    nodes = [trunk]
    edges: list[TreeEdge] = []
    last_for_pair: dict[tuple[int, int], TreeNode] = {}
    last_for_qubit: dict[int, tuple[int, TreeNode]] = {}

    for seq, (kind, report) in enumerate(_events(timeline)):
        pair = report.pair
        names = (circuit.label(pair[0]), circuit.label(pair[1]))
        node_id = f"{kind}:{names[0]}-{names[1]}@t{report.slot}"
        node_labels = _branch_labels(report, names, tol) if kind == "created-sharp" else ("/".join(names),)
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


def format_weight(value: float) -> str:
    """Sixths and thirds print as exact fractions, everything else as 6 digits."""
    scaled = round(value * 6)
    if abs(value - scaled / 6) <= DEFAULT_TOLERANCE:
        g = math.gcd(sixths := int(scaled), 6)
        return f"{sixths // g}" if g == 6 else f"{sixths // g}/{6 // g}"
    return f"{value:.6g}"


_DOT_SHAPES = {
    "trunk": "circle",
    "created-sharp": "box",
    "diffused": "diamond",
    "non-sharp-bubble": "ellipse",
}


def _dot_str(text: str) -> str:
    """``text`` inside a quoted DOT string: qubit names may hold ``\\`` and ``"``."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def tree_to_dot(tree: BranchTree) -> str:
    """Graphviz source; edge width scales with branch weight."""
    lines = ["digraph foliations {", "  rankdir=LR;", "  node [fontsize=10];"]
    for n in tree.nodes:
        names = [n.id] if n.kind == "trunk" else [f"t={n.slot}", *n.labels]
        label = "\\n".join(map(_dot_str, names))
        style = ', style="dashed"' if n.kind == "non-sharp-bubble" else ""
        lines.append(f'  "{_dot_str(n.id)}" [shape={_DOT_SHAPES[n.kind]}, label="{label}"{style}];')
    for e in tree.edges:
        width = 1.0 + 4.0 * e.weight
        label = f"{e.sign:+d} ({format_weight(e.weight)})" if e.sign is not None else ""
        lines.append(f'  "{_dot_str(e.src)}" -> "{_dot_str(e.dst)}" [label="{label}", penwidth={width:.2f}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


class ReportRow(NamedTuple):
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
            own = step.qubits
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
