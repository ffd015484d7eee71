"""Foliation verdicts, relative descriptors, conditionals, and tree building."""
import hashlib
import math
import random
import re
from fractions import Fraction

import pytest

import heisensim as hs
from heisensim.foliation import (
    ANTI_SHARP,
    NON_SHARP,
    SHARP,
    UNENTANGLED,
    ReportRow,
    foliation_timeline,
    format_weight,
    tree_json_doc,
    tree_to_dot,
)
from heisensim.oracle import evolve_state, state_expectation
from heisensim.pauli import HermiticityError, PauliSum, pair_expectation, vacuum_expectation

from conftest import A, B, R, S, U_A, U_R, W_B, W_S, allclose, chain, random_circuit, random_parallel_circuit

SIN = math.sin(hs.FR_ANGLE)


# -- entanglement witness ------------------------------------------------------


def test_entangled_after_first_measurement(fr_trace):
    witness = hs.entangled(fr_trace[2], R, A)
    assert witness.entangled
    # the scan runs (x,x) first and that pair already violates factorisation
    assert witness.component_pair == ("x", "x")
    assert witness.joint == pytest.approx(SIN, abs=1e-9)
    assert witness.product == pytest.approx(0.0, abs=1e-9)


def test_unentangled_at_start(fr_trace):
    for q1 in range(8):
        for q2 in range(q1 + 1, 8):
            assert not hs.entangled(fr_trace[0], q1, q2).entangled


def test_entangled_through_controlled_hadamard(fr_trace):
    assert hs.entangled(fr_trace[3], A, S).entangled


def test_entangled_rejects_same_qubit(fr_trace):
    with pytest.raises(ValueError, match="entanglement test needs two distinct qubits"):
        hs.entangled(fr_trace[0], 1, 1)
    with pytest.raises(ValueError, match="foliation test needs two distinct qubits"):
        hs.sharp_foliation(fr_trace[0], 0, 0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda t: hs.sharp_foliation(t[2], True, 0), TypeError, "expected an integer, got True"),
        (lambda t: hs.sharp_foliation(t[2], True, 1), TypeError, "expected an integer, got True"),
        (lambda t: hs.sharp_foliation(t[2], 1.0, 0), TypeError, "expected an integer, got 1.0"),
        (lambda t: hs.entangled(t[2], 0, True), TypeError, "expected an integer, got True"),
        (lambda t: hs.entangled(t[2], True, 1), TypeError, "expected an integer, got True"),
        (lambda t: hs.relative_descriptor(t[2], True, 0, 1), TypeError, "expected an integer, got True"),
        (lambda t: hs.conditional_expectation(t[2], True, "z", 0, 1), TypeError, "expected an integer, got True"),
        (lambda t: hs.foliation_timeline(t, ((True, 0),)), TypeError, "expected an integer, got True"),
        # pairs are checked before the fold, so an empty trace checks them too
        (lambda t: hs.foliation_timeline([], ((True, 0),)), TypeError, "expected an integer, got True"),
        (lambda t: hs.foliation_timeline([], ((0, 1.0),)), TypeError, "expected an integer, got 1.0"),
        (lambda t: hs.projector(t[2], 0, True), ValueError, "sign must be +1 or -1, got True"),
        (lambda t: hs.conditional_expectation(t[2], 1, "z", 0, True), ValueError, "sign must be +1 or -1, got True"),
    ],
    ids=["sharp-bool", "sharp-bool-equal", "sharp-float", "entangled-bool", "entangled-bool-equal", "relative-bool",
         "conditional-bool", "timeline-bool", "timeline-empty-trace-bool", "timeline-empty-trace-float",
         "projector-bool-sign", "conditional-bool-sign"],
)
def test_analysis_refuses_bools_and_floats_as_qubits_and_signs(call, error, message, fr_trace):
    # a bool would read as qubit or sign 0 or 1, and a float would fail inside tuple indexing
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(fr_trace)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda c, t, tl: hs.sharp_foliation(t[2], 0, 1, tol=math.nan), "a finite number >= 0, got nan"),
        (lambda c, t, tl: hs.sharp_foliation(t[2], 0, 1, tol=-1e-9), "a finite number >= 0, got -1e-09"),
        (lambda c, t, tl: hs.sharp_foliation(t[2], 0, 1, tol=math.inf), "a finite number >= 0, got inf"),
        (lambda c, t, tl: hs.foliation_timeline(t, ((0, 1),), math.nan), "a finite number >= 0, got nan"),
        # the tolerance is checked before the fold, so an empty trace or watch checks it too
        (lambda c, t, tl: hs.foliation_timeline([], ((True, 0),), math.nan), "a finite number >= 0, got nan"),
        (lambda c, t, tl: hs.foliation_timeline(t, (), math.nan), "a finite number >= 0, got nan"),
        (lambda c, t, tl: hs.foliation_timeline(t, (), -1e-9), "a finite number >= 0, got -1e-09"),
        (lambda c, t, tl: hs.build_branch_tree(c, tl, math.nan), "a finite number >= 0, got nan"),
        (lambda c, t, tl: hs.build_branch_tree(c, tl, math.inf), "a finite number >= 0, got inf"),
        (lambda c, t, tl: hs.conditional_expectation(t[0], 0, "z", 1, -1, tol=math.nan), "a finite number >= 0, got nan"),
        (lambda c, t, tl: hs.conditional_expectation(t[2], 1, "z", 0, 1, tol=math.inf), "a finite number >= 0, got inf"),
        (lambda c, t, tl: vacuum_expectation(PauliSum.single(2, 0, "Z", 1j), math.nan), "a number >= 0, got nan"),
        (lambda c, t, tl: vacuum_expectation(PauliSum.single(2, 0, "X"), -1), "a number >= 0, got -1"),
        (lambda c, t, tl: pair_expectation(t[2].descriptor(0).z, t[2].descriptor(1).z, -1e-9), "a number >= 0, got -1e-09"),
    ],
    ids=["sharp-nan", "sharp-negative", "sharp-inf", "timeline-nan", "timeline-empty-trace-nan",
         "timeline-empty-watch-nan", "timeline-empty-watch-negative", "tree-nan", "tree-inf", "conditional-nan",
         "conditional-inf", "vacuum-nan", "vacuum-negative", "pair-negative"],
)
def test_analysis_refuses_nan_negative_and_infinite_tolerances(call, message, fr_circuit, fr_trace, fr_timeline):
    # a NaN tolerance fails every comparison, which reads as non-sharp, drops tree
    # edges and silences the Hermiticity guard; a negative one refuses every residue
    with pytest.raises(ValueError, match=f"^tolerance must be {re.escape(message)}$") as info:
        call(fr_circuit, fr_trace, fr_timeline)
    assert not isinstance(info.value, HermiticityError)


# -- instantaneous verdicts ------------------------------------------------------


def test_first_measurement_is_sharp(fr_trace):
    report = hs.sharp_foliation(fr_trace[2], R, A)
    assert report.verdict == SHARP
    assert report.proj_plus == pytest.approx(1 / 3, abs=1e-9)
    assert report.proj_minus == pytest.approx(2 / 3, abs=1e-9)
    assert report.zz_product == pytest.approx(1.0, abs=1e-9)
    # a tolerance of 0 admits the exactly real expectations of this pair
    assert hs.sharp_foliation(fr_trace[2], R, A, tol=0).verdict == SHARP


def test_interference_bubble_is_non_sharp(fr_trace):
    report = hs.sharp_foliation(fr_trace[3], A, S)
    assert report.verdict == NON_SHARP
    assert report.zz_product == pytest.approx(1 / 3, abs=1e-9)
    for sign in (1, -1):
        with pytest.raises(hs.FoliationPrecondition):
            hs.relative_descriptor(fr_trace[3], S, A, sign)


def test_diffused_pair_reports_non_sharp(fr_trace):
    # after the second copy the pair's components factorise again, yet both
    # descriptors still overlap the other lab's qubit: one bubble
    report = hs.sharp_foliation(fr_trace[5], R, A)
    assert report.verdict == NON_SHARP
    assert not report.witness.entangled
    assert report.zz_product == pytest.approx(-1 / 3, abs=1e-9)


def test_fully_reset_partner_reports_unentangled(fr_trace):
    # B is restored to a pristine descriptor triple at t=5
    report = hs.sharp_foliation(fr_trace[5], S, B)
    assert report.verdict == UNENTANGLED
    assert not report.witness.entangled


def test_deterministic_record_is_single_branch_sharp(fr_trace):
    report = hs.sharp_foliation(fr_trace[7], A, U_A)
    assert report.verdict == SHARP
    assert report.proj_plus == pytest.approx(1.0, abs=1e-9)
    assert report.proj_minus == pytest.approx(0.0, abs=1e-9)
    assert not report.witness.entangled
    assert hs.conditional_expectation(fr_trace[7], U_A, "z", A, 1) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(hs.ZeroWeightBranch):
        hs.conditional_expectation(fr_trace[7], U_A, "z", A, -1)


def test_fresh_pair_is_unentangled(fr_trace):
    assert hs.sharp_foliation(fr_trace[0], R, A).verdict == UNENTANGLED
    assert hs.sharp_foliation(fr_trace[1], R, A).verdict == UNENTANGLED


def test_anti_sharp_verdict():
    # flip the target after a copy: perfect anti-correlation
    circuit = hs.Circuit(
        2,
        (
            hs.ry(0, 1.1, slot=0),
            hs.cx(0, 1, slot=1),
            hs.ry(1, math.pi, slot=2),
        ),
    )
    trace = hs.run_circuit(circuit)
    report = hs.sharp_foliation(trace[3], 0, 1)
    assert report.verdict == ANTI_SHARP
    assert report.zz_product == pytest.approx(-1.0, abs=1e-9)
    assert hs.conditional_expectation(trace[3], 1, "z", 0, 1) == pytest.approx(-1.0, abs=1e-9)
    assert hs.conditional_expectation(trace[3], 1, "z", 0, -1) == pytest.approx(1.0, abs=1e-9)


def test_sharp_foliation_reads_each_mean_once(fr_trace, monkeypatch):
    # one profile per descriptor reads its three means; the verdict reuses the scan's two z means
    from heisensim import foliation

    calls = []
    original = foliation._graded_profile

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(foliation, "_graded_profile", counted)
    monkeypatch.setattr(foliation, "vacuum_expectation", None)  # no mean is read one component at a time
    assert hs.sharp_foliation(fr_trace[2], R, A).verdict == SHARP
    assert len(calls) == 2


@pytest.mark.parametrize("time, reads", [(0, 5), (2, 2)], ids=["factorises", "xx-witness"])
def test_sharp_foliation_pair_reads(fr_trace, monkeypatch, time, reads):
    # graded descriptors scan five pairs, and a scan that reaches (z, z) reuses
    # it as <q_Cz q_Tz>; an earlier witness leaves one more read for it
    from heisensim import foliation

    calls = []
    original = foliation.pair_expectation

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(foliation, "pair_expectation", counted)
    report = hs.sharp_foliation(fr_trace[time], R, A)
    assert report.witness.entangled == (time == 2)
    assert len(calls) == reads


def test_record_clause_reads_qubits_past_bit_64():
    # qubit 65 is sharp (|0>), so the copy is a deterministic record: only the
    # record clause, reading bit 65 or 68 of a support mask, certifies it
    trace = hs.run_circuit(hs.Circuit(70, (hs.cx(65, 68, slot=0),)))
    for control, target in ((65, 68), (68, 65)):
        report = hs.sharp_foliation(trace[1], control, target)
        assert report.verdict == SHARP
        assert (report.proj_plus, report.proj_minus) == (1.0, 0.0)
        assert not report.witness.entangled
    assert hs.sharp_foliation(trace[1], 65, 66).verdict == UNENTANGLED


@pytest.mark.parametrize("residue, tol, raises", [(1e-10, 1e-12, True), (1e-6, 1e-3, True), (5e-11, 1e-10, False)])
def test_sharp_foliation_guards_z_means_at_both_tolerances(residue, tol, raises):
    # one guard on each z mean refuses what the scan's default guard or the
    # verdict's tol guard refuses.  The (x, x) witness ends the scan before
    # any pair reads a z component, and both z means are 0, so <q_Cz q_Tz>
    # carries no residue: only the guard on the means can trip.
    state = hs.run_circuit(hs.Circuit(2, (hs.ry(0, math.pi / 2, slot=0), hs.cx(0, 1, slot=1))))[2]
    for q in (0, 1):
        d = state.descriptor(q)
        skewed = d._replace(z=d.z + PauliSum.identity(2, residue * 1j))
        bad = state._replace(descriptors=tuple(skewed if k == q else state.descriptor(k) for k in (0, 1)))
        if raises:
            with pytest.raises(HermiticityError):
                hs.sharp_foliation(bad, 0, 1, tol)
        else:
            assert hs.sharp_foliation(bad, 0, 1, tol).verdict == SHARP


def _skewed_pair_state(x_qubit, residue):
    """Control (X0, Y0, Z0 + i*residue*X2), target (X_{x_qubit}, Y1, Z1 + X2) and a bare qubit 2.

    Only <q_Cz q_Tz> = 1 + i*residue carries an imaginary part.  With the
    target's x on qubit 1 the scan factorises up to (z, z), which reads it; on
    qubit 0 the (x, x) witness ends the scan first, and the verdict reads it.
    """
    def op(letter, q, coeff=1.0):
        return PauliSum.single(3, q, letter, coeff)

    control = hs.Descriptor(0, op("X", 0), op("Y", 0), op("Z", 0) + op("X", 2, residue * 1j))
    target = hs.Descriptor(1, op("X", x_qubit), op("Y", 1), op("Z", 1) + op("X", 2))
    return hs.NetworkState(0, (control, target, hs.init_network(3).descriptor(2)))


@pytest.mark.parametrize("residue, tol, raises", [(1e-11, 1e-12, True), (1e-6, 1e-3, True), (1e-10, 1e-3, False)])
@pytest.mark.parametrize("x_qubit", [0, 1], ids=["xx-witness", "scan-reaches-zz"])
def test_sharp_foliation_guard_does_not_depend_on_the_scan_route(x_qubit, residue, tol, raises):
    # every mean and pair is read under min(tol, DEFAULT_TOLERANCE), whichever
    # component pair ends the scan
    state = _skewed_pair_state(x_qubit, residue)
    if raises:
        with pytest.raises(HermiticityError):
            hs.sharp_foliation(state, 0, 1, tol)
    else:
        report = hs.sharp_foliation(state, 0, 1, tol)
        assert report.verdict == NON_SHARP  # the two z components meet on qubit 2
        assert report.zz_product == 1.0
        assert report.witness.entangled == (x_qubit == 0)


@pytest.mark.parametrize("residue, tol", [(1e-11, 1e-12), (1e-6, 1e-3)])
def test_conditional_expectation_guard_is_the_verdicts(residue, tol):
    # <(Z1 + X2) P_+> = 1 + i*residue/2, read under min(tol, DEFAULT_TOLERANCE)
    with pytest.raises(HermiticityError):
        hs.conditional_expectation(_skewed_pair_state(1, residue), 1, "z", 0, +1, tol)
    assert hs.conditional_expectation(_skewed_pair_state(1, 1e-10), 1, "z", 0, +1, 1e-3) == 1.0


# -- relative descriptors ---------------------------------------------------------


def test_relative_descriptor_after_first_measurement(fr_trace):
    state = fr_trace[2]
    for sign in (1, -1):
        rel = hs.relative_descriptor(state, A, R, sign)
        p = hs.projector(state, R, sign)
        expected = PauliSum.single(8, A, "Z", float(sign)) @ p
        assert allclose(rel.z, expected, 1e-9)


def test_relative_descriptor_final_record(fr_trace):
    state = fr_trace[7]
    rel = hs.relative_descriptor(state, U_A, A, +1)
    expected = PauliSum.single(8, U_A, "Z") @ hs.projector(state, A, +1)
    assert allclose(rel.z, expected, 1e-9)


def test_relative_z_squares_to_projector(fr_trace):
    state = fr_trace[2]
    rel = hs.relative_descriptor(state, A, R, +1)
    assert allclose(rel.z @ rel.z, hs.projector(state, R, +1), 1e-9)


def test_relative_descriptor_requires_sharp_pair(fr_trace):
    with pytest.raises(hs.FoliationPrecondition):
        hs.relative_descriptor(fr_trace[3], S, A, +1)


def sharp_pairs_in_trace(trace, watch):
    for state in trace:
        for control, target in watch:
            report = hs.sharp_foliation(state, control, target)
            if report.verdict == SHARP:
                yield state, control, target


def test_reduced_algebra_for_every_sharp_pair(fr_trace, fr_watch):
    eps = {("x", "y"): "z", ("y", "z"): "x", ("z", "x"): "y"}
    for state, control, target in sharp_pairs_in_trace(fr_trace, fr_watch):
        p = hs.projector(state, control, +1)
        rel = hs.relative_descriptor(state, target, control, +1)
        for comp in "xyz":
            assert allclose(rel.component(comp) @ rel.component(comp), p, 1e-9)
        for (ci, cj), ck in eps.items():
            left = rel.component(ci) @ rel.component(cj)
            assert allclose(left, rel.component(ck) * 1j, 1e-9)


# -- conditional expectations ------------------------------------------------------


def test_conditionals_are_sharp_after_measurement(fr_trace):
    state = fr_trace[2]
    assert hs.conditional_expectation(state, A, "z", R, +1) == pytest.approx(1.0, abs=1e-9)
    assert hs.conditional_expectation(state, A, "z", R, -1) == pytest.approx(-1.0, abs=1e-9)


def test_conditional_on_fresh_pair():
    state = hs.init_network(2)
    assert hs.conditional_expectation(state, 1, "z", 0, +1) == pytest.approx(1.0)


def test_conditional_zero_weight_branch_guard(fr_trace):
    with pytest.raises(hs.ZeroWeightBranch):
        hs.conditional_expectation(fr_trace[7], U_A, "z", A, -1)


def test_weighted_average_reconstruction(fr_trace, fr_watch):
    # <q_Tz> = sum over branches of weight * conditional, whenever both
    # branches carry weight
    for state in fr_trace:
        for control, target in fr_watch:
            w_plus = vacuum_expectation(hs.projector(state, control, +1))
            w_minus = vacuum_expectation(hs.projector(state, control, -1))
            if min(w_plus, w_minus) <= 1e-9:
                continue
            total = w_plus * hs.conditional_expectation(state, target, "z", control, +1)
            total += w_minus * hs.conditional_expectation(state, target, "z", control, -1)
            assert total == pytest.approx(
                vacuum_expectation(state.descriptor(target).z), abs=1e-9
            )


# -- verdict invariants -------------------------------------------------------------


def test_unentangled_pairs_factorise(fr_trace, fr_watch):
    for state in fr_trace:
        for control, target in fr_watch:
            report = hs.sharp_foliation(state, control, target)
            if report.verdict == UNENTANGLED:
                assert not report.witness.entangled
                z_c = vacuum_expectation(state.descriptor(control).z)
                z_t = vacuum_expectation(state.descriptor(target).z)
                assert report.zz_product == pytest.approx(z_c * z_t, abs=1e-9)


def test_sharp_branch_weights_sum_to_one(fr_trace, fr_watch):
    for state, control, target in sharp_pairs_in_trace(fr_trace, fr_watch):
        report = hs.sharp_foliation(state, control, target)
        assert report.proj_plus + report.proj_minus == pytest.approx(1.0, abs=1e-9)
        for sign, weight in ((1, report.proj_plus), (-1, report.proj_minus)):
            if weight > 1e-9:
                value = hs.conditional_expectation(state, target, "z", control, sign)
                assert value == pytest.approx(float(sign), abs=1e-9)
            else:
                with pytest.raises(hs.ZeroWeightBranch):
                    hs.conditional_expectation(state, target, "z", control, sign)


def test_entangled_verdict_survives_appended_rotations(fr_circuit, fr_trace):
    # a change of basis at analysis time -- extra rotations on both pair
    # qubits after the protocol -- must not flip any entanglement verdict
    baseline = [
        (t, pair, hs.entangled(state, *pair).entangled)
        for t, state in enumerate(fr_trace)
        for pair in ((R, A), (S, B))
    ]
    for theta in (0.0, 0.4, 1.1, 2.0, 2.9):
        appended = hs.Circuit(
            8,
            tuple(fr_circuit.steps)
            + (hs.ry(R, theta, slot=7), hs.ry(A, theta, slot=7)),
            fr_circuit.labels,
        )
        trace = hs.run_circuit(appended)
        for t, pair, verdict in baseline:
            assert hs.entangled(trace[t], *pair).entangled == verdict
        # the rotated boundary itself keeps the pre-rotation verdict
        assert (
            hs.entangled(trace[8], R, A).entangled
            == hs.entangled(trace[7], R, A).entangled
        )


def test_entangled_verdict_survives_prepended_rotations_on_copy_circuit():
    # prepending basis rotations to both qubits of a prepare-and-copy
    # circuit keeps the entangled verdict, for any grid angle that does not
    # cancel the preparation rotation to a multiple of pi (those degenerate
    # angles would legitimately remove the entanglement)
    phi = 1.0
    plain = hs.Circuit(2, (hs.ry(0, phi, slot=0), hs.cx(0, 1, slot=1)))
    baseline = hs.entangled(hs.run_circuit(plain)[2], 0, 1).entangled
    assert baseline
    for theta in (0.0, 0.4, 1.1, 2.0, 2.9):
        assert abs(math.sin(theta + phi)) > 1e-3
        steps = (
            hs.ry(0, theta, slot=0),
            hs.ry(1, theta, slot=0),
            hs.ry(0, phi, slot=1),
            hs.cx(0, 1, slot=2),
        )
        trace = hs.run_circuit(hs.Circuit(2, steps))
        assert hs.entangled(trace[3], 0, 1).entangled == baseline


# -- timeline and tree ----------------------------------------------------------------


def test_timeline_event_sequence(fr_circuit, fr_timeline):
    tree = hs.build_branch_tree(fr_circuit, fr_timeline)
    summary = [(n.slot, n.pair, n.kind) for n in tree.nodes[1:]]
    assert summary == [
        (2, (R, A), "created-sharp"),
        (3, (A, S), "non-sharp-bubble"),
        (4, (S, B), "created-sharp"),
        (5, (R, A), "diffused"),
        (5, (S, B), "diffused"),
        (7, (R, U_R), "created-sharp"),
        (7, (A, U_A), "created-sharp"),
        (7, (S, W_S), "created-sharp"),
        (7, (B, W_B), "created-sharp"),
    ]


def _carry_over_cases():
    fr = hs.preset_fr()
    yield pytest.param(fr, hs.default_watch_pairs(fr), id="fr")
    rng = random.Random(29)
    every_pair = tuple((c, t) for c in range(5) for t in range(5) if c != t)
    for k in range(4):
        yield pytest.param(random_parallel_circuit(rng, 5, 6), every_pair, id=f"parallel-{k}")
    for seed in (0, 5, 6):  # each folds in well under a second
        circuit = random_circuit(random.Random(seed), 8, 40)
        yield pytest.param(circuit, hs.default_watch_pairs(circuit), id=f"random-{seed}")


@pytest.mark.parametrize("circuit, watch", list(_carry_over_cases()))
def test_timeline_carry_over_equals_fresh_evaluation(circuit, watch):
    # the fold re-evaluates only pairs with a changed descriptor; every
    # report it carries over must equal a fresh evaluation at that boundary
    trace = hs.run_circuit(circuit)
    _, reports = foliation_timeline(trace, watch)
    for state, slot_reports in zip(trace, reports):
        for (control, target), report in slot_reports.items():
            assert report == hs.sharp_foliation(state, control, target)


_DRIFTING = random_circuit(random.Random(0), 3, 200)  # trips the guard at every tolerance below


@pytest.mark.parametrize("tol", [0.0, 1e-30, 1e-9, 0.3])
@pytest.mark.parametrize(
    "circuit, watch",
    [
        pytest.param(chain(3), hs.default_watch_pairs(chain(3)), id="chain3"),
        *_carry_over_cases(),
        pytest.param(_DRIFTING, hs.default_watch_pairs(_DRIFTING), id="drifting"),
    ],
)
def test_fold_reports_equal_fresh_verdicts(circuit, watch, tol):
    # the fold reads each descriptor's means and supports once: every report it gives, carried
    # over or not, has the repr of a fresh sharp_foliation at that boundary, and where a fresh
    # evaluation trips the guard the fold raises that first error
    trace = hs.run_circuit(circuit)
    fresh = []
    try:
        for state in trace:
            fresh.append([repr(hs.sharp_foliation(state, control, target, tol)) for control, target in watch])
    except HermiticityError as error:
        with pytest.raises(HermiticityError, match=f"^{re.escape(str(error))}$"):
            foliation_timeline(trace, watch, tol)
        return
    _, reports = foliation_timeline(trace, watch, tol)
    assert [[repr(report) for report in slot_reports.values()] for slot_reports in reports] == fresh


def test_fr_fold_reads_each_descriptor_once(fr_trace, fr_watch, monkeypatch):
    # 41 fresh verdicts read 29 distinct descriptors, one profile each, and 190 pairs
    from heisensim import foliation

    calls = {"sharp_foliation": 0, "_graded_profile": 0, "vacuum_expectation": 0, "pair_expectation": 0}

    def counting(name):
        original = getattr(foliation, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(foliation, name, counting(name))
    foliation_timeline(fr_trace, fr_watch)
    assert calls == {"sharp_foliation": 41, "_graded_profile": 29, "vacuum_expectation": 0, "pair_expectation": 190}


@pytest.fixture
def force_grading(monkeypatch):
    """``force_grading(flag)`` makes every profile report ``graded=flag``, whatever its terms; None restores the reader."""
    from heisensim import foliation

    original = foliation._graded_profile

    def force(flag):
        def forced(ops, tol):
            return (*original(ops, tol)[:2], flag)

        monkeypatch.setattr(foliation, "_graded_profile", original if flag is None else forced)

    return force


def _fold_outcome(trace, watch, tol):
    """The repr of every report of the fold, or the text of the first HermiticityError it raises."""
    try:
        _, reports = foliation_timeline(trace, watch, tol)
    except HermiticityError as error:
        return str(error)
    return [[repr(report) for report in slot_reports.values()] for slot_reports in reports]


_RANDOM_2 = random_circuit(random.Random(2), 8, 40)


@pytest.mark.parametrize(
    "circuit, watch",
    [
        pytest.param(chain(3), hs.default_watch_pairs(chain(3)), id="chain3"),
        *_carry_over_cases(),
        pytest.param(_RANDOM_2, hs.default_watch_pairs(_RANDOM_2), id="random-2"),
        pytest.param(_DRIFTING, hs.default_watch_pairs(_DRIFTING), id="drifting"),
    ],
)
def test_graded_scan_equals_nine_pair_scan(circuit, watch, force_grading):
    # on graded descriptors the four skipped mixed pairs read 0.0 against +-0.0 and never raise:
    # skipping them changes no report and no first error, even at tolerance 0
    trace = hs.run_circuit(circuit)
    for tol in (0.0, 1e-30, 1e-9, 0.3):
        force_grading(None)
        graded = _fold_outcome(trace, watch, tol)
        force_grading(False)
        assert graded == _fold_outcome(trace, watch, tol), tol


def _hand_built(control_x, target_y):
    """Two qubits, fresh but for the control's x and the target's y."""
    control = hs.Descriptor(0, control_x, PauliSum.single(2, 0, "Y"), PauliSum.single(2, 0, "Z"))
    target = hs.Descriptor(1, PauliSum.single(2, 1, "X"), target_y, PauliSum.single(2, 1, "Z"))
    return hs.NetworkState(0, (control, target))


_UNGRADED_STATES = [
    # a y holding an even-#Y string with a real coefficient: (x, y) reads <(X0 X1)(0.5 X0 X1)> = 0.5
    pytest.param(_hand_built(PauliSum(2, [((0b11, 0), 1.0)]), PauliSum(2, [((0b11, 0), 0.5)])), 0.5, id="even-y"),
    # an x with an imaginary coefficient: (x, y) reads <(1e-3j X0 X1)(X0 Y1)> = -1e-3
    pytest.param(
        _hand_built(PauliSum(2, [((0b01, 0), 1.0), ((0b11, 0), 1e-3j)]), PauliSum(2, [((0b11, 0b10), 1.0)])),
        -1e-3,
        id="imaginary-x",
    ),
]


@pytest.mark.parametrize("state, joint", _UNGRADED_STATES)
def test_ungraded_descriptors_take_the_nine_pair_scan(state, joint, force_grading):
    # a descriptor outside the real-gate grading scans all nine pairs and finds the (x, y) witness,
    # against means 0 x 0, that the five-pair scan skips
    report = hs.sharp_foliation(state, 0, 1)
    assert report.witness == hs.EntanglementWitness((0, 1), ("x", "y"), joint, 0.0, True)
    force_grading(False)
    assert hs.sharp_foliation(state, 0, 1) == report
    force_grading(True)
    assert not hs.sharp_foliation(state, 0, 1).witness.entangled


@pytest.mark.parametrize("circuit, watch", list(_carry_over_cases()))
def test_entangled_is_the_verdict_witness(circuit, watch):
    for state in hs.run_circuit(circuit):
        for pair in watch:
            for q1, q2 in (pair, pair[::-1]):
                assert hs.entangled(state, q1, q2) == hs.sharp_foliation(state, q1, q2).witness


# SHA-256 of the reprs of every report of foliation_timeline, boundary by
# boundary in watch order, computed when the fold still read each two-point
# expectation off the whole product a @ b.
FOLD_DIGESTS = {
    "parallel-0": "640604c279ac656387107f06f5a432d716127032951f9d1e54161690ae7f630d",
    "parallel-1": "c4090d1a0652fc29294b305b1f26093aa44144de097cdc23e7d42d2c3445bda0",
    "parallel-2": "77642131b2e8edd12a699e4c85c74df31b2ae241ce6adffe3b50132ab47ed3c2",
    "parallel-3": "d5a142494db8ce168d00c250388c8dc0d553063a3af71ba576ec7b132a64df1a",
    "random-0": "422ef2563349a7e0af733116b2c8ad737ccd5cc7952f901d3759a1ba3349fd0b",
    "random-5": "0252891f3e3eeac224474c181b8c792d4348684026f62631b5233902ba2e625f",
    "random-6": "fbf0fb2a452798904ee92ca13947c3625fdb9231490721e6625a8c3e30aaf5f7",
}
PINNED_FOLDS = [
    pytest.param(*case.values, FOLD_DIGESTS[case.id], id=case.id) for case in _carry_over_cases() if case.id in FOLD_DIGESTS
]


@pytest.mark.parametrize("circuit, watch, digest", PINNED_FOLDS)
def test_timeline_reports_pinned(circuit, watch, digest):
    _, reports = foliation_timeline(hs.run_circuit(circuit), watch)
    text = "\n".join(repr(report) for slot_reports in reports for report in slot_reports.values())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("circuit, watch, digest", PINNED_FOLDS)
def test_timeline_reports_pinned_with_every_product_vectorised(circuit, watch, digest, every_product_vectorised):
    test_timeline_reports_pinned(circuit, watch, digest)


@pytest.mark.parametrize("circuit", [hs.preset_fr(), random_circuit(random.Random(0), 8, 40)], ids=["fr", "random-0"])
def test_fold_forms_no_operator_product(circuit, monkeypatch):
    # every expectation of the fold comes from pair_expectation; a return to
    # the product route would show up here, not in any output
    trace = hs.run_circuit(circuit)

    def refuse(self, other):
        raise AssertionError("the foliation fold formed an operator product")

    monkeypatch.setattr(PauliSum, "__matmul__", refuse)
    foliation_timeline(trace, hs.default_watch_pairs(circuit))


_RELABELLED_FOLDS = [hs.preset_fr(), chain(3)] + [random_parallel_circuit(random.Random(s), 6, 10) for s in range(3)]


@pytest.mark.parametrize("circuit", _RELABELLED_FOLDS, ids=["fr", "chain3", "parallel0", "parallel1", "parallel2"])
def test_relabelling_qubits_and_watch_pairs_relabels_every_report(circuit):
    # relabelling moves each descriptor's keys one to one and keeps every bit,
    # and a verdict reads only its pair's two descriptors: the fold of the
    # relabelled circuit on the relabelled pairs is the relabelled fold
    n = circuit.n_qubits
    perm = random.Random(n).sample(range(n), n)
    assert perm != list(range(n))
    moved = hs.Circuit(n, tuple(s._replace(qubits=tuple(perm[q] for q in s.qubits)) for s in circuit.steps))
    watch = hs.default_watch_pairs(circuit)
    moved_watch = tuple((perm[c], perm[t]) for c, t in watch)
    statuses, reports = foliation_timeline(hs.run_circuit(circuit), watch)
    moved_statuses, moved_reports = foliation_timeline(hs.run_circuit(moved), moved_watch)
    assert len(moved_reports) == len(reports) == circuit.max_slot + 2
    for status, report_at, moved_status, moved_report_at in zip(statuses, reports, moved_statuses, moved_reports):
        assert list(moved_status) == list(moved_report_at) == list(moved_watch)
        for pair, image in zip(watch, moved_watch):
            assert moved_status[image] == status[pair]
            report = report_at[pair]
            expected = report._replace(pair=image, witness=report.witness._replace(pair=image))
            # reprs are equal only when every float has the same bits, signed zeros included
            assert repr(moved_report_at[image]) == repr(expected)


def test_branch_tree_structure(fr_circuit, fr_timeline):
    tree = hs.build_branch_tree(fr_circuit, fr_timeline)
    kinds = [(n.kind, n.slot) for n in tree.nodes]
    assert kinds == [
        ("trunk", 0),
        ("created-sharp", 2),
        ("non-sharp-bubble", 3),
        ("created-sharp", 4),
        ("diffused", 5),
        ("diffused", 5),
        ("created-sharp", 7),
        ("created-sharp", 7),
        ("created-sharp", 7),
        ("created-sharp", 7),
    ]
    by_id = {n.id: n for n in tree.nodes}
    assert by_id["created-sharp:R-A@t2"].weights[0] == pytest.approx(1 / 3, abs=1e-9)
    # creation feeding its own diffusion carries one signed edge per branch
    signed = [e for e in tree.edges if e.src == "created-sharp:R-A@t2" and e.sign]
    assert {(e.sign, round(e.weight, 9)) for e in signed} == {
        (1, round(1 / 3, 9)),
        (-1, round(2 / 3, 9)),
    }
    labels = {label for n in tree.nodes for label in n.labels}
    assert {"R+1/U_R+1", "R-1/U_R-1", "A+1/U_A+1", "S+1/W_S+1", "B+1/W_B+1"} <= labels
    assert "A-1/U_A-1" not in labels  # zero-weight branch never materialises


def test_branch_tree_weight_conservation(fr_circuit, fr_timeline):
    tree = hs.build_branch_tree(fr_circuit, fr_timeline)
    for node in tree.nodes:
        signed = [e.weight for e in tree.edges if e.src == node.id and e.sign is not None]
        if signed:
            assert sum(signed) == pytest.approx(1.0, abs=1e-9)


def test_branch_tree_connected_to_trunk(fr_circuit, fr_timeline):
    tree = hs.build_branch_tree(fr_circuit, fr_timeline)
    parents = {e.dst: e.src for e in tree.edges}
    for node in tree.nodes:
        if node.kind == "trunk":
            continue
        cursor = node.id
        seen = set()
        while cursor != "trunk":
            assert cursor not in seen
            seen.add(cursor)
            cursor = parents[cursor]


def test_branch_tree_empty_circuit():
    circuit = hs.Circuit(2)
    tree = hs.build_branch_tree(circuit, foliation_timeline(hs.run_circuit(circuit), ()))
    assert len(tree.nodes) == 1
    assert tree.nodes[0].kind == "trunk"
    assert tree.edges == ()


def test_branch_tree_weights_match_state_vector():
    theta = 0.7
    circuit = hs.Circuit(2, (hs.ry(0, theta, slot=0), hs.cx(0, 1, slot=1)))
    trace = hs.run_circuit(circuit)
    tree = hs.build_branch_tree(circuit, foliation_timeline(trace, ((0, 1),)))
    created = [n for n in tree.nodes if n.kind == "created-sharp"]
    assert len(created) == 1
    # independent weights: Born marginals of the control from the state vector
    psi = evolve_state(circuit)[2]
    born_plus = (1 + state_expectation(psi, 0, "Z")) / 2
    assert created[0].weights[0] == pytest.approx(born_plus, abs=1e-9)
    assert created[0].weights[1] == pytest.approx(1 - born_plus, abs=1e-9)
    assert born_plus == pytest.approx(math.cos(theta / 2) ** 2, abs=1e-12)


def test_fresh_copy_creates_single_branch():
    circuit = hs.Circuit(2, (hs.cx(0, 1, slot=0),))
    trace = hs.run_circuit(circuit)
    report = hs.sharp_foliation(trace[1], 0, 1)
    assert report.verdict == SHARP
    assert report.proj_plus == pytest.approx(1.0)
    tree = hs.build_branch_tree(circuit, foliation_timeline(trace, ((0, 1),)))
    created = [n for n in tree.nodes if n.kind == "created-sharp"]
    assert created[0].labels == ("q0+1/q1+1",)


def test_recreation_after_diffusion():
    # measure, undo, measure again: the second creation hangs off the
    # diffusion node
    steps = (
        hs.ry(0, 1.0, slot=0),
        hs.cx(0, 1, slot=1),
        hs.cx(0, 1, slot=2),
        hs.cx(0, 1, slot=3),
    )
    circuit = hs.Circuit(2, steps)
    tree = hs.build_branch_tree(circuit, foliation_timeline(hs.run_circuit(circuit), ((0, 1),)))
    assert [(n.slot, n.kind) for n in tree.nodes[1:]] == [
        (2, "created-sharp"),
        (3, "diffused"),
        (4, "created-sharp"),
    ]
    incoming = {e.dst: e for e in tree.edges if e.sign is None}
    assert incoming["created-sharp:q0-q1@t4"].src == "diffused:q0-q1@t3"


# -- exports ------------------------------------------------------------------------


def test_tree_json_document(fr_circuit, fr_timeline):
    tree = hs.build_branch_tree(fr_circuit, fr_timeline)
    doc = tree_json_doc(tree)
    assert doc["format_version"] == 1
    assert len(doc["nodes"]) == 10
    assert len(doc["edges"]) == 11
    assert doc["edges"][0] == {
        "from": "trunk",
        "to": "created-sharp:R-A@t2",
        "sign": None,
        "weight": 1.0,
    }


def test_tree_dot_output(fr_circuit, fr_timeline):
    tree = hs.build_branch_tree(fr_circuit, fr_timeline)
    dot = tree_to_dot(tree)
    assert dot.startswith("digraph foliations {")
    assert '"created-sharp:R-A@t2" -> "diffused:R-A@t5" [label="+1 (1/3)"' in dot
    assert "penwidth" in dot
    assert dot == tree_to_dot(tree)  # deterministic


def test_tree_dot_escapes_quotes_and_backslashes():
    circuit = hs.Circuit(
        2, (hs.ry(0, hs.FR_ANGLE, slot=0), hs.cx(0, 1, slot=1), hs.h(0, slot=2)), {0: 'R"x', 1: "A\\b"}
    )
    timeline = foliation_timeline(hs.run_circuit(circuit), hs.default_watch_pairs(circuit))
    lines = tree_to_dot(hs.build_branch_tree(circuit, timeline)).splitlines()
    assert lines[3:] == [
        '  "trunk" [shape=circle, label="trunk"];',
        r'  "created-sharp:R\"x-A\\b@t2" [shape=box, label="t=2\nR\"x+1/A\\b+1\nR\"x-1/A\\b-1"];',
        r'  "diffused:R\"x-A\\b@t3" [shape=diamond, label="t=3\nR\"x/A\\b"];',
        r'  "trunk" -> "created-sharp:R\"x-A\\b@t2" [label="", penwidth=5.00];',
        r'  "created-sharp:R\"x-A\\b@t2" -> "diffused:R\"x-A\\b@t3" [label="+1 (1/3)", penwidth=2.33];',
        r'  "created-sharp:R\"x-A\\b@t2" -> "diffused:R\"x-A\\b@t3" [label="-1 (2/3)", penwidth=3.67];',
        "}",
    ]


def test_format_weight_fractions():
    assert format_weight(1 / 3) == "1/3"
    assert format_weight(5 / 6) == "5/6"
    assert format_weight(1.0) == "1"
    assert format_weight(0.0) == "0"
    assert format_weight(0.5) == "1/2"
    assert format_weight(0.123456789) == "0.123457"


@pytest.mark.parametrize("sixths", range(-6, 13))
def test_format_weight_prints_every_sixth_as_its_lowest_terms(sixths):
    frac = Fraction(sixths, 6)
    expected = str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"
    assert format_weight(sixths / 6) == expected
    assert format_weight(sixths / 6 + 1e-10) == expected  # within the tolerance of the grid


@pytest.mark.parametrize("value", [0.1, -0.1, 1 / 7, -2 / 3 + 1e-6, 0.735702, 2.5e-9, 13 / 6 + 1e-3])
def test_format_weight_prints_off_grid_values_in_six_digits(value):
    assert format_weight(value) == f"{value:.6g}"


# -- report rows ----------------------------------------------------------------------


def _row_rule_cases():
    # P is put in superposition and copied onto Q, so every live pair has
    # branch weights (1/2, 1/2); the last gate of each circuit is the case
    prepared = (hs.h(0, slot=0), hs.cx(0, 1, slot=1))
    labels = {0: "P", 1: "Q", 2: "S"}
    prep_rows = [
        ReportRow((0, 1), "-", "Hadamard on P", "-", None),
        ReportRow((1, 2), "P,Q", "Controlled-not", "Sharp", (0.5, 0.5)),
    ]
    half = (0.5, 0.5)
    yield pytest.param(
        hs.Circuit(2, (hs.h(0, slot=0),), {0: "P", 1: "Q"}),
        None,
        [ReportRow((0, 1), "-", "Hadamard on P", "-", None)],
        id="fresh-qubit",
    )
    yield pytest.param(
        hs.Circuit(2, prepared, {0: "P", 1: "Q"}),
        ((1, 0),),  # --watch Q,P
        [prep_rows[0], ReportRow((1, 2), "Q,P", "Controlled-not", "Sharp", half)],
        id="reversed-pair",
    )
    yield pytest.param(
        hs.Circuit(3, prepared + (hs.cx(1, 2, slot=2),), labels),
        ((0, 1),),
        prep_rows + [ReportRow((2, 3), "-", "Controlled-not", "-", None)],
        id="unwatched-pair",
    )
    yield pytest.param(
        hs.Circuit(3, prepared + (hs.cx(0, 2, slot=2), hs.h(0, slot=3)), labels),
        ((0, 1), (0, 2)),
        prep_rows
        + [
            ReportRow((2, 3), "P,S", "Controlled-not", "Sharp", half),
            ReportRow((3, 4), "P,Q", "Hadamard on P", "Non-sharp", half),
            ReportRow((3, 4), "P,S", "Hadamard on P", "Non-sharp", half),
        ],
        id="leads-two-pairs",
    )
    yield pytest.param(
        hs.Circuit(3, prepared + (hs.cx(1, 2, slot=2), hs.h(1, slot=3)), labels),
        ((0, 1), (1, 2)),
        prep_rows
        + [
            ReportRow((2, 3), "Q,S", "Controlled-not", "Sharp", half),
            ReportRow((3, 4), "Q,S", "Hadamard on Q", "Non-sharp", half),
        ],
        id="leads-one-trails-one",
    )
    yield pytest.param(
        hs.Circuit(2, prepared + (hs.h(1, slot=2),), {0: "P", 1: "Q"}),
        None,
        prep_rows + [ReportRow((2, 3), "P,Q", "Hadamard on Q", "Non-sharp", half)],
        id="trails-a-pair",
    )
    yield pytest.param(
        hs.Circuit(2, prepared + (hs.ry(1, math.pi, slot=2),), {0: "P", 1: "Q"}),
        None,
        prep_rows + [ReportRow((2, 3), "P,Q", "Rotation on Q", "Anti-sharp", half)],
        id="trails-anti-sharp",
    )
    yield pytest.param(
        hs.Circuit(3, prepared + (hs.h(2, slot=2),), labels),
        None,
        prep_rows + [ReportRow((2, 3), "-", "Hadamard on S", "-", None)],
        id="in-no-live-pair",
    )


@pytest.mark.parametrize("circuit, watch, expected", list(_row_rule_cases()))
def test_report_row_rule(circuit, watch, expected):
    if watch is None:
        watch = hs.default_watch_pairs(circuit)
    assert hs.report_rows(circuit, foliation_timeline(hs.run_circuit(circuit), watch)) == expected


def test_report_projection_columns_sum_to_one(fr_circuit, fr_timeline):
    for row in hs.report_rows(fr_circuit, fr_timeline):
        if row.proj is not None:
            assert row.proj[0] + row.proj[1] == pytest.approx(1.0, abs=1e-9)


def test_report_rows_fr(fr_circuit, fr_timeline):
    rows = hs.report_rows(fr_circuit, fr_timeline)
    assert len(rows) == 12
    assert [row.verdict for row in rows] == [
        "-",
        "Sharp",
        "Non-sharp",
        "Sharp",
        "Non-sharp",
        "Non-sharp",
        "Non-sharp",
        "Non-sharp",
        "Sharp",
        "Sharp",
        "Sharp",
        "Sharp",
    ]
    assert [row.parties for row in rows] == [
        "-",
        "R,A",
        "A,S",
        "S,B",
        "R,A",
        "S,B",
        "R,A",
        "S,B",
        "R,U_R",
        "A,U_A",
        "S,W_S",
        "B,W_B",
    ]
