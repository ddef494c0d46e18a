import dataclasses

import numpy as np
import pytest

from nearex import engine
from nearex.algebra import parse_system, seeded_rng
from nearex.engine import (
    StructureNotFoundError,
    recover_factor,
    recover_infinity,
    recover_multiplicity,
    recover_positive_dim,
)
from nearex.fiberprod import StabilizationError
from nearex.fixtures import FIXTURE_DIR, load
from nearex.problem import ProblemFile
from nearex.structure import solution_residual


def test_infinity_without_near_infinity_points_is_reported():
    # x^2 = 2, y = 1 has no solutions near infinity at these parameters
    f = parse_system("vars x, y; params p; poly x^2 - p; poly y - 1;")
    with pytest.raises(StructureNotFoundError):
        recover_infinity(f, [2.0], seed=0)


def test_infinity_recovery_counts_and_validation():
    f, _, p_hat, _ = load("infinity_example")
    out = recover_infinity(f, p_hat, seed=0)
    assert out.validated
    v = out.result.validation
    assert v["passed"]
    # pushing the near-infinity point exactly to infinity adds one point there
    assert all(
        after >= before + imposed
        for after, before, imposed in zip(
            v["at_infinity_after"], v["at_infinity_before"], v["imposed"]
        )
    )


def test_one_and_two_group_homogenizations_agree():
    f, _, p_hat, _ = load("infinity_example")
    o1 = recover_infinity(f, p_hat, seed=0)
    o2 = recover_infinity(f, p_hat, groups=[["x1"], ["x2"]], seed=0)
    assert o1.validated and o2.validated
    assert np.max(np.abs(o1.result.p_star - o2.result.p_star)) < 1e-6


def test_positive_dim_recovery_lands_on_exceptional_line():
    f, _, p_hat, p_star = load("posdim")
    out = recover_positive_dim(f, p_hat, dim_D=1, degree_d=1, seed=0)
    assert out.validated
    p = np.real(out.result.p_star)
    assert abs(2 * p[0] + p[1]) < 1e-8
    assert np.max(np.abs(out.result.p_star - np.asarray(p_star))) < 1e-3


def test_positive_dim_is_deterministic():
    f, _, p_hat, _ = load("posdim")
    a = recover_positive_dim(f, p_hat, dim_D=1, degree_d=1, seed=0)
    b = recover_positive_dim(f, p_hat, dim_D=1, degree_d=1, seed=0)
    assert np.array_equal(a.result.endpoint, b.result.endpoint)


def test_positive_dim_impossible_degree_fails_cleanly():
    f, _, p_hat, _ = load("posdim")
    with pytest.raises(StructureNotFoundError):
        recover_positive_dim(f, p_hat, dim_D=1, degree_d=9, seed=0)


def test_multiplicity_recovery_lands_on_parabola():
    f, _, p_hat, p_star = load("multiplicity_line")
    out = recover_multiplicity(f, p_hat, dim_D=1, seed=0)
    assert out.validated
    p = np.real(out.result.p_star)
    assert abs(p[0] ** 2 - p[1]) < 1e-8
    v = out.result.validation
    assert v["hilbert"] == [1, 1, 0]
    assert v["multiplicity"] == 2


@pytest.mark.parametrize("sample", [44, 45, 159, 173, 174, 249, 383, 418])
def test_multiplicity_study_samples_are_on_the_parabola_or_not_validated(sample):
    # samples of the multiplicity_line study (seed 0, sigma 0.1) that once
    # ended off p1^2 = p2 yet were reported as recovered: their candidates
    # fail validation, or (418) validation passed a point that solves only
    # the randomized, sliced system and has a complex p*
    f, p_tilde, _, _ = load("multiplicity_line")
    rng = seeded_rng(0, 29, sample)
    p_hat = np.real(p_tilde) + 0.1 * rng.normal(size=2)
    out = recover_multiplicity(f, p_hat, dim_D=1, seed=sample)
    res = out.result
    assert res.success == out.validated
    if not res.success:
        assert res.status == "not-validated"
        assert not res.validation["passed"]
        return
    assert np.max(np.abs(np.imag(res.p_star))) <= 1e-6
    p = np.real(res.p_star)
    assert abs(p[0] ** 2 - p[1]) <= 1e-6
    blk_start, _ = out.fiber.block_slices[0]
    x_star = res.endpoint[blk_start: blk_start + 2]
    assert solution_residual(f.substitute_params(res.p_star), x_star) <= 1e-6


def test_multiplicity_retries_a_detection_whose_candidates_all_fail():
    # sample 44 of the multiplicity_line study (seed 0, sigma 0.1): every
    # candidate of the first detection descends to a double point of the
    # randomized, sliced system only; the redrawn detection validates
    f, p_tilde, _, _ = load("multiplicity_line")
    rng = seeded_rng(0, 29, 44)
    p_hat = np.real(p_tilde) + 0.1 * rng.normal(size=2)
    out = recover_multiplicity(f, p_hat, dim_D=1, seed=44)
    assert out.validated
    assert np.max(np.abs(np.imag(out.result.p_star))) <= 1e-6
    p = np.real(out.result.p_star)
    assert abs(p[0] ** 2 - p[1]) < 1e-8


def test_multiplicity_zero_dimensional_double_root():
    f, _, p_hat, _ = load("double_root")
    out = recover_multiplicity(f, p_hat, dim_D=0, seed=0)
    assert out.validated
    assert out.result.p_star[0] == pytest.approx(2.828427116497461, abs=1e-6)
    assert out.result.p_star[1] == pytest.approx(1.999999988334534, abs=1e-6)


@pytest.mark.parametrize("name, n_trials, subset", [
    ("zeke_quartic", 5, [0, 2]),
    ("fourbar", 4, [1, 3]),
])
def test_factor_without_a_subset_size_ranks_every_proper_subset(name, n_trials, subset):
    # every size from 1 to r - 1 is a candidate; the pair is the first that
    # validates, as with subset_size=2
    f, _, p_hat, _ = load(name)
    out = recover_factor(f, p_hat, n_trials=n_trials, seed=0)
    assert out.validated
    assert out.result.validation["subset"] == subset


@pytest.mark.parametrize("groups, dims, sizes", [
    (None, [3], [10]),
    ([["x1"], ["x2"]], [2], [12]),
], ids=["one-group", "two-groups"])
def test_every_infinity_outcome_carries_a_stabilization_table(groups, dims, sizes):
    # a single suspect is stabilized like several: one trial, one table row
    f, _, p_hat, _ = load("infinity_example")
    out = recover_infinity(f, p_hat, groups=groups, seed=0)
    assert out.validated
    assert out.stabilization.dims == dims
    assert out.stabilization.sizes == sizes
    assert out.stabilization.accepted == [True]
    assert out.fiber.system_size() == sizes[-1]


def test_run_outcome_reports_component_growth():
    f, _, p_hat, _ = load("posdim")
    out = recover_positive_dim(f, p_hat, dim_D=1, degree_d=1, seed=0)
    stab = out.stabilization
    assert stab is not None
    assert len(stab.dims) == len(stab.sizes)
    assert all(b > a for a, b in zip(stab.sizes, stab.sizes[1:]))
    assert out.fiber.system_size() in stab.sizes


def test_study_sample_validates_at_its_third_detection():
    """multiplicity_line at study seed 10, sample 73 (run seed 83) validates
    on the parabola, at its nearest point.

    Its first two detections give three complex witness points each, none of
    which nearly solves f(.; p-hat) (the first detection's smallest residual
    is 0.026).  Of their descents, one ends singular and the rest end at a
    complex p* where the candidate's point does not solve f(.; p*).  The
    third detection, at run seed + 2·1013, validates.
    """
    prob = ProblemFile.load(FIXTURE_DIR / "multiplicity_line.json")
    # drawn as `nearex study` draws sample 73 at seed 10, sigma 0.1
    p_hat = np.real(prob.p_tilde) + 0.1 * seeded_rng(10, 29, 73).normal(size=2)
    assert p_hat == pytest.approx([1.252, 0.944], abs=1e-3)
    outcome = dataclasses.replace(prob, p_hat=p_hat.astype(complex)).run(seed=10 + 73)
    assert outcome.validated and outcome.result.status == "recovered"
    assert outcome.result.p_star == pytest.approx([1.0267, 1.0541], abs=1e-4)
    p = np.real(outcome.result.p_star)
    assert abs(p[0] ** 2 - p[1]) < 1e-8


PIPELINE_FIXTURES = [
    ("posdim", "_validate_positive_dim", "witness_superset"),
    ("zeke_quartic", "_validate_factor", "witness_superset"),
    ("multiplicity_line", "_validate_multiplicity", "witness_superset"),
    ("infinity_example", "_validate_infinity", "homogenize"),
]


@pytest.mark.parametrize("name, validator, detector", PIPELINE_FIXTURES,
                         ids=[row[0] for row in PIPELINE_FIXTURES])
def test_a_run_that_never_validates_redraws_its_detection(monkeypatch, name, validator,
                                                          detector):
    # every pipeline detects at seed + REDRAW·k for k < ATTEMPTS, tries every
    # candidate, and returns the last outcome when none validates; a descent
    # whose status the pipeline does not judge never reaches the validator,
    # so the last descent, not the last validator call, names that outcome
    seeds, calls, endpoints = [], [], []
    detect, descend = getattr(engine, detector), engine.descend

    def recording_detect(*args, seed):
        seeds.append(seed)
        return detect(*args, seed=seed)

    def recording_descend(G):
        res = descend(G)
        endpoints.append(res.endpoint)
        return res

    def failing_validate(*args):
        calls.append(len(calls))
        return {"passed": False}

    monkeypatch.setattr(engine, detector, recording_detect)
    monkeypatch.setattr(engine, "descend", recording_descend)
    monkeypatch.setattr(engine, validator, failing_validate)
    out = ProblemFile.load(FIXTURE_DIR / f"{name}.json").run(seed=5)
    assert seeds == [5, 5 + engine.REDRAW, 5 + 2 * engine.REDRAW]
    assert not out.validated and out.result.status == "not-validated"
    assert len(calls) >= engine.ATTEMPTS
    assert out.result.endpoint is endpoints[-1]


@pytest.mark.parametrize("name", [row[0] for row in PIPELINE_FIXTURES])
def test_a_descent_status_the_pipeline_does_not_judge_skips_validation(monkeypatch, name):
    # infinity judges a salvaged singular endpoint; the other three do not,
    # so their runs end not-validated with the check reported as not run
    descend = engine.descend
    monkeypatch.setattr(engine, "descend", lambda G: dataclasses.replace(
        descend(G), status="recovered-singular"))
    out = ProblemFile.load(FIXTURE_DIR / f"{name}.json").run(seed=0)
    if name == "infinity_example":
        assert "at_infinity_after" in out.result.validation
    else:
        assert not out.validated and out.result.status == "not-validated"
        assert out.result.validation == {
            "passed": False, "error": "not run: descent ended recovered-singular"}


@pytest.mark.parametrize("name", [row[0] for row in PIPELINE_FIXTURES])
def test_a_run_whose_every_stabilization_fails_ends_in_stabilization_error(monkeypatch,
                                                                          name):
    def failing_stabilize(*args, **kwargs):
        raise StabilizationError("trial 1: rejected")

    monkeypatch.setattr(engine, "stabilize", failing_stabilize)
    with pytest.raises(StabilizationError):
        ProblemFile.load(FIXTURE_DIR / f"{name}.json").run(seed=0)
