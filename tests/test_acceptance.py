"""End-to-end acceptance checks, one test per shipped guarantee.

Every test exercises a full pipeline on a shipped fixture and asserts the
published reference values at their stated tolerances, plus a wall-clock
budget.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from nearex.algebra import Polynomial, PolySystem, parse_system, seeded_rng
from nearex.engine import (
    recover_factor,
    recover_infinity,
    recover_multiplicity,
    recover_positive_dim,
)
from nearex.fiberprod import (
    FiberProductSystem,
    build_witness_condition,
    image_dimension,
)
from nearex.fixtures import DOUBLE_ROOT_ONE_PARAM, DOUBLE_ROOT_TWO_PARAM, load
from nearex.problem import ProblemFile
from nearex.recover import build_lagrange, descend, sample_study
from nearex.structure import (
    NEAR_SOLUTION,
    cluster_points,
    local_hilbert,
    macaulay_matrix,
    trace_data,
    witness_superset,
)
from nearex.tracker import newton_refine, solve_total_degree

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
DOUBLE_ROOT, _, DOUBLE_ROOT_P_HAT, _ = load("double_root")


def _elapsed(t0):
    return time.monotonic() - t0


# -- double-root warm-up -----------------------------------------------------


def test_double_root_newton_and_two_parameter_descent():
    t0 = time.monotonic()
    f = DOUBLE_ROOT
    df = f.polynomials[0].diff(0)
    both = f.with_polynomials([f.polynomials[0], df])

    # one free parameter: Newton on {f, f'} in the unknowns (x, p1)
    fixed = both.substitute({2: DOUBLE_ROOT_P_HAT[1]})
    start = np.array([-np.sqrt(2.0), DOUBLE_ROOT_P_HAT[0]], dtype=complex)
    refined, ok = newton_refine(fixed, start)
    assert ok
    assert refined[0] == pytest.approx(DOUBLE_ROOT_ONE_PARAM[0], abs=1e-12)
    assert refined[1] == pytest.approx(DOUBLE_ROOT_ONE_PARAM[1], abs=1e-12)

    # both parameters free: nearest point on the double-root locus
    from nearex.fiberprod import ConditionSystem

    comp = ConditionSystem(kind="witness", system=both,
                           start_block=np.array([-np.sqrt(2.0) + 0j]))
    F = FiberProductSystem([comp], DOUBLE_ROOT_P_HAT)
    res = descend(build_lagrange(F, patch_seed=0))
    assert res.success
    assert res.endpoint[0] == pytest.approx(DOUBLE_ROOT_TWO_PARAM[0], abs=1e-6)
    assert res.p_star[0] == pytest.approx(DOUBLE_ROOT_TWO_PARAM[1], abs=1e-6)
    assert res.p_star[1] == pytest.approx(DOUBLE_ROOT_TWO_PARAM[2], abs=1e-6)
    assert _elapsed(t0) < 1.0


# -- solutions at infinity ---------------------------------------------------


def test_infinity_recovery_matches_reference_and_homogenizations_agree():
    t0 = time.monotonic()
    f, _, p_hat, p_star = load("infinity_example")
    o1 = recover_infinity(f, p_hat, seed=0)
    o2 = recover_infinity(f, p_hat, groups=[["x1"], ["x2"]], seed=0)
    assert o1.validated and o2.validated
    for out in (o1, o2):
        p = np.real(out.result.p_star)
        assert np.max(np.abs(p - p_star)) < 1e-4
        # membership in the exceptional set of the quadratic at infinity
        assert abs(p[2] ** 2 - p[0] * p[2] + p[1]) <= 1e-6
    assert np.max(np.abs(o1.result.p_star - o2.result.p_star)) < 1e-6
    assert _elapsed(t0) < 10.0


# -- positive-dimensional component ------------------------------------------


def test_positive_dim_recovery_matches_reference_with_exact_witness():
    t0 = time.monotonic()
    f, _, p_hat, p_star = load("posdim")
    out = recover_positive_dim(f, p_hat, dim_D=1, degree_d=1, seed=0)
    assert out.validated
    p = np.real(out.result.p_star)
    assert np.max(np.abs(p - p_star)) < 1e-3
    assert abs(2 * p[0] + p[1]) <= 1e-8
    # re-solving at p* classifies one witness point as an exact solution
    v = out.result.validation
    assert v["exact_witness_points"] == 1
    assert _elapsed(t0) < 10.0


# -- factorization via the second-derivative trace ---------------------------


def test_factor_recovery_dimension_table_second_derivatives_and_parameters():
    t0 = time.monotonic()
    f, _, p_hat, p_star = load("zeke_quartic")

    # the four published curve second derivatives on the fixed slice
    sq_src = f.substitute_params(p_hat)
    n = sq_src.arity
    sl = (Polynomial.variable(0, n, 2.0) + Polynomial.variable(1, n, -3.0)
          + Polynomial.constant(-1.0, n))
    sq = PolySystem(sq_src.polynomials + [sl], sq_src.roles, sq_src.names)
    pts = [r.endpoint for r in solve_total_degree(sq, seed=0) if r.success]
    assert len(pts) == 4
    td = trace_data(sq, pts, move_index=1, alpha_seed=0)
    expected_wddot = [
        (0.13416408, 0.08944272),
        (-0.13416415, -0.08944277),
        (0.00546655, 0.00364437),
        (-0.00546648, -0.00364432),
    ]
    unmatched = list(range(4))
    for expect in expected_wddot:
        errs = [np.max(np.abs(td.second_derivs[j] - np.array(expect)))
                for j in unmatched]
        k = unmatched[int(np.argmin(errs))]
        assert min(errs) < 1e-5
        unmatched.remove(k)

    out = recover_factor(f, p_hat, subset_size=2, n_trials=5, seed=0)
    assert out.validated
    assert out.stabilization.dims == [9, 8, 7, 6, 6]
    assert out.stabilization.sizes == [35, 60, 85, 110, 135]
    assert np.max(np.abs(np.real(out.result.p_star) - p_star)) < 1e-5
    assert _elapsed(t0) < 120.0


# -- multiplicity ------------------------------------------------------------


def test_multiplicity_recovery_matches_reference_and_hilbert_function():
    t0 = time.monotonic()
    f, _, p_hat, p_star = load("multiplicity_line")
    out = recover_multiplicity(f, p_hat, dim_D=1, seed=0)
    assert out.validated
    p = np.real(out.result.p_star)
    assert np.max(np.abs(p - p_star)) < 1e-3
    assert abs(p[0] ** 2 - p[1]) <= 1e-8
    v = out.result.validation
    assert list(v["hilbert"]) == [1, 1, 0]
    assert v["multiplicity"] == 2
    assert _elapsed(t0) < 10.0


# -- four-bar path synthesis -------------------------------------------------


def test_fourbar_recovery_dimension_table_and_coupled_parameters():
    t0 = time.monotonic()
    f, _, p_hat, p_star = load("fourbar")
    out = recover_factor(f, p_hat, subset_size=2, n_trials=4, seed=0)
    assert out.validated
    assert out.stabilization.dims == [3, 2, 2, 2]
    assert out.stabilization.sizes == [53, 102, 151, 200]
    p = np.real(out.result.p_star)
    assert np.max(np.abs(p - p_star)) < 1e-3
    assert abs(p[0] - p[2]) <= 1e-6
    assert abs(p[1] - p[3]) <= 1e-6
    assert _elapsed(t0) < 300.0


def test_fourbar_at_run_seed_3_validates():
    """fourbar run through its problem file at run seed 3 validates, with the
    table and the reference p* of run seed 0.

    The first detection's only subset under the trace tolerance descends to a
    complex p* (relative |Im p*| 9.0e-3 for a real p-hat), whose subset trace
    is 240 times the validation threshold.  The candidate loop then redraws
    the detection at seed 3 + 1013 and validates there.
    """
    *_, p_star = load("fourbar")
    out = ProblemFile.load(FIXTURES / "fourbar.json").run(seed=3)
    assert out.validated and out.result.status == "recovered"
    assert out.stabilization.dims == [3, 2, 2, 2]
    assert np.max(np.abs(np.imag(out.result.p_star))) <= 1e-12
    assert np.max(np.abs(np.real(out.result.p_star) - p_star)) < 1e-3


@pytest.mark.parametrize("name", ["double_root", "infinity_example",
                                  "infinity_example_2hom", "posdim", "zeke_quartic",
                                  "multiplicity_line", "fourbar"])
def test_every_fast_fixture_validates_at_run_seeds_0_to_9(name):
    """A run seed picks other random slices and paths, not another answer."""
    prob = ProblemFile.load(FIXTURES / f"{name}.json")
    failed = [seed for seed in range(10) if not prob.run(seed=seed).validated]
    assert failed == []


# -- Stewart-Gough platform ---------------------------------------------------


def test_stewart_gough_recovery_matches_reference():
    t0 = time.monotonic()
    f, _, p_hat, p_star = load("stewart_gough")
    ws = witness_superset(f, np.asarray(p_hat, dtype=complex), 1, seed=0)
    # distinct endpoints of the paths that completed tracking
    done = [cp for cp in ws.points
            if "track-step-failure" not in cp.labels]
    ids = cluster_points([cp.point for cp in done], radius=1e-6)
    assert len(set(ids)) == 40
    near = [cp for cp in ws.points if NEAR_SOLUTION in cp.labels]
    assert len(near) == 2
    out = recover_positive_dim(f, p_hat, dim_D=1, degree_d=2, n_trials=5,
                               seed=0)
    assert out.validated
    assert out.stabilization.dims == [40, 38, 36, 35, 35]
    assert out.stabilization.sizes == [72, 102, 132, 162, 192]
    assert np.max(np.abs(np.real(out.result.p_star) - p_star)) < 1e-8
    assert _elapsed(t0) < 1800.0


# -- sampling studies --------------------------------------------------------


def _line_nearest(p):
    """The nearest point of posdim's exceptional set, the line 2·p1 + p2 = 0."""
    normal = np.array([2.0, 1.0])
    return p - (normal @ p) / (normal @ normal) * normal


def _parabola_nearest(p):
    """The nearest point of multiplicity_line's exceptional set, the parabola
    p2 = p1²: (t, t²) for the real root t of 2t³ + (1 − 2·p2)·t − p1 = 0
    nearest to p.  The real part of a complex root gives no nearer point, so
    the minimum runs over the real parts of all three roots."""
    roots = np.roots([2.0, 0.0, 1.0 - 2.0 * p[1], -p[0]]).real
    return min((np.array([t, t * t]) for t in roots), key=lambda q: np.linalg.norm(q - p))


def _run_study(fixture, exceptional_residual, nearest):
    prob = ProblemFile.load(str(FIXTURES / f"{fixture}.json"))

    def run_one(p_hat, seed):
        return dataclasses.replace(prob, p_hat=tuple(p_hat)).run(seed=seed).result

    rows = sample_study(run_one, np.real(prob.p_tilde), 0.1, 500, 0)
    ok = [r for r in rows if str(r["status"]).startswith("recovered")]
    rate = len(ok) / len(rows)
    chi2 = float(np.mean([r["chi2stat"] for r in ok]))
    worst = max(exceptional_residual(np.real(r["p_star"])) for r in ok)
    off = max(np.linalg.norm(np.real(r["p_star"]) - nearest(r["p_hat"])) for r in ok)
    return rate, chi2, worst, off


def test_sampling_studies_have_chi_square_statistics():
    t0 = time.monotonic()
    rate, chi2, worst, off = _run_study(
        "posdim", lambda p: abs(2 * p[0] + p[1]), _line_nearest)
    assert rate >= 0.95
    assert worst <= 1e-6
    assert off <= 1e-10  # every validated p* is the nearest point
    assert 0.7 <= chi2 <= 1.4
    rate, chi2, worst, off = _run_study(
        "multiplicity_line", lambda p: abs(p[0] ** 2 - p[1]), _parabola_nearest)
    assert rate >= 0.95
    assert worst <= 1e-6
    assert off <= 1e-10
    assert 0.7 <= chi2 <= 1.4
    assert _elapsed(t0) < 600.0


def _study_sample(fixture, sigma, study_seed, i):
    """p̂ and the outcome of sample ``i`` of a study, run alone the way
    ``nearex study`` runs it."""
    prob = ProblemFile.load(str(FIXTURES / f"{fixture}.json"))
    p_hat = np.real(prob.p_tilde) + sigma * seeded_rng(study_seed, 29, i).normal(size=2)
    outcome = dataclasses.replace(prob, p_hat=p_hat.astype(complex)).run(seed=study_seed + i)
    return p_hat, outcome


@pytest.mark.parametrize("sample, p_star, distance, nearest", [
    (41, [-0.102, 0.010], 1.17, 0.84),
    (112, [-0.244, 0.060], 1.21, 0.70),
])
def test_wide_study_samples_validate_at_a_point_that_is_not_nearest(sample, p_star,
                                                                    distance, nearest):
    """multiplicity_line at sigma 0.3, study seed 1: samples 41 and 112 end
    ``recovered`` and validated at a p* that is not the nearest point, pinned
    as they behave today.

    Why this is wrong: p* is (t, t²) for the middle real root t of
    2t³ + (1 − 2·p̂2)·t − p̂1 = 0.  That critical point of the distance along
    the parabola lies between its two local minima, so it is a local maximum.
    Validation checks that p* is on the set, real, and solved by the
    candidate's point, but not that p* minimizes the distance.  A
    second-order check at the endpoint (ROADMAP item 2(b)) is meant to change
    these pins on purpose.
    """
    p_hat, outcome = _study_sample("multiplicity_line", 0.3, 1, sample)
    assert outcome.validated and outcome.result.status == "recovered"
    assert np.real(outcome.result.p_star) == pytest.approx(p_star, abs=1e-3)
    assert outcome.result.distance == pytest.approx(distance, abs=0.01)
    assert np.linalg.norm(_parabola_nearest(p_hat) - p_hat) == pytest.approx(nearest, abs=0.01)


def test_wide_study_sample_82_validates_at_the_nearest_point():
    """multiplicity_line at sigma 0.3, study seed 1: sample 82 validates at
    the nearest point of the parabola, 0.34 from p-hat.

    Its first two detections give no candidate that validates: each descent
    ends at a complex p* where the candidate's point does not solve f(.; p*).
    The third detection, at run seed + 2·1013, validates.
    """
    p_hat, outcome = _study_sample("multiplicity_line", 0.3, 1, 82)
    assert outcome.validated and outcome.result.status == "recovered"
    nearest = _parabola_nearest(p_hat)
    assert np.linalg.norm(nearest - p_hat) == pytest.approx(0.34, abs=0.01)
    assert np.real(outcome.result.p_star) == pytest.approx(nearest, abs=1e-8)


@pytest.mark.parametrize("sample, nearest", [(97, 0.76)])
def test_wide_study_samples_that_end_not_validated(sample, nearest):
    """multiplicity_line at sigma 0.3, study seed 1: sample 97 ends
    ``not-validated``, pinned as it behaves today.

    Why this is wrong: the nearest point lies 0.76 from p-hat, yet no
    candidate of the three detections validates.  The engine returns the last
    one tried, a descent that ends at a complex p* (relative |Im p*| 0.65)
    2.81 from p-hat, where the candidate's point does not solve f(.; p*)
    (residual 0.36).
    """
    p_hat, outcome = _study_sample("multiplicity_line", 0.3, 1, sample)
    assert not outcome.validated and outcome.result.status == "not-validated"
    validation = outcome.result.validation
    assert validation["imag_p_star"] == pytest.approx(0.65, abs=0.01)
    assert validation["solution_residual"] == pytest.approx(0.36, abs=0.01)
    assert outcome.result.distance == pytest.approx(2.81, abs=0.01)
    assert np.linalg.norm(_parabola_nearest(p_hat) - p_hat) == pytest.approx(nearest, abs=0.01)


# -- structural property bundle ----------------------------------------------


def test_path_counts_derivative_tables_monotonicity_and_determinism():
    # total-degree path counts are exactly the product of the degrees
    sq = parse_system("vars x, y; poly x^2 + y - 3; poly x*y - 1;")
    assert len(solve_total_degree(sq, seed=0)) == 4
    cubic = parse_system("vars x; poly x^3 - 2*x + 1;")
    assert len(solve_total_degree(cubic, seed=0)) == 3

    # derivative-table entries match symbolic derivatives divided by alpha!
    f = parse_system("vars x, y; poly x^2*y + 3*y^2 - 2*x; poly x*y - 1;")
    rng = seeded_rng(5)
    x_star = rng.normal(size=2) + 1j * rng.normal(size=2)
    M = macaulay_matrix(f, x_star, 2)
    cols = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for j, p in enumerate(f.polynomials):
        for ci, alpha in enumerate(cols):
            d = p
            for i, k in enumerate(alpha):
                for _ in range(k):
                    d = d.diff(i)
            fact = math.factorial(alpha[0]) * math.factorial(alpha[1])
            assert M[j, ci] == pytest.approx(d.evaluate(x_star) / fact,
                                             abs=1e-12)

    # gradient rows of the critical-point system match finite differences
    from nearex.fiberprod import ConditionSystem

    base = DOUBLE_ROOT
    both = base.with_polynomials([base.polynomials[0],
                                  base.polynomials[0].diff(0)])
    comp = ConditionSystem(kind="witness", system=both,
                           start_block=np.array([-np.sqrt(2.0) + 0j]))
    F = FiberProductSystem([comp], DOUBLE_ROOT_P_HAT)
    G = build_lagrange(F, patch_seed=0)
    rng = seeded_rng(11)
    z = rng.normal(size=G.system.arity) + 1j * rng.normal(size=G.system.arity)
    m = len(G.lambda_indices) - 1
    lam = z[G.lambda_indices]

    def L(primal):
        fvals = F.full_system.evaluate(primal)
        d = primal[F.param_indices()] - F.p_hat
        return lam[0] * np.sum(d * d) + np.sum(lam[1:] * fvals)

    h = 1e-7
    primal = z[: F.full_system.arity]
    grad_rows = G.system.evaluate(z)[m: m + len(primal)]
    for a in range(len(primal)):
        e = np.zeros_like(primal)
        e[a] = h
        fd = (L(primal + e) - L(primal - e)) / (2 * h)
        assert abs(grad_rows[a] - fd) / max(1.0, abs(fd)) < 1e-6

    # the image dimension never grows as conditions are appended
    fpos, _, p_hat, _ = load("posdim")
    p_hat = np.asarray(p_hat, dtype=complex)
    ws = witness_superset(fpos, p_hat, 1, seed=0)
    cands = sorted((cp for cp in ws.points if np.all(np.isfinite(cp.point))),
                   key=lambda cp: cp.residual_full_system)
    prev, comps = None, []
    for k in range(3):
        comps.append(build_witness_condition(fpos, 1, [cands[0]], seed=k,
                                             detection=ws))
        dim, _ = image_dimension(
            FiberProductSystem(list(comps), p_hat))
        if prev is not None:
            assert dim <= prev
        prev = dim

    # fixed seeds give bit-for-bit identical endpoints
    a = recover_positive_dim(fpos, p_hat, dim_D=1, degree_d=1, seed=0)
    b = recover_positive_dim(fpos, p_hat, dim_D=1, degree_d=1, seed=0)
    assert np.array_equal(a.result.endpoint, b.result.endpoint)


def test_detection_splits_the_6r_start_solutions_into_three_clusters():
    t0 = time.monotonic()
    f, _, p_hat, _ = load("sixR")
    results = solve_total_degree(f.substitute_params(p_hat), seed=0)
    assert len(results) == 256
    assert sum(r.steps for r in results) <= 14_000
    good = [r.endpoint for r in results if r.success]
    ids = cluster_points(good, radius=1e-6)
    reps = {}
    for pt, i in zip(good, ids):
        reps.setdefault(i, pt)
    pts = list(reps.values())
    assert len(pts) == 64
    i0, i9 = f.names.index("x0"), f.names.index("x9")
    th = 1e-4
    small = [(abs(p[i0]) / np.linalg.norm(p) < th,
              abs(p[i9]) / np.linalg.norm(p) < th) for p in pts]
    assert sum(1 for a, b in small if a and not b) == 16
    assert sum(1 for a, b in small if b and not a) == 16
    assert sum(1 for a, b in small if not a and not b) == 32
    assert _elapsed(t0) < 120.0
