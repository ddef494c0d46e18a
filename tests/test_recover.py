import json

import numpy as np
import pytest

from nearex.algebra import PARAMETER, parse_system, seeded_rng
from nearex.fiberprod import FiberProductSystem, build_witness_condition
from nearex.fixtures import DOUBLE_ROOT_ONE_PARAM, DOUBLE_ROOT_TWO_PARAM, FIXTURE_DIR, load
from nearex.problem import ProblemFile
from nearex.recover import (
    build_lagrange,
    descend,
    histogram_data,
    report,
    sample_study,
    study_csv,
)
from nearex.structure import witness_superset
from nearex.tracker import newton_refine

DOUBLE_ROOT, _, DOUBLE_ROOT_P_HAT, _ = load("double_root")


def double_root_fiber(params="p1, p2"):
    """{f, f'} as one condition block over the chosen free parameters."""
    src = f"vars x1; params {params}; poly x1^2 + p1*x1 + p2;"
    f = parse_system(src)
    df = f.polynomials[0].diff(0)
    cond_sys = f.with_polynomials([f.polynomials[0], df])
    from nearex.fiberprod import ConditionSystem

    # start at the root of f(x; p_hat) closest to the double-root locus
    x0 = np.array([-np.sqrt(2.0) + 0j])
    return ConditionSystem(kind="witness", system=cond_sys, start_block=x0)


def test_newton_on_root_and_derivative_reaches_the_double_root():
    f = DOUBLE_ROOT
    df = f.polynomials[0].diff(0)
    both = f.with_polynomials([f.polynomials[0], df])
    # fix p2 at its nominal value; unknowns are (x, p1)
    fixed = both.substitute({2: DOUBLE_ROOT_P_HAT[1]})
    start = np.array([-np.sqrt(2.0), DOUBLE_ROOT_P_HAT[0]], dtype=complex)
    refined, ok = newton_refine(fixed, start)
    assert ok
    assert refined[0] == pytest.approx(DOUBLE_ROOT_ONE_PARAM[0], abs=1e-12)
    assert refined[1] == pytest.approx(DOUBLE_ROOT_ONE_PARAM[1], abs=1e-12)


def test_two_parameter_descent_recovers_nearest_double_root():
    comp = double_root_fiber()
    F = FiberProductSystem([comp], DOUBLE_ROOT_P_HAT)
    G = build_lagrange(F, patch_seed=0)
    res = descend(G)
    assert res.success
    x_star = res.endpoint[0]
    expect = DOUBLE_ROOT_TWO_PARAM
    assert x_star == pytest.approx(expect[0], abs=1e-6)
    assert res.p_star[0] == pytest.approx(expect[1], abs=1e-6)
    assert res.p_star[1] == pytest.approx(expect[2], abs=1e-6)


def test_lagrange_system_is_square_with_multiplier_patch():
    comp = double_root_fiber()
    F = FiberProductSystem([comp], DOUBLE_ROOT_P_HAT)
    G = build_lagrange(F, patch_seed=3)
    n_eq = len(G.system.polynomials)
    assert n_eq == G.system.arity
    assert len(G.lambda_indices) == len(F.full_system.polynomials) + 1
    # the start point satisfies the patch row and the gradient rows exactly
    start = G.start_point()
    res = G.system.evaluate(start)
    assert np.linalg.norm(res[len(F.full_system.polynomials):]) < 1e-10


def test_lagrange_gradient_rows_match_finite_differences():
    comp = double_root_fiber()
    F = FiberProductSystem([comp], DOUBLE_ROOT_P_HAT)
    G = build_lagrange(F, patch_seed=0)
    rng = seeded_rng(11)
    z = rng.normal(size=G.system.arity) + 1j * rng.normal(size=G.system.arity)
    M = len(G.lambda_indices) - 1
    lam = z[G.lambda_indices]

    # objective + lambda-weighted constraints, as a scalar function
    def L(primal):
        full = z.copy()
        full[: len(primal)] = primal
        fvals = F.full_system.evaluate(primal)
        d = primal[F.param_indices()] - F.p_hat
        return lam[0] * np.sum(d * d) + np.sum(lam[1:] * fvals)

    h = 1e-7
    primal = z[: F.full_system.arity]
    grad_rows = G.system.evaluate(z)[M: M + len(primal)]
    for a in range(len(primal)):
        e = np.zeros_like(primal)
        e[a] = h
        fd = (L(primal + e) - L(primal - e)) / (2 * h)
        denom = max(1.0, abs(fd))
        assert abs(grad_rows[a] - fd) / denom < 1e-6


@pytest.mark.parametrize("fixture", ["posdim", "fourbar", "multiplicity_line"])
def test_lagrange_jacobian_holds_the_hessian_and_the_constraint_jacobian(fixture):
    """The gradient rows of 𝒢 are the gradient of λ₀‖p − p̂‖² + Σⱼ λⱼ·𝓕ⱼ, so
    their block of 𝒢's Jacobian in the primal unknowns is that Lagrangian's
    Hessian, symmetric bit for bit, and their multiplier columns are J_𝓕ᵀ,
    the transposed Jacobian of 𝒢's constraint rows."""
    run = ProblemFile.load(FIXTURE_DIR / f"{fixture}.json").run(seed=0)
    G = build_lagrange(run.stabilization.fiber_product)
    n = G.fiber.full_system.arity
    M = len(G.lambda_indices) - 1
    rng = seeded_rng(12)
    arity = G.system.arity
    for z in (G.start_point(), rng.normal(size=arity) + 1j * rng.normal(size=arity)):
        J = G.system.jacobian(z)
        hessian = J[M:M + n, :n]
        assert np.array_equal(hessian, hessian.T)
        assert np.array_equal(J[M:M + n, n + 1:n + 1 + M], J[:M, :n].T)


def test_descend_is_deterministic():
    comp = double_root_fiber()
    F = FiberProductSystem([comp], DOUBLE_ROOT_P_HAT)
    a = descend(build_lagrange(F, patch_seed=0))
    b = descend(build_lagrange(F, patch_seed=0))
    assert np.array_equal(a.endpoint, b.endpoint)
    assert a.status == b.status


def test_report_is_json_ready():
    comp = double_root_fiber()
    F = FiberProductSystem([comp], DOUBLE_ROOT_P_HAT)
    res = descend(build_lagrange(F, patch_seed=0))
    doc = report(res, fiber=F, extra={"label": "double-root"})
    text = json.dumps(doc, sort_keys=True)
    assert "p_star" in text and "double-root" in text
    assert doc["system_size"] == F.system_size()


# -- sampling studies --------------------------------------------------------


class FakeResult:
    def __init__(self, p_star, distance, status="recovered"):
        self.p_star = np.asarray(p_star, dtype=complex)
        self.distance = distance
        self.status = status

    @property
    def success(self):
        return self.status.startswith("recovered")


def test_sample_study_rows_are_in_sample_order_and_seeded():
    seen = []

    def run_one(p_hat, seed):
        seen.append(seed)
        if len(seen) == 2:
            raise RuntimeError("boom")
        return FakeResult(p_hat, 0.5)

    rows = sample_study(run_one, [1.0, 2.0], sigma=0.1, n=3, seed=40)
    assert [r["sample"] for r in rows] == [0, 1, 2]
    assert seen == [40, 41, 42]
    assert rows[1]["status"] == "error: RuntimeError"
    assert rows[0]["chi2stat"] == pytest.approx((0.5 / 0.1) ** 2)


def test_sample_study_perturbations_are_deterministic():
    grabbed = []

    def run_one(p_hat, seed):
        grabbed.append(np.array(p_hat))
        return FakeResult(p_hat, 0.0)

    sample_study(run_one, [1.0], sigma=0.1, n=2, seed=9)
    first = [g.copy() for g in grabbed]
    grabbed.clear()
    sample_study(run_one, [1.0], sigma=0.1, n=2, seed=9)
    assert all(np.array_equal(a, b) for a, b in zip(first, grabbed))


def test_study_csv_layout():
    rows = [
        {"sample": 0, "status": "recovered", "p_hat": np.array([1.0, 2.0]),
         "p_star": np.array([1.1, 2.1]), "distance": 0.14, "chi2stat": 2.0},
        {"sample": 1, "status": "error: ValueError", "p_hat": np.array([1.0, 2.0]),
         "p_star": None, "distance": None, "chi2stat": None},
    ]
    text = study_csv(rows, 2)
    lines = text.strip().split("\n")
    assert lines[0] == "sample,status,p_hat1,p_hat2,p_star1,p_star2,distance,chi2stat"
    assert lines[1].startswith("0,recovered,1,2,")
    assert lines[2] == "1,error: ValueError,1,2,,,,"


def test_histogram_data_bins_and_intrinsic_direction():
    rng = seeded_rng(21)
    p_tilde = np.array([1.0, -2.0])
    direction = np.array([1.0, -2.0]) / np.sqrt(5.0)
    rows = []
    for i in range(200):
        t = 0.05 * rng.normal()
        p_star = p_tilde + t * direction
        rows.append({"sample": i, "status": "recovered", "p_hat": p_tilde,
                     "p_star": p_star, "distance": abs(t), "chi2stat": (t / 0.1) ** 2})
    hist = histogram_data(rows, p_tilde, sigma=0.1)
    assert hist["n_success"] == 200
    n_bins = len(hist["bin_edges"]) - 1
    assert n_bins == 40  # +-4 sigma at width sigma/5
    assert sum(hist["coordinates"]["intrinsic"]) == 200
    got = np.abs(hist["intrinsic_direction"])
    assert np.allclose(got, np.abs(direction), atol=1e-8)
