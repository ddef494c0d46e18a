import numpy as np
import pytest

from nearex.algebra import (
    Polynomial,
    PolySystem,
    parse_system,
    seeded_rng,
)
from nearex.fixtures import load
from nearex.structure import (
    classify_residual,
    cluster_points,
    local_hilbert,
    macaulay_matrix,
    trace_data,
    witness_superset,
)
from nearex.tracker import solve_total_degree


# -- witness supersets -------------------------------------------------------


def test_witness_superset_finds_the_component_point():
    f, _, p_hat, _ = load("posdim")
    ws = witness_superset(f, np.asarray(p_hat, dtype=complex), 1, seed=0)
    finite = [cp for cp in ws.points if np.all(np.isfinite(cp.point))]
    assert len(finite) == 2
    residuals = sorted(cp.residual_full_system for cp in finite)
    # one point nearly satisfies the full system, the other does not
    assert residuals[0] < 0.1
    assert residuals[1] > 0.3
    # one slice row over (x, y, 1), with unit-modulus coefficients
    assert ws.slice.shape == (1, 3)
    assert np.allclose(np.abs(ws.slice), 1.0, rtol=0, atol=1e-12)


def test_witness_superset_rejects_excessive_dimension():
    f, _, p_hat, _ = load("posdim")
    with pytest.raises(ValueError):
        witness_superset(f, np.asarray(p_hat, dtype=complex), 2, seed=0)


def test_classify_residual_thresholds():
    f = parse_system("vars x; poly x^2 - 1;")
    r, lab = classify_residual(f, np.array([1.0 + 0j]))
    assert lab == "near-solution" and r < 1e-12
    _, lab = classify_residual(f, np.array([5.0 + 0j]))
    assert lab == "nonsolution"


def test_cluster_points_is_transitive_on_chains():
    pts = [np.array([0.0]), np.array([1e-7]), np.array([2e-7]), np.array([1.0])]
    ids = cluster_points(pts, radius=1.5e-7)
    assert ids[0] == ids[1] == ids[2] != ids[3]


# -- second-derivative trace data -------------------------------------------


ZEKE_SLICE = [2.0, -3.0, -1.0]  # 2*x1 - 3*x2 - 1

# curve points and their first/second slice-motion derivatives on that slice
EXPECTED_SECOND_DERIVS = [
    (0.13416408, 0.08944272),
    (-0.13416415, -0.08944277),
    (0.00546655, 0.00364437),
    (-0.00546648, -0.00364432),
]
EXPECTED_POINT_FOR_LAST = (-0.99999993, -0.99999995)
EXPECTED_FIRST_DERIV_FOR_LAST = (0.07142858, -0.28571428)


def _zeke_sliced():
    zeke, _, p_hat, _ = load("zeke_quartic")
    f = zeke.substitute_params(p_hat)
    n = f.arity
    a, b, c = ZEKE_SLICE
    sl = (a * Polynomial.variable(0, n) + b * Polynomial.variable(1, n)
          + Polynomial.constant(c, n))
    return PolySystem(f.polynomials + [sl], f.roles, f.names)


def test_curve_second_derivatives_on_fixed_slice():
    sq = _zeke_sliced()
    results = solve_total_degree(sq, seed=0)
    pts = [r.endpoint for r in results if r.success]
    assert len(pts) == 4
    td = trace_data(sq, pts, alpha_seed=0)
    unmatched = list(range(4))
    for expect in EXPECTED_SECOND_DERIVS:
        errs = [np.max(np.abs(td.second_derivs[j] - np.array(expect)))
                for j in unmatched]
        k = unmatched[int(np.argmin(errs))]
        assert min(errs) < 1e-5, (expect, min(errs))
        if expect == EXPECTED_SECOND_DERIVS[-1]:
            assert np.max(np.abs(td.points[k] - np.array(EXPECTED_POINT_FOR_LAST))) < 1e-5
            assert np.max(np.abs(td.first_derivs[k]
                                 - np.array(EXPECTED_FIRST_DERIV_FOR_LAST))) < 1e-5
        unmatched.remove(k)


def test_conjugate_pair_trace_nearly_cancels():
    sq = _zeke_sliced()
    pts = [r.endpoint for r in solve_total_degree(sq, seed=0) if r.success]
    td = trace_data(sq, pts, alpha_seed=0)
    # the two second derivatives near +-0.0054 belong to one degree-2 factor
    idx = sorted(range(4), key=lambda j: np.linalg.norm(td.second_derivs[j]))[:2]
    assert abs(sum(td.second_derivs[j][0] for j in idx)) < 2e-7
    assert abs(sum(td.second_derivs[j][1] for j in idx)) < 2e-7


def test_full_trace_is_sum_of_subset_traces():
    sq = _zeke_sliced()
    pts = [r.endpoint for r in solve_total_degree(sq, seed=0) if r.success]
    td = trace_data(sq, pts, alpha_seed=3)
    parts = td.trace([0, 1]) + td.trace([2, 3])
    assert td.trace(range(4)) == pytest.approx(parts, rel=1e-12)


def _hessian_quadratic_form(poly, var, w, wdot):
    """ẇᵀ · Hess(poly) · ẇ at w, over the indeterminates listed in ``var``,
    entry by entry from symbolic second derivatives: a reference for the
    compiled rows of ``trace_data``."""
    total = 0.0 + 0.0j
    for ia, a in enumerate(var):
        for ib, b in enumerate(var):
            total += wdot[ia] * wdot[ib] * poly.diff(a).diff(b).evaluate(w)
    return total


def test_second_derivatives_match_the_entrywise_hessian_form():
    sq = _zeke_sliced()
    pts = [r.endpoint for r in solve_total_degree(sq, seed=0) if r.success]
    td = trace_data(sq, pts, alpha_seed=0)
    var = list(range(sq.arity))
    for w, wd, wdd in zip(td.points, td.first_derivs, td.second_derivs):
        rhs = [-_hessian_quadratic_form(p, var, w, wd) for p in sq.polynomials]
        expect = np.linalg.solve(sq.jacobian(w), rhs)
        assert np.linalg.norm(wdd - expect) <= 1e-12 * np.linalg.norm(expect)


# -- Macaulay matrices and the local Hilbert function -----------------------


def test_macaulay_entries_match_symbolic_derivatives():
    f = parse_system("vars x, y; poly x^2*y + 3*y^2 - 2*x; poly x*y - 1;")
    rng = seeded_rng(5)
    x_star = rng.normal(size=2) + 1j * rng.normal(size=2)
    M = macaulay_matrix(f, x_star, 2)
    # spot-check: the (beta=0, j) rows hold derivative values / alpha!
    # columns in graded lex: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2)
    cols = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    import math

    for j, p in enumerate(f.polynomials):
        for ci, alpha in enumerate(cols):
            d = p
            for i, k in enumerate(alpha):
                for _ in range(k):
                    d = d.diff(i)
            fact = math.factorial(alpha[0]) * math.factorial(alpha[1])
            assert M[j, ci] == pytest.approx(d.evaluate(x_star) / fact, abs=1e-12)


def test_macaulay_row_column_counts():
    f = parse_system("vars x, y; poly x + y; poly x - y;")
    M = macaulay_matrix(f, np.zeros(2), 2)
    assert M.shape == (3 * 2, 6)  # |beta|<=1 times 2 rows; |alpha|<=2 columns
    with pytest.raises(ValueError):
        macaulay_matrix(f, np.zeros(2), -1)


def test_local_hilbert_simple_root():
    f = parse_system("vars x; poly x^2 - 1;")
    prof = local_hilbert(f, np.array([1.0 + 0j]))
    assert prof.hilbert == [1, 0]
    assert prof.multiplicity == 1


def test_local_hilbert_double_root():
    f = parse_system("vars x; poly x^2;")
    prof = local_hilbert(f, np.array([0.0 + 0j]))
    assert prof.hilbert == [1, 1, 0]
    assert prof.multiplicity == 2


def test_local_hilbert_triple_root_off_origin():
    f = parse_system("vars x; poly (x - 2)^3;")
    prof = local_hilbert(f, np.array([2.0 + 0j]))
    assert prof.hilbert == [1, 1, 1, 0]
    assert prof.multiplicity == 3


def test_local_hilbert_rejects_points_off_the_set():
    f = parse_system("vars x; poly x^2 - 1;")
    with pytest.raises(ValueError):
        local_hilbert(f, np.array([5.0 + 0j]))


def test_local_hilbert_multiplicity_two_on_line_fixture():
    f, _, _, _ = load("multiplicity_line")
    p_exc = np.array([1.0, 1.0])  # on the exceptional parabola p1^2 = p2
    fp = f.substitute_params(p_exc)
    # the doubled line is 1-dimensional, so cut it with x2 = 0.7 to isolate
    # the point; the sliced point then shows the multiplicity-2 profile
    x = np.array([1.0 + 0j, 0.7 + 0j])
    assert np.linalg.norm(fp.evaluate(x)) < 1e-12
    n = fp.arity
    cut = Polynomial.variable(1, n) - Polynomial.constant(0.7, n)
    sliced = PolySystem(fp.polynomials + [cut], fp.roles, fp.names)
    prof = local_hilbert(sliced, x)
    assert prof.hilbert == [1, 1, 0]
    assert prof.multiplicity == 2
