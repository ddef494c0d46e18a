import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from nearex.algebra import (
    PARAMETER,
    VARIABLE,
    CompiledSystem,
    parse_system,
    per_point,
    seeded_rng,
    unit_complex,
)
from nearex import tracker
from nearex.fixtures import load
from nearex.structure import cluster_points
from nearex.tracker import (
    Homotopy,
    _gauss_newton_polish,
    _newton_correct,
    linear_homotopy,
    newton_refine,
    parameter_homotopy,
    solve_total_degree,
    total_degree_start,
    track_path,
    track_paths,
)


def quadratic_2x2_roots(A, B):
    """Oracle: all common roots of two bivariate quadratics via elimination.

    Writes each polynomial as a quadratic in y with coefficients polynomial
    in x, forms the 4x4 Sylvester resultant in x, finds its roots with the
    companion matrix, and back-solves for y.
    """
    import numpy.polynomial.polynomial as P

    def coeffs_in_y(M):
        # M[i][j] : coefficient of x^i y^j -> list over j of poly-in-x coeffs
        return [np.array([M[i][j] for i in range(3)]) for j in range(3)]

    a = coeffs_in_y(A)
    b = coeffs_in_y(B)
    # Sylvester matrix of two degree-2 polys in y: 4x4, entries polys in x
    zero = np.zeros(1)
    rows = [
        [a[2], a[1], a[0], zero],
        [zero, a[2], a[1], a[0]],
        [b[2], b[1], b[0], zero],
        [zero, b[2], b[1], b[0]],
    ]
    # expand det by permutations (4x4 is small enough)
    import itertools

    det = np.zeros(1)
    for perm in itertools.permutations(range(4)):
        sign = 1
        seen = list(perm)
        for i in range(4):
            for j in range(i + 1, 4):
                if seen[i] > seen[j]:
                    sign = -sign
        term = np.array([float(sign)])
        for r, c in enumerate(perm):
            term = P.polymul(term, rows[r][c])
        det = P.polyadd(det, term)
    xs = np.roots(det[::-1].astype(complex))
    sols = []
    for x in xs:
        ay = [P.polyval(x, a[j]) for j in range(3)]
        by = [P.polyval(x, b[j]) for j in range(3)]
        ys = np.roots(np.array(ay[::-1], dtype=complex))
        for y in ys:
            if abs(P.polyval(y, np.array(by, dtype=complex))) < 1e-6 * (1 + abs(y)) ** 2:
                sols.append((x, y))
    return sols


def random_quadratic_pair(rng):
    A = rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3))
    A[2][1:] = 0.0  # keep total degree 2: zero x^2*y and x^2*y^2 etc.
    A[1][2] = 0.0
    B[2][1:] = 0.0
    B[1][2] = 0.0
    return A, B


def system_from_tables(A, B):
    terms_a = " + ".join(
        f"({A[i][j]})*x^{i}*y^{j}" for i in range(3) for j in range(3) if A[i][j] != 0
    )
    terms_b = " + ".join(
        f"({B[i][j]})*x^{i}*y^{j}" for i in range(3) for j in range(3) if B[i][j] != 0
    )
    return parse_system(f"vars x, y; poly {terms_a}; poly {terms_b};")


def test_total_degree_start_roots_satisfy_start_system():
    sys = parse_system("vars x, y; poly x^2 + y - 1; poly x*y - 2;")
    start_sys, starts = total_degree_start(sys, seed=0)
    assert len(starts) == 4  # Bezout: 2 * 2
    for x in starts:
        assert np.linalg.norm(start_sys.evaluate(x)) < 1e-10


def test_bezout_path_count_is_exact():
    sys = parse_system("vars x, y, z; poly x^3 - 1; poly y^2 - x; poly z^2 - y*x;")
    results = solve_total_degree(sys, seed=0)
    assert len(results) == 3 * 2 * 2


def test_random_quadratic_pairs_against_resultant_oracle():
    rng = seeded_rng(12)
    for trial in range(20):
        A, B = random_quadratic_pair(rng)
        sys = system_from_tables(A, B)
        results = solve_total_degree(sys, seed=trial)
        got = [r.endpoint for r in results if r.success]
        expected = quadratic_2x2_roots(A, B)
        # every oracle root is hit by some path
        for x, y in expected:
            if max(abs(x), abs(y)) > 1e6:  # near-infinity artifacts of the oracle
                continue
            d = min(np.linalg.norm(e - np.array([x, y])) for e in got)
            assert d < 1e-6 * (1 + abs(x) + abs(y)), (trial, x, y, d)


def test_solver_is_deterministic_bit_for_bit():
    sys = parse_system("vars x, y; poly x^2 + y^2 - 4; poly x*y - 1;")
    a = solve_total_degree(sys, seed=3)
    b = solve_total_degree(sys, seed=3)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.endpoint, rb.endpoint)
        assert ra.status == rb.status


def test_different_seed_changes_paths_not_solutions():
    sys = parse_system("vars x; poly x^2 - 2;")
    for seed in range(3):
        ends = sorted(
            r.endpoint[0].real for r in solve_total_degree(sys, seed=seed) if r.success
        )
        assert ends == pytest.approx([-np.sqrt(2), np.sqrt(2)], abs=1e-10)


def test_parameter_homotopy_moves_roots():
    sys = parse_system("vars x; params p; poly x^2 - p;")
    starts = [np.array([2.0 + 0j]), np.array([-2.0 + 0j])]
    results = parameter_homotopy(sys, [4.0], [9.0], starts)
    ends = sorted(r.endpoint[0].real for r in results)
    assert ends == pytest.approx([-3.0, 3.0], abs=1e-10)


def central_difference_in_t(h, x, t, step=1e-5):
    return (h.evaluate(x, t + step) - h.evaluate(x, t - step)) / (2.0 * step)


def test_parameter_homotopy_derivative_and_endpoints():
    sys = parse_system(
        "vars x, y; params p, q; poly p*x^2 - q*y + 1; poly x*y - p^2 + q^3*x;"
    )
    q1 = np.array([1.5 + 0.2j, -0.7])
    q0 = np.array([0.3, 2.0 - 1.0j])
    h = Homotopy(sys, sys.indices(VARIABLE), sys.indices(PARAMETER), q1, q0)
    x = np.array([0.4 - 0.3j, 1.1 + 0.5j])
    for t in (0.0, 0.37, 1.0):
        Jx, Ht = h.jacobians(x, t)
        assert np.allclose(Ht, central_difference_in_t(h, x, t), rtol=1e-8, atol=1e-8)
        p = q0 + t * (q1 - q0)
        assert np.allclose(Jx, sys.substitute_params(p).jacobian(x), rtol=1e-14)
    assert np.allclose(h.evaluate(x, 1.0), sys.substitute_params(q1).evaluate(x),
                       rtol=1e-14, atol=1e-14)
    assert np.allclose(h.evaluate(x, 0.0), sys.substitute_params(q0).evaluate(x),
                       rtol=1e-14, atol=1e-14)


def test_total_degree_homotopy_derivative_and_endpoints():
    target = parse_system("vars x, y; poly x^2 + y - 1; poly x*y^2 - 2;")
    start_sys, _ = total_degree_start(target, seed=0)
    gamma = np.exp(0.7j)
    h = linear_homotopy(target, start_sys, gamma)
    x = np.array([0.4 - 0.3j, 1.1 + 0.5j])
    for t in (0.0, 0.37, 1.0):
        _, Ht = h.jacobians(x, t)
        assert np.allclose(Ht, central_difference_in_t(h, x, t), rtol=1e-8, atol=1e-8)
        assert np.allclose(Ht, gamma * start_sys.evaluate(x) - target.evaluate(x),
                           rtol=1e-14)
    assert np.allclose(h.evaluate(x, 1.0), gamma * start_sys.evaluate(x), rtol=1e-14)
    assert np.allclose(h.evaluate(x, 0.0), target.evaluate(x), rtol=1e-14)


def test_h_t_is_bitwise_j_times_direction(monkeypatch):
    import nearex.numlin as numlin

    zgemv, gemvs = numlin.zgemv, []  # the shape of each matrix SciPy's BLAS takes

    def counted(alpha, a, x, **kwargs):
        gemvs.append(a.shape)
        return zgemv(alpha, a, x, **kwargs)
    monkeypatch.setattr(numlin, "zgemv", counted)

    def check(sys, P, seed):
        rng = seeded_rng(seed)
        par = sys.indices(PARAMETER)
        h = Homotopy(sys, sys.indices(VARIABLE), par,
                     unit_complex(rng, len(par)), unit_complex(rng, len(par)))
        x = unit_complex(rng, (P, len(h.unknowns)))
        t = rng.uniform(size=P)
        Jx, Ht = h.jacobians(x, t)
        J = h.system.compiled.jacobian(h._full(x, t))
        assert Ht.tobytes() == (J @ h.direction).tobytes()
        # the slope from the fused call's Jacobian, a view into its output
        fused_Jx, fused_Ht = h.partials(h.evaluate_with_jacobian(x, t)[1])
        assert fused_Jx.tobytes() == Jx.tobytes() and fused_Ht.tobytes() == Ht.tobytes()

    n = 48  # a 48 × 96 Jacobian: OpenBLAS threads its gemv
    polys = [f"x{i}^2 + p{i}*x{(i + 1) % n} - p{(i + 1) % n}^2*x{i} + 1" for i in range(n)]
    large = parse_system(f"vars {', '.join(f'x{i}' for i in range(n))}; "
                         f"params {', '.join(f'p{i}' for i in range(n))}; "
                         + "".join(f"poly {q};" for q in polys))
    check(large, 1, 12)
    assert gemvs == [(96, 48)] * 2  # H_t from the Jacobian call, then from the fused call
    small = parse_system("vars x, y; params p, q; poly p*x^2 - q*y + 1; poly x*y - p^2 + q^3*x;")
    check(small, 5, 13)
    assert gemvs == [(96, 48)] * 2
    check(large, 3, 14)  # the fused call's Jacobians of a stack are not one block
    assert gemvs == [(96, 48)] * 8


def reference_full(h, x, t):
    """``Homotopy._full`` with a fresh scatter index on every call."""
    full = np.asarray(t).reshape(-1, 1) * h.direction
    full += h.base
    full.put(per_point(h.unknowns, len(full), len(h.direction)), x)
    return full if x.ndim > 1 else full[0]


def sixR_homotopy():
    """The total-degree homotopy that detects on 6R."""
    f, _, p_hat, _ = load("sixR")
    target = f.substitute_params(p_hat)
    start, _ = total_degree_start(target, 0)
    return linear_homotopy(target, start, complex(unit_complex(seeded_rng(0, 2))))


def test_full_points_equal_a_fresh_scatter_at_every_height():
    interleaved = parse_system("vars x, y; params p, q; poly p*x^2 - q*y + 1; poly x*y - p^2;")
    # unknowns and path indeterminates interleaved: the scatter is not a prefix
    cases = [sixR_homotopy(),
             Homotopy(interleaved, [1, 2], [0, 3], [1.0, 2.0j], [0.5, -1.0])]
    rng = seeded_rng(19)
    for h in cases:
        for P in (3, 1, 7, 2, 0, 7):  # grow, shrink, empty, regrow
            x = rng.normal(size=(P, len(h.unknowns))) + 1j * rng.normal(size=(P, len(h.unknowns)))
            t = rng.uniform(size=P)
            got = h._full(x, t)
            assert got.shape == (P, len(h.direction))
            assert got.tobytes() == reference_full(h, x, t).tobytes(), P
        x = unit_complex(rng, len(h.unknowns))
        assert h._full(x, 0.25).tobytes() == reference_full(h, x, 0.25).tobytes()


def test_full_points_hold_a_scatter_for_the_tallest_stack_only():
    h = sixR_homotopy()
    rng = seeded_rng(20)
    x = unit_complex(rng, (256, len(h.unknowns)))
    t = rng.uniform(size=256)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for P in range(256, 0, -1):
            h._full(x[:P], t[:P])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 256 * h.unknowns.nbytes + 64 * 1024


def counted(calls, name, function):
    """``function``, adding one to ``calls[name]`` at each call."""
    def wrapper(*args):
        calls[name] += 1
        return function(*args)
    return wrapper


def test_newton_corrector_evaluates_h_once_per_iterate(monkeypatch):
    sys = parse_system("vars x, y; params p; poly x^2 + y^2 - p; poly x - y^3;")
    h = Homotopy(sys, sys.indices(VARIABLE), sys.indices(PARAMETER), [2.0], [1.0])
    evaluate = h.evaluate
    calls = {"evaluate": 0, "fused": 0, "solve": 0}
    h.evaluate = counted(calls, "evaluate", h.evaluate)
    h.evaluate_with_jacobian = counted(calls, "fused", h.evaluate_with_jacobian)
    monkeypatch.setattr(tracker, "solve_stack", counted(calls, "solve", tracker.solve_stack))

    def jacobian_at(x, t):
        return sys.compiled.jacobian(h._full(x, t)).tobytes()

    for max_steps in (1, 3, 30):
        calls.update(fused=0, solve=0)
        x, res, ok, J = _newton_correct(h, np.array([[0.9 + 0.1j, 0.8]]), np.array([0.5]),
                                        1e-12, max_steps)
        iterates = calls["solve"]  # one solve per Newton step
        assert 1 <= iterates <= max_steps
        assert calls["fused"] == iterates + 1
        assert res == float(np.linalg.norm(evaluate(x, 0.5)))
        assert J.tobytes() == jacobian_at(x, np.array([0.5]))
    assert ok and res < 1e-12

    # two rows that converge at different iterates: each stops at its own,
    # bitwise where it stops alone, and the stack pays one call per iterate
    starts, ts = np.array([[0.9 + 0.1j, 0.8], [2.0 + 1.0j, 0.3]]), np.array([0.5, 0.3])
    alone = []
    for start, t in zip(starts, ts):
        calls.update(fused=0, solve=0)
        alone.append(_newton_correct(h, start[None], np.array([t]), 1e-12, 30))
        alone[-1] += (calls["solve"],)
    assert alone[0][4] != alone[1][4]
    calls.update(fused=0, solve=0)
    x, res, ok, J = _newton_correct(h, starts, ts, 1e-12, 30)
    assert calls["solve"] == max(a[4] for a in alone)
    assert calls["fused"] == calls["solve"] + 1
    for k, (xk, rk, okk, Jk, _) in enumerate(alone):
        assert x[k].tobytes() == xk[0].tobytes()
        assert res[k] == rk[0] and ok[k] == okk[0]
        assert J[k].tobytes() == Jk[0].tobytes() == jacobian_at(x[k], ts[k])
    assert calls["evaluate"] == 0  # H comes only from the fused calls


def one_row_gauss_newton(h, x):
    """The Gauss–Newton polish of one point, a row at a time: the reference
    the stacked polish must match bit for bit."""
    H, J = h.evaluate_with_jacobian(x, 0.0)
    best, best_res = x, float(np.linalg.norm(H))
    for _ in range(tracker.LSTSQ_POLISH_ITERS):
        x = x + scipy.linalg.lstsq(J.take(h.unknowns, axis=-1), -H, check_finite=False,
                                   lapack_driver="gelsd")[0]
        H, J = h.evaluate_with_jacobian(x, 0.0)
        res = float(np.linalg.norm(H))
        if not np.isfinite(res):
            break
        if res < best_res:
            best, best_res = x, res
        if res < 1e-14 * (1.0 + np.linalg.norm(x)):
            break
    return best, best_res


def test_gauss_newton_polish_of_a_stack_gives_each_row_its_own_bits():
    sys = parse_system("vars x, y; params p; poly x^2 - p; poly y^2 + x*y - p;")
    h = Homotopy(sys, sys.indices(VARIABLE), sys.indices(PARAMETER), [2.0], [1.0])
    fused = h.evaluate_with_jacobian
    calls = []  # the height of each kernel call

    def counted_fused(x, t):
        calls.append(len(x) if np.ndim(x) > 1 else None)
        return fused(x, t)
    h.evaluate_with_jacobian = counted_fused
    # converges at its 4th iterate, at its 9th, overflows at its 1st (J is
    # 1e-300 there), runs to the iteration cap, converges at its 5th
    x = np.array([[0.9, 0.5], [30.0, -20.0 + 1j], [1e-300, 1e-300], [1e30, 1.0],
                  [0.9 + 0.2j, 1.0]], dtype=complex)
    iterates = [4, 9, 1, tracker.LSTSQ_POLISH_ITERS, 5]
    with np.errstate(over="ignore", invalid="ignore"):
        best, res = _gauss_newton_polish(h, x)
        heights = list(calls)
        for k, n_iter in enumerate(iterates):
            calls.clear()
            alone, alone_res = _gauss_newton_polish(h, x[k:k + 1])
            assert len(calls) == n_iter + 1
            assert best[k].tobytes() == alone[0].tobytes()
            assert res[k] == alone_res[0]
            reference, reference_res = one_row_gauss_newton(h, x[k])
            assert best[k].tobytes() == reference.tobytes() and res[k] == reference_res
    assert best[2].tobytes() == x[2].tobytes()  # nothing it reached was better
    # one call per iterate for the rows still going, not one per row
    assert heights == [5, 5, 4, 4, 4, 3, 2, 2, 2, 2] + [1] * 31


def test_a_tracker_step_makes_three_jacobian_calls_and_one_fused_call_per_iterate(monkeypatch):
    h, starts = total_degree_homotopy("vars x, y; poly x^2 + y^2 - 4; poly x*y - 1;")
    calls = Counter()
    for name in ("evaluate", "jacobian", "evaluate_with_jacobian"):
        monkeypatch.setattr(CompiledSystem, name,
                            counted(calls, name, getattr(CompiledSystem, name)))
    monkeypatch.setattr(tracker, "solve_stack", counted(calls, "solve", tracker.solve_stack))
    stages = []  # (stage, the calls it made) in order

    def staged(name, function):
        def wrapper(*args):
            before = calls.copy()
            out = function(*args)
            stages.append((name, calls - before))
            return out
        return wrapper

    monkeypatch.setattr(tracker, "_predict_rk4", staged("predict", tracker._predict_rk4))
    monkeypatch.setattr(tracker, "_newton_correct", staged("correct", tracker._newton_correct))
    results = track_paths(h, starts)
    assert {r.status for r in results} == {"success"}
    # the start check, then per step: a prediction and a correction; then the polish
    assert calls["evaluate_with_jacobian"] == 1 + sum(c["evaluate_with_jacobian"]
                                                     for _, c in stages)
    assert calls["evaluate"] == 0
    names = [name for name, _ in stages]
    steps = names.count("predict")
    assert steps == max(r.steps for r in results) > 10
    assert names == ["predict", "correct"] * steps + ["correct"]
    for name, c in stages:
        if name == "predict":  # k1 is the corrector's J: three of four slopes call the kernel
            assert c == Counter(jacobian=3, solve=4)
        else:
            assert set(c) == {"evaluate_with_jacobian", "solve"}
            assert c["evaluate_with_jacobian"] == 1 + c["solve"]


def total_degree_homotopy(source, seed=0):
    """The homotopy and start points that ``solve_total_degree`` tracks."""
    sys = parse_system(source)
    start_sys, starts = total_degree_start(sys, seed)
    gamma = complex(unit_complex(seeded_rng(seed, 2)))
    return linear_homotopy(sys, start_sys, gamma), starts


def branch_point_homotopy():
    """(x - 3)(x^2 - p) from p = 1 to p = -1: the roots ±sqrt(p) meet at
    p = 0 and fail there, the root 3 goes through."""
    sys = parse_system("vars x; params p; poly (x - 3)*(x^2 - p);")
    h = Homotopy(sys, sys.indices(VARIABLE), sys.indices(PARAMETER), [1.0], [-1.0])
    return h, [np.array([1.0 + 0j]), np.array([3.0 + 0j]), np.array([-1.0 + 0j])]


@pytest.mark.parametrize("case, statuses", [
    (lambda: total_degree_homotopy("vars x, y; poly x^2 - x; poly x*y - 1;"),
     {"success", "singular-endpoint"}),
    (lambda: total_degree_homotopy("vars x, y; poly x^3 - x; poly x^2*y - 1;"),
     {"success", "diverged"}),
    (branch_point_homotopy, {"success", "step-failure"}),
], ids=["singular-endpoint", "diverged", "step-failure"])
def test_lock_step_tracking_equals_one_path_at_a_time(case, statuses):
    h, starts = case()
    together = track_paths(h, starts)
    alone = [track_path(h, s) for s in starts]
    assert {r.status for r in together} == statuses
    for a, b in zip(together, alone, strict=True):
        assert a.endpoint.tobytes() == b.endpoint.tobytes()
        assert (a.status, a.steps) == (b.status, b.steps)
        assert a.residual.hex() == b.residual.hex() and a.final_t.hex() == b.final_t.hex()


def test_bad_start_point_raises_before_any_path_is_tracked(monkeypatch):
    sys = parse_system("vars x; params p; poly x^2 - p;")
    starts = [np.array([2.0]), np.array([2.5]), np.array([-2.0])]  # 2.5^2 - 4 = 2.25

    def untracked(self, point):
        raise AssertionError("a path was tracked")

    monkeypatch.setattr(CompiledSystem, "jacobian", untracked)
    with pytest.raises(ValueError, match=r"start point residual 2\.250e\+00 exceeds"):
        parameter_homotopy(sys, [4.0], [9.0], starts)


def test_exact_starts_far_from_the_origin_pass_the_start_check():
    # ‖x‖ = 1.4e5: rounding alone puts H(x, 1) near 1e-6, over an absolute 1e-8
    sys = parse_system("vars x, y; params p, q; poly x^2 - p; poly y^2 - q;")
    rng = seeded_rng(21)
    for _ in range(5):
        p1, p0 = 1e10 * unit_complex(rng, 2), 1e10 * unit_complex(rng, 2)
        result = parameter_homotopy(sys, p1, p0, [np.sqrt(p1)])[0]
        assert result.success
        assert np.all(np.abs(result.endpoint ** 2 - p0) <= 1e-14 * 1e10)


@pytest.mark.parametrize("growth_after, max_step", [
    (tracker.GROWTH_AFTER, tracker.MAX_STEP),
    (1, 2 * tracker.INITIAL_STEP),  # the cap binds before t = 0
], ids=["as-set", "capped"])
def test_a_regular_path_follows_the_step_schedule(monkeypatch, growth_after, max_step):
    # x from 1 to 2, no step refused: each step is INITIAL_STEP doubled once
    # per GROWTH_AFTER accepted steps before it, capped at MAX_STEP, and the
    # last one is what remains of t
    monkeypatch.setattr(tracker, "GROWTH_AFTER", growth_after)
    monkeypatch.setattr(tracker, "MAX_STEP", max_step)
    sys = parse_system("vars x; params p; poly x^2 - p;")
    h = Homotopy(sys, sys.indices(VARIABLE), sys.indices(PARAMETER), [1.0], [4.0])
    steps = []  # (t, target, size) of each step
    predict = tracker._predict_rk4

    def recorded(h, x, J, t, dt):
        steps.append((float(t[0]), float(t[0] + dt[0]), float(-dt[0])))
        return predict(h, x, J, t, dt)
    monkeypatch.setattr(tracker, "_predict_rk4", recorded)
    result = track_path(h, np.array([1.0 + 0j]))
    assert result.success and result.steps == len(steps) > growth_after
    assert all(b[0] == a[1] for a, b in zip(steps, steps[1:]))  # every step accepted
    scheduled = [min(tracker.INITIAL_STEP * 2 ** (k // growth_after), max_step)
                 for k in range(len(steps))]
    *head, (last_t, last_target, last_size) = steps
    assert [size for *_, size in head] == scheduled[:-1]
    assert last_target == 0.0 and last_size == last_t <= scheduled[-1]
    assert abs(result.endpoint[0] - 2.0) < 1e-12


def test_a_path_to_a_double_root_aims_at_t_0_once_then_halves_t(monkeypatch):
    sys = parse_system("vars x; params p; poly x^2 - p;")
    h = Homotopy(sys, sys.indices(VARIABLE), sys.indices(PARAMETER), [1.0], [0.0])
    steps = []  # (t, target) of each step
    predict = tracker._predict_rk4

    def recorded(h, x, J, t, dt):
        steps.append((float(t[0]), float(t[0] + dt[0])))
        return predict(h, x, J, t, dt)
    monkeypatch.setattr(tracker, "_predict_rk4", recorded)
    result = track_path(h, np.array([1.0 + 0j]))
    assert result.steps == len(steps) == 25  # 41 when every step after a refusal aims at 0
    aimed = [k for k, (_, target) in enumerate(steps) if target == 0.0]
    assert len(aimed) == 1
    tail = steps[aimed[0] + 1:]
    assert tail[0][0] == steps[aimed[0]][0]  # the step to t = 0 was refused
    assert all(target == t / 2 for t, target in tail)
    assert tail[-1][1] <= tracker.ENDGAME_T < tail[-1][0]
    assert abs(result.endpoint[0]) < 1e-6


def test_tracking_is_scale_invariant():
    # x = s·sqrt(1 + p), y = x²/s: the same path at every scale s, from
    # (2s, 4s) at p = 3 to (s, s) at p = 0; the corrector's stopping test
    # scales with the point, so the step control does not see s
    steps = set()
    for s in (1.0, 1e6, 1e7):
        sys = parse_system(f"vars x, y; params p; poly x^2 - {s * s!r}*(1 + p); "
                           f"poly {s!r}*y - x^2;")
        result = parameter_homotopy(sys, [3.0], [0.0], [np.array([2 * s, 4 * s])])[0]
        assert result.success
        assert abs(result.endpoint[0] / s - 1.0) < 1e-12
        steps.add(result.steps)
    assert len(steps) == 1


def test_newton_refine_converges_quadratically():
    sys = parse_system("vars x; poly x^2 - 2;")
    x0 = np.array([1.4 + 0j])
    x1, ok = newton_refine(sys, x0)
    assert ok
    assert abs(x1[0] - np.sqrt(2)) < 1e-14


def test_newton_refine_stops_at_a_singular_jacobian():
    # J = [[2x, 2y], [y, x]] is singular wherever x = y, off the solutions too
    sys = parse_system("vars x, y; poly x^2 + y^2 - 2; poly x*y - 1;")
    x0 = np.array([1.5 + 0.5j, 1.5 + 0.5j])
    x1, ok = newton_refine(sys, x0)
    assert ok is False
    assert x1.tobytes() == x0.tobytes()


def test_newton_refine_rejects_a_system_that_is_not_square():
    sys = parse_system("vars x, y; poly x*y - 1;")
    with pytest.raises(ValueError, match="1 equations for 2 unknowns"):
        newton_refine(sys, np.array([1.0 + 0j, 1.0 + 0j]))


def test_a_homotopy_with_no_path_is_its_system_bit_for_bit():
    sys = parse_system("vars x, y, z; poly x^2*y - 3*z + 1; poly y*z^3 - x; poly x + y + z^2;")
    h = Homotopy(sys, range(sys.arity), [], [], [])
    rng = seeded_rng(11)
    X = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    for t in (0.0, 0.7):
        H, J = h.evaluate_with_jacobian(X, np.full(len(X), t))
        F, JF = sys.compiled.evaluate_with_jacobian(X)
        assert H.tobytes() == F.tobytes() and J.tobytes() == JF.tobytes()
        assert h.evaluate(X[0], t).tobytes() == sys.evaluate(X[0]).tobytes()


def test_diverging_path_is_reported_not_raised():
    # x^2 = x forces x in {0, 1} but x*y = 1 needs x != 0, so the paths
    # heading to x=0 blow up in y; tracking must finish with a status,
    # never raise
    sys = parse_system("vars x, y; poly x^2 - x; poly x*y - 1;")
    results = solve_total_degree(sys, seed=0)
    statuses = {r.status for r in results}
    assert statuses <= {"success", "diverged", "singular-endpoint", "step-failure"}
    assert any(r.status != "success" for r in results)
    good = [r.endpoint for r in results if r.success]
    assert any(np.linalg.norm(e - np.array([1.0, 1.0])) < 1e-8 for e in good)


def test_cluster_points_merges_duplicates():
    pts = [np.array([1.0, 2.0]), np.array([1.0 + 1e-9, 2.0]), np.array([3.0, 4.0])]
    ids = cluster_points(pts, radius=1e-6)
    assert ids[0] == ids[1] != ids[2]
