import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nearex.algebra
from nearex.algebra import (
    AUXILIARY,
    PARAMETER,
    CompiledSystem,
    ParseError,
    Polynomial,
    PolySystem,
    SumOfProducts,
    VARIABLE,
    format_polynomial,
    format_system,
    homogenize,
    jacobian_times,
    parse_system,
    per_point,
    randomize,
    seeded_rng,
    unit_complex,
)
from nearex.fiberprod import build_witness_condition, stabilize
from nearex.fixtures import FIXTURE_DIR, load
from nearex.problem import ProblemFile
from nearex.recover import build_lagrange
from nearex.structure import witness_superset
from nearex.tracker import linear_homotopy, total_degree_start


def random_poly(rng, arity, max_deg=3, n_terms=5):
    terms = {}
    for _ in range(n_terms):
        exps = tuple(int(rng.integers(0, max_deg + 1)) for _ in range(arity))
        terms[exps] = complex(rng.normal(), rng.normal())
    return Polynomial(terms, arity)


# -- Polynomial arithmetic ---------------------------------------------------


def test_zero_terms_are_never_stored():
    p = Polynomial({(1, 0): 1.0, (0, 1): -1.0}, 2)
    q = Polynomial({(0, 1): 1.0}, 2)
    assert (p + q).terms == {(1, 0): 1.0}
    assert (p - p).is_zero()


def test_arithmetic_agrees_with_pointwise_evaluation():
    rng = seeded_rng(3)
    for _ in range(20):
        a = random_poly(rng, 3)
        b = random_poly(rng, 3)
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert (a + b).evaluate(x) == pytest.approx(a.evaluate(x) + b.evaluate(x))
        assert (a * b).evaluate(x) == pytest.approx(a.evaluate(x) * b.evaluate(x), rel=1e-12)
        assert (a - b).evaluate(x) == pytest.approx(a.evaluate(x) - b.evaluate(x))
        assert (a ** 2).evaluate(x) == pytest.approx(a.evaluate(x) ** 2, rel=1e-12)


def test_diff_matches_finite_differences():
    rng = seeded_rng(4)
    h = 1e-7
    for _ in range(10):
        p = random_poly(rng, 2)
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        for a in range(2):
            e = np.zeros(2, dtype=complex)
            e[a] = h
            fd = (p.evaluate(x + e) - p.evaluate(x - e)) / (2 * h)
            assert p.diff(a).evaluate(x) == pytest.approx(fd, rel=1e-6, abs=1e-6)


def assert_canonical(p):
    """Terms as the validating constructor leaves them: int-tuple keys of the
    polynomial's arity, no negative exponent, nonzero complex values."""
    assert list(p.terms.items()) == list(Polynomial(dict(p.terms), p.arity).terms.items())
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == p.arity
        assert all(type(k) is int and k >= 0 for k in e)
        assert type(c) is complex and c != 0


# small integer coefficients, so sums, products and merged terms often cancel
COEFFS = st.sampled_from([1, -1, 2, -2, 0.5, 1j, -1j, 1 + 1j])


@st.composite
def polynomials(draw, arity):
    exps = st.tuples(*[st.integers(0, 2)] * arity)
    return Polynomial(draw(st.dictionaries(exps, COEFFS, max_size=6)), arity)


@st.composite
def polynomial_pairs(draw):
    arity = draw(st.integers(0, 3))
    return draw(polynomials(arity)), draw(polynomials(arity))


# off every coordinate hyperplane, for pointwise checks
POINT = np.array([0.7 + 0.2j, -1.1 + 0.5j, 0.3 - 0.9j, 1.3 + 0.4j, -0.6 - 0.8j])


@settings(max_examples=200, deadline=None)
@given(polynomial_pairs(), st.sampled_from([0, 0.0, 2, -1.5, 1j, 5e-324]), st.data())
def test_arithmetic_is_canonical_and_agrees_pointwise(pair, scalar, data):
    """Every operation that skips validation keeps exactly the terms the
    validating constructor would, and takes the value it should at a point
    (5e-324 times a coefficient of modulus below one underflows to zero)."""
    a, b = pair
    n = a.arity
    x = POINT[:n]
    va, vb = a.evaluate(x), b.evaluate(x)
    k = data.draw(st.integers(0, 3))
    cases = [(a + b, x, va + vb), (a - b, x, va - vb), (-a, x, -va),
             (a + scalar, x, va + scalar), (scalar - a, x, scalar - va),
             (a * scalar, x, va * scalar), (scalar * a, x, scalar * va),
             (a * b, x, va * vb), (a ** k, x, va ** k)]
    if n:
        # the values of diff are checked by test_diff_matches_finite_differences
        cases.append((a.diff(data.draw(st.integers(0, n - 1))), x, None))
        fixed = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        values = {i: data.draw(st.sampled_from([0.0, 1.0, -2.0, 1j])) for i in fixed}
        at = x.copy()
        at[fixed] = [values[i] for i in fixed]
        cases.append((a.substitute(values), np.delete(x, fixed), a.evaluate(at)))
    # any map, injective or not, and the one that appends indeterminates
    new_arity = data.draw(st.integers(max(n, 1), n + 2))
    index_map = data.draw(st.lists(st.integers(0, new_arity - 1), min_size=n, max_size=n))
    y = POINT[:new_arity]
    cases.append((a.remap(new_arity, index_map), y, a.evaluate(y[index_map])))
    cases.append((a.remap(n + 2, range(n)), POINT[:n + 2], va))
    for poly, point, value in cases:
        assert_canonical(poly)
        if value is not None:
            assert poly.evaluate(point) == pytest.approx(value, rel=1e-9, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_jacobian_times_is_the_compiled_jacobian_times_the_vector(data):
    """At a point, the rows of ``jacobian_times(polys, indices, vector)`` take
    the values of the compiled Jacobian's ``indices`` columns times the
    vector's values."""
    arity = data.draw(st.integers(1, 4))
    polys = data.draw(st.lists(polynomials(arity), min_size=1, max_size=3))
    indices = data.draw(st.lists(st.integers(0, arity - 1), min_size=1, unique=True))
    vector = data.draw(st.lists(polynomials(arity), min_size=len(indices),
                                max_size=len(indices)))
    x = POINT[:arity]
    rows = jacobian_times(polys, indices, vector)
    for row in rows:
        assert_canonical(row)
    expect = (CompiledSystem(polys, arity).jacobian(x)[:, indices]
              @ np.array([v.evaluate(x) for v in vector]))
    np.testing.assert_allclose([row.evaluate(x) for row in rows], expect,
                               rtol=1e-9, atol=1e-9)


def test_remap_drops_terms_that_cancel_when_merged():
    p = Polynomial({(1, 0, 0): 1.0, (0, 1, 0): -1.0, (0, 0, 1): 2.0}, 3)
    q = p.remap(2, [0, 0, 1])
    assert q.terms == {(0, 1): 2.0}
    assert_canonical(q)
    assert (p * 0).is_zero() and (0.0 * p).is_zero()


def test_appending_remap_equals_the_general_map_bit_for_bit():
    p = -Polynomial({(1, 0): 1.0, (0, 2): 2.5 - 0.5j}, 2)  # -x has coefficient -1-0j
    fast, general = p.remap(4, range(2)), p.remap(4, [0, 1])
    assert list(fast.terms) == list(general.terms)
    coeffs = [np.array(list(q.terms.values())).tobytes() for q in (fast, general)]
    assert coeffs[0] == coeffs[1]


def test_public_constructor_still_validates():
    with pytest.raises(ValueError, match="length"):
        Polynomial({(1, 0): 1.0}, 3)
    with pytest.raises(ValueError, match="negative"):
        Polynomial({(1, -1): 1.0}, 2)
    assert Polynomial([((1, 0), 1.0), ((1, 0), -1.0)], 2).is_zero()


def test_degree_and_restricted_degree():
    p = Polynomial({(2, 1): 1.0, (0, 3): 2.0}, 2)
    assert p.degree() == 3
    assert p.degree([0]) == 2
    assert p.degree([1]) == 3
    assert Polynomial.zero(2).degree() == 0


# -- parsing and formatting --------------------------------------------------


def test_parse_round_trips_through_format():
    src = "vars x1, x2;\nparams p1;\npoly x1^2*x2 - 3*x1 + p1*x2 - 0.5;\n"
    sys1 = parse_system(src)
    sys2 = parse_system(format_system(sys1))
    assert sys1 == sys2


def test_parse_handles_parentheses_and_powers():
    sys = parse_system("vars x, y; poly (x + y)^2 - (x - y)^2;")
    # (x+y)^2 - (x-y)^2 = 4xy
    assert sys.polynomials[0] == Polynomial({(1, 1): 4.0}, 2)


def test_parse_rejects_malformed_input():
    with pytest.raises(ParseError):
        parse_system("vars x; poly x +;")
    with pytest.raises(ParseError):
        parse_system("poly x;")  # x never declared


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_format_parse_round_trip_random_systems(seed):
    rng = seeded_rng(seed)
    arity = int(rng.integers(1, 4))
    n_par = int(rng.integers(0, 2))
    roles = [VARIABLE] * arity + [PARAMETER] * n_par
    names = [f"x{i+1}" for i in range(arity)] + [f"p{i+1}" for i in range(n_par)]
    polys = [random_poly(rng, arity + n_par) for _ in range(int(rng.integers(1, 4)))]
    sys1 = PolySystem(polys, roles, names)
    parsed = parse_system(format_system(sys1))
    assert parsed == sys1
    # terms come back in stored order, so the compiled arrays are the same
    for got, want in zip(parsed.polynomials, sys1.polynomials):
        assert list(got.terms) == list(want.terms)


def test_format_polynomial_is_parseable_with_complex_coefficients():
    p = Polynomial({(2,): 1 + 2j, (0,): -0.25j}, 1)
    src = f"vars z; poly {format_polynomial(p, ['z'])};"
    assert parse_system(src).polynomials[0] == p


# -- compiled arrays ---------------------------------------------------------

def reference_arrays(polynomials, arity):
    """The arrays a compile lays out, built term by term and exponent by
    exponent: each term's row, coefficient and factors (indeterminate,
    exponent, term), then the same for the Jacobian's terms, whose rows are
    flat (row, column) entries."""
    rows, coeffs, fvar, fexp, fterm = [], [], [], [], []
    t = 0
    for r, poly in enumerate(polynomials):
        for e, c in poly.terms.items():
            rows.append(r)
            coeffs.append(c)
            for i, k in enumerate(e):
                if k:
                    fvar.append(i)
                    fexp.append(k)
                    fterm.append(t)
            t += 1
    jrow, jcol, jcoeff, jfvar, jfexp, jfterm = [], [], [], [], [], []
    jt = 0
    for r, poly in enumerate(polynomials):
        for e, c in poly.terms.items():
            for i, k in enumerate(e):
                if not k:
                    continue
                jrow.append(r)
                jcol.append(i)
                jcoeff.append(c * k)
                for i2, k2 in enumerate(e):
                    k2 = k2 - 1 if i2 == i else k2
                    if k2:
                        jfvar.append(i2)
                        jfexp.append(k2)
                        jfterm.append(jt)
                jt += 1
    index = {"rows": rows, "fvar": fvar, "fexp": fexp, "fterm": fterm,
             "jfvar": jfvar, "jfexp": jfexp, "jfterm": jfterm}
    out = {name: np.asarray(v, dtype=np.intp) for name, v in index.items()}
    out.update({name: np.asarray(v, dtype=complex)[None]
                for name, v in (("coeffs", coeffs), ("jcoeff", jcoeff))})
    out["jentry"] = np.asarray(jrow, dtype=np.intp) * arity + np.asarray(jcol, dtype=np.intp)
    return out


def reference_plans(polynomials, arity):
    """The two plans of a compile, built from :func:`reference_arrays`: the
    Jacobian's terms, and the values' terms followed by the Jacobian's."""
    a = reference_arrays(polynomials, arity)
    n_eqs, n_terms = len(polynomials), a["coeffs"].shape[1]
    jacobian = SumOfProducts(a["jfvar"], a["jfexp"], a["jfterm"], a["jcoeff"], a["jentry"],
                             n_eqs * arity)
    fused = SumOfProducts(
        np.concatenate([a["fvar"], a["jfvar"]]), np.concatenate([a["fexp"], a["jfexp"]]),
        np.concatenate([a["fterm"], a["jfterm"] + n_terms]),
        np.concatenate([a["coeffs"], a["jcoeff"]], axis=1),
        np.concatenate([a["rows"], a["jentry"] + n_eqs]), n_eqs * (1 + arity))
    return {"jacobian_plan": jacobian, "fused_plan": fused}


def plan_arrays(plan):
    """Everything a plan runs on: from these, every reference array is read
    back (``var[gather]`` and ``exp[gather]`` are the factor lists)."""
    return {"var": plan.var, "exp": plan.exp, "gather": plan.gather, "coeffs": plan.coeffs,
            "terms": plan.terms.index, "entries": plan.entries.index,
            "shape": np.array([plan.size, plan.terms.stride, plan.entries.stride])}


def assert_compiles_like_reference(polynomials, arity):
    compiled = CompiledSystem(polynomials, arity)
    assert set(vars(compiled)) == {"arity", "n_eqs", "jacobian_plan", "fused_plan"}
    for name, want_plan in reference_plans(polynomials, arity).items():
        got_plan = getattr(compiled, name)
        for key, want in plan_arrays(want_plan).items():
            got = plan_arrays(got_plan)[key]
            assert (got.dtype, got.shape) == (want.dtype, want.shape), (name, key)
            assert got.tobytes() == want.tobytes(), (name, key)


@pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_compiled_arrays_equal_the_term_loop_on_fixtures(path):
    sys = ProblemFile.load(path).build_system()
    assert_compiles_like_reference(sys.polynomials, sys.arity)


def test_compiled_arrays_equal_the_term_loop_on_fiber_product_and_lagrange():
    f, _, p_hat, _ = load("posdim")
    p_hat = np.asarray(p_hat, dtype=complex)
    ws = witness_superset(f, p_hat, 1, seed=0)
    cand = min((cp for cp in ws.points if np.all(np.isfinite(cp.point))),
               key=lambda cp: cp.residual_full_system)

    def builder(seed):
        return build_witness_condition(f, 1, [cand], seed=seed, detection=ws)

    F = stabilize(builder, [1000, 2000], p_hat).fiber_product
    for sys in (F.full_system, build_lagrange(F, patch_seed=0).system):
        assert_compiles_like_reference(sys.polynomials, sys.arity)


def test_compiled_arrays_equal_the_term_loop_on_edge_cases():
    x, y, z = (Polynomial.variable(i, 3) for i in range(3))
    constant = parse_system("vars x; poly x^2 + 3*x - 1;").substitute({0: 2.0})
    assert constant.arity == 0
    cases = [
        ([], 3),  # no polynomials
        ([Polynomial.zero(3), x * y], 3),
        ([Polynomial.constant(2.0, 3), Polynomial.constant(-1j, 3)], 3),
        (constant.polynomials, 0),
        ([x + 2.0 * y * z ** 3, (x - y) ** 2], 3),  # x's Jacobian term has no factors
    ]
    for polys, arity in cases:
        assert_compiles_like_reference(polys, arity)


def test_a_compile_builds_two_plans(monkeypatch):
    built = []

    class CountedPlan(SumOfProducts):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(nearex.algebra, "SumOfProducts", CountedPlan)
    sys = sixR_homotopy_system()
    compiled = CompiledSystem(sys.polynomials, sys.arity)
    assert built == [compiled.jacobian_plan, compiled.fused_plan]


def test_every_kernel_checks_the_point_shape():
    compiled = PolySystem([random_poly(seeded_rng(8), 4)], [VARIABLE] * 4,
                          ["a", "b", "c", "d"]).compiled
    for kernel in (compiled.evaluate, compiled.jacobian, compiled.evaluate_with_jacobian):
        for point in (np.ones(3), np.ones(8), np.ones((2, 5)), np.array(1.0)):
            with pytest.raises(ValueError, match="arity 4"):
                kernel(point)


def test_coefficient_norm_compiles_nothing():
    systems = [ProblemFile.load(path).build_system() for path in sorted(FIXTURE_DIR.glob("*.json"))]
    systems += [sixR_homotopy_system(), PolySystem([], [VARIABLE], ["x"])]
    for sys in systems:
        fresh = PolySystem(sys.polynomials, sys.roles, sys.names)  # parses are shared
        # the norm a compile took of its coefficient row, bit for bit
        want = float(np.linalg.norm(reference_arrays(sys.polynomials, sys.arity)["coeffs"]))
        assert np.float64(fresh.coefficient_norm()).tobytes() == np.float64(want).tobytes()
        assert fresh._compiled is None


@pytest.mark.parametrize("P", [1, 3, 0])
def test_compiled_kernels_on_a_stack_equal_the_per_point_calls(P):
    rng = seeded_rng(9, P)
    compiled = PolySystem([random_poly(rng, 4) for _ in range(3)], [VARIABLE] * 4,
                          ["a", "b", "c", "d"]).compiled
    stack = rng.normal(size=(P, 4)) + 1j * rng.normal(size=(P, 4))
    values, jacobians = compiled.evaluate(stack), compiled.jacobian(stack)
    assert values.shape == (P, 3) and jacobians.shape == (P, 3, 4)
    for point, value, jacobian in zip(stack, values, jacobians, strict=True):
        assert value.tobytes() == compiled.evaluate(point).tobytes()
        assert jacobian.tobytes() == compiled.jacobian(point).tobytes()
        fused_value, fused_jacobian = compiled.evaluate_with_jacobian(point)
        assert fused_value.tobytes() == value.tobytes()
        assert fused_jacobian.tobytes() == jacobian.tobytes()


def reference_kernel(stack, fvar, fexp, fterm, coeffs, entry, size):
    """``out[entry[i]] += coeffs[i] · Π factors of term i`` for each point of
    the stack: one power per factor and fresh per-point indices on every call."""
    P, n_terms = len(stack), coeffs.shape[1]
    mono = np.empty((P, n_terms), dtype=complex)
    mono.fill(1.0)
    if fvar.size:
        factors = stack.take(fvar, axis=1)
        np.power(factors, fexp.astype(complex), out=factors)
        np.multiply.at(mono.reshape(-1), per_point(fterm, P, n_terms), factors.reshape(-1))
    np.multiply(coeffs, mono, out=mono)
    out = np.zeros(P * size, dtype=complex)
    np.add.at(out, per_point(entry, P, size), mono.reshape(-1))
    return out


def sixR_homotopy_system():
    """The system of the total-degree homotopy that detects on 6R."""
    f, _, p_hat, _ = load("sixR")
    target = f.substitute_params(p_hat)
    start, _ = total_degree_start(target, 0)
    return linear_homotopy(target, start, complex(unit_complex(seeded_rng(0, 2)))).system


# exact zeros of either sign, a value whose powers overflow to inf, and nan
EDGE_VALUES = np.array([0.0, -0.0, complex(-0.0, -0.0), 1e200, complex(0.0, -1e200),
                        np.nan, complex(1.0, np.nan)])
HEIGHTS = (3, 1, 7, 2, 0, 7)  # grow, shrink, empty, regrow


def edge_stack(rng, P, arity):
    """A random ``(P, arity)`` stack with about one entry in six an edge value."""
    stack = rng.normal(size=(P, arity)) + 1j * rng.normal(size=(P, arity))
    edge = rng.random(size=(P, arity)) < 1 / 6
    stack[edge] = rng.choice(EDGE_VALUES, size=int(edge.sum()))
    return stack


@pytest.mark.parametrize("source", sorted(FIXTURE_DIR.glob("*.json")) + ["sixR-homotopy"],
                         ids=lambda s: getattr(s, "stem", s))
def test_compiled_kernels_equal_the_reference_kernel_bit_for_bit(source):
    sys = (sixR_homotopy_system() if source == "sixR-homotopy"
           else ProblemFile.load(source).build_system())
    compiled = CompiledSystem(sys.polynomials, sys.arity)
    a = reference_arrays(sys.polynomials, sys.arity)
    rng = seeded_rng(17)
    for P in HEIGHTS:
        stack = edge_stack(rng, P, sys.arity)
        with np.errstate(all="ignore"):
            values, jacobians = compiled.evaluate(stack), compiled.jacobian(stack)
            fused_values, fused_jacobians = compiled.evaluate_with_jacobian(stack)
            want_values = reference_kernel(stack, a["fvar"], a["fexp"], a["fterm"],
                                           a["coeffs"], a["rows"], compiled.n_eqs)
            want_jacobians = reference_kernel(stack, a["jfvar"], a["jfexp"], a["jfterm"],
                                              a["jcoeff"], a["jentry"],
                                              compiled.n_eqs * sys.arity)
        assert values.shape == (P, compiled.n_eqs)
        assert jacobians.shape == (P, compiled.n_eqs, sys.arity)
        assert values.tobytes() == want_values.tobytes(), P
        assert jacobians.tobytes() == want_jacobians.tobytes(), P
        # one call of the fused plan: the same shapes and bits as the two kernels
        assert fused_values.shape == values.shape and fused_jacobians.shape == jacobians.shape
        assert fused_values.tobytes() == want_values.tobytes(), P
        assert fused_jacobians.tobytes() == want_jacobians.tobytes(), P


def test_compiled_kernels_hold_indices_for_the_tallest_stack_only():
    sys = sixR_homotopy_system()
    compiled = CompiledSystem(sys.polynomials, sys.arity)
    stack = edge_stack(seeded_rng(18), 256, sys.arity)
    # the per-point index arrays of the two plans at one point: the fused
    # plan's hold the values' terms and the Jacobian's, the Jacobian plan's
    # the Jacobian's again
    a = reference_arrays(sys.polynomials, sys.arity)
    one_point = (a["fterm"].nbytes + a["rows"].nbytes
                 + 2 * (a["jfterm"].nbytes + a["jentry"].nbytes))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with np.errstate(all="ignore"):
            for P in range(256, 0, -1):
                compiled.evaluate(stack[:P])
                compiled.jacobian(stack[:P])
                compiled.evaluate_with_jacobian(stack[:P])
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 256 * one_point + 64 * 1024


# -- substitution ------------------------------------------------------------


def test_substitute_params_fixes_parameters():
    sys = parse_system("vars x; params p; poly x^2 + p*x + 2;")
    fixed = sys.substitute_params([3.0])
    assert fixed.arity == 1
    assert fixed.evaluate([1.0])[0] == pytest.approx(6.0)
    with pytest.raises(ValueError):
        sys.substitute_params([1.0, 2.0])


# -- homogenization ----------------------------------------------------------


def test_homogenize_single_group():
    sys = parse_system("vars x1, x2; params p; poly x1^2 + p*x2 + 1; poly x1*x2 - 2;")
    hom, hom_indices = homogenize(sys, [[0, 1]], seed=5)
    hidx = hom_indices[0]
    # every polynomial homogeneous of its degree within the group
    group = [0, 1, hidx]
    for orig, p in zip(sys.polynomials, hom.polynomials[: len(sys.polynomials)]):
        degs = {sum(e[i] for i in group) for e in p.terms}
        assert degs == {orig.degree([0, 1])}
    # one extra patch equation, affine in the group variables
    assert len(hom.polynomials) == len(sys.polynomials) + 1
    patch = hom.polynomials[-1]
    assert patch.degree() == 1


def test_homogenize_two_groups_partitions_variables():
    sys = parse_system("vars x1, x2; poly x1*x2 - 1;")
    hom, hom_indices = homogenize(sys, [[0], [1]], seed=0)
    assert len(hom_indices) == 2
    assert len(hom.polynomials) == 1 + 2
    with pytest.raises(ValueError):
        homogenize(sys, [[0]], seed=0)


def test_homogenize_dehomogenizes_back():
    sys = parse_system("vars x1, x2; poly x1^2 + x2 - 3;")
    hom, hom_indices = homogenize(sys, [[0, 1]], seed=1)
    rng = seeded_rng(9)
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    full = np.zeros(hom.arity, dtype=complex)
    full[[0, 1]] = x
    full[hom_indices[0]] = 1.0
    assert hom.evaluate(full)[0] == pytest.approx(sys.evaluate(x)[0])


# -- randomization -----------------------------------------------------------


def test_randomize_preserves_solutions():
    sys = parse_system("vars x1, x2; poly x1^2 - 1; poly x2 - 2; ")
    rnd = randomize(sys, 2, seed=3)
    assert len(rnd.polynomials) == 2
    x = np.array([1.0, 2.0], dtype=complex)
    assert np.linalg.norm(rnd.evaluate(x)) < 1e-12


# -- seeded randomness -------------------------------------------------------


def test_seeded_rng_is_deterministic():
    a = unit_complex(seeded_rng(1, 2), 8)
    b = unit_complex(seeded_rng(1, 2), 8)
    assert np.array_equal(a, b)
    assert np.allclose(np.abs(a), 1.0)
    assert not np.array_equal(a, unit_complex(seeded_rng(1, 3), 8))
