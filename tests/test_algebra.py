import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nearex.algebra import (
    AUXILIARY,
    PARAMETER,
    ParseError,
    Polynomial,
    PolySystem,
    VARIABLE,
    format_polynomial,
    format_system,
    homogenize,
    parse_system,
    randomize,
    seeded_rng,
    unit_complex,
)


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


# -- substitution ------------------------------------------------------------


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
