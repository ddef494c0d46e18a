"""Detection of suspicious structure at a perturbed parameter point.

Four measurements: points with small homogenizing coordinates (near
infinity), near-solutions of the original system among witness-superset
endpoints, the second-order slice derivatives of witness points, whose
traces over subsets the factor pipeline ranks, and points where the
Macaulay matrices are nearly rank-deficient (local Hilbert function).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AUXILIARY,
    PARAMETER,
    VARIABLE,
    CompiledSystem,
    Polynomial,
    PolySystem,
    affine_row,
    jacobian_times,
    randomize,
    seeded_rng,
    unit_complex,
)
from .numlin import SingularMatrixError, rank_cut, singular_values, solve_stack
from .tracker import solve_total_degree

NEAR_SOLUTION_TOL = 1e-4
NONSOLUTION_TOL = 1e-1
INFINITY_NEAR_TOL = 1e-2
HILBERT_RANK_TOL = 1e-8  # Macaulay singular values below this share of the scale are zero

NONSOLUTION = "nonsolution"
NEAR_SOLUTION = "near-solution"
AMBIGUOUS = "ambiguous"
FINITE = "finite"


def near_infinity_label(group):
    return f"near-infinity({group})"


@dataclass
class ClassifiedPoint:
    point: np.ndarray
    residual_full_system: float = np.inf
    homogenizing_magnitudes: list = field(default_factory=list)
    labels: set = field(default_factory=set)

    def is_near_infinity(self, group=None):
        if group is not None:
            return near_infinity_label(group) in self.labels
        return any(lbl.startswith("near-infinity") for lbl in self.labels)


@dataclass
class WitnessSupersetResult:
    """Witness-superset endpoints together with the system that produced them."""

    points: list
    sliced_system: PolySystem  # randomized f rows followed by slice rows
    parameterized: PolySystem  # the same rows with the parameters left symbolic
    slice: np.ndarray  # (D, n+1) coefficients of the slice rows


def solution_residual(f, x):
    """Scale-invariant residual ‖f(x)‖ / (1 + ‖x‖^maxdeg)."""
    deg = max([p.degree() for p in f.polynomials], default=1)
    return float(np.linalg.norm(f.evaluate(x))) / (1.0 + np.linalg.norm(x) ** deg)


def classify_residual(f, x):
    res = solution_residual(f, x)
    if res < NEAR_SOLUTION_TOL:
        label = NEAR_SOLUTION
    elif res > NONSOLUTION_TOL:
        label = NONSOLUTION
    else:
        label = AMBIGUOUS
    return res, label


def witness_superset(f, p, dim_D, seed=0):
    """Solve ``{R_{n-D} f, L_D}`` ab initio and classify endpoints against f.

    ``f`` has variable and parameter roles; ``p`` fixes the parameters.
    Returns a :class:`WitnessSupersetResult` so downstream condition builders
    can reuse the realized slice and randomization.
    """
    var = f.indices(VARIABLE, AUXILIARY)
    n = len(var)
    if n - dim_D < 1:
        raise ValueError(f"n - D = {n - dim_D} must be at least 1")
    rand = randomize(f, n - dim_D, seed=seed) if len(f.polynomials) != n - dim_D else f
    coeffs = unit_complex(seeded_rng(seed + 1), (dim_D, n + 1))
    parameterized = f.with_polynomials(
        rand.polynomials + [affine_row(row, var, f.arity) for row in coeffs]
    )
    if f.indices(PARAMETER):
        fp = f.substitute_params(p)
        sliced = parameterized.substitute_params(p)
    else:
        fp, sliced = f, parameterized
    results = solve_total_degree(sliced, seed=seed + 2)
    points = []
    for r in results:
        cp = ClassifiedPoint(point=r.endpoint)
        if r.success:
            cp.residual_full_system, label = classify_residual(fp, r.endpoint)
            cp.labels.add(label)
        else:
            cp.labels.add("track-" + r.status)
        points.append(cp)
    return WitnessSupersetResult(
        points=points,
        sliced_system=sliced,
        parameterized=parameterized,
        slice=coeffs,
    )


def classify_infinity(points, positions, threshold):
    """Label points whose homogenizing coordinates are small relative to ‖x‖.

    ``positions`` gives the index of each group's homogenizing coordinate
    within the point vectors.  Labels each :class:`ClassifiedPoint` in place
    and returns the list.
    """
    for cp in points:
        x = cp.point
        norm = max(np.linalg.norm(x), 1e-300)
        mags = []
        for g, hi in enumerate(positions):
            mag = abs(x[hi]) / norm
            mags.append(mag)
            if mag < threshold:
                cp.labels.add(near_infinity_label(g))
            else:
                cp.labels.add(FINITE)
        cp.homogenizing_magnitudes = mags
    return points


def cluster_points(points, radius):
    """Single-linkage clustering; returns a cluster index per point."""
    pts = [p.point if isinstance(p, ClassifiedPoint) else np.asarray(p) for p in points]
    n = len(pts)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(pts[i] - pts[j]) <= radius:
                parent[find(i)] = find(j)
    labels = {}
    out = []
    for i in range(n):
        r = find(i)
        if r not in labels:
            labels[r] = len(labels)
        out.append(labels[r])
    return out


@dataclass
class TraceData:
    points: list  # w_j
    first_derivs: list  # dw_j/ds as the slice translates
    second_derivs: list  # d^2 w_j/ds^2
    alpha: np.ndarray  # the generic weights of a trace

    @property
    def scale(self):
        """max ‖ẅ_j‖, the scale a trace is measured against."""
        return max(np.linalg.norm(w) for w in self.second_derivs)

    def trace(self, subset):
        """α · Σ_{j∈subset} ẅ_j."""
        return complex(self.alpha @ sum(self.second_derivs[j] for j in subset))


def trace_data(f_sliced, witness, alpha_seed):
    """First/second derivatives of witness points as the slice moves.

    ``f_sliced`` is the square sliced system, parameters substituted; its
    last row is the affine form whose constant translates.  ẇ solves
    ``J ẇ = e_last`` and ẅ solves ``J ẅ = -(ẇᵀ Hess(row_i) ẇ)_i``, from the
    bordered rows of the trace condition compiled over (w, ẇ), each in one
    stacked solve over all witness points.  α is drawn from ``alpha_seed``.
    """
    var = f_sliced.indices(VARIABLE, AUXILIARY)
    n = len(var)
    if len(f_sliced.polynomials) != n or n != f_sliced.arity:
        raise ValueError("sliced system must be square, with no parameters")
    arity = f_sliced.arity + n
    dot = [Polynomial.variable(i, arity) for i in range(f_sliced.arity, arity)]
    polys = [p.remap(arity, range(f_sliced.arity)) for p in f_sliced.polynomials]
    hessian_form = CompiledSystem(
        jacobian_times(jacobian_times(polys, var, dot), var, dot), arity)
    rng = seeded_rng(alpha_seed, 7)
    alpha = unit_complex(rng, n)
    W = np.array(witness, dtype=complex).reshape(len(witness), n)
    J = f_sliced.compiled.jacobian(W)
    e_last = np.zeros((len(W), n), dtype=complex)
    e_last[:, -1] = 1.0
    wd, regular = solve_stack(J, e_last)
    if not regular.all():
        raise SingularMatrixError(f"witness point {np.argmin(regular)} is singular on the slice")
    wdd, _ = solve_stack(J, -hessian_form.evaluate(np.concatenate([W, wd], axis=1)))
    return TraceData(list(W), list(wd), list(wdd), alpha)


# -- Macaulay matrices and the local Hilbert function -----------------------


def _graded_lex(n, dmax):
    """All exponent vectors of length n with total degree ≤ dmax, graded lex."""
    return [tuple(map(combo.count, range(n)))
            for d in range(dmax + 1)
            for combo in itertools.combinations_with_replacement(range(n), d)]


def _partial(cache, poly, alpha):
    """Cached iterated partial derivative ∂^alpha of ``poly``."""
    if alpha in cache:
        return cache[alpha]
    for i, k in enumerate(alpha):
        if k:
            lower = list(alpha)
            lower[i] -= 1
            lower = tuple(lower)
            result = _partial(cache, poly, lower).diff(i)
            cache[alpha] = result
            return result
    cache[alpha] = poly
    return poly


def macaulay_matrix(f, x_star, d):
    """The d-th Macaulay matrix of ``f`` at ``x_star``.

    Rows are indexed by (β, j) with |β| ≤ max(0, d−1) in graded-lex order;
    columns by α with |α| ≤ d.  The ((β,j), α) entry is
    ∂^{α−β} f_j (x*) / (α−β)! whenever β ≤ α, else 0.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    x_star = np.asarray(x_star, dtype=complex)
    n = f.arity
    m = len(f.polynomials)
    cols = _graded_lex(n, d)
    rows_beta = _graded_lex(n, max(0, d - 1))
    caches = [dict() for _ in range(m)]
    M = np.zeros((len(rows_beta) * m, len(cols)), dtype=complex)
    col_of = {a: i for i, a in enumerate(cols)}
    for bi, beta in enumerate(rows_beta):
        for j in range(m):
            row = bi * m + j
            for alpha in cols:
                diff = tuple(a - b for a, b in zip(alpha, beta))
                if any(x < 0 for x in diff):
                    continue
                deriv = _partial(caches[j], f.polynomials[j], diff)
                if deriv.is_zero():
                    continue
                scale = math.prod(map(math.factorial, diff))
                M[row, col_of[alpha]] = deriv.evaluate(x_star) / scale
    return M


@dataclass
class MacaulayProfile:
    hilbert: list
    multiplicity: int = None  # Σh once h has reached 0 within d_max, else None


def local_hilbert(f, x_star, d_max=8):
    """Local Hilbert function h(d) = nulldim M_d − nulldim M_{d−1}.

    Stops as soon as h hits 0 (stabilized); multiplicity is Σh then.
    """
    x_star = np.asarray(x_star, dtype=complex)
    h = []
    prev = 0
    # absolute scale: near a solution M_0 = f(x*) is a near-zero vector, so a
    # threshold relative to the matrix's own norm would call it full rank
    deg = max(p.degree() for p in f.polynomials)
    scale = max(f.coefficient_norm(), 1.0) * (1.0 + np.linalg.norm(x_star)) ** deg
    for d in range(d_max + 1):
        M = macaulay_matrix(f, x_star, d)
        nd = M.shape[1] - rank_cut(singular_values(M), HILBERT_RANK_TOL, scale)
        h.append(nd - prev)
        prev = nd
        if d == 0 and h[0] != 1:
            raise ValueError(
                f"h(0) = {h[0]}: point is not on the set at tolerance {HILBERT_RANK_TOL:g}"
            )
        if h[-1] <= 0:
            return MacaulayProfile(h, sum(h))
    return MacaulayProfile(h)
