"""Condition systems and their fiber products over a shared parameter block.

Each structural feature (a solution at infinity, a witness point on a
positive-dimensional set, a vanishing trace, a prescribed local Hilbert
function) is encoded as a :class:`ConditionSystem`: polynomials over one
fresh block of unknowns plus the shared parameters, with an approximate
start block at the perturbed parameters.  Stacking several condition systems
that share the parameters gives a :class:`FiberProductSystem`, whose image
dimension in parameter space is measured by local linear algebra and driven
down by the stabilization loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AUXILIARY,
    PARAMETER,
    VARIABLE,
    Polynomial,
    PolySystem,
    affine_row,
    jacobian_times,
    seeded_rng,
    unit_complex,
)
from .numlin import DEFAULT_RANK_TOL, SingularMatrixError, lstsq, null_space, numerical_rank
from .structure import trace_data
from .tracker import Homotopy, track_paths

INFINITY = "infinity"
WITNESS = "witness"
TRACE = "trace"
HILBERT = "hilbert"

# Gauss-Newton refinement of a fiber-product point before its rank is read
REFINE_TOL = 1e-9  # relative to 1 + the coefficient norm
MAX_REFINE = 60

HILBERT_PREFIX = (1, 1)  # the one local Hilbert function prefix a condition imposes


class StabilizationError(RuntimeError):
    """A stabilization trial could not be built or measured, as when a
    slice-moving path fails or a start point cannot be refined."""

    status = "stabilization-failed"


def stack(systems):
    """Lay copies of systems side by side over one shared parameter block.

    Each system's variable and auxiliary indeterminates form one block, in
    their own order and named ``<name>_<k>``; the parameters come last, in
    the order and under the names of the first system's.  Returns the
    stacked system and each block's ``(start, stop)``.
    """
    params = systems[0].indices(PARAMETER)
    n_block = sum(len(s.indices(VARIABLE, AUXILIARY)) for s in systems)
    arity = n_block + len(params)
    roles, names, polys, blocks = [], [], [], []
    for k, sys in enumerate(systems):
        blk = sys.indices(VARIABLE, AUXILIARY)
        start = len(roles)
        imap = [0] * sys.arity
        for j, i in enumerate(blk):
            imap[i] = start + j
        for j, i in enumerate(sys.indices(PARAMETER)):
            imap[i] = n_block + j
        roles += [sys.roles[i] for i in blk]
        names += [f"{sys.names[i]}_{k}" for i in blk]
        blocks.append((start, len(roles)))
        polys.extend(p.remap(arity, imap) for p in sys.polynomials)
    roles += [PARAMETER] * len(params)
    names += [systems[0].names[i] for i in params]
    return PolySystem(polys, roles, names), blocks


@dataclass
class ConditionSystem:
    """One structural condition: polynomials over (own block, shared params)."""

    kind: str
    system: PolySystem  # its block: the variable and auxiliary indeterminates
    start_block: np.ndarray  # over the block, in the system's order
    group: int = None  # the homogenization group of an infinity condition

    @property
    def block_size(self):
        return len(self.system.indices(VARIABLE, AUXILIARY))


class FiberProductSystem:
    """Stacked condition systems sharing one parameter block."""

    def __init__(self, components, p_hat):
        self.components = list(components)
        self.p_hat = np.asarray(p_hat, dtype=complex)
        self.full_system, self.block_slices = stack([c.system for c in self.components])
        self.n_block_unknowns = self.block_slices[-1][1]

    @property
    def n_equations(self):
        return len(self.full_system.polynomials)

    @property
    def n_parameters(self):
        return len(self.p_hat)

    def system_size(self):
        """Equations plus primal unknowns (blocks and parameters)."""
        return self.n_equations + self.n_block_unknowns + self.n_parameters

    def with_component(self, comp):
        return FiberProductSystem(self.components + [comp], self.p_hat)

    def start_point(self):
        blocks = [np.asarray(c.start_block, dtype=complex) for c in self.components]
        return np.concatenate(blocks + [self.p_hat])

    def param_indices(self):
        n = self.full_system.arity
        return list(range(n - self.n_parameters, n))


def build_infinity_condition(hom, hom_indices, group, suspect):
    """Condition: the suspect solution lies on ``x_h = 0`` for its group.

    ``hom`` is the homogenized-and-patched system and ``hom_indices`` its
    homogenizing coordinates, one per group; the condition appends the
    group's coordinate as an equation.  No random constants and no auxiliary
    unknowns are introduced.
    """
    if not suspect.is_near_infinity(group):
        raise ValueError(
            f"suspect is not flagged near infinity for group {group}: {suspect.labels}"
        )
    coord = Polynomial.variable(hom_indices[group], hom.arity)
    return ConditionSystem(
        kind=INFINITY,
        system=hom.with_polynomials(hom.polynomials + [coord]),
        start_block=np.asarray(suspect.point, dtype=complex),
        group=group,
    )


def move_to_slice(detection, points, new_coeffs):
    """Track witness points from the detection slice onto a new slice.

    The slice coefficients are the path indeterminates: they move on a
    straight line from the detection slice (t=1) to the new one (t=0) while
    the randomized rows stay fixed.
    """
    sliced = detection.sliced_system
    n = sliced.arity
    D = len(detection.slice)
    if D == 0:
        return [np.asarray(p, dtype=complex) for p in points]
    new_coeffs = np.asarray(new_coeffs, dtype=complex).reshape(D, n + 1)
    arity = n + D * (n + 1)
    polys = [p.remap(arity, range(n)) for p in sliced.polynomials[:-D]]
    for r in range(D):
        # Σ_i c_ri·x_i + c_rn with the coefficients c_r as indeterminates
        terms = []
        for i in range(n + 1):
            e = [0] * arity
            e[n + r * (n + 1) + i] = 1
            if i < n:
                e[i] = 1
            terms.append((e, 1.0))
        polys.append(Polynomial(terms, arity))
    names = [f"[c{r},{i}]" for r in range(D) for i in range(n + 1)]
    hsys = PolySystem(polys, sliced.roles + [PARAMETER] * len(names),
                      sliced.names + names)
    h = Homotopy(hsys, range(n), range(n, arity), detection.slice.ravel(),
                 new_coeffs.ravel())
    results = track_paths(h, [np.asarray(p, dtype=complex) for p in points])
    for res in results:
        if not res.success:
            raise RuntimeError(f"slice-moving homotopy failed: {res.status}")
    return [res.endpoint for res in results]


def build_witness_condition(f, dim_D, points, detection, seed=0):
    """Condition: d points of a degree-d component on one shared generic slice.

    ``f`` is the original parameterized system; each of the d copies carries
    ``f(x_j; p)`` and the shared fresh slice ``L_c(x_j)``.  Suspects are
    tracked from the detection slice onto the fresh slice for the start block.
    """
    d = len(points)
    if d == 0:
        raise ValueError("need at least one witness point")
    var = f.indices(VARIABLE, AUXILIARY)
    rng = seeded_rng(seed, 11)
    coeffs = unit_complex(rng, (dim_D, len(var) + 1))
    pts = move_to_slice(detection, [p.point for p in points], coeffs)
    copy = f.with_polynomials(
        f.polynomials + [affine_row(row, var, f.arity) for row in coeffs]
    )
    sys, _ = stack([copy] * d)
    return ConditionSystem(
        kind=WITNESS,
        system=sys,
        start_block=np.concatenate([np.asarray(p, dtype=complex) for p in pts]),
    )


def build_trace_condition(f, subset, p_hat, detection, seed=0):
    """Condition: the second-derivative trace over ``subset`` of a curve
    vanishes.

    r copies of {f, shared slice, first- and second-order bordered systems}
    plus one scalar trace equation.  Requires ``f`` to already have n−1
    equations (randomize beforehand if not).  Start auxiliaries are the
    bordered solves at the perturbed parameters on the fresh slice.
    """
    r = len(subset)
    if r == 0:
        raise ValueError("empty witness subset")
    var = f.indices(VARIABLE, AUXILIARY)
    n = len(var)
    m = len(f.polynomials)
    if m != n - 1:
        raise ValueError(f"trace condition needs n-1 = {n - 1} equations, got {m}; "
                         f"randomize first")
    rng = seeded_rng(seed, 13)
    coeffs = unit_complex(rng, (1, n + 1))
    alpha = unit_complex(rng, n)
    pts = move_to_slice(detection, subset, coeffs)

    # start auxiliaries: bordered solves on the fresh slice at p_hat
    fp = f.substitute_params(p_hat)
    f_sliced = fp.with_polynomials(fp.polynomials + [affine_row(coeffs[0], range(n), n)])
    td = trace_data(f_sliced, pts, alpha_seed=seed)

    # one copy over f's indeterminates with xdot and xddot appended
    arity = f.arity + 2 * n
    xdot = range(f.arity, f.arity + n)
    xddot = range(f.arity + n, arity)
    dot = [Polynomial.variable(i, arity) for i in xdot]
    ddot = [Polynomial.variable(i, arity) for i in xddot]
    fpolys = [p.remap(arity, range(f.arity)) for p in f.polynomials]
    first = jacobian_times(fpolys, var, dot)
    polys = fpolys + [affine_row(coeffs[0], var, arity)]
    # first-order bordered rows: J f · xdot = 0, c · xdot = 1
    polys += first + [affine_row(np.append(coeffs[0, :n], -1.0), xdot, arity)]
    # second-order bordered rows: J f · xddot + xdotᵀ·Hess·xdot = 0, c · xddot = 0
    polys += [jd + hess for jd, hess in zip(jacobian_times(fpolys, var, ddot),
                                            jacobian_times(first, var, dot))]
    polys.append(affine_row(np.append(coeffs[0, :n], 0.0), xddot, arity))
    copy = PolySystem(polys, f.roles + [AUXILIARY] * (2 * n),
                      f.names + [f"{f.names[i]}_d" for i in var]
                      + [f"{f.names[i]}_dd" for i in var])

    sys, blocks = stack([copy] * r)
    # trace row: α · Σ_j xddot_j
    xddots = [start + 2 * n + a for start, _ in blocks for a in range(n)]
    trace_row = affine_row(np.append(np.tile(alpha, r), 0.0), xddots, sys.arity)
    start = np.concatenate(
        [np.concatenate([td.points[j], td.first_derivs[j], td.second_derivs[j]])
         for j in range(r)]
    )
    return ConditionSystem(
        kind=TRACE,
        system=sys.with_polynomials(sys.polynomials + [trace_row]),
        start_block=start,
    )


def build_hilbert_condition(f_sliced, point, p_hat, seed=0):
    """Condition: a rank-deficient Jacobian of the sliced system.

    For the local Hilbert function prefix :data:`HILBERT_PREFIX`, (1, 1), the
    null-space condition collapses to ``J f_sliced(x;p) · R₁ · [λ; 1] = 0``
    with a generic unitary R₁ and auxiliary λ, the one prefix supported.
    """
    var = f_sliced.indices(VARIABLE, AUXILIARY)
    par = f_sliced.indices(PARAMETER)
    n = len(var)
    if len(f_sliced.polynomials) != n:
        raise ValueError("sliced system must be square in its variables")
    rng = seeded_rng(seed, 17)
    # random unitary via QR of a complex Gaussian matrix
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    R1, _ = np.linalg.qr(Z)
    x0 = point.point

    # λ appended after f_sliced's own indeterminates
    arity = f_sliced.arity + n - 1
    lam_idx = range(f_sliced.arity, arity)
    polys = [p.remap(arity, range(f_sliced.arity)) for p in f_sliced.polynomials]
    # J f_sliced · R1 · [λ; 1] = 0  (row per equation)
    polys += jacobian_times(polys, var, [affine_row(row, lam_idx, arity) for row in R1])
    copy = PolySystem(polys, f_sliced.roles + [AUXILIARY] * (n - 1),
                      f_sliced.names + [f"lam{a}" for a in range(n - 1)])
    sys, _ = stack([copy])

    # start λ from the closest-to-null vector of J·R1, rescaled so the last
    # coordinate of R1⁻¹·v is 1
    full = np.empty(f_sliced.arity, dtype=complex)
    full[var] = x0[: n]
    full[par] = np.asarray(p_hat, dtype=complex)
    J = f_sliced.compiled.jacobian(full)[:, var]
    _, _, Vh = np.linalg.svd(J @ R1)
    v = Vh[-1].conj()  # right singular vector of the smallest singular value
    if abs(v[-1]) < 1e-12:
        raise ValueError("degenerate null direction: cannot normalize the multiplier")
    lam = (v / v[-1])[:-1]
    return ConditionSystem(
        kind=HILBERT,
        system=sys,
        start_block=np.concatenate([x0[:n], lam]),
    )


def image_dimension(F, tol=DEFAULT_RANK_TOL):
    """Dimension of the local projection of V(𝓕) onto parameter space.

    Gauss–Newton refines the start point onto V(𝓕); the parameter rows of a
    null-space basis of the full Jacobian there span the tangent directions
    visible in parameter space, and their rank is the local image dimension.
    """
    sys = F.full_system
    x = np.asarray(F.start_point(), dtype=complex).copy()
    H, J = sys.compiled.evaluate_with_jacobian(x)
    res = np.linalg.norm(H)
    scale = 1.0 + sys.coefficient_norm()
    for _ in range(MAX_REFINE):
        if res <= REFINE_TOL * scale:
            break
        x_new = x + lstsq(J, -H)
        H_new, J_new = sys.compiled.evaluate_with_jacobian(x_new)
        res_new = np.linalg.norm(H_new)
        if not np.isfinite(res_new):
            break
        x, res, H, J = x_new, res_new, H_new, J_new
    else:
        if res > REFINE_TOL * scale:
            raise RuntimeError(
                f"could not refine the start point onto the fiber product "
                f"(residual {res:.3e})"
            )
    N = null_space(J, tol)
    p_rows = N[F.param_indices(), :]
    return numerical_rank(p_rows, tol), x


@dataclass
class StabilizeResult:
    fiber_product: FiberProductSystem
    dims: list  # image dimension after each tried append
    sizes: list  # system size of each tried assembly
    accepted: list  # whether each candidate was kept


def stabilize(builder, candidates, p_hat, tol=None, stop_on_plateau=True,
              cumulative=False):
    """Assemble conditions while the image dimension keeps dropping.

    ``builder(candidate)`` returns a fresh ConditionSystem; a candidate is a
    suspect point, or the seed of one copy's random constants.  Candidates
    are tried in order and the image dimension and size of each trial
    assembly are recorded; a trial that strictly drops the dimension is
    accepted, and the last accepted trial is the returned fiber product.

    With ``cumulative`` (the mode for repeated copies of one condition) each
    trial extends the previous trial, so every tried copy stays in the
    assembly while scanning and the recorded sizes grow by one component per
    row; the returned product is then the shortest prefix achieving the
    stabilized dimension.  Without it (distinct suspect points, each
    carrying its own condition) each trial extends the last accepted
    product, so an append that does not drop the dimension is discarded as a
    dependent condition.  With ``stop_on_plateau`` the scan ends at the first
    non-dropping append; otherwise every candidate is tried.  A ``tol`` of
    None means ``DEFAULT_RANK_TOL``; any other must be a positive finite
    number, or ``ValueError`` is raised.  A trial whose condition or image
    dimension cannot be computed ends the scan in a
    :class:`StabilizationError`.
    """
    tol = DEFAULT_RANK_TOL if tol is None else tol
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    candidates = list(candidates)
    if not candidates:
        raise ValueError("no candidates to impose")
    best = best_dim = trial = None
    dims, sizes, accepted = [], [], []
    for i, cand in enumerate(candidates):
        base = trial if cumulative else best
        try:
            comp = builder(cand)
            trial = (FiberProductSystem([comp], p_hat) if base is None
                     else base.with_component(comp))
            dim, _ = image_dimension(trial, tol=tol)
        except (RuntimeError, SingularMatrixError) as exc:
            raise StabilizationError(f"trial {i + 1}: {exc}") from exc
        dims.append(dim)
        sizes.append(trial.system_size())
        dropped = best_dim is None or dim < best_dim
        accepted.append(dropped)
        if dropped:
            best, best_dim = trial, dim
        elif stop_on_plateau:
            break
    return StabilizeResult(best, dims, sizes, accepted)
