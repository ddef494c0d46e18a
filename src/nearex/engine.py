"""End-to-end pipelines: detect suspicious structure, stabilize a fiber
product, descend to the nearest parameters, and validate the result.

One pipeline per structure kind:

* :func:`recover_infinity` — push near-infinity solutions onto the
  hyperplane(s) at infinity of a (multi)homogenization;
* :func:`recover_positive_dim` — turn near-solutions of the original system
  among witness-superset points into exact witness points;
* :func:`recover_factor` — make a near-zero second-derivative trace over a
  witness subset exactly zero (component splits off);
* :func:`recover_multiplicity` — impose a rank-deficient Jacobian of the
  sliced system (local Hilbert function prefix (1, 1), multiplicity two).

A pipeline states only how it detects at a seed s0 and the order of its
candidates; :func:`_first_validated` is the one loop over them.  Attempt k
of ``ATTEMPTS`` detects at s0 = seed + ``REDRAW``·k, and every seed the
detection derives (slices, start systems, copies of a condition, the
Lagrange patch) follows s0; validation keeps the run's own seed.  Each
candidate stabilizes a fiber product, even of one condition, then descends
and validates through one shared tail.  The first validated outcome wins,
else the last one tried.  A run with no outcome re-raises the last
``StabilizationError``, and when no candidate reached stabilization it ends
in :class:`StructureNotFoundError` with the last detection's reason.

Validation re-runs the detection at the recovered parameters with thresholds
100× tighter than detection and reports pass/fail alongside the result.  It
also checks that the recovered point is real when p̂ is (relative ‖Im p*‖ at
most 1e-6), and the multiplicity pipeline checks that the double point x*
solves f(·; p*) itself, not only the randomized and sliced system.  Success
means a validated recovery: a run whose validation fails, or never runs
because the descent did not end at a usable point, has status
``"not-validated"``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import (
    AUXILIARY,
    VARIABLE,
    homogenize,
    seeded_rng,
    unit_complex,
)
from .fiberprod import (
    HILBERT_PREFIX,
    StabilizationError,
    StabilizeResult,
    build_hilbert_condition,
    build_infinity_condition,
    build_trace_condition,
    build_witness_condition,
    stabilize,
)
from .numlin import singular_values
from .recover import RecoveryResult, build_lagrange, descend
from .structure import (
    AMBIGUOUS,
    INFINITY_NEAR_TOL,
    NEAR_SOLUTION,
    NEAR_SOLUTION_TOL,
    ClassifiedPoint,
    classify_infinity,
    cluster_points,
    local_hilbert,
    solution_residual,
    trace_data,
    witness_superset,
)
from .tracker import SINGULAR_ENDPOINT, parameter_homotopy, solve_total_degree

VALIDATION_TIGHTENING = 100.0
TIGHT_TOL = NEAR_SOLUTION_TOL / VALIDATION_TIGHTENING
DEDUPE_RADIUS = 1e-8  # detection points closer than this are one point
TRACE_TOL = 1e-2  # a subset trace below this share of the trace scale is near zero
ATTEMPTS = 3  # detections per run, the k-th at seed + REDRAW·k
REDRAW = 1013


class StructureNotFoundError(RuntimeError):
    """Detection found nothing suspicious to impose."""

    status = "structure-not-found"


@dataclass
class RunOutcome:
    structure: str
    result: RecoveryResult
    stabilization: StabilizeResult
    points: list  # the classified detection points (ClassifiedPoint)

    def __post_init__(self):
        # status follows validation, so RecoveryResult.success means a
        # validated recovery everywhere the result is read
        if not self.validated:
            validation = self.result.validation or {
                "passed": False,
                "error": f"not run: descent ended {self.result.status}",
            }
            self.result = replace(self.result, status="not-validated",
                                  validation=validation)

    @property
    def fiber(self):
        return self.stabilization.fiber_product

    @property
    def validated(self):
        return bool(self.result.success and self.result.validation
                    and self.result.validation.get("passed"))


def _check_real(validation, p_hat, p_star):
    """Add the realness check to a validation dict: p* must be real when p̂
    is.  Reports ‖Im p*‖ relative to max(‖p*‖, 1)."""
    imag = float(np.linalg.norm(np.imag(p_star)) / max(np.linalg.norm(p_star), 1.0))
    validation["imag_p_star"] = imag
    if not np.any(np.imag(p_hat)):
        validation["passed"] = bool(validation["passed"] and imag <= TIGHT_TOL)
    return validation


def _descend_and_validate(structure, stab, points, patch_seed, validate, *args):
    """Descend from the stabilized fiber product and validate the endpoint:
    ``validate(res, fiber, *args)`` returns the validation dict, or None when
    it cannot judge the status the descent ended with."""
    fiber = stab.fiber_product
    res = descend(build_lagrange(fiber, patch_seed=patch_seed))
    res.validation = validate(res, fiber, *args)
    return RunOutcome(structure=structure, result=res, stabilization=stab,
                      points=points)


def _candidate(structure, builder, p_hat, s0, n_trials, rank_tol, points, validate, *args):
    """One candidate as the loop runs it: a callable that stabilizes repeated
    copies of its condition at s0, then descends and validates.  A pinned
    ``n_trials`` is scanned in full; by default the scan stops at the first
    plateau, after at most one copy per parameter plus one."""
    if n_trials is None:
        trials, plateau = range(len(p_hat) + 1), True
    else:
        trials, plateau = range(n_trials), False

    def run():
        stab = stabilize(builder, trials, p_hat, seed=s0, stop_on_plateau=plateau,
                         cumulative=True, tol=rank_tol)
        return _descend_and_validate(structure, stab, points, s0, validate, *args)
    return run


def _first_validated(seed, candidates):
    """The one candidate loop.  ``candidates(s0)`` detects at s0 and yields
    one callable per candidate, each returning that candidate's outcome; it
    raises StructureNotFoundError when the detection finds nothing."""
    last = stab_error = not_found = None
    for k in range(ATTEMPTS):
        try:
            for run in candidates(seed + REDRAW * k):
                try:
                    last = run()
                except StabilizationError as exc:
                    stab_error = exc
                    continue
                if last.validated:
                    return last
        except StructureNotFoundError as exc:
            not_found = exc
    if last is not None:
        return last
    raise stab_error or not_found


def _dedupe(points):
    """The first point of each cluster, in the given order."""
    ids = cluster_points(points, DEDUPE_RADIUS)
    return [cp for i, cp in enumerate(points) if ids[i] not in ids[:i]]


# -- solutions at infinity ---------------------------------------------------


def _converged(results):
    """Endpoints that finished tracking, including salvaged singular ones."""
    return [r for r in results if r.success or r.status == SINGULAR_ENDPOINT]


def recover_infinity(f, p_hat, groups=None, seed=0, infinity_tol=INFINITY_NEAR_TOL,
                     rank_tol=None):
    """Detect near-infinity solutions and push them onto infinity exactly.

    ``groups`` lists the variable names of each homogenization group; the
    default is one group of all variables.  The one candidate imposes every
    suspect together.
    """
    p_hat = np.asarray(p_hat, dtype=complex)
    if groups is None:
        groups = [f.indices(VARIABLE)]
    else:
        groups = [[f.index_of(nm) for nm in grp] for grp in groups]

    def candidates(s0):
        hom, hom_indices = homogenize(f, groups, seed=s0)
        homp = hom.substitute_params(p_hat)
        positions = [homp.index_of(hom.names[i]) for i in hom_indices]

        results = solve_total_degree(homp, seed=s0 + 1)
        good = _converged(results)
        points = classify_infinity([ClassifiedPoint(point=r.endpoint) for r in good],
                                   positions, infinity_tol)

        # base-point screen: a point that stays at infinity for generic
        # parameters imposes no condition; track each suspect to a generic p
        rng = seeded_rng(s0, 41)
        p_generic = p_hat + 0.5 * unit_complex(rng, p_hat.shape[0])
        suspects = []
        raw = [cp for cp in points if cp.is_near_infinity()]
        if raw:
            moved = parameter_homotopy(hom, p_hat, p_generic, [cp.point for cp in raw])
            for cp, mv in zip(raw, moved):
                if not mv.success:
                    continue
                generic, = classify_infinity([ClassifiedPoint(point=mv.endpoint)],
                                             positions, infinity_tol / 10.0)
                if not any(generic.is_near_infinity(g) and cp.is_near_infinity(g)
                           for g in range(len(positions))):
                    suspects.append(cp)
        suspects = _dedupe(suspects)
        if not suspects:
            raise StructureNotFoundError("no non-base solutions near infinity")

        def group_of(cp):
            return min((g for g in range(len(groups)) if cp.is_near_infinity(g)),
                       key=lambda g: cp.homogenizing_magnitudes[g])

        def builder(cand, s):
            return build_infinity_condition(hom, hom_indices, *cand)

        suspected = sorted(((group_of(cp), cp) for cp in suspects),
                           key=lambda it: it[1].homogenizing_magnitudes[it[0]])
        yield lambda: _descend_and_validate(
            "infinity",
            stabilize(builder, suspected, p_hat, seed=s0, stop_on_plateau=False,
                      tol=rank_tol),
            points, s0, _validate_infinity, hom, positions, good, seed,
            infinity_tol / VALIDATION_TIGHTENING,
        )

    return _first_validated(seed, candidates)


def _validate_infinity(res, fiber, hom, positions, results_hat, seed, tight_tol):
    if not res.success:
        return None

    def at_infinity(results):
        # near-infinity endpoints per group at the tightened threshold
        pts = classify_infinity([ClassifiedPoint(point=r.endpoint) for r in results],
                                positions, tight_tol)
        return [sum(cp.is_near_infinity(g) for cp in pts) for g in range(len(positions))]

    counts_hat = at_infinity(results_hat)
    results = solve_total_degree(hom.substitute_params(res.p_star), seed=seed + 1)
    counts_star = at_infinity(_converged(results))
    imposed = [0] * len(positions)
    for comp in fiber.components:
        imposed[comp.group] += 1
    passed = all(
        cs >= ch + im for cs, ch, im in zip(counts_star, counts_hat, imposed)
    )
    return _check_real({
        "passed": bool(passed),
        "at_infinity_before": counts_hat,
        "at_infinity_after": counts_star,
        "imposed": imposed,
        "threshold": tight_tol,
    }, fiber.p_hat, res.p_star)


# -- positive-dimensional components ----------------------------------------


def _witness_candidates(ws):
    # keep every finite endpoint, nearest-to-solving first; validation (not
    # the residual labels, which get unreliable at large perturbations)
    # decides which picks survive
    cands = [
        cp for cp in ws.points
        if np.all(np.isfinite(cp.point))
        and np.isfinite(cp.residual_full_system)
    ]
    cands.sort(key=lambda cp: cp.residual_full_system)
    return _dedupe(cands)


def recover_positive_dim(f, p_hat, dim_D=1, degree_d=1, seed=0, n_trials=None,
                         rank_tol=None):
    """Impose that degree_d witness points of a D-dimensional set are exact.
    Candidates are runs of degree_d consecutive witness candidates, the
    shift-th at s0 + 97·shift."""
    p_hat = np.asarray(p_hat, dtype=complex)

    def candidates(s0):
        ws = witness_superset(f, p_hat, dim_D, seed=s0)
        cands = _witness_candidates(ws)
        if len(cands) < degree_d:
            raise StructureNotFoundError(
                f"found {len(cands)} candidate witness points, need {degree_d}"
            )
        for shift in range(len(cands) - degree_d + 1):
            def builder(trial, s, chosen=cands[shift: shift + degree_d]):
                return build_witness_condition(f, dim_D, chosen, ws, seed=s)

            yield _candidate("positive_dim", builder, p_hat, s0 + 97 * shift, n_trials,
                          rank_tol, ws.points, _validate_positive_dim,
                          f, dim_D, degree_d, seed)

    return _first_validated(seed, candidates)


def _validate_positive_dim(res, fiber, f, dim_D, degree_d, seed):
    # a positive-dimensional witness recovery ends at a regular point of the
    # critical system; a salvaged singular endpoint means the path strayed
    # onto a branch of the parameter projection
    if res.status != "recovered":
        return None
    ws = witness_superset(f, res.p_star, dim_D, seed=seed)
    residuals = sorted(
        cp.residual_full_system for cp in ws.points if np.isfinite(cp.residual_full_system)
    )
    exact = [r for r in residuals if r < TIGHT_TOL]
    return _check_real({
        "passed": len(exact) >= degree_d,
        "exact_witness_points": len(exact),
        "required": degree_d,
        "best_residuals": residuals[: degree_d + 1],
        "threshold": TIGHT_TOL,
    }, fiber.p_hat, res.p_star)


# -- trace test / factorization ---------------------------------------------


def recover_factor(f, p_hat, dim_D=1, subset_size=None, seed=0, n_trials=None,
                   rank_tol=None):
    """Impose a vanishing second-derivative trace over a witness subset.
    Candidates are the subsets whose trace is below ``TRACE_TOL`` of the
    scale, smallest and then nearest zero first."""
    p_hat = np.asarray(p_hat, dtype=complex)
    n = len(f.indices(VARIABLE, AUXILIARY))
    if len(f.polynomials) != n - dim_D:
        raise ValueError("factor pipeline expects an (n-D)-equation system")

    def candidates(s0):
        ws = witness_superset(f, p_hat, dim_D, seed=s0)
        witness = _dedupe([cp for cp in ws.points
                           if cp.labels & {NEAR_SOLUTION, AMBIGUOUS}])
        if len(witness) < 2:
            raise StructureNotFoundError("fewer than two witness points; nothing to split")
        wpts = [cp.point for cp in witness]
        td = trace_data(ws.sliced_system, wpts, move_index=n - dim_D, alpha_seed=s0)
        scale = max(np.linalg.norm(w) for w in td.second_derivs)
        # the full-set trace always vanishes, so it imposes nothing
        subsets = [
            sorted(s) for s, val in sorted(td.subset_traces.items(),
                                           key=lambda kv: (len(kv[0]), abs(kv[1])))
            if len(s) < len(wpts) and subset_size in (None, len(s))
            and abs(val) < TRACE_TOL * scale
        ]
        if not subsets:
            raise StructureNotFoundError(
                f"no witness subset has a trace below {TRACE_TOL:g} of scale {scale:g}"
            )
        for subset in subsets:
            def builder(trial, s, pts=[wpts[j] for j in subset]):
                return build_trace_condition(f, dim_D, pts, p_hat, seed=s, detection=ws)

            yield _candidate("factor", builder, p_hat, s0, n_trials, rank_tol, ws.points,
                          _validate_factor, f, ws, wpts, subset, dim_D, seed)

    return _first_validated(seed, candidates)


def _validate_factor(res, fiber, f, ws, wpts, subset, dim_D, seed):
    # track the witness points from p_hat to p_star on the detection slice,
    # then recompute the trace there: it must vanish to working precision
    if res.status != "recovered":
        return None
    n = len(f.indices(VARIABLE, AUXILIARY))
    sliced_param = ws.parameterized
    tracked = parameter_homotopy(sliced_param, fiber.p_hat, res.p_star, wpts)
    if not all(r.success for r in tracked):
        return {"passed": False, "error": "witness tracking to p_star failed"}
    moved = [r.endpoint for r in tracked]
    fstar = sliced_param.substitute_params(res.p_star)
    td = trace_data(fstar, moved, move_index=n - dim_D, alpha_seed=seed)
    scale = max(np.linalg.norm(w) for w in td.second_derivs)
    value = abs(td.trace(subset))
    tight = TRACE_TOL / VALIDATION_TIGHTENING ** 2 * scale
    return _check_real({
        "passed": value <= tight,
        "subset_trace": value,
        "scale": scale,
        "threshold": tight,
        "subset": list(subset),
    }, fiber.p_hat, res.p_star)


# -- multiplicity ------------------------------------------------------------


def recover_multiplicity(f, p_hat, prefix=HILBERT_PREFIX, dim_D=1, seed=0, n_trials=1,
                         rank_tol=None):
    """Impose a multiplicity-two component via a rank-deficient Jacobian.
    Candidates are the finite detection points, ordered by how nearly the
    original system vanishes; the persistence check in validation rejects
    wrong picks, so this order only decides how many descents are run."""
    p_hat = np.asarray(p_hat, dtype=complex)

    def candidates(s0):
        ws = witness_superset(f, p_hat, dim_D, seed=s0)
        sliced_param = ws.parameterized
        scored = sorted((cp for cp in ws.points if np.all(np.isfinite(cp.point))),
                        key=lambda cp: cp.residual_full_system)
        if not scored:
            raise StructureNotFoundError("no witness points to examine")
        for cand in _dedupe(scored):
            def builder(trial, s, cand=cand):
                return build_hilbert_condition(sliced_param, cand, prefix, p_hat, seed=s)

            yield _candidate("multiplicity", builder, p_hat, s0, n_trials, rank_tol,
                          ws.points, _validate_multiplicity,
                          f, sliced_param, prefix, dim_D, seed)

    return _first_validated(seed, candidates)


def _validate_multiplicity(res, fiber, f, sliced_param, prefix, dim_D, seed):
    if res.status != "recovered":
        return None
    # the first n coordinates of the first block are the witness point at p*
    blk_start, _ = fiber.block_slices[0]
    n_x = len(sliced_param.indices(VARIABLE, AUXILIARY))
    x_star = res.endpoint[blk_start: blk_start + n_x]
    fp = sliced_param.substitute_params(res.p_star)
    try:
        prof = local_hilbert(fp, x_star, d_max=len(prefix) + 1)
    except ValueError as exc:
        return {"passed": False, "error": str(exc)}
    expected = list(prefix) + [0]

    # persistence: a true multiple component stays singular on a fresh,
    # independent slice; a mere slice tangency does not
    ws2 = witness_superset(f, res.p_star, dim_D, seed=seed + 501)
    ratios = []
    for cp in ws2.points:
        if not np.all(np.isfinite(cp.point)):
            continue
        s = singular_values(ws2.sliced_system.jacobian(cp.point))
        if len(s) > 1:
            ratios.append(s[-1] / s[0])
        else:
            # a 1x1 Jacobian has no second singular value to compare with,
            # so measure the derivative against the coefficient scale instead
            deg = max(p.degree() for p in ws2.sliced_system.polynomials)
            scale = max(ws2.sliced_system.coefficient_norm(), 1.0) * deg
            scale *= (1.0 + np.linalg.norm(cp.point)) ** max(deg - 1, 0)
            ratios.append(s[0] / max(s[0], scale))
    # the double witness point splits like the square root of the endpoint
    # precision, so the singular-value ratio bottoms out near sqrt(eps_track)
    fresh_ratio = min(ratios) if ratios else np.inf
    persists = fresh_ratio < NEAR_SOLUTION_TOL

    # membership: both checks above see only the randomized, sliced system,
    # whose solution set is larger than V(f); x* must solve f itself
    residual = solution_residual(f.substitute_params(res.p_star), x_star)
    return _check_real({
        "passed": prof.hilbert == expected and persists and residual < TIGHT_TOL,
        "hilbert": prof.hilbert,
        "expected": expected,
        "multiplicity": prof.multiplicity,
        "fresh_slice_ratio": fresh_ratio,
        "solution_residual": residual,
    }, fiber.p_hat, res.p_star)
