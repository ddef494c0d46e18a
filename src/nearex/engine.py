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
Lagrange patch) follows s0; validation keeps the run's own seed.  Every
candidate runs through one tail, :func:`_candidate`: it stabilizes a fiber
product, even of one condition, descends and validates.  The first validated
outcome wins, else the last one tried.  A run with no outcome re-raises the
last ``StabilizationError``, and when no candidate reached stabilization it
ends in :class:`StructureNotFoundError` with the last detection's reason.

A pipeline's membership check re-runs the detection at the recovered
parameters with thresholds 100× tighter than detection; the multiplicity
pipeline also checks that the double point x* solves f(·; p*) itself, not
only the randomized and sliced system.  The tail runs it only when the
descent ended in a status the pipeline can judge, adds the realness check
(p* real when p̂ is: relative ‖Im p*‖ at most 1e-6) and relabels a run that
does not pass, or whose check never runs, as ``"not-validated"``, so success
means a validated recovery.
"""

from __future__ import annotations

import itertools
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
SUBSET_CAP = 4  # above 8 witness points, trace subsets of at most this size
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

    @property
    def fiber(self):
        return self.stabilization.fiber_product

    @property
    def validated(self):
        return bool(self.result.validation["passed"])


def _check_real(validation, p_hat, p_star):
    """Add the realness check to a validation dict: p* must be real when p̂
    is.  Reports ‖Im p*‖ relative to max(‖p*‖, 1)."""
    imag = float(np.linalg.norm(np.imag(p_star)) / max(np.linalg.norm(p_star), 1.0))
    validation["imag_p_star"] = imag
    if not np.any(np.imag(p_hat)):
        validation["passed"] = bool(validation["passed"] and imag <= TIGHT_TOL)
    return validation


def _candidate(structure, stabilized, points, patch_seed, validate, judged):
    """One candidate as the loop runs it: a callable that runs ``stabilized()``
    for the fiber product, descends, and validates the endpoint with
    ``validate(res, fiber)``, the pipeline's membership dict, when the descent
    ended in a status of ``judged``.  The module docstring gives the rest."""
    def run():
        stab = stabilized()
        fiber = stab.fiber_product
        res = descend(build_lagrange(fiber, patch_seed=patch_seed))
        if res.status in judged:
            validation = _check_real(validate(res, fiber), fiber.p_hat, res.p_star)
        else:
            validation = {"passed": False, "error": f"not run: descent ended {res.status}"}
        status = res.status if validation["passed"] else "not-validated"
        return RunOutcome(structure=structure, stabilization=stab, points=points,
                          result=replace(res, status=status, validation=validation))
    return run


def _copies(builder, p_hat, s0, n_trials, rank_tol):
    """A callable that stabilizes repeated copies of a condition at s0, copy
    i built by ``builder(s0 + 1000·(i + 1))``.  A pinned ``n_trials`` is
    scanned in full; by default the scan stops at the first plateau, after at
    most one copy per parameter plus one."""
    if n_trials is None:
        count, plateau = len(p_hat) + 1, True
    else:
        count, plateau = n_trials, False
    seeds = [s0 + 1000 * (i + 1) for i in range(count)]
    return lambda: stabilize(builder, seeds, p_hat, stop_on_plateau=plateau,
                             cumulative=True, tol=rank_tol)


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

        suspected = sorted(((group_of(cp), cp) for cp in suspects),
                           key=lambda it: it[1].homogenizing_magnitudes[it[0]])

        def validate(res, fiber):
            return _validate_infinity(res, fiber, hom, positions, good, seed,
                                      infinity_tol / VALIDATION_TIGHTENING)

        yield _candidate("infinity",
                         lambda: stabilize(
                             lambda cand: build_infinity_condition(hom, hom_indices, *cand),
                             suspected, p_hat, stop_on_plateau=False, tol=rank_tol),
                         points, s0, validate, {"recovered", "recovered-singular"})

    return _first_validated(seed, candidates)


def _validate_infinity(res, fiber, hom, positions, results_hat, seed, tight_tol):
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
    return {
        "passed": bool(passed),
        "at_infinity_before": counts_hat,
        "at_infinity_after": counts_star,
        "imposed": imposed,
        "threshold": tight_tol,
    }


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

        def validate(res, _fiber):
            return _validate_positive_dim(res, f, dim_D, degree_d, seed)

        for shift in range(len(cands) - degree_d + 1):
            def builder(s, chosen=cands[shift: shift + degree_d]):
                return build_witness_condition(f, dim_D, chosen, ws, seed=s)

            s_shift = s0 + 97 * shift
            # a positive-dimensional witness recovery ends at a regular point
            # of the critical system; a salvaged singular endpoint means the
            # path strayed onto a branch of the parameter projection
            yield _candidate("positive_dim",
                             _copies(builder, p_hat, s_shift, n_trials, rank_tol),
                             ws.points, s_shift, validate, {"recovered"})

    return _first_validated(seed, candidates)


def _validate_positive_dim(res, f, dim_D, degree_d, seed):
    ws = witness_superset(f, res.p_star, dim_D, seed=seed)
    residuals = sorted(
        cp.residual_full_system for cp in ws.points if np.isfinite(cp.residual_full_system)
    )
    exact = [r for r in residuals if r < TIGHT_TOL]
    return {
        "passed": len(exact) >= degree_d,
        "exact_witness_points": len(exact),
        "required": degree_d,
        "best_residuals": residuals[: degree_d + 1],
        "threshold": TIGHT_TOL,
    }


# -- trace test / factorization ---------------------------------------------


def recover_factor(f, p_hat, subset_size=None, seed=0, n_trials=None, rank_tol=None):
    """Impose a vanishing second-derivative trace over a witness subset of a
    curve.  Candidates are the proper subsets, of ``subset_size`` points when
    given and of at most ``SUBSET_CAP`` above 8 witness points, whose trace
    is below ``TRACE_TOL`` of the scale, smallest and then nearest zero
    first."""
    p_hat = np.asarray(p_hat, dtype=complex)
    if len(f.polynomials) != len(f.indices(VARIABLE, AUXILIARY)) - 1:
        raise ValueError("factor pipeline expects an (n-1)-equation system")

    def candidates(s0):
        ws = witness_superset(f, p_hat, 1, seed=s0)
        witness = _dedupe([cp for cp in ws.points
                           if cp.labels & {NEAR_SOLUTION, AMBIGUOUS}])
        if len(witness) < 2:
            raise StructureNotFoundError("fewer than two witness points; nothing to split")
        wpts = [cp.point for cp in witness]
        td = trace_data(ws.sliced_system, wpts, alpha_seed=s0)
        r, scale = len(wpts), td.scale
        # proper subsets only: the full-set trace always vanishes, so it
        # imposes nothing
        traced = [(s, abs(td.trace(s)))
                  for size in range(1, r if r <= 8 else SUBSET_CAP + 1)
                  if subset_size in (None, size)
                  for s in itertools.combinations(range(r), size)]
        subsets = [list(s) for s, val in sorted(traced, key=lambda it: (len(it[0]), it[1]))
                   if val < TRACE_TOL * scale]
        if not subsets:
            raise StructureNotFoundError(
                f"no witness subset has a trace below {TRACE_TOL:g} of scale {scale:g}"
            )
        for subset in subsets:
            def builder(s, pts=[wpts[j] for j in subset]):
                return build_trace_condition(f, pts, p_hat, seed=s, detection=ws)

            def validate(res, fiber, subset=subset):
                return _validate_factor(res, fiber, ws, wpts, subset, seed)

            yield _candidate("factor", _copies(builder, p_hat, s0, n_trials, rank_tol),
                             ws.points, s0, validate, {"recovered"})

    return _first_validated(seed, candidates)


def _validate_factor(res, fiber, ws, wpts, subset, seed):
    # track the witness points from p_hat to p_star on the detection slice,
    # then recompute the trace there: it must vanish to working precision
    sliced_param = ws.parameterized
    tracked = parameter_homotopy(sliced_param, fiber.p_hat, res.p_star, wpts)
    if not all(r.success for r in tracked):
        return {"passed": False, "error": "witness tracking to p_star failed"}
    moved = [r.endpoint for r in tracked]
    fstar = sliced_param.substitute_params(res.p_star)
    td = trace_data(fstar, moved, alpha_seed=seed)
    value = abs(td.trace(subset))
    tight = TRACE_TOL / VALIDATION_TIGHTENING ** 2 * td.scale
    return {
        "passed": value <= tight,
        "subset_trace": value,
        "scale": td.scale,
        "threshold": tight,
        "subset": list(subset),
    }


# -- multiplicity ------------------------------------------------------------


def recover_multiplicity(f, p_hat, dim_D=1, seed=0, n_trials=1, rank_tol=None):
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

        def validate(res, fiber):
            return _validate_multiplicity(res, fiber, f, sliced_param, dim_D, seed)

        for cand in _dedupe(scored):
            def builder(s, cand=cand):
                return build_hilbert_condition(sliced_param, cand, p_hat, seed=s)

            yield _candidate("multiplicity", _copies(builder, p_hat, s0, n_trials, rank_tol),
                             ws.points, s0, validate, {"recovered"})

    return _first_validated(seed, candidates)


def _validate_multiplicity(res, fiber, f, sliced_param, dim_D, seed):
    # the first n coordinates of the first block are the witness point at p*
    blk_start, _ = fiber.block_slices[0]
    n_x = len(sliced_param.indices(VARIABLE, AUXILIARY))
    x_star = res.endpoint[blk_start: blk_start + n_x]
    fp = sliced_param.substitute_params(res.p_star)
    try:
        prof = local_hilbert(fp, x_star, d_max=len(HILBERT_PREFIX) + 1)
    except ValueError as exc:
        return {"passed": False, "error": str(exc)}
    expected = list(HILBERT_PREFIX) + [0]

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
    return {
        "passed": prof.hilbert == expected and persists and residual < TIGHT_TOL,
        "hilbert": prof.hilbert,
        "expected": expected,
        "multiplicity": prof.multiplicity,
        "fresh_slice_ratio": fresh_ratio,
        "solution_residual": residual,
    }
