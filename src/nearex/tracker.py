"""Predictor–corrector path tracking for polynomial homotopies.

Every homotopy is a straight line in some of a system's own indeterminates:
a :class:`Homotopy` tracks ``H(x, t) = F(x; q0 + t·(q1 − q0))``, where the
path indeterminates ``q`` run from ``q1`` at t = 1 to ``q0`` at t = 0 and the
remaining indeterminates ``x`` are the tracked unknowns.  Prediction is
fourth-order Runge–Kutta on the Davidenko equation ``J_x dx/dt = -dH/dt``,
correction is plain Newton at fixed ``t``.  Each corrector iterate takes H
and J from one kernel call, and the J of the point a step ends on gives the
next step's first slope.

Every convergence test scales with the point.  The corrector stops at a
Newton step of at most ``CORRECTOR_TOL·(1 + ‖x₀‖)``, x₀ being the point the
correction starts from, as the endpoint classification, the Gauss–Newton
polish and :func:`newton_refine` scale theirs, and as Bertini and
HomotopyContinuation.jl do.  Far out on a path to infinity rounding alone
keeps ‖dx‖ above an absolute tolerance, so an absolute test there rejects
every step and halves the step size until the path crawls.

A step never passes t = 0.  Once a path's step to exactly t = 0 is
refused, the path never aims there again: each later step halves t, a
geometric schedule as in the endgames of Bates, Hauenstein, Sommese &
Wampler (*Numerically Solving Polynomial Systems with Bertini*, SIAM 2013,
ch. 3), down to ``ENDGAME_T``, where the polish at t = 0 finishes it.  A
path to a singular endpoint is refused at t = 0 every time, so re-aiming
there after each accepted step only doubled its steps.  The polish is
Newton, then Gauss–Newton for the rows it leaves unconverged.

:func:`track_paths` moves all paths of a homotopy in lock-step, as
HomotopyContinuation.jl does (Breiding & Timme 2018), each path ending bit
for bit where it ends when tracked alone; the two polishes run in lock-step
too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .algebra import (
    AUXILIARY,
    PARAMETER,
    VARIABLE,
    Polynomial,
    PolySystem,
    StackedIndex,
    seeded_rng,
    unit_complex,
)
from .numlin import SingularMatrixError, lstsq, matvec, row_norms, solve_square, solve_stack

SUCCESS = "success"
DIVERGED = "diverged"
SINGULAR_ENDPOINT = "singular-endpoint"
STEP_FAILURE = "step-failure"


# step control, in t
INITIAL_STEP = 0.05
MIN_STEP = 1e-14
MAX_STEP = 0.1
GROWTH_AFTER = 5  # successful steps in a row before the step doubles
ENDGAME_T = 1e-6  # tracking stops here; Newton at t=0 finishes the path
SALVAGE_T = 1e-3  # below this t, step failure defers to the endpoint polish
# correction and classification
CORRECTOR_TOL = 1e-10
CORRECTOR_STEPS = 3
POLISH_ITERS = 10
LSTSQ_POLISH_ITERS = 40  # Gauss-Newton fallback when the Newton polish fails
REFINE_TOL = 1e-14  # newton_refine: step relative to 1 + the point's norm
REFINE_ITERS = 10
START_TOL = 1e-8
DIVERGENCE_BOUND = 1e12


class Homotopy:
    """``H(x, t) = system(x; q0 + t·(q1 − q0))``: the path indeterminates at
    ``path`` move on a straight line, the ones at ``unknowns`` are tracked."""

    def __init__(self, system, unknowns, path, q1, q0):
        self.system = system
        self.unknowns = np.asarray(unknowns, dtype=np.intp)
        path = np.asarray(path, dtype=np.intp)
        if len(system.polynomials) != len(self.unknowns):
            raise ValueError(
                f"{len(system.polynomials)} equations for {len(self.unknowns)} unknowns"
            )
        if not np.array_equal(np.sort(np.concatenate([self.unknowns, path])), np.arange(system.arity)):
            raise ValueError("unknowns and path indeterminates must partition the indeterminates")
        q1 = np.asarray(q1, dtype=complex)
        q0 = np.asarray(q0, dtype=complex)
        if q1.shape != (len(path),) or q0.shape != (len(path),):
            raise ValueError(f"expected {len(path)} path values at each end")
        # full-length vectors, zero at the unknowns: a point costs one axpy and
        # one scatter (base is a row: numpy's same-shape fast path), dH/dt = J·direction
        self.base = np.zeros((1, system.arity), dtype=complex)
        self.base[0, path] = q0
        self.direction = np.zeros(system.arity, dtype=complex)
        self.direction[path] = q1 - q0
        self.scatter = StackedIndex(self.unknowns, system.arity)

    @cached_property
    def degree(self):
        """The degree of H in its unknowns: the start check allows a residual
        of ``START_TOL·(1 + ‖x‖^degree)``, the scale of
        ``structure.solution_residual``."""
        return max((q.degree(self.unknowns) for q in self.system.polynomials), default=0)

    def _full(self, x, t):
        full = np.asarray(t).reshape(-1, 1) * self.direction
        full += self.base
        full.put(self.scatter(len(full)), x)
        return full if x.ndim > 1 else full[0]

    def evaluate(self, x, t):
        """H at (x, t): one point, or a ``(P, n)`` stack at ``(P,)`` values of t."""
        return self.system.evaluate(self._full(x, t))

    def evaluate_with_jacobian(self, x, t):
        """(H, J) at (x, t) from one kernel call, where J is the system's
        Jacobian in all its indeterminates (see :meth:`partials`)."""
        return self.system.compiled.evaluate_with_jacobian(self._full(x, t))

    def partials(self, J):
        """(J_x, H_t) from the system's Jacobian J at a point of the path."""
        return J.take(self.unknowns, axis=-1), matvec(J, self.direction)

    def jacobians(self, x, t):
        """(J_x, H_t) at (x, t)."""
        return self.partials(self.system.compiled.jacobian(self._full(x, t)))


@dataclass
class TrackResult:
    endpoint: np.ndarray
    status: str
    residual: float
    steps: int
    final_t: float

    @property
    def success(self):
        return self.status == SUCCESS


def _newton_correct(h, x, t, tol, max_steps):
    """Newton at fixed t on each row of a stack: ``(x, residual, converged,
    J)``, where J holds each row's full Jacobian at the point it ends on.

    A row stops at its first step of at most ``tol·(1 + ‖x₀‖)``, x₀ being
    its point when the correction begins, or at a singular Jacobian; the
    test scales with the point so that paths to infinity do not crawl (see
    the module docstring).  One kernel call per iterate gives H and J there:
    the iterate's residual and the step from it.
    """
    x = x.copy()
    H, J = h.evaluate_with_jacobian(x, t)
    res = row_norms(H)
    ok = np.zeros(len(x), dtype=bool)
    # the rows still iterating, and the step each must get under
    rows, xr, tr, Jr, stop = np.arange(len(x)), x, t, J, tol * (1.0 + row_norms(x))
    for _ in range(max_steps):
        dx, solved = solve_stack(Jr.take(h.unknowns, axis=-1), -H)
        if not all(solved.tolist()):  # a singular row stops where it is
            rows, xr, tr, dx, stop = (rows[solved], xr[solved], tr[solved], dx[solved],
                                      stop[solved])
        xr = xr + dx
        H, Jr = h.evaluate_with_jacobian(xr, tr)
        x[rows], res[rows], J[rows] = xr, row_norms(H), Jr
        done = row_norms(dx) <= stop
        flags = done.tolist()
        if all(flags):
            ok[rows] = True
            return x, res, ok, J
        if any(flags):
            ok[rows[done]] = True
            rows, xr, tr, H, Jr, stop = (rows[~done], xr[~done], tr[~done], H[~done],
                                         Jr[~done], stop[~done])
    ok[rows] = res[rows] <= tol
    return x, res, ok, J


def _predict_rk4(h, x, J, t, dt):
    """One RK4 step of the Davidenko ODE from t to t+dt (dt < 0) on each row
    of a stack, J holding each row's full Jacobian at (x, t): ``(x, ok)``,
    where ok is False if a slope was singular."""

    def slope(Jx, Ht):
        return solve_stack(Jx, -Ht)

    half = 0.5 * dt
    k1, ok1 = slope(*h.partials(J))  # "first same as last": the corrector's J
    k2, ok2 = slope(*h.jacobians(x + half[:, None] * k1, t + half))
    k3, ok3 = slope(*h.jacobians(x + half[:, None] * k2, t + half))
    k4, ok4 = slope(*h.jacobians(x + dt[:, None] * k3, t + dt))
    return x + (dt / 6.0)[:, None] * (k1 + 2 * k2 + 2 * k3 + k4), ok1 & ok2 & ok3 & ok4


def track_paths(h, starts):
    """Track solution paths of ``h`` from t=1 down to t=0, all in lock-step.

    Each path takes exactly the steps it takes alone; only the kernel and solve
    calls are shared.  Paths reaching the endgame are polished together at t=0.
    """
    x = np.array(starts, dtype=complex).reshape(len(starts), len(h.unknowns))
    H, J = h.evaluate_with_jacobian(x, np.ones(len(x)))  # row i's J at its point
    start_res = row_norms(H)
    if any((start_res > START_TOL).tolist()):  # the scale is at least 1: read the degree only now
        for res, tol in zip(start_res, START_TOL * (1.0 + row_norms(x) ** h.degree)):
            if res > tol:
                raise ValueError(f"start point residual {res:.3e} exceeds tolerance {tol:.3e}")
    results = [None] * len(x)

    def finish(p, xp, status, res):
        results[p.index] = TrackResult(xp.copy(), status, float(res), p.steps, p.t)

    # the step control of each path still tracking; row i of x is live[i]'s point
    live = [SimpleNamespace(index=k, t=1.0, dt=INITIAL_STEP, run=0, steps=0, halving=False)
            for k in range(len(x))]
    ends = []  # (path, point) for each path that reached the endgame
    while live:
        t = np.array([p.t for p in live])
        # never step past t=0, and once a step to t=0 was refused, halve t instead
        dt = np.array([min(p.dt, p.t / 2 if p.halving else p.t) for p in live])
        x_new, ok = _predict_rk4(h, x, J, t, -dt)
        t_new = t - dt
        if all(ok.tolist()):
            x_new, res, ok, J_new = _newton_correct(h, x_new, t_new, CORRECTOR_TOL,
                                                    CORRECTOR_STEPS)
        else:  # correct only the rows whose slopes were all regular
            rows, res, J_new = np.flatnonzero(ok), np.full(len(x), np.inf), J.copy()
            x_new[rows], res[rows], ok[rows], J_new[rows] = _newton_correct(
                h, x_new[rows], t_new[rows], CORRECTOR_TOL, CORRECTOR_STEPS)
        ok &= np.logical_and.reduce(np.isfinite(x_new), axis=1)
        x = np.where(ok[:, None], x_new, x)
        J = np.where(ok[:, None, None], J_new, J)
        stay = []
        for i, (p, step, accepted, t_next, norm, r) in enumerate(zip(
                live, dt.tolist(), ok.tolist(), t_new.tolist(), row_norms(x).tolist(), res.tolist())):
            p.dt, p.steps = step, p.steps + 1
            if accepted:
                p.t = t_next
                if norm > DIVERGENCE_BOUND:
                    finish(p, x[i], DIVERGED, r)
                    continue
                p.run += 1
                if p.run >= GROWTH_AFTER:
                    p.dt, p.run = min(p.dt * 2.0, MAX_STEP), 0
            else:
                p.dt, p.run, p.halving = p.dt * 0.5, 0, p.halving or t_next == 0.0
                if p.dt < MIN_STEP and p.t > SALVAGE_T:
                    finish(p, x[i], STEP_FAILURE, np.linalg.norm(h.evaluate(x[i], p.t)))
                    continue
            # at the endgame, or stuck close to it: the endpoint polish has a go
            if p.t <= ENDGAME_T or p.dt < MIN_STEP:
                ends.append((p, x[i].copy()))  # not a view: x is the whole stack
                continue
            stay.append(i)
        if len(stay) < len(live):
            x, J, live = x[stay], J[stay], [live[i] for i in stay]

    # final polish at t=0
    x = np.array([xp for _, xp in ends], dtype=complex).reshape(len(ends), x.shape[1])
    x, res, ok, _ = _newton_correct(h, x, np.zeros(len(ends)), CORRECTOR_TOL, POLISH_ITERS)
    stuck = np.flatnonzero(~ok)
    if len(stuck):
        x[stuck], res[stuck] = _gauss_newton_polish(h, x[stuck])
    for (p, _), xp, r, converged in zip(ends, x, res.tolist(), ok.tolist()):
        p.t, norm = 0.0, np.linalg.norm(xp)
        if norm > DIVERGENCE_BOUND or not np.all(np.isfinite(xp)):
            finish(p, xp, DIVERGED, r)
        elif not converged or r > CORRECTOR_TOL * (1.0 + norm):
            finish(p, xp, SINGULAR_ENDPOINT, r)
        else:
            finish(p, xp, SUCCESS, r)
    return results


def track_path(h, start):
    """Track one solution path of ``h`` from t=1 down to t=0: a stack of one."""
    return track_paths(h, [start])[0]


def _gauss_newton_polish(h, x):
    """Least-squares fallback at t=0 for the rows of a stack whose Newton
    polish did not converge: ``(x, residual)``, each row's best point and
    its residual.

    Each row takes minimum-norm Gauss–Newton steps, keeps the point of
    smallest residual, and stops at its own break: a non-finite residual,
    or one below ``1e-14·(1 + ‖x‖)``.  The rows still iterating share one
    kernel call and one stacked ``lstsq`` per iterate, and each row ends
    bit for bit where it ends alone.
    """
    H, J = h.evaluate_with_jacobian(x, np.zeros(len(x)))
    best, best_res = x.copy(), row_norms(H)
    rows, xr = np.arange(len(x)), x
    for _ in range(LSTSQ_POLISH_ITERS):
        xr = xr + lstsq(J.take(h.unknowns, axis=-1), -H)
        H, J = h.evaluate_with_jacobian(xr, np.zeros(len(xr)))
        res = row_norms(H)
        better = res < best_res[rows]  # False where res is NaN
        best[rows[better]], best_res[rows[better]] = xr[better], res[better]
        going = np.isfinite(res) & (res >= 1e-14 * (1.0 + row_norms(xr)))
        if not any(going.tolist()):
            break
        rows, xr, H, J = rows[going], xr[going], H[going], J[going]
    return best, best_res


def _square_check(sys):
    unk = sys.indices(VARIABLE, AUXILIARY)
    if len(sys.polynomials) != len(unk):
        raise ValueError(
            f"system is not square: {len(sys.polynomials)} equations, {len(unk)} unknowns"
        )
    return unk


def linear_homotopy(target, start_sys, gamma):
    """``H = (1-t)·F + t·γ·G`` as ``a·F + b·G`` with ``(a, b)`` going from
    ``(0, γ)`` at t = 1 to ``(1, 0)`` at t = 0.

    Both systems must be square in the non-parameter indeterminates of
    ``target`` (which must have no free parameters).
    """
    unk = _square_check(target)
    arity = target.arity
    a = Polynomial.variable(arity, arity + 2)
    b = Polynomial.variable(arity + 1, arity + 2)
    embed = range(arity)
    polys = [
        a * F.remap(arity + 2, embed) + b * G.remap(arity + 2, embed)
        for F, G in zip(target.polynomials, start_sys.polynomials)
    ]
    # bracketed names cannot come out of the problem grammar, so never clash
    hsys = PolySystem(polys, target.roles + [PARAMETER] * 2,
                      target.names + ["[a]", "[b]"])
    return Homotopy(hsys, unk, [arity, arity + 1], [0.0, gamma], [1.0, 0.0])


def total_degree_start(sys, seed=0):
    """Start system ``x_i^{d_i} - b_i`` with unit-modulus b, plus all its roots."""
    unk = _square_check(sys)
    degs = [max(1, p.degree(unk)) for p in sys.polynomials]
    rng = seeded_rng(seed, 1)
    b = unit_complex(rng, len(unk))
    polys = []
    for i, (d, ui) in enumerate(zip(degs, unk)):
        polys.append(
            Polynomial.variable(ui, sys.arity) ** d - Polynomial.constant(b[i], sys.arity)
        )
    start_sys = sys.with_polynomials(polys)
    roots_per = [b[i] ** (1.0 / d) * np.exp(2j * np.pi * np.arange(d) / d)
                 for i, d in enumerate(degs)]
    starts = []
    for combo in np.ndindex(*degs):
        x = np.array([roots_per[i][k] for i, k in enumerate(combo)])
        starts.append(x)
    return start_sys, starts


def solve_total_degree(sys, params=None, seed=0):
    """Solve a parameter-free square system ab initio by a total-degree homotopy.

    ``params`` (if given) is substituted for the parameter indeterminates
    first.  Returns one :class:`TrackResult` per Bézout path, in a
    deterministic order for a fixed seed.
    """
    if params is not None:
        sys = sys.substitute_params(params)
    elif sys.indices(PARAMETER):
        raise ValueError("system has free parameters; pass their values")
    start_sys, starts = total_degree_start(sys, seed)
    gamma = complex(unit_complex(seeded_rng(seed, 2)))
    h = linear_homotopy(sys, start_sys, gamma)
    return track_paths(h, starts)


def parameter_homotopy(sys, p1, p0, starts):
    """Track solutions of ``sys`` from parameters ``p1`` (t=1) to ``p0`` (t=0).

    Raises ``ValueError`` with the first bad start's residual, before any
    path is tracked, when a start does not solve ``sys`` at ``p1``.
    """
    h = Homotopy(sys, _square_check(sys), sys.indices(PARAMETER), p1, p0)
    return track_paths(h, starts)


def newton_refine(sys, point):
    """Newton's method on a system square in all its indeterminates; returns
    (point, converged)."""
    if len(sys.polynomials) != sys.arity:
        raise ValueError(
            f"{len(sys.polynomials)} equations for {sys.arity} indeterminates"
        )
    x = np.asarray(point, dtype=complex).copy()
    for _ in range(REFINE_ITERS):
        F, J = sys.compiled.evaluate_with_jacobian(x)
        try:
            dx = solve_square(J, -F)
        except SingularMatrixError:
            return x, False
        x = x + dx
        if np.linalg.norm(dx) <= REFINE_TOL * (1.0 + np.linalg.norm(x)):
            return x, True
    return x, False
