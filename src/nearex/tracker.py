"""Predictor–corrector path tracking for polynomial homotopies.

Every homotopy is a straight line in some of a system's own indeterminates:
a :class:`Homotopy` tracks ``H(x, t) = F(x; q0 + t·(q1 − q0))``, where the
path indeterminates ``q`` run from ``q1`` at t = 1 to ``q0`` at t = 0 and the
remaining indeterminates ``x`` are the tracked unknowns.  Prediction is
fourth-order Runge–Kutta on the Davidenko equation ``J_x dx/dt = -dH/dt``,
correction is plain Newton at fixed ``t``.
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
    seeded_rng,
    unit_complex,
)
from .numlin import SingularMatrixError, lstsq, solve_square

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
        # full-length vectors, zero at the unknowns: a point costs one axpy
        # and one scatter, and dH/dt = J · direction
        self.base = np.zeros(system.arity, dtype=complex)
        self.base[path] = q0
        self.direction = np.zeros(system.arity, dtype=complex)
        self.direction[path] = q1 - q0

    def _full(self, x, t):
        full = self.direction * t
        full += self.base
        full[self.unknowns] = x
        return full

    def evaluate(self, x, t):
        return self.system.evaluate(self._full(x, t))

    def jacobian_x(self, x, t):
        """J_x at (x, t)."""
        return self.system.compiled.jacobian(self._full(x, t))[:, self.unknowns]

    def jacobians(self, x, t):
        """(J_x, H_t) at (x, t)."""
        J = self.system.compiled.jacobian(self._full(x, t))
        return J[:, self.unknowns], J.dot(self.direction)


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
    """Newton at fixed t. Returns (x, residual, converged).

    H is evaluated once per iterate: the value that gives an iterate's
    residual is the right-hand side of the step from it.
    """
    H = h.evaluate(x, t)
    res = float(np.linalg.norm(H))
    for _ in range(max_steps):
        Jx = h.jacobian_x(x, t)
        try:
            dx = solve_square(Jx, -H)
        except SingularMatrixError:
            return x, res, False
        x = x + dx
        H = h.evaluate(x, t)
        res = float(np.linalg.norm(H))
        if np.linalg.norm(dx) <= tol:
            return x, res, True
    return x, res, res <= tol


def _predict_rk4(h, x, t, dt):
    """One RK4 step of the Davidenko ODE from t to t+dt (dt < 0)."""

    def slope(xv, tv):
        Jx, Ht = h.jacobians(xv, tv)
        return solve_square(Jx, -Ht)

    k1 = slope(x, t)
    k2 = slope(x + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = slope(x + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = slope(x + dt * k3, t + dt)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def track_path(h, start):
    """Track one solution path of ``h`` from t=1 down to t=0."""
    x = np.asarray(start, dtype=complex).copy()
    t = 1.0
    start_res = float(np.linalg.norm(h.evaluate(x, t)))
    if start_res > START_TOL:
        raise ValueError(
            f"start point residual {start_res:.3e} exceeds tolerance {START_TOL:.3e}"
        )
    dt = INITIAL_STEP
    steps = 0
    run = 0
    while t > ENDGAME_T:
        dt = min(dt, t - 0.0)  # never step past t=0
        step = min(dt, t)
        try:
            x_pred = _predict_rk4(h, x, t, -step)
            x_new, res, ok = _newton_correct(
                h, x_pred, t - step, CORRECTOR_TOL, CORRECTOR_STEPS
            )
        except SingularMatrixError:
            ok = False
            x_new, res = x, np.inf
        steps += 1
        if ok and np.all(np.isfinite(x_new)):
            x, t = x_new, t - step
            if np.linalg.norm(x) > DIVERGENCE_BOUND:
                return TrackResult(x, DIVERGED, res, steps, t)
            run += 1
            if run >= GROWTH_AFTER:
                dt = min(dt * 2.0, MAX_STEP)
                run = 0
        else:
            run = 0
            dt *= 0.5
            if dt < MIN_STEP:
                if t <= SALVAGE_T:
                    break  # close enough: let the endpoint polish have a go
                res_here = float(np.linalg.norm(h.evaluate(x, t)))
                return TrackResult(x, STEP_FAILURE, res_here, steps, t)

    # final polish at t=0
    x, res, ok = _newton_correct(h, x, 0.0, CORRECTOR_TOL, POLISH_ITERS)
    if not ok:
        x, res = _gauss_newton_polish(h, x)
    if np.linalg.norm(x) > DIVERGENCE_BOUND or not np.all(np.isfinite(x)):
        return TrackResult(x, DIVERGED, res, steps, 0.0)
    if not ok or res > CORRECTOR_TOL * (1.0 + np.linalg.norm(x)):
        return TrackResult(x, SINGULAR_ENDPOINT, res, steps, 0.0)
    return TrackResult(x, SUCCESS, res, steps, 0.0)


def _gauss_newton_polish(h, x):
    """Least-squares fallback at t=0 for singular endpoints."""
    H = h.evaluate(x, 0.0)
    best, best_res = x, float(np.linalg.norm(H))
    for _ in range(LSTSQ_POLISH_ITERS):
        x = x + lstsq(h.jacobian_x(x, 0.0), -H)
        H = h.evaluate(x, 0.0)
        res = float(np.linalg.norm(H))
        if not np.isfinite(res):
            break
        if res < best_res:
            best, best_res = x, res
        if res < 1e-14 * (1.0 + np.linalg.norm(x)):
            break
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
    embed = list(range(arity))
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
    return [track_path(h, x) for x in starts]


def parameter_homotopy(sys, p1, p0, starts):
    """Track solutions of ``sys`` from parameters ``p1`` (t=1) to ``p0`` (t=0)."""
    h = Homotopy(sys, _square_check(sys), sys.indices(PARAMETER), p1, p0)
    return [track_path(h, np.asarray(x, dtype=complex)) for x in starts]


def newton_refine(sys, point):
    """Newton's method on a system square in all its indeterminates; returns
    (point, converged)."""
    if len(sys.polynomials) != sys.arity:
        raise ValueError(
            f"{len(sys.polynomials)} equations for {sys.arity} indeterminates"
        )
    x = np.asarray(point, dtype=complex).copy()
    for _ in range(REFINE_ITERS):
        try:
            dx = solve_square(sys.jacobian(x), -sys.evaluate(x))
        except SingularMatrixError:
            return x, False
        x = x + dx
        if np.linalg.norm(dx) <= REFINE_TOL * (1.0 + np.linalg.norm(x)):
            return x, True
    return x, False
