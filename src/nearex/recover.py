"""Nearest-parameter recovery by a gradient-descent homotopy.

Given a fiber product of condition systems 𝓕 and the perturbed parameters
p̂, the critical points of min ‖p − p̂‖² subject to 𝓕(x, p) = 0 satisfy the
square system

    𝒢 = [𝓕;  λ₀·∇Σ(pᵢ−p̂ᵢ)² + Σⱼ λⱼ·∇𝓕ⱼ;  b·λ − 1]

with projective multipliers λ dehomogenized by a generic affine patch b.
The distance is the holomorphic quadratic Σ(pᵢ−p̂ᵢ)² (no conjugation), which
agrees with the squared Euclidean distance for real parameters and keeps 𝒢
polynomial.  The descent homotopy puts an offset sⱼ on each constraint row,
𝓕ⱼ(z) − sⱼ, and moves the offsets on a straight line from 𝓕(ẑ) at t = 1 to
0 at t = 0, so the start (ẑ, λ=(1,0,…,0)) is exact at t = 1.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AUXILIARY,
    PARAMETER,
    Polynomial,
    PolySystem,
    affine_row,
    randomize,
    seeded_rng,
    unit_complex,
)
from .fiberprod import FiberProductSystem
from .numlin import numerical_rank
from .tracker import (
    Homotopy,
    SINGULAR_ENDPOINT,
    SUCCESS,
    TrackResult,
    newton_refine,
    track_path,
)

PATCH_EPSILON = 1e-3


@dataclass
class LagrangeSystem:
    system: PolySystem  # 𝒢 including the multiplier patch row
    fiber: FiberProductSystem  # its blocks then parameters lead 𝒢's unknowns
    lambda_indices: list

    def start_point(self):
        start = np.zeros(self.system.arity, dtype=complex)
        start[: self.fiber.full_system.arity] = self.fiber.start_point()
        start[self.lambda_indices[0]] = 1.0
        return start


def build_lagrange(F, patch_seed=0):
    """Square critical-point system for the nearest parameters on π(V(𝓕)).

    If the Jacobian of 𝓕 is row-rank-deficient at the start point (stacked
    conditions can overlap), the constraint rows are randomized down to their
    numerical rank first; otherwise the multiplier system would be singular
    along the left kernel for the whole descent path.
    """
    p_hat = F.p_hat
    base = F.full_system
    rank = numerical_rank(base.jacobian(F.start_point()))
    if rank < len(base.polynomials):
        base = randomize(base, rank, seed=patch_seed + 71)
    M = len(base.polynomials)
    n_primal = base.arity
    arity = n_primal + M + 1
    roles = list(base.roles) + [AUXILIARY] * (M + 1)
    names = list(base.names) + [f"mult{j}" for j in range(M + 1)]
    polys = [p.remap(arity, range(n_primal)) for p in base.polynomials]

    lam = [Polynomial.variable(n_primal + j, arity) for j in range(M + 1)]
    # gradient rows of λ₀‖p − p̂‖² + Σⱼ λⱼ·𝓕ⱼ: 𝒢's Jacobian block in the
    # primal unknowns is then the Hessian of that Lagrangian
    weighted = sum((lam[j + 1] * polys[j] for j in range(M)), Polynomial.zero(arity))
    par = F.param_indices()
    for a in range(n_primal):
        row = weighted.diff(a)
        if a in par:
            i = par.index(a)
            dist = Polynomial.variable(a, arity) - Polynomial.constant(p_hat[i], arity)
            # distance terms first: a row's term order is its compiled sum order
            row = lam[0] * (2.0 * dist) + row
        polys.append(row)

    rng = seeded_rng(patch_seed, 23)
    patch = np.empty(M + 1, dtype=complex)
    patch[0] = 1.0
    patch[1:] = PATCH_EPSILON * unit_complex(rng, M)
    polys.append(affine_row(np.append(patch, -1.0), range(n_primal, arity), arity))

    if len(polys) != arity:
        raise AssertionError(
            f"Lagrange system is not square: {len(polys)} equations, {arity} unknowns"
        )
    return LagrangeSystem(
        system=PolySystem(polys, roles, names),
        fiber=F,
        lambda_indices=list(range(n_primal, n_primal + M + 1)),
    )


@dataclass
class RecoveryResult:
    p_star: np.ndarray
    endpoint: np.ndarray
    distance: float
    deltas: np.ndarray
    track: TrackResult
    status: str
    residual_fiber: float = None
    residual_critical: float = None
    validation: dict = None

    @property
    def success(self):
        """A ``recovered*`` status.  The engine's one candidate tail relabels
        every run that does not validate as ``not-validated``, so on the
        results of its pipelines this means a validated recovery."""
        return self.status.startswith("recovered")


def descend(G):
    """Track the gradient-descent homotopy from t=1 to t=0 and extract p*."""
    start = G.start_point()
    sys = G.system
    M = len(G.lambda_indices) - 1
    arity = sys.arity
    polys = [p.remap(arity + M, range(arity)) for p in sys.polynomials]
    for j in range(M):
        polys[j] = polys[j] - Polynomial.variable(arity + j, arity + M)
    names = [f"[s{j}]" for j in range(M)]
    hsys = PolySystem(polys, sys.roles + [PARAMETER] * M, sys.names + names)
    h = Homotopy(hsys, range(arity), range(arity, arity + M),
                 sys.evaluate(start)[:M], np.zeros(M))

    res = track_path(h, start)
    endpoint = res.endpoint
    if res.status == SUCCESS:
        endpoint, _ = newton_refine(sys, endpoint)
    fiber = G.fiber
    p_star = endpoint[fiber.param_indices()]
    deltas = p_star - fiber.p_hat
    fiber_res = float(
        np.linalg.norm(fiber.full_system.evaluate(endpoint[: fiber.full_system.arity]))
    )
    crit_res = float(np.linalg.norm(sys.evaluate(endpoint)))
    lam = endpoint[G.lambda_indices]
    lam_scale = float(np.max(np.abs(lam)))
    degenerate = lam_scale > 0 and abs(lam[0]) < 1e-6 * lam_scale
    if res.status == SUCCESS and degenerate:
        # lambda_0 ~ 0 at a regular endpoint: a solution of the homogenized
        # multiplier system that is critical for the constraints alone, not
        # for the distance (a branch point of the parameter projection).
        # Singular endpoints are exempt: there the multiplier ray collapses
        # onto the constraint block by construction.
        status = "degenerate-critical"
    elif res.status == SUCCESS:
        status = "recovered"
    elif res.status == SINGULAR_ENDPOINT:
        status = "recovered-singular"
    else:
        status = f"path-{res.status}"
    return RecoveryResult(
        p_star=p_star,
        endpoint=endpoint,
        distance=float(np.linalg.norm(deltas)),
        deltas=deltas,
        track=res,
        status=status,
        residual_fiber=fiber_res,
        residual_critical=crit_res,
    )


def report(result, fiber, extra=None):
    """Structured JSON-ready report of a recovery run."""
    doc = {
        "status": result.status,
        "p_hat": [json_number(z) for z in fiber.p_hat],
        "p_star": [json_number(z) for z in result.p_star],
        "distance": result.distance,
        "deltas": [json_number(z) for z in result.deltas],
        "residual_fiber": result.residual_fiber,
        "residual_critical": result.residual_critical,
        "path_steps": result.track.steps,
        "final_t": result.track.final_t,
        "validation": result.validation,
        "component_systems": len(fiber.components),
        "structure_kinds": [c.kind for c in fiber.components],
        "system_size": fiber.system_size(),
    }
    if extra:
        doc.update(extra)
    return doc


def json_number(z):
    """A complex number as JSON: its real part when it is real, else [re, im]."""
    z = complex(z)
    return z.real if z.imag == 0 else [z.real, z.imag]


def sample_study(run_one, p_tilde, sigma, n, seed=0):
    """Repeat a recovery over Gaussian perturbations of a nominal parameter.

    ``run_one(p_hat, sample_seed)`` performs one full detection+recovery and
    returns a RecoveryResult (or raises).  Returns a list of row dicts, in
    sample order, with the chi-square statistic σ⁻²‖p̂−p*‖² per success.
    """
    p_tilde = np.asarray(p_tilde, dtype=float)
    rows = []
    for i in range(n):
        rng = seeded_rng(seed, 29, i)
        p_hat = p_tilde + sigma * rng.normal(size=p_tilde.shape[0])
        row = {"sample": i, "p_hat": p_hat.copy()}
        try:
            result = run_one(p_hat, seed + i)
        except Exception as exc:  # individual failures never abort the study
            row.update(status=f"error: {type(exc).__name__}", p_star=None,
                       distance=None, chi2stat=None)
            rows.append(row)
            continue
        row["status"] = result.status
        if result.success:
            row["p_star"] = result.p_star.copy()
            row["distance"] = result.distance
            row["chi2stat"] = (result.distance / sigma) ** 2
        else:
            row.update(p_star=None, distance=None, chi2stat=None)
        rows.append(row)
    return rows


def study_csv(rows, n_params):
    """Render study rows as the stable CSV format."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    header = (
        ["sample", "status"]
        + [f"p_hat{i+1}" for i in range(n_params)]
        + [f"p_star{i+1}" for i in range(n_params)]
        + ["distance", "chi2stat"]
    )
    w.writerow(header)
    for row in rows:
        out = [row["sample"], row["status"]]
        out += [f"{v:.16g}" for v in np.asarray(row["p_hat"], dtype=float)]
        if row.get("p_star") is not None:
            out += [f"{v:.16g}" for v in np.real(row["p_star"])]
            out += [f"{row['distance']:.16g}", f"{row['chi2stat']:.16g}"]
        else:
            out += [""] * (n_params + 2)
        w.writerow(out)
    return buf.getvalue()


def histogram_data(rows, p_tilde, sigma):
    """Binned marginals per coordinate plus the intrinsic tangent coordinate.

    Bin width σ/5 over ±4σ around the nominal value.  The intrinsic
    coordinate is the signed distance of p* from p̃ along the dominant
    direction of the recovered scatter.
    """
    p_tilde = np.asarray(p_tilde, dtype=float)
    ok = [r for r in rows if r.get("p_star") is not None]
    stars = np.array([np.real(r["p_star"]) for r in ok]) if ok else np.zeros((0, len(p_tilde)))
    edges = np.arange(-4.0 * sigma, 4.0 * sigma + sigma / 5.0 * 0.5, sigma / 5.0)
    hist = {"bin_edges": edges.tolist(), "coordinates": {}, "n_success": len(ok)}
    for i in range(len(p_tilde)):
        counts, _ = np.histogram(stars[:, i] - p_tilde[i], bins=edges) if len(ok) else (np.zeros(len(edges) - 1, dtype=int), None)
        hist["coordinates"][f"p{i+1}"] = counts.tolist()
    if len(ok) >= 2:
        centered = stars - stars.mean(axis=0)
        _, _, Vt = np.linalg.svd(centered, full_matrices=False)
        direction = Vt[0]
        intrinsic = (stars - p_tilde) @ direction
        counts, _ = np.histogram(intrinsic, bins=edges)
        hist["coordinates"]["intrinsic"] = counts.tolist()
        hist["intrinsic_direction"] = direction.tolist()
        hist["intrinsic_mean"] = float(intrinsic.mean())
        hist["intrinsic_std"] = float(intrinsic.std(ddof=1))
    return hist
