"""Dense complex linear algebra with explicit rank decisions.

Wrappers over LAPACK and BLAS that make the numerical-rank tolerance policy
of the package explicit in one place: every rank the package reads, from a
matrix or from its singular values, is decided by :func:`rank_cut`.  LAPACK
is SciPy's; so is BLAS at the sizes OpenBLAS threads (below).

Square solves call LAPACK ``zgetrf``/``zgetrs`` directly, a matrix at a time:
bitwise what ``scipy.linalg.lu_factor``/``lu_solve`` wrap, without SciPy's
layers that cost several times the LAPACK work of the tracker's small solves
(``zgesv`` and ``np.linalg.solve``, also on a stack, round differently).
:func:`solve_stack` flags each singular matrix of a stack; :func:`solve_square`,
its one-matrix case, raises :class:`SingularMatrixError`.  An exactly zero
pivot, reported in ``info`` rather than by a ``LinAlgWarning``, is singular too.
:func:`lstsq` calls LAPACK ``zgelsd`` directly for the same reason, on one
matrix or a stack: bitwise ``scipy.linalg.lstsq(..., lapack_driver="gelsd")``
per matrix, with one workspace query per call.

Any BLAS call at a size OpenBLAS threads goes to SciPy's OpenBLAS.  NumPy and
SciPy each load their own OpenBLAS, with its own worker pool.  After a
threaded ``zgetrf`` (m·n ≥ 10,000) SciPy's worker is still spinning, and a
threaded call into NumPy's pool right after it waits about 8 ms for a core
on two cores, against tens of µs in SciPy's pool.  So :func:`row_norms` takes
rows longer than 10,000 entries (where OpenBLAS threads ``ddot``) and
:func:`matvec` matrices of 4,096 entries or more (where it threads
``zgemv``) to SciPy's BLAS; smaller calls stay on NumPy, which threads none
of them.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ddot, zgemv
from scipy.linalg.lapack import zgelsd, zgelsd_lwork, zgetrf, zgetrs

DEFAULT_RANK_TOL = 1e-8
_PIVOT_TOL = 1e-14
_GELSD_COND = np.finfo(complex).eps  # SciPy's lstsq default: cut below eps·σ_max
# OpenBLAS threads a ddot of more than 10,000 entries and a zgemv of 4,096
# matrix entries or more
_DDOT_ONE_THREAD_MAX = 10_000
_ZGEMV_THREADED_MIN = 4_096


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a square solve meets a numerically zero pivot."""


def row_norms(V):
    """Euclidean norm of each row of ``V``: bitwise ``np.linalg.norm`` of it
    up to 10,000 entries.  A longer row is one SciPy ``ddot`` of its real and
    imaginary parts together, equal up to rounding."""
    if V.shape[-1] <= _DDOT_ONE_THREAD_MAX:
        return np.sqrt(np.vecdot(V.real, V.real) + np.vecdot(V.imag, V.imag))
    F = np.ascontiguousarray(V, dtype=complex).view(np.float64)
    return np.sqrt([ddot(f, f) for f in F.reshape(-1, F.shape[-1])]).reshape(V.shape[:-1])


def matvec(J, v):
    """``J @ v`` for one matrix or a stack, bitwise.  Each matrix of 4,096
    entries or more is one SciPy ``zgemv``, except a one-row matrix, which
    NumPy takes as a dot product."""
    m, n = J.shape[-2:]
    if m < 2 or m * n < _ZGEMV_THREADED_MIN:
        return J @ v
    Hv = [zgemv(1.0, Jk.T, v, trans=1) for Jk in J.reshape(-1, m, n)]
    return np.array(Hv, dtype=complex).reshape(J.shape[:-1])


def _solve(A, b):
    """``(x, ok, smallest pivot, ‖A‖)`` per matrix of a stack, under the one
    pivot rule: singular when ``‖A‖ = 0`` or ``min |U_ii| <= 1e-14 ‖A‖``."""
    P, n = A.shape[:2]
    if n == 0:
        return np.zeros(b.shape, dtype=complex), np.ones(P, dtype=bool), None, None
    x = np.empty(b.shape, dtype=complex)
    lus = A.transpose(0, 2, 1).copy()  # holds each A[k] in Fortran order
    for k in range(P):
        lu, piv, info = zgetrf(lus[k].T, 1)  # in place
        if info < 0:
            raise SingularMatrixError(f"illegal value in argument {-info} of zgetrf")
        x[k] = zgetrs(lu, piv, b[k])[0]
    norm = row_norms(A.reshape(P, n * n))
    smallest = np.minimum.reduce(np.abs(lus.diagonal(0, 1, 2)), 1)
    singular = [nk == 0 or sk <= _PIVOT_TOL * nk for sk, nk in zip(smallest.tolist(), norm.tolist())]
    if any(singular):
        x[singular] = 0
    return x, np.logical_not(singular), smallest, norm


def solve_stack(A, b):
    """Solve ``A[k] x[k] = b[k]`` for a ``(P, n, n)`` stack: ``(x, ok)``, where
    ``ok[k]`` is False exactly where :func:`solve_square` raises on ``A[k]``
    and ``x[k]`` is then zero.  Every other row is bitwise its solution."""
    return _solve(np.asarray(A, dtype=complex), np.asarray(b, dtype=complex))[:2]


def solve_square(A, b):
    """Solve ``A x = b`` for square ``A`` by LU with partial pivoting.

    Raises :class:`SingularMatrixError` when the smallest pivot magnitude is
    below ``1e-14 * ||A||``.
    """
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if b.ndim == 0 or b.shape[0] != A.shape[0]:
        raise ValueError("right-hand side length mismatch")
    x, ok, smallest, norm = _solve(A[None], b[None])
    if not ok[0]:
        raise SingularMatrixError(
            f"pivot {smallest[0]:.3e} below threshold {_PIVOT_TOL * norm[0]:.3e}"
        )
    return x[0]


def singular_values(A):
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return np.zeros(0)
    return scipy.linalg.svdvals(A, check_finite=False)


def rank_cut(s, tol=DEFAULT_RANK_TOL, scale=0.0):
    """The rank decision: how many of the singular values ``s`` (largest
    first) exceed ``tol`` times the larger of the largest one and ``scale``,
    an absolute floor for a matrix whose own norm may be near zero."""
    return int(np.count_nonzero(s > tol * max(s[0] if s.size else 0.0, scale)))


def numerical_rank(A, tol=DEFAULT_RANK_TOL):
    """Number of singular values above ``tol`` times the largest one."""
    return rank_cut(singular_values(A), tol)


def null_space(A, tol=DEFAULT_RANK_TOL):
    """Orthonormal basis (columns) of the numerical kernel of ``A``."""
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return np.eye(A.shape[1] if A.ndim == 2 else 0, dtype=complex)
    U, s, Vh = scipy.linalg.svd(A, full_matrices=True, check_finite=False)
    return Vh[rank_cut(s, tol):].conj().T


def lstsq(A, b):
    """Minimum-norm least-squares solution of ``A x = b`` for one ``(m, n)``
    matrix or a ``(P, m, n)`` stack, ``b`` holding one right-hand side per
    matrix.  Each matrix is one ``zgelsd`` call, with the workspace sized
    once per call: bitwise ``scipy.linalg.lstsq(A[k], b[k],
    lapack_driver="gelsd")``, which pads ``b`` to n entries when m < n and
    keeps the first n entries of the solution when m > n."""
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if b.shape != A.shape[:-1]:
        raise ValueError(f"right-hand side of shape {b.shape} for matrices of shape {A.shape}")
    m, n = A.shape[-2:]
    x = np.zeros(A.shape[:-2] + (n,), dtype=complex)
    if m == 0 or n == 0:
        return x
    work, rwork, iwork, info = zgelsd_lwork(m, n, 1, _GELSD_COND)
    if info != 0:
        raise ValueError(f"zgelsd workspace query failed: {info}")
    sizes = int(work.real), int(rwork), int(iwork)
    padded = np.zeros(A.shape[:-2] + (max(m, n),), dtype=complex)
    padded[..., :m] = b
    xs, As = x.reshape(-1, n), A.reshape(-1, m, n)
    for k, bk in enumerate(padded.reshape(-1, max(m, n))):
        xk, _, _, info = zgelsd(As[k], bk, *sizes, _GELSD_COND, False, False)
        if info > 0:
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of zgelsd")
        xs[k] = xk[:n]
    return x
