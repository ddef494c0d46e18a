"""Dense complex linear algebra with explicit rank decisions.

Thin wrappers over LAPACK (via numpy/scipy) that make the numerical-rank
tolerance policy of the package explicit in one place.

Square solves call LAPACK ``zgetrf``/``zgetrs`` directly.  They are the
routines that ``scipy.linalg.lu_factor``/``lu_solve`` wrap, so the results
are bit for bit the same, but SciPy's batching and array-conversion layers
cost several times the LAPACK work of the tracker's small solves.  ``zgesv``
and ``np.linalg.solve`` round differently in the last bits.  A raw ``zgetrf``
reports an exactly zero pivot in ``info`` rather than by a ``LinAlgWarning``,
so that case raises :class:`SingularMatrixError` like any other small pivot.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import zgetrf, zgetrs

DEFAULT_RANK_TOL = 1e-8
_PIVOT_TOL = 1e-14


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a square solve meets a numerically zero pivot."""


def solve_square(A, b):
    """Solve ``A x = b`` for square ``A`` by LU with partial pivoting.

    Raises :class:`SingularMatrixError` when the smallest pivot magnitude is
    below ``1e-14 * ||A||``.
    """
    A = np.ascontiguousarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if b.ndim == 0 or b.shape[0] != A.shape[0]:
        raise ValueError("right-hand side length mismatch")
    if A.shape[0] == 0:
        return np.zeros_like(b)
    norm = np.linalg.norm(A)
    lu, piv, info = zgetrf(A)
    if info < 0:
        raise SingularMatrixError(f"illegal value in argument {-info} of zgetrf")
    pivots = np.abs(np.diag(lu))
    if norm == 0 or pivots.min() <= _PIVOT_TOL * norm:
        raise SingularMatrixError(
            f"pivot {pivots.min():.3e} below threshold {_PIVOT_TOL * norm:.3e}"
        )
    return zgetrs(lu, piv, b)[0]


def singular_values(A):
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return np.zeros(0)
    return scipy.linalg.svdvals(A, check_finite=False)


def numerical_rank(A, tol=DEFAULT_RANK_TOL):
    """Number of singular values above ``tol`` times the largest one."""
    s = singular_values(A)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def null_space(A, tol=DEFAULT_RANK_TOL):
    """Orthonormal basis (columns) of the numerical kernel of ``A``."""
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return np.eye(A.shape[1] if A.ndim == 2 else 0, dtype=complex)
    U, s, Vh = scipy.linalg.svd(A, full_matrices=True, check_finite=False)
    rank = 0 if s.size == 0 or s[0] == 0 else int(np.count_nonzero(s > tol * s[0]))
    return Vh[rank:].conj().T


def lstsq(A, b):
    """Minimum-norm least-squares solution of ``A x = b``."""
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    x, *_ = scipy.linalg.lstsq(A, b, check_finite=False, lapack_driver="gelsd")
    return x
