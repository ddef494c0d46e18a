import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from nearex.algebra import seeded_rng
from nearex.numlin import (
    SingularMatrixError,
    lstsq,
    matvec,
    null_space,
    numerical_rank,
    rank_cut,
    row_norms,
    singular_values,
    solve_square,
    solve_stack,
)


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_solve_square_matches_direct_inverse():
    rng = seeded_rng(0)
    for _ in range(10):
        A = random_complex(rng, 5, 5)
        b = random_complex(rng, 5)
        x = solve_square(A, b)
        assert np.linalg.norm(A @ x - b) < 1e-10 * np.linalg.norm(A)


def test_solve_square_raises_on_singular_matrix():
    A = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SingularMatrixError):
        solve_square(A, np.ones(2))
    with pytest.raises(SingularMatrixError):
        solve_square(np.zeros((2, 2)), np.ones(2))


def test_exactly_singular_matrix_raises_even_with_warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError):
            solve_square([[1, 2], [2, 4]], [1, 1])


@pytest.mark.parametrize("n", [1, 2, 8, 40, 135])
def test_solve_square_is_bitwise_lu_factor_then_lu_solve(n):
    rng = seeded_rng(5, n)
    for rhs_shape in [(n,), (n, 3)]:
        A = random_complex(rng, n, n)
        b = random_complex(rng, *rhs_shape)
        reference = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), b)
        assert np.array_equal(solve_square(A, b), reference)


def test_pivot_threshold_is_relative_to_the_norm():
    def triangular(last_pivot):
        # upper triangular with a dominant first column: partial pivoting
        # keeps the rows, so the pivots are the diagonal
        return np.array([[2.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, last_pivot]])

    threshold = 1e-14 * np.linalg.norm(triangular(0.0))
    b = np.ones(3)
    above = triangular(threshold * (1 + 1e-6))
    x = solve_square(above, b)
    assert np.linalg.norm(above @ x - b) < 1e-6 * np.linalg.norm(x)
    with pytest.raises(SingularMatrixError, match="below threshold"):
        solve_square(triangular(threshold * (1 - 1e-6)), b)


def test_pivot_threshold_holds_at_a_size_openblas_threads():
    n = 111  # 12,321 entries: OpenBLAS threads the LU and the norm's dot product

    def triangular(last_pivot):  # the pivots are the diagonal, as at 3×3
        A = np.triu(np.ones((n, n)))
        A[0, 0], A[-1, -1] = 2.0, last_pivot
        return A

    threshold = 1e-14 * np.linalg.norm(triangular(0.0))
    rng = seeded_rng(9)
    b = random_complex(rng, n)
    above, below = triangular(threshold * (1 + 1e-6)), triangular(threshold * (1 - 1e-6))
    x = solve_square(above, b)
    assert np.linalg.norm(above @ x - b) < 1e-6 * np.linalg.norm(x)
    with pytest.raises(SingularMatrixError, match="below threshold"):
        solve_square(below, b)
    A = np.array([random_complex(rng, n, n), above, below], dtype=complex)
    x, ok = solve_stack(A, np.array([b, b, b]))
    assert ok.tolist() == [True, True, False]
    assert x[1].tobytes() == solve_square(above, b).tobytes() and not x[2].any()


@pytest.mark.parametrize("length", [40, 10_000, 10_001, 12_321])
def test_row_norms_match_numpy_on_both_sides_of_the_threaded_size(length):
    V = random_complex(seeded_rng(10, length), 3, length)
    expected = np.array([np.linalg.norm(row) for row in V])
    if length <= 10_000:  # NumPy's own dot products: the same bits
        assert row_norms(V).tobytes() == expected.tobytes()
    assert row_norms(V) == pytest.approx(expected, rel=1e-14)
    assert row_norms(V[0]) == pytest.approx(expected[0], rel=1e-14)


@pytest.mark.parametrize("shape", [(5, 8, 10), (1, 111, 160), (2, 64, 64), (135, 200), (1, 5000)])
def test_matvec_is_bitwise_numpy(shape):
    rng = seeded_rng(11, *shape)
    J, v = random_complex(rng, *shape), random_complex(rng, shape[-1])
    assert matvec(J, v).tobytes() == (J @ v).tobytes()


def test_solve_square_rejects_bad_shapes():
    with pytest.raises(ValueError):
        solve_square(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        solve_square(np.eye(2), np.ones(3))
    with pytest.raises(ValueError):
        solve_square([[1, 2], [2, 4]], 1)


@pytest.mark.parametrize("n", [1, 2, 8, 40])
def test_each_row_of_a_stacked_solve_is_solve_square(n):
    rng = seeded_rng(6, n)
    for rhs_shape in [(n,), (n, 3)]:
        A = random_complex(rng, 5, n, n)
        b = random_complex(rng, 5, *rhs_shape)
        x, ok = solve_stack(A, b)
        assert ok.all()
        for k in range(5):
            assert x[k].tobytes() == solve_square(A[k], b[k]).tobytes()


def test_stacked_solve_flags_exactly_where_solve_square_raises():
    def triangular(last_pivot):  # as in the threshold test: the pivots are the diagonal
        return np.array([[2.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, last_pivot]])

    threshold = 1e-14 * np.linalg.norm(triangular(0.0))
    rng = seeded_rng(7)
    A = np.array([
        random_complex(rng, 3, 3),
        [[1, 2, 0], [2, 4, 0], [0, 0, 1]],  # singular
        triangular(threshold * (1 + 1e-6)),
        triangular(threshold * (1 - 1e-6)),  # pivot just below the threshold
        np.zeros((3, 3)),
        random_complex(rng, 3, 3),
    ], dtype=complex)
    b = random_complex(rng, 6, 3)
    x, ok = solve_stack(A, b)
    for k in range(len(A)):
        try:
            expected = solve_square(A[k], b[k])
        except SingularMatrixError:
            assert not ok[k] and not x[k].any()
        else:
            assert ok[k] and x[k].tobytes() == expected.tobytes()
    assert ok.tolist() == [True, False, True, False, False, True]


def test_solves_leave_their_inputs_alone():
    rng = seeded_rng(8)
    A = np.asfortranarray(random_complex(rng, 4, 4))  # a layout LAPACK could overwrite
    b = random_complex(rng, 4)
    A0, b0 = A.copy(), b.copy()
    solve_square(A, b)
    solve_stack(A[None], b[None])
    assert np.array_equal(A, A0) and np.array_equal(b, b0)


def test_numerical_rank_on_constructed_matrix():
    rng = seeded_rng(1)
    U, _ = np.linalg.qr(random_complex(rng, 6, 6))
    V, _ = np.linalg.qr(random_complex(rng, 6, 6))
    s = np.array([1.0, 0.5, 1e-3, 1e-14, 0.0, 0.0])
    A = U @ np.diag(s) @ V.conj().T
    assert numerical_rank(A, tol=1e-8) == 3
    assert null_space(A, tol=1e-8).shape[1] == 3
    assert numerical_rank(np.zeros((3, 3))) == 0


def test_rank_cut_is_relative_to_the_largest_value_or_a_floor():
    s = np.array([1e-3, 1e-10, 0.0])
    assert rank_cut(s, 1e-8) == 2
    assert rank_cut(s, 1e-8, scale=1.0) == 1  # 1e-10 is below 1e-8 of the floor
    assert rank_cut(np.zeros(3), 1e-8) == rank_cut(np.zeros(0), 1e-8, scale=1.0) == 0
    A = np.diag([1.0, 1e-6, 1e-10])
    assert numerical_rank(A) == rank_cut(singular_values(A)) == 3 - null_space(A).shape[1] == 2


def test_null_space_is_orthonormal_and_annihilated():
    rng = seeded_rng(2)
    A = random_complex(rng, 3, 6)  # rank 3, nullity 3
    N = null_space(A)
    assert N.shape == (6, 3)
    assert np.allclose(N.conj().T @ N, np.eye(3), atol=1e-12)
    assert np.linalg.norm(A @ N) < 1e-12 * np.linalg.norm(A)


def test_singular_values_sorted_and_consistent():
    rng = seeded_rng(3)
    A = random_complex(rng, 4, 7)
    s = singular_values(A)
    assert np.all(np.diff(s) <= 0)
    assert np.allclose(s, np.linalg.svd(A, compute_uv=False))
    assert singular_values(np.zeros((0, 3))).size == 0


def test_lstsq_minimum_norm_solution():
    rng = seeded_rng(4)
    A = random_complex(rng, 3, 5)
    b = random_complex(rng, 3)
    x = lstsq(A, b)
    assert np.linalg.norm(A @ x - b) < 1e-10
    # minimum-norm: x lies in the row space of A
    N = null_space(A)
    assert np.linalg.norm(N.conj().T @ x) < 1e-10


@pytest.mark.parametrize("m, n, rank", [(4, 4, 4), (6, 3, 3), (3, 6, 3), (5, 5, 3), (6, 3, 2),
                                         (3, 6, 1), (1, 4, 1), (4, 1, 1)],
                         ids=["square", "tall", "wide", "square-deficient", "tall-deficient",
                              "wide-deficient", "one-row", "one-column"])
def test_stacked_lstsq_is_scipy_gelsd_per_matrix_bitwise(m, n, rank):
    rng = seeded_rng(5, m, n, rank)
    A = random_complex(rng, 7, m, rank) @ random_complex(rng, 7, rank, n)
    b = random_complex(rng, 7, m)
    x = lstsq(A, b)
    assert x.shape == (7, n)
    for k in range(7):
        expected = scipy.linalg.lstsq(A[k], b[k], check_finite=False, lapack_driver="gelsd")[0]
        assert x[k].tobytes() == expected.tobytes() == lstsq(A[k], b[k]).tobytes()
    assert lstsq(A[:0], b[:0]).shape == (0, n)
    with pytest.raises(ValueError, match="right-hand side"):
        lstsq(A, b[0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_rank_plus_nullity_is_column_count(seed, n):
    rng = seeded_rng(seed)
    m = int(rng.integers(1, 7))
    A = random_complex(rng, m, n)
    assert numerical_rank(A) + null_space(A).shape[1] == n
