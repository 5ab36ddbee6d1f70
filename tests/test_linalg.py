from __future__ import annotations

import concurrent.futures
import sys
import threading

import numpy as np
import pytest

from eqbundle import (
    DegeneracyError,
    InputError,
    eigen_dense,
    kernel_basis,
    numeric_rank,
    solve_least_squares,
)
from eqbundle import linalg
from eqbundle.linalg import _solve_rows, rank_and_subspaces

from conftest import count_calls

# Jacobian of the example2 vector field at lam=1, x=(1,1,1), written out by hand:
# rows (lam*y, -lam*(z-x), -lam*y), (lam*z-2*lam*x, 0, lam*x), (0, 0, 0).
EX2_JAC = np.array([[1.0, 0.0, -1.0], [-1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])


def test_rank_zero_matrix():
    report = numeric_rank(np.zeros((3, 3)))
    assert report.rank == 0
    assert report.singular_values == (0.0, 0.0, 0.0)


def test_rank_identity():
    report = numeric_rank(np.eye(3))
    assert report.rank == 3
    assert report.tol == pytest.approx(3 * np.finfo(float).eps)


def test_rank_example2_jacobian():
    report = numeric_rank(EX2_JAC)
    assert report.rank == 1


def test_rank_tol_override():
    report = numeric_rank(np.diag([1.0, 1e-9]), tol_override=1e-6)
    assert report.rank == 1
    assert report.tol == 1e-6


def test_rank_rejects_non_finite():
    with pytest.raises(InputError):
        numeric_rank(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_rank_transpose_invariant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p, q = rng.integers(1, 7, size=2)
        r = int(rng.integers(0, min(p, q) + 1))
        M = (rng.standard_normal((p, r)) @ rng.standard_normal((r, q))) if r else np.zeros((p, q))
        assert numeric_rank(M).rank == numeric_rank(M.T).rank == r


def test_lstsq_identity():
    x = solve_least_squares(np.eye(2), np.array([3.0, 4.0]))
    assert np.allclose(x, [3.0, 4.0], atol=1e-14)


def test_lstsq_overdetermined_mean():
    x = solve_least_squares(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
    assert x.shape == (1,)
    assert x[0] == pytest.approx(1.0, abs=1e-14)


def test_lstsq_rank_deficient_raises():
    with pytest.raises(DegeneracyError) as exc:
        solve_least_squares(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0]))
    assert exc.value.report is not None
    assert exc.value.report.rank == 1


@pytest.mark.parametrize(
    "A, rank, values",
    [
        pytest.param([[1.0, 1.0]], 1, (np.sqrt(2.0),), id="1x2"),
        pytest.param([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]], 2, (2.0, 1.0), id="2x3"),
        pytest.param(np.zeros((0, 2)), 0, (), id="0x2"),
    ],
)
def test_lstsq_wide_matrix_is_rank_deficient(A, rank, values):
    # a wide A has fewer singular values than columns: none is cut off,
    # and its column rank is short all the same
    A = np.asarray(A)
    message = rf"column rank deficient \(rank {rank} < {A.shape[1]}\)"
    with pytest.raises(DegeneracyError, match=message) as exc:
        solve_least_squares(A, np.ones(len(A)))
    report = exc.value.report
    assert report.rank == rank
    assert report.singular_values == pytest.approx(values, abs=1e-15)
    assert report.tol == pytest.approx(numeric_rank(A).tol)


def test_lstsq_solves_each_column_of_a_matrix_b():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 3))
    b = rng.standard_normal((6, 4))
    x = solve_least_squares(A, b)
    assert x.shape == (3, 4)
    for j in range(4):
        assert np.allclose(x[:, j], solve_least_squares(A, b[:, j]), rtol=0.0, atol=1e-14)
    assert solve_least_squares(A, b[:, :0]).shape == (3, 0)
    assert solve_least_squares(np.zeros((6, 0)), b).shape == (0, 4)
    # the rank is decided with no right-hand side too
    with pytest.raises(DegeneracyError, match=r"rank 1 < 2"):
        solve_least_squares(np.ones((3, 2)), np.zeros((3, 0)))


@pytest.mark.parametrize(
    "A, b",
    [
        pytest.param(np.eye(2), np.array([1.0, 2.0, 3.0]), id="b-too-long"),
        pytest.param(np.eye(2), np.ones((3, 2)), id="b-2d-too-long"),
        pytest.param(np.eye(1), 3.0, id="b-0d"),
    ],
)
def test_lstsq_shape_mismatch(A, b):
    with pytest.raises(InputError):
        solve_least_squares(A, b)


def test_lstsq_recovers_exact_solution():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rows = int(rng.integers(3, 9))
        cols = int(rng.integers(1, 4))
        A = rng.standard_normal((rows, cols))
        x0 = rng.standard_normal(cols)
        x = solve_least_squares(A, A @ x0)
        assert np.allclose(x, x0, atol=1e-9)


@pytest.mark.parametrize("rank_tol", [None, 1e-3])
def test_stacked_solve_is_the_lone_solve_row_by_row(rank_tol):
    # bitwise, with each failing row's lone error: a non-finite A, a
    # non-finite b, a rank-deficient A; a row already failed is skipped
    rng = np.random.default_rng(7)
    A = rng.standard_normal((7, 5, 3))
    b = rng.standard_normal((7, 5))
    A[1, 2, 0] = np.nan
    b[3, 4] = np.inf
    A[4, :, 2] = A[4, :, 0]
    errors = {5: "skipped"}
    x, deficient = _solve_rows(A, b, rank_tol, errors)
    assert np.isnan(x[[1, 3, 4, 5]]).all()
    assert errors.pop(5) == "skipped"
    assert {row: str(err) for row, err in errors.items()} == {
        1: "A contains non-finite entries", 3: "b contains non-finite entries"
    }
    for row in (0, 2, 6):
        assert x[row].tobytes() == solve_least_squares(A[row], b[row], rank_tol).tobytes()
    with pytest.raises(DegeneracyError) as lone:
        solve_least_squares(A[4], b[4], rank_tol)
    assert list(deficient) == [4]
    assert str(deficient[4]) == str(lone.value)
    assert deficient[4].report == lone.value.report


@pytest.mark.parametrize("cpus", [2, 3])
def test_split_solve_is_the_unsplit_solve_row_by_row(monkeypatch, cpus):
    # a stack past the split's work threshold, with a skipped row, non-finite
    # rows and rank-deficient rows in the first and the last chunk
    rng = np.random.default_rng(11)
    A = rng.standard_normal((41, 21, 20))
    b = rng.standard_normal((41, 21))
    A[2, 5, 7] = np.nan
    b[30, 0] = -np.inf
    A[3, :, 19] = A[3, :, 4]
    A[38, :, 0] = 0.0
    assert len(A) * 21 * 20**2 >= linalg._SPLIT_WORK
    results = {}
    for count in (1, cpus):
        monkeypatch.setattr(linalg, "_usable_cpus", lambda count=count: count)
        svds = count_calls(monkeypatch, "svd", linalg.np.linalg)
        errors = {17: "skipped"}
        results[count] = (_solve_rows(A, b, None, errors), errors)
        monkeypatch.undo()
        assert len(svds) == count
    (x, deficient), errors = results[cpus]
    (x1, deficient1), errors1 = results[1]
    assert x.tobytes() == x1.tobytes()
    assert {row: str(err) for row, err in errors.items()} == {
        row: str(err) for row, err in errors1.items()
    } == {2: "A contains non-finite entries", 30: "b contains non-finite entries", 17: "skipped"}
    assert list(deficient) == list(deficient1) == [3, 38]
    for row in (3, 38):
        assert deficient[row].report == deficient1[row].report
        with pytest.raises(DegeneracyError) as lone:
            solve_least_squares(A[row], b[row])
        assert deficient[row].report == lone.value.report
    for row in set(range(len(A))) - {2, 3, 17, 30, 38}:
        assert x[row].tobytes() == solve_least_squares(A[row], b[row]).tobytes()


def test_concurrent_splits_share_one_pool(monkeypatch):
    # more calling threads than cores, switching often: every call gets
    # the unsplit bits, and the first splits start one pool between them
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 30, 21, 20))
    b = rng.standard_normal((6, 30, 21))
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 1)
    expected = [_solve_rows(A[i], b[i], None, {})[0].tobytes() for i in range(6)]
    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(linalg, "_pool", None)
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 3)
    results = [None] * 6

    def solve(i):
        for _ in range(3):
            results[i] = _solve_rows(A[i], b[i], None, {})[0].tobytes()

    threads = [threading.Thread(target=solve, args=(i,)) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
        for pool in made:
            pool.shutdown()
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected
    assert len(made) == 1


def test_small_stacks_stay_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
    svds = count_calls(monkeypatch, "svd", linalg.np.linalg)
    rng = np.random.default_rng(3)
    _solve_rows(rng.standard_normal((200, 5, 3)), rng.standard_normal((200, 5)), None, {})
    _solve_rows(rng.standard_normal((1, 21, 20)), rng.standard_normal((1, 21)), None, {})
    assert len(svds) == 2


def test_eigen_sorted_real():
    vals = eigen_dense(np.diag([2.0, -1.0]))
    assert np.allclose(vals, [-1.0, 2.0])


def test_eigen_conjugate_pair():
    vals = eigen_dense(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(vals, [-1j, 1j])
    assert vals[0] == np.conj(vals[1])


def test_eigen_example2_jacobian():
    vals = eigen_dense(EX2_JAC)
    assert np.allclose(sorted(vals.real), [0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(vals.imag, 0.0, atol=1e-12)


def test_eigen_requires_square():
    with pytest.raises(InputError):
        eigen_dense(np.ones((2, 3)))


def test_eigen_product_matches_determinant():
    rng = np.random.default_rng(3)
    for _ in range(100):
        M = rng.standard_normal((4, 4))
        det = np.linalg.det(M)
        prod = np.prod(eigen_dense(M))
        assert abs(prod - det) <= 1e-8 * max(1.0, abs(det))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 19, 20])
def test_eigen_stack_rows_equal_each_matrix(n):
    # one eigvals call on a stack gives every matrix's own sorted spectrum,
    # bit for bit: the tracker stacks spectra on that
    rng = np.random.default_rng(n)
    for count in (1, 2, 7):
        stack = rng.standard_normal((count, n, n)) * 10.0 ** rng.integers(-3, 4)
        rows = eigen_dense(stack)
        assert rows.shape == (count, n)
        assert rows.tobytes() == np.array([eigen_dense(M) for M in stack]).tobytes()
    with pytest.raises(InputError, match="square"):
        eigen_dense(np.ones((2, n, n + 1)))
    with pytest.raises(InputError, match="non-finite"):
        eigen_dense(np.full((2, n, n), np.inf))


def test_kernel_and_image_of_example2_jacobian():
    K = kernel_basis(EX2_JAC)
    assert K.shape == (3, 2)
    assert np.allclose(K.T @ K, np.eye(2), atol=1e-12)
    assert np.allclose(EX2_JAC @ K, 0.0, atol=1e-12)
    # kernel is {v1 = v3}: membership of the spanning pair
    for v in (np.array([1.0, 0.0, 1.0]) / np.sqrt(2), np.array([0.0, 1.0, 0.0])):
        assert np.linalg.norm(K @ (K.T @ v) - v) < 1e-12

    I = rank_and_subspaces(EX2_JAC)[2]
    assert I.shape == (3, 1)
    expected = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
    assert abs(abs(I[:, 0] @ expected) - 1.0) < 1e-12


def test_kernel_orthogonality_property():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p, q = rng.integers(2, 7, size=2)
        M = rng.standard_normal((p, q))
        M[:, -1] = M[:, 0]  # force a kernel
        K = kernel_basis(M)
        assert K.shape[1] >= 1
        assert np.allclose(M @ K, 0.0, atol=1e-10)
