from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqbundle import (
    DegeneracyError,
    InputError,
    eigen_dense,
    kernel_basis,
    numeric_rank,
    solve_least_squares,
)
from eqbundle import linalg
from eqbundle.linalg import EPS, RankReport, _solve_rows, rank_and_subspaces, rank_cutoff

from conftest import count_calls


def augmented(A, b):
    """The stack [A | b] (B, p, q + 1) that _solve_rows and _qr_rows take,
    from A (B, p, q) and b (B, p)."""
    return np.concatenate([A, b[:, :, None]], axis=2)


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


def test_rank_near_the_float_limit():
    # max(shape) * sigma_max overflows here, and the cutoff itself does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = numeric_rank(np.eye(3) * 1e308)
    assert report.rank == 3 and report.tol == 3 * EPS * 1e308


def test_cutoff_is_the_old_product_bit_for_bit():
    # eps is a power of two, so scaling by it commutes with the rounding of
    # max(shape) * sigma_max wherever that product is finite and normal
    sigma = np.geomspace(1e-250, 1e300, 20001)
    for size in (1, 2, 3, 8, 9, 20, 21):
        old = size * sigma * EPS
        assert rank_cutoff((size, 1), sigma, None).tobytes() == old.tobytes()
        assert rank_cutoff((1, size), float(sigma[-1]), None) == old[-1]


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


@pytest.mark.parametrize(
    "shape, rank_tol",
    [
        pytest.param((7, 5, 3), None, id="None"),
        pytest.param((7, 5, 3), 1e-3, id="0.001"),
        pytest.param((41, 21, 20), None, id="qr-None"),
        pytest.param((41, 21, 20), 1e-3, id="qr-0.001"),
    ],
)
def test_stacked_solve_is_the_lone_solve_row_by_row(shape, rank_tol):
    # bitwise, with each failing row's lone error: a non-finite A, a
    # non-finite b, rank-deficient rows; a row already failed is skipped.
    # Both stacks take the one QR route.  The repeated columns and the
    # 20-column stack's zero column, an exactly singular R, fail the
    # certificate and go to the SVD, which must not end the other rows'
    # solves.
    if shape == (7, 5, 3):
        rng = np.random.default_rng(7)
        A, b = rng.standard_normal(shape), rng.standard_normal(shape[:2])
        A[1, 2, 0] = np.nan
        b[3, 4] = np.inf
        A[4, :, 2] = A[4, :, 0]
        nan_A, inf_b, rank_deficient, skipped = 1, 3, [4], 5
    else:
        rng = np.random.default_rng(11)
        A, b = rng.standard_normal(shape), rng.standard_normal(shape[:2])
        A[2, 5, 7] = np.nan
        b[30, 0] = -np.inf
        A[3, :, 19] = A[3, :, 4]
        A[38, :, 0] = 0.0
        nan_A, inf_b, rank_deficient, skipped = 2, 30, [3, 38], 17
    errors = {skipped: "skipped"}
    x, deficient = _solve_rows(augmented(A, b), rank_tol, errors)
    failed = {nan_A, inf_b, skipped, *rank_deficient}
    assert np.isnan(x[sorted(failed)]).all()
    assert errors.pop(skipped) == "skipped"
    assert {row: str(err) for row, err in errors.items()} == {
        nan_A: "A must be an array of finite numbers",
        inf_b: "b must be an array of finite numbers",
    }
    for row in set(range(len(A))) - failed:
        assert x[row].tobytes() == solve_least_squares(A[row], b[row], rank_tol).tobytes()
    assert list(deficient) == rank_deficient
    for row in rank_deficient:
        with pytest.raises(DegeneracyError) as lone:
            solve_least_squares(A[row], b[row], rank_tol)
        assert str(deficient[row]) == str(lone.value)
        assert deficient[row].report == lone.value.report


@pytest.mark.parametrize("rank_tol", [None, 1e-3])
def test_a_small_stack_tests_finiteness_as_each_row_alone(rank_tol):
    # a stack of the Python form (count * (q + 2) <= _PYTHON_ROWS) fails
    # its non-finite rows with the errors of a lone solve.  Each case
    # plants its entries in a finite stack: an inf in b alone, a NaN in A
    # after finite entries, both in one row (A is named), a row already
    # failed (skipped), and none
    cases = [
        ([], [(2, 0, np.inf)], {}, {2: "b"}),
        ([(1, 2, 1, np.nan)], [], {}, {1: "A"}),
        ([(3, 0, 1, -np.inf)], [(3, 1, np.nan)], {}, {3: "A"}),
        ([(4, 1, 1, np.nan)], [], {4: "skipped"}, {}),
        ([], [], {}, {}),
    ]
    for in_A, in_b, errors, expected in cases:
        rng = np.random.default_rng(5)
        A, b = rng.standard_normal((6, 3, 2)), rng.standard_normal((6, 3))
        assert len(A) * (A.shape[2] + 2) <= linalg._PYTHON_ROWS
        for row, i, j, value in in_A:
            A[row, i, j] = value
        for row, i, value in in_b:
            b[row, i] = value
        skipped = set(errors)
        x, deficient = _solve_rows(augmented(A, b), rank_tol, errors)
        assert deficient == {}
        assert {row: str(err) for row, err in errors.items() if row not in skipped} == {
            row: f"{name} must be an array of finite numbers" for row, name in expected.items()
        }
        failed = set(expected) | skipped
        assert np.isnan(x[sorted(failed)]).all()
        for row in set(range(len(A))) - failed:
            assert x[row].tobytes() == solve_least_squares(A[row], b[row], rank_tol).tobytes()


@settings(settings.get_profile("derandomized"), max_examples=40)
@given(
    q=st.sampled_from([1, 2, 3, 5, 7, 8, 10, 20]),
    extra=st.sampled_from([1, 2]),
    rank_tol=st.sampled_from([None, 1e-6]),
    offset=st.floats(0.0, 0.25),
    seed=st.integers(0, 2**32 - 1),
)
def test_qr_certificate_clears_only_full_rank_rows(q, extra, rank_tol, offset, seed):
    # A = U diag(s) V^T, one row per least singular value swept from 1e-3
    # to 1e3 times the SVD rule's cutoff.  A row the certificate clears is
    # full rank under that rule, and clears only with a margin of 2 over
    # the bound; every other row takes the SVD route and, when deficient,
    # fails with the error and RankReport of that route.
    rng = np.random.default_rng(seed)
    p = q + extra
    s = np.sort(rng.uniform(0.5, 2.0, q))[::-1]
    cutoff = max(p, q) * s[0] * linalg.EPS if rank_tol is None else rank_tol
    exponents = np.linspace(-3.0, 3.0, 25) + offset
    A = np.empty((len(exponents), p, q))
    for row, exponent in enumerate(exponents):
        U = np.linalg.qr(rng.standard_normal((p, q)))[0]
        V = np.linalg.qr(rng.standard_normal((q, q)))[0]
        A[row] = (U * np.append(s[:-1], cutoff * 10.0**exponent)) @ V.T
    b = rng.standard_normal((len(A), p))

    x, certified = linalg._qr_rows(augmented(A, b), rank_tol)
    x_stack, deficient = _solve_rows(augmented(A, b), rank_tol, {})
    for row in range(len(A)):
        values = np.linalg.svd(A[row], full_matrices=False)[1]
        tol = max(p, q) * values[0] * linalg.EPS if rank_tol is None else rank_tol
        rank = int(np.count_nonzero(values > tol))
        norm = np.linalg.norm(A[row])
        bound = (max(p, q) * norm * linalg.EPS if rank_tol is None else rank_tol)
        bound += p * q * linalg.EPS * norm
        if certified[row]:
            assert rank == q
            assert values[-1] > 1.9 * bound
        if rank == q:
            lone = solve_least_squares(A[row], b[row], rank_tol)
            assert x_stack[row].tobytes() == lone.tobytes()
            assert row not in deficient
            continue
        assert np.isnan(x_stack[row]).all()
        report = RankReport(rank, tuple(float(v) for v in values), float(tol))
        assert deficient[row].report == report
        assert str(deficient[row]) == (
            f"least squares matrix is column rank deficient (rank {rank} < {q})"
        )
        with pytest.raises(DegeneracyError) as lone:
            solve_least_squares(A[row], b[row], rank_tol)
        assert lone.value.report == report and str(lone.value) == str(deficient[row])


# b[0] of a row whose R gets a NaN or an inf planted after the QR
PLANT_NAN, PLANT_INF = 1234.5, 5432.1


def planting_qr(real):
    """np.linalg.qr, but in the raw output of a row of [A | b] whose b[0] is
    PLANT_NAN the last r_ii is NaN, and where it is PLANT_INF r_0,q-1 (the
    diagonal when q = 1) is inf."""

    def qr(M, mode):
        h, tau = real(M, mode=mode)
        q = M.shape[-1] - 1
        h[M[:, 0, q] == PLANT_NAN, q - 1, q - 1] = np.nan
        h[M[:, 0, q] == PLANT_INF, q - 1, 0] = np.inf
        return h, tau

    return qr


def qr_rows_in(form: str, A, b, rank_tol):
    """_qr_rows with the back substitution forced into one form."""
    size = 0 if form == "numpy" else 10**9
    with mock.patch.object(linalg, "_PYTHON_ROWS", size):
        return linalg._qr_rows(augmented(A, b), rank_tol)


@settings(settings.get_profile("derandomized"), max_examples=60)
@given(
    q=st.integers(1, 20),
    extra=st.integers(0, 2),
    count=st.integers(2, 5),
    rank_tol=st.sampled_from([None, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_route_gives_a_row_the_same_bits_alone_stacked_and_in_either_form(
    q, extra, count, rank_tol, seed
):
    # x and the certificate of each row are the same bits solved alone and
    # in a stack, in Python floats and in numpy ufuncs.  Among the rows:
    # a zero column, a 1e-200 scale, a repeated column, a column whose norm
    # overflows, and a planted NaN r_ii and inf in R.  Those the
    # certificate refuses, and _solve_rows gives every row its lone solve.
    rng = np.random.default_rng(seed)
    p = q + extra
    A, b = rng.standard_normal((count + 6, p, q)), rng.standard_normal((count + 6, p))
    A[count, :, 0] = 0.0
    A[count + 1] *= 1e-200
    A[count + 2, :, -1] = A[count + 2, :, 0]
    A[count + 3, :, 0] = 1.5e308
    b[count + 4, 0], b[count + 5, 0] = PLANT_NAN, PLANT_INF
    # a lone 1.5e308 is a full-rank 1 x 1 matrix; a longer column overflows
    refused = [count, count + 1, count + 4, count + 5] + [count + 3] * (p > 1)
    refused += [count + 2] * (q > 1)
    with mock.patch.object(linalg.np.linalg, "qr", planting_qr(np.linalg.qr)):
        forms = {form: qr_rows_in(form, A, b, rank_tol) for form in ("numpy", "python")}
        alone = {
            form: [qr_rows_in(form, A[i:i + 1], b[i:i + 1], rank_tol) for i in range(len(A))]
            for form in ("numpy", "python")
        }
        x, deficient = _solve_rows(augmented(A, b), rank_tol, {})
        for row in range(len(A)):
            try:
                lone = solve_least_squares(A[row], b[row], rank_tol)
            except DegeneracyError as err:
                assert str(deficient.pop(row)) == str(err)
                assert np.isnan(x[row]).all()
            else:
                assert x[row].tobytes() == lone.tobytes()
    assert not deficient
    certified = forms["numpy"][1]
    assert not certified[refused].any()
    for form in ("numpy", "python"):
        assert forms[form][1].tolist() == certified.tolist()
        assert [row[1][0] for row in alone[form]] == certified.tolist()
        for row in np.flatnonzero(certified):
            assert forms[form][0][row].tobytes() == forms["numpy"][0][row].tobytes()
            assert alone[form][row][0][0].tobytes() == forms["numpy"][0][row].tobytes()


def test_failed_wide_stack_makes_no_lapack_call(monkeypatch):
    # every row of a 10-column stack is skipped or not finite, so neither
    # route has a row to factor
    rng = np.random.default_rng(5)
    A, b = rng.standard_normal((4, 11, 10)), rng.standard_normal((4, 11))
    A[0, 3, 3], b[1, 0], A[2, 0, 9] = np.nan, np.inf, -np.inf
    calls = [count_calls(monkeypatch, name, linalg.np.linalg) for name in ("qr", "inv", "svd")]
    errors = {3: "skipped"}
    x, deficient = _solve_rows(augmented(A, b), None, errors)
    assert calls == [[], [], []] and deficient == {}
    assert x.shape == (4, 10) and np.isnan(x).all()
    assert sorted(errors) == [0, 1, 2, 3]


def test_a_qr_route_stack_makes_one_qr_call_and_no_inverse(monkeypatch):
    # one raw-mode QR of the whole stack, then back substitution: LAPACK
    # forms no inverse and solves no general system
    rng = np.random.default_rng(29)
    A, b = rng.standard_normal((50, 21, 20)), rng.standard_normal((50, 21))
    names = ("qr", "inv", "solve", "svd")
    calls = [count_calls(monkeypatch, name, linalg.np.linalg) for name in names]
    x, deficient = _solve_rows(augmented(A, b), None, {})
    assert [len(call) for call in calls] == [1, 0, 0, 0] and deficient == {}
    for row in range(len(A)):
        reference = np.linalg.lstsq(A[row], b[row], rcond=None)[0]
        assert np.allclose(x[row], reference, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("q, certified", [(20, True), (40, False)])
def test_comparison_bound_clears_a_unit_triangle_up_to_its_slack(monkeypatch, q, certified):
    # A = Q triu(ones) has R = +-triu(ones): its least singular value is
    # above 0.5, since ||R^-1||_2 <= 2, but y = M(R)^-1 e reaches 2^(q-1).
    # At q = 20 the certificate clears the row all the same; at q = 40 it
    # hands it to the SVD, which finds it full rank, and x is still the
    # lone solve's bits.
    rng = np.random.default_rng(23)
    p = q + 1
    A = (np.linalg.qr(rng.standard_normal((p, q)))[0] @ np.triu(np.ones((q, q))))[None]
    b = rng.standard_normal((1, p))
    assert np.linalg.svd(A[0], compute_uv=False)[-1] > 0.5
    assert linalg._qr_rows(augmented(A, b), None)[1].tolist() == [certified]
    svds = count_calls(monkeypatch, "svd", linalg.np.linalg)
    x, deficient = _solve_rows(augmented(A, b), None, {})
    assert deficient == {} and len(svds) == (0 if certified else 1)
    assert x[0].tobytes() == solve_least_squares(A[0], b[0]).tobytes()
    assert np.allclose(x[0], np.linalg.lstsq(A[0], b[0])[0], rtol=1e-12, atol=1e-12)


def test_the_qr_route_rules_at_their_bounds(monkeypatch):
    # count * (q + 2) <= 30 rows take the Python form, one certificate
    # scale a row; one more row takes the ufunc form, one for the stack
    scales = count_calls(monkeypatch, "_certificate_scale", linalg)
    system = augmented(np.broadcast_to(np.eye(4), (6, 4, 4)), np.ones((6, 4)))
    linalg._qr_rows(system[:5], None)
    assert len(scales) == 5
    linalg._qr_rows(system, None)
    assert len(scales) == 6
    # a row whose largest |a_ij| is 1e-150 is not certified, in either form
    for count in (1, 6):
        assert not linalg._qr_rows(1e-150 * system[:count], None)[1].any()
        assert linalg._qr_rows(2e-150 * system[:count], None)[1].all()
    # nor one where c y_i = 1: A = [1] has y = 1, and rank_tol 0.5 - eps
    # makes c = 2 (0.5 - eps + eps) = 1
    for count in (1, 11):
        one = augmented(np.ones((count, 1, 1)), np.ones((count, 1)))
        assert not linalg._qr_rows(one, 0.5 - EPS)[1].any()
        assert linalg._qr_rows(one, 0.25)[1].all()


@pytest.mark.parametrize("scale", [1e-140, 1e-155, 1e-170, 1e-200])
def test_a_tiny_rank_deficient_row_is_not_certified(scale):
    # the squares of ||A||_F underflow below about 1e-154, and a zero bound
    # would clear any R; y alone is not squared, so it stays finite.  The
    # row goes to the SVD, which finds the repeated column.
    rng = np.random.default_rng(1)
    A, b = rng.standard_normal((11, 10)), rng.standard_normal(11)
    A[:, 9] = A[:, 4]
    assert not linalg._qr_rows(augmented(scale * A[None], b[None]), None)[1][0]
    with pytest.raises(DegeneracyError, match=r"rank 9 < 10"):
        solve_least_squares(scale * A, b)


@pytest.mark.parametrize("rank_tol", [None, 1e-3])
def test_qr_route_at_extreme_scales_is_the_lone_solve(rank_tol):
    # rows whose norms overflow, whose R^-1 overflows, and a zero row: the
    # certificate leaves each to the SVD route without a RuntimeWarning,
    # and each row is its lone solve or fails with the lone solve's error
    rng = np.random.default_rng(13)
    base, b = rng.standard_normal((12, 10)), rng.standard_normal(12)
    scales = [1.0, 1e160, 1e300, 1e-160, 1e-300, 0.0]
    A = np.stack([scale * base for scale in scales])
    b = np.stack([b] * len(scales))
    x, deficient = _solve_rows(augmented(A, b), rank_tol, {})
    for row in range(len(A)):
        if row in deficient:
            assert np.isnan(x[row]).all()
            with pytest.raises(DegeneracyError) as lone:
                solve_least_squares(A[row], b[row], rank_tol)
            assert str(deficient[row]) == str(lone.value)
            assert deficient[row].report == lone.value.report
        else:
            lone = solve_least_squares(A[row], b[row], rank_tol)
            assert x[row].tobytes() == lone.tobytes()
    assert 0 not in deficient and len(scales) - 1 in deficient


@pytest.mark.parametrize("rank_tol", [None, 1e-3])
@pytest.mark.parametrize("stack", ["finite", "infinite"])
def test_stack_near_the_float_limit_solves_without_a_warning(stack, rank_tol):
    # the finite stack: a row whose entries sum past the float range and a
    # full-rank row whose max(shape) * sigma_max does; the other stack
    # holds both +inf and -inf.  Each row is its lone solve or fails with
    # the lone solve's error, and no row raises a warning.
    rng = np.random.default_rng(19)
    base, b = rng.standard_normal((9, 8)), rng.standard_normal(9)
    if stack == "finite":
        q = np.linalg.qr(base)[0]        # orthonormal columns
        A = np.stack([base, np.full((9, 8), 1.7e308), 5e307 * q])
    else:
        A = np.stack([base, base, base])
        A[0, 0, 0], A[2, 4, 3] = np.inf, -np.inf
    b = np.stack([b] * len(A))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        errors: dict = {}
        x, deficient = _solve_rows(augmented(A, b), rank_tol, errors)
        for row in range(len(A)):
            failure = errors.get(row) or deficient.get(row)
            if failure is not None:
                assert np.isnan(x[row]).all()
                with pytest.raises(type(failure)) as lone:
                    solve_least_squares(A[row], b[row], rank_tol)
                assert str(lone.value) == str(failure)
                assert getattr(lone.value, "report", None) == getattr(failure, "report", None)
            else:
                lone = solve_least_squares(A[row], b[row], rank_tol)
                assert x[row].tobytes() == lone.tobytes()
    if stack == "finite":
        assert not errors and list(deficient) == [1]
        # the full-rank row is solved: x = q^T b / 5e307
        assert np.allclose(5e307 * x[2], q.T @ b[2], rtol=1e-12, atol=0.0)
    else:
        assert sorted(errors) == [0, 2] and not deficient
        assert str(errors[0]) == "A must be an array of finite numbers"


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
    with pytest.raises(InputError, match="matrix must be square"):
        eigen_dense(np.ones((2, 3)))


def test_a_matrix_has_two_dimensions_or_three_in_a_stack():
    for call in (numeric_rank, kernel_basis):
        with pytest.raises(InputError, match=r"matrix must be 2-dimensional, got shape \(3,\)"):
            call(np.zeros(3))
    with pytest.raises(InputError, match="matrix must be 2- or 3-dimensional"):
        eigen_dense(np.zeros((1, 1, 2, 2)))


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
    with pytest.raises(InputError, match="must be an array of finite numbers"):
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
