import math

import numpy as np
import pytest

from sumhess import _kernels, lift, symfun
from oracles import deleted_sym_enum, elem_sym_enum, matrix_sym_minors, mixed_sym_enum


def test_elem_sym_basics():
    assert _kernels.elem_sym_all(np.array([1.0, 1.0, 1.0]), 2)[2] == pytest.approx(3.0)
    assert _kernels.elem_sym_all(np.array([1.0, 2.0, 3.0]), 0)[0] == 1.0
    assert _kernels.elem_sym_all(np.array([1.0, 2.0, 3.0]), 2)[2] == pytest.approx(11.0)


def test_elem_sym_matches_enumeration():
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        for _ in range(20):
            lam = rng.normal(0.0, 2.0, size=n)
            fast = _kernels.elem_sym_all(lam, n)
            for k in range(n + 1):
                slow = elem_sym_enum(lam, k)
                assert fast[k] == pytest.approx(slow, rel=1e-12, abs=1e-12)


def test_deleted_sym_examples():
    assert _kernels.deleted_sym(np.array([1.0, 2.0, 3.0]), 2)[0] == pytest.approx(6.0)
    assert _kernels.deleted_sym(np.array([5.0]), 1)[0] == 0.0


def test_split_identity():
    # S_k = S_k(.|i) + lam_i * S_{k-1}(.|i) for every entry
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        lam = rng.normal(0.0, 1.5, size=n)
        k = int(rng.integers(1, n + 1))
        sk = _kernels.elem_sym_all(lam, k)[k]
        dk = _kernels.deleted_sym(lam, k)
        dkm1 = _kernels.deleted_sym(lam, k - 1)
        for i in range(n):
            assert dk[i] == pytest.approx(deleted_sym_enum(lam, k, i), rel=1e-12, abs=1e-12)
            lhs = dk[i] + lam[i] * dkm1[i]
            assert lhs == pytest.approx(sk, rel=1e-12, abs=1e-12)


def test_weighted_and_plain_sums():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        lam = rng.normal(0.0, 1.5, size=n)
        k = int(rng.integers(1, n + 1))
        sk = _kernels.elem_sym_all(lam, k)[k]
        dkm1 = _kernels.deleted_sym(lam, k - 1)
        dk = _kernels.deleted_sym(lam, k)
        assert float((lam * dkm1).sum()) == pytest.approx(k * sk, rel=1e-11, abs=1e-11)
        assert float(dk.sum()) == pytest.approx((n - k) * sk, rel=1e-11, abs=1e-11)


def test_newton_transform_examples():
    T = symfun.newton_transform(np.diag([1.0, 2.0, 3.0]), 2)
    assert np.allclose(T, np.diag([5.0, 4.0, 3.0]))
    for n, k in [(4, 1), (4, 2), (5, 3)]:
        T = symfun.newton_transform(np.eye(n), k)
        assert np.allclose(T, math.comb(n - 1, k - 1) * np.eye(n))


def test_newton_transform_is_gradient():
    rng = np.random.default_rng(17)
    W = symfun.symmetrize(rng.normal(0.0, 1.0, size=(5, 5)))
    for k in range(1, 6):
        T = symfun.newton_transform(W, k)
        step = 1e-6
        for i in range(5):
            for j in range(i, 5):
                E = np.zeros((5, 5))
                E[i, j] = E[j, i] = 1.0
                fd = (
                    symfun.matrix_sym(W + step * E, k)
                    - symfun.matrix_sym(W - step * E, k)
                ) / (2 * step)
                expected = 2 * T[i, j] if i != j else T[i, i]
                assert fd == pytest.approx(expected, rel=1e-6, abs=1e-6)


def test_newton_transform_trace_and_euler():
    rng = np.random.default_rng(19)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        W = symfun.symmetrize(rng.normal(0.0, 1.0, size=(n, n)))
        for k in range(1, n + 1):
            T = symfun.newton_transform(W, k)
            skm1 = symfun.matrix_sym(W, k - 1)
            sk = symfun.matrix_sym(W, k)
            assert np.trace(T) == pytest.approx((n - k + 1) * skm1, rel=1e-10, abs=1e-10)
            assert float((T * W).sum()) == pytest.approx(k * sk, rel=1e-10, abs=1e-10)


def test_mixed_sym_edges():
    rng = np.random.default_rng(23)
    A = symfun.symmetrize(rng.normal(size=(4, 4)))
    Z = np.zeros((4, 4))
    for k in range(1, 5):
        mixed = symfun.mixed_sym_all(A, Z, k)
        for l in range(1, k + 1):
            assert mixed[l] == pytest.approx(0.0, abs=1e-10)
        assert mixed[0] == pytest.approx(symfun.matrix_sym(A, k), rel=1e-10, abs=1e-10)
    with pytest.raises(ValueError):
        symfun.mixed_sym_all(A, np.zeros((3, 3)), 2)


def test_mixed_sym_against_direct_contraction():
    rng = np.random.default_rng(29)
    for n in (3, 4):
        for _ in range(10):
            A = symfun.symmetrize(rng.normal(size=(n, n)))
            B = symfun.symmetrize(rng.normal(size=(n, n)))
            for k in range(1, n + 1):
                mixed = symfun.mixed_sym_all(A, B, k)
                for l in range(k + 1):
                    direct = mixed_sym_enum(A, B, k, l)
                    assert mixed[l] == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_mixed_sym_binomial_decomposition():
    rng = np.random.default_rng(31)
    for n in (4, 6):
        for _ in range(10):
            A = symfun.symmetrize(rng.normal(size=(n, n)))
            B = symfun.symmetrize(rng.normal(size=(n, n)))
            for k in range(1, n + 1):
                mixed = symfun.mixed_sym_all(A, B, k)
                total = sum(math.comb(k, i) * mixed[i] for i in range(k + 1))
                assert total == pytest.approx(
                    symfun.matrix_sym(A + B, k), rel=1e-9, abs=1e-9
                )


def test_matrix_sym_is_minor_sum():
    rng = np.random.default_rng(37)
    M = symfun.symmetrize(rng.normal(size=(5, 5)))
    for k in range(6):
        assert symfun.matrix_sym(M, k) == pytest.approx(
            matrix_sym_minors(M, k), rel=1e-9, abs=1e-9
        )
    for k in (-1, 6):
        with pytest.raises(ValueError, match="out of range 0..5"):
            symfun.matrix_sym(M, k)


def test_in_cone():
    # cone membership of a spectrum: the margin of its 1-sums
    def margin(values, k):
        return float(_kernels.cone_margin(lift.msum_sym(np.array(values), 1, k), k))

    assert margin([1.0, 1.0, 1.0], 3) == pytest.approx(1.0)
    assert margin([2.0, 0.0, 0.0], 2) == 0.0
    assert margin([3.0, 1.0, -1.0], 2) < 0  # S_2 = -1
    assert margin([3.0, 1.0, -1.0], 1) > 0


def test_symmetry_validation():
    M = np.array([[1.0, 2.0], [2.0000001, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        symfun.as_symmetric(M)
    # NaN != NaN: a symmetric NaN matrix is reported as non-finite
    with pytest.raises(ValueError, match="entries must be finite"):
        symfun.as_symmetric(np.full((2, 2), np.nan))
