import math

import numpy as np
import pytest

from sumhess import lift, symfun
from sumhess.lift import ConeSpec
from oracles import gradient_fd, gradient_via_lift, subset_sums_enum


def rand_sym(rng, n, scale=1.0):
    return symfun.symmetrize(rng.normal(0.0, scale, size=(n, n)))


def test_subset_table_examples():
    t = lift.subset_table(3, 2)
    assert t.tuples.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert t.index_of((0, 1)) == 0
    t = lift.subset_table(4, 2)
    assert t.size == 6
    assert t.tuples[0].tolist() == [0, 1]
    assert t.tuples[-1].tolist() == [2, 3]
    assert lift.subset_table(5, 3).size == 10
    with pytest.raises(ValueError):
        lift.subset_table(4, 5)


def test_cone_spec_validation():
    ConeSpec(4, 2, 6)
    with pytest.raises(ValueError):
        ConeSpec(4, 1, 1)
    with pytest.raises(ValueError):
        ConeSpec(4, 4, 1)
    with pytest.raises(ValueError):
        ConeSpec(4, 2, 7)
    with pytest.raises(ValueError):
        ConeSpec(12, 6, 1)  # binom(12, 6) = 924 > cap


def test_lift_diagonal_examples():
    t = lift.subset_table(3, 2)
    assert np.allclose(lift.lift_hessian(np.eye(3), t), 2.0 * np.eye(3))
    W = lift.lift_hessian(np.diag([1.0, 2.0, 3.0]), t)
    assert np.allclose(W, np.diag([3.0, 4.0, 5.0]))


def test_lift_linearity():
    rng = np.random.default_rng(3)
    t = lift.subset_table(5, 2)
    H1, H2 = rand_sym(rng, 5), rand_sym(rng, 5)
    a, b = 1.7, -0.3
    left = lift.lift_hessian(a * H1 + b * H2, t)
    right = a * lift.lift_hessian(H1, t) + b * lift.lift_hessian(H2, t)
    # off-diagonal entries are single products and match bit-for-bit; the
    # diagonal sums differ only by accumulation order
    assert np.abs(left - right).max() < 1e-14


def test_spectral_lift_small_sample():
    rng = np.random.default_rng(5)
    for n in range(3, 7):
        for m in range(2, n):
            t = lift.subset_table(n, m)
            for _ in range(25):
                H = rand_sym(rng, n)
                W = lift.lift_hessian(H, t)
                direct = np.sort(np.linalg.eigvalsh(W))
                fast = np.sort(lift.sum_spectrum(H, m))
                assert np.abs(direct - fast).max() < 1e-9
                enum = np.sort(subset_sums_enum(np.linalg.eigvalsh(H), m))
                assert np.abs(fast - enum).max() < 1e-9


def test_sum_spectrum_examples():
    assert np.allclose(lift.sum_spectrum(np.zeros((4, 4)), 2), np.zeros(6))
    spec = np.sort(lift.sum_spectrum(np.diag([1.0, 1.0, -1.0]), 2))
    assert np.allclose(spec, [0.0, 0.0, 2.0])


def test_orthogonal_covariance_of_spectrum():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, n))
        H = rand_sym(rng, n)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        s1 = np.sort(lift.sum_spectrum(H, m))
        s2 = np.sort(lift.sum_spectrum(symfun.symmetrize(Q.T @ H @ Q), m))
        assert np.abs(s1 - s2).max() < 1e-9


def test_admissible_examples():
    spec = ConeSpec(3, 2, 2)
    ok, _ = lift.admissible(np.eye(3), spec)
    assert ok
    H = np.diag([1.0, 1.0, -1.0])
    ok, margin = lift.admissible(H, spec)
    assert not ok and margin == pytest.approx(0.0, abs=1e-15)
    ok, margin = lift.admissible(H, ConeSpec(3, 2, 1))
    assert ok and margin == pytest.approx(2.0)


def test_cone_nesting():
    # positive definite implies admissible; admissible implies positive trace
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, n))
        kmax = math.comb(n, m)
        H = rand_sym(rng, n, 0.6) + np.eye(n) * rng.uniform(0.0, 1.5)
        eig = np.linalg.eigvalsh(H)
        ok, _ = lift.admissible(H, ConeSpec(n, m, kmax))
        if eig.min() > 0:
            assert ok
        k = int(rng.integers(1, kmax + 1))
        ok, _ = lift.admissible(H, ConeSpec(n, m, k))
        if ok:
            assert eig.sum() > 0


def test_sk_of_hessian_examples():
    assert lift.sk_of_hessian(np.eye(3), ConeSpec(3, 2, 2)) == pytest.approx(12.0)
    for n, m, k in [(3, 2, 2), (4, 2, 3), (5, 3, 4), (6, 2, 5)]:
        val = lift.sk_of_hessian(np.eye(n), ConeSpec(n, m, k))
        expected = math.comb(math.comb(n, m), k) * float(m) ** k
        assert val == pytest.approx(expected, rel=1e-12)
    assert lift.sk_of_hessian(np.zeros((4, 4)), ConeSpec(4, 2, 3)) == pytest.approx(0.0)


def test_gradient_identity_hessian():
    spec = ConeSpec(3, 2, 2)
    F, trace = lift.gradient(np.eye(3), spec)
    assert np.allclose(F, 8.0 * np.eye(3))
    assert trace == pytest.approx(24.0)
    # homogeneity pairing at the same point
    assert float((F * np.eye(3)).sum()) == pytest.approx(
        spec.k * lift.sk_of_hessian(np.eye(3), spec)
    )


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    for n, m, k in [(3, 2, 2), (4, 2, 2), (4, 2, 3), (5, 3, 3)]:
        spec = ConeSpec(n, m, k)
        for _ in range(5):
            H = rand_sym(rng, n, 0.4) + np.eye(n) * rng.uniform(0.5, 1.2)
            ok, _ = lift.admissible(H, spec)
            assert ok
            F, _ = lift.gradient(H, spec)
            fd = gradient_fd(lambda M: lift.sk_of_hessian(symfun.symmetrize(M), spec), H)
            scale = np.abs(fd).max()
            assert np.abs(F - fd).max() / scale < 1e-6


def test_gradient_routes_agree():
    rng = np.random.default_rng(19)
    for n, m, k in [(3, 2, 2), (4, 2, 3), (5, 2, 4), (5, 3, 2), (6, 3, 5)]:
        spec = ConeSpec(n, m, k)
        for _ in range(10):
            H = rand_sym(rng, n)
            F1, t1 = lift.gradient(H, spec)
            F2, t2 = gradient_via_lift(H, spec)
            scale = max(np.abs(F1).max(), 1.0)
            assert np.abs(F1 - F2).max() / scale < 1e-10
            assert t1 == pytest.approx(t2, rel=1e-10, abs=1e-10)


def test_euler_identity_and_ellipticity():
    rng = np.random.default_rng(23)
    for n, m, k in [(3, 2, 2), (4, 2, 2), (4, 2, 3), (6, 2, 4)]:
        spec = ConeSpec(n, m, k)
        count = 0
        while count < 25:
            H = rand_sym(rng, n, 0.5) + np.eye(n) * rng.uniform(0.2, 1.2)
            ok, _ = lift.admissible(H, spec)
            if not ok:
                continue
            count += 1
            F, _ = lift.gradient(H, spec)
            lhs = float((F * H).sum())
            rhs = k * lift.sk_of_hessian(H, spec)
            assert abs(lhs - rhs) / max(abs(rhs), 1e-30) < 1e-9
            assert np.linalg.eigvalsh(F).min() > 0.0


def test_gradient_trace_is_m_times_deleted_sum():
    # trace of the mapped-down gradient = m * sum of single-deletion values
    # of the lifted spectrum
    rng = np.random.default_rng(31)
    for n, m, k in [(3, 2, 2), (4, 2, 3), (5, 3, 4)]:
        spec = ConeSpec(n, m, k)
        H = rand_sym(rng, n)
        _, trace = lift.gradient(H, spec)
        lam = lift.sum_spectrum(H, m)
        expected = m * float(symfun.deleted_sym_table(lam, k - 1).sum())
        assert trace == pytest.approx(expected, rel=1e-12)


def test_cap_size_lift():
    # the largest supported lifted size: binom(10, 5) = 252
    rng = np.random.default_rng(41)
    spec = ConeSpec(10, 5, 7)
    table = lift.subset_table(10, 5)
    H = rand_sym(rng, 10)
    direct = np.sort(np.linalg.eigvalsh(lift.lift_hessian(H, table)))
    fast = np.sort(lift.sum_spectrum(H, 5))
    assert np.abs(direct - fast).max() < 1e-9
    F1, t1 = lift.gradient(np.eye(10) + 0.1 * H, spec)
    F2, t2 = gradient_via_lift(np.eye(10) + 0.1 * H, spec)
    assert np.abs(F1 - F2).max() / np.abs(F1).max() < 1e-10


def test_gradient_batch_consistency():
    rng = np.random.default_rng(29)
    spec = ConeSpec(4, 2, 3)
    Hs = np.stack([rand_sym(rng, 4) for _ in range(8)])
    Fb, _, tb = lift.gradient_batch(Hs, spec)
    for H, F, t in zip(Hs, Fb, tb):
        F1, t1 = lift.gradient(H, spec)
        assert np.allclose(F, F1, atol=1e-12)
        assert t == pytest.approx(t1)
