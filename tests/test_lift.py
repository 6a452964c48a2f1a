import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sumhess import _kernels, lift, symfun
from sumhess.lift import ConeSpec
from oracles import (
    elem_sym_enum, gradient_fd, gradient_via_lift, index_of, lift_by_minors, lift_hessian,
    sk_of_hessian,
    subset_sums_enum,
)

EPS = np.finfo(np.float64).eps


def rand_sym(rng, n, scale=1.0):
    return symfun.symmetrize(rng.normal(0.0, scale, size=(n, n)))


def test_subset_table_examples():
    t = lift.subset_table(3, 2)
    assert t.tuples.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert index_of(t, (0, 1)) == 0
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
    assert np.allclose(lift_hessian(np.eye(3), t), 2.0 * np.eye(3))
    W = lift_hessian(np.diag([1.0, 2.0, 3.0]), t)
    assert np.allclose(W, np.diag([3.0, 4.0, 5.0]))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_lift_is_the_additive_compound(n):
    # every entry and sign of the closed-form pair table, against the minors
    rng = np.random.default_rng(n)
    for m in range(2, n):
        H = rand_sym(rng, n)
        W = lift_hessian(H, lift.subset_table(n, m))
        assert np.abs(W - lift_by_minors(H, m)).max() < 1e-12


def test_lift_linearity():
    rng = np.random.default_rng(3)
    t = lift.subset_table(5, 2)
    H1, H2 = rand_sym(rng, 5), rand_sym(rng, 5)
    a, b = 1.7, -0.3
    left = lift_hessian(a * H1 + b * H2, t)
    right = a * lift_hessian(H1, t) + b * lift_hessian(H2, t)
    # off-diagonal entries are single products and match bit-for-bit; the
    # diagonal sums differ only by accumulation order
    assert np.abs(left - right).max() < 1e-14


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sym_batch_keeps_nan_rows(k):
    # a NaN Newton trial gives a NaN margin, which fails admissibility,
    # rather than an input-check error; k = 3 takes the eigenvalue route
    Hs = np.stack([np.eye(4), np.full((4, 4), np.nan)])
    s = lift.sym_batch(Hs, ConeSpec(4, 2, k))
    margin = _kernels.cone_margin(s, k)
    assert margin[0] > 0 and np.isnan(margin[1])
    assert s[1, 0] == 1.0 and np.isnan(s[1, 1:]).all()
    assert np.array_equal(s[0], lift.sym_batch(Hs[:1], ConeSpec(4, 2, k))[0])


@pytest.mark.parametrize("k", [2, 3])
def test_gradient_batch_keeps_nan_rows(k):
    Hs = np.stack([np.eye(4), np.full((4, 4), np.nan)])
    F, trace = lift.gradient_batch(Hs, ConeSpec(4, 2, k))
    assert np.isnan(F[1]).all() and np.isnan(trace[1])
    F0, trace0 = lift.gradient_batch(Hs[:1], ConeSpec(4, 2, k))
    assert np.array_equal(F[0], F0[0]) and trace[0] == trace0[0]


@pytest.mark.parametrize("n, m, k", [(3, 2, 1), (3, 2, 2), (4, 2, 2), (6, 3, 2), (10, 5, 2)])
def test_minor_sums_match_eigen_route(n, m, k):
    # both routes err by a few eps times S_j(|lam|) here; the bound is 256 eps
    # of that scale. |F_ab| <= binom(n-1, m-1) S_{k-1}(|lam|): each
    # eigenbasis diagonal entry of F sums that many deleted values
    rng = np.random.default_rng(43)
    spec = ConeSpec(n, m, k)
    Hs = np.stack([rand_sym(rng, n) for _ in range(20)])
    tol = 256 * EPS
    lam = lift.sum_spectrum(Hs, m)
    scale = _kernels.elem_sym_all(np.abs(lam), k)
    s = lift.sym_batch(Hs, spec)
    assert s.shape == (20, k + 1)
    assert np.all(np.abs(s - _kernels.elem_sym_all(lam, k)) <= tol * scale)
    F, trace = lift.gradient_batch(Hs, spec)
    F_eig, trace_eig = lift._gradient_eigen(Hs, spec)
    f_scale = math.comb(n - 1, m - 1) * scale[:, k - 1]
    assert np.all(np.abs(F - F_eig).max(axis=(1, 2)) <= tol * f_scale)
    assert np.all(np.abs(trace - trace_eig) <= n * tol * f_scale)
    assert np.array_equal(F, F.transpose(0, 2, 1))
    # Euler's identity for the degree-k homogeneous S_k: F : H = k S_k,
    # to rounding of the contraction's own terms
    lhs = (F * Hs).sum(axis=(1, 2))
    dot_scale = (np.abs(F) * np.abs(Hs)).sum(axis=(1, 2)) + k * scale[:, k]
    assert np.all(np.abs(lhs - k * s[:, k]) <= tol * dot_scale)


@pytest.mark.parametrize("n, m, k", [(3, 2, 2), (3, 2, 3), (5, 2, 10), (6, 2, 15)])
def test_cancelling_lifted_sums_stay_accurate(n, m, k):
    # diagonal H with m entries near +2^19 and the rest near -2^19: most
    # lifted sums cancel to O(1) beside a few of order 1e6. Power-sum
    # (Faddeev-LeVerrier) forms lose 1e5 to 1e51 eps of S_j(|lam|) here;
    # the result must stay within 256 eps of the exact rational values
    rng = np.random.default_rng(53)
    spec = ConeSpec(n, m, k)
    subsets = list(itertools.combinations(range(n), m))
    ws = np.where(np.arange(n) < m, 2.0**19, -(2.0**19)) + rng.uniform(-1, 1, (4, n))
    Hs = np.stack([np.diag(w) for w in ws])
    s = lift.sym_batch(Hs, spec)
    F, _ = lift.gradient_batch(Hs, spec)
    for w, s_row, F_row in zip(ws, s, F):
        lam = [sum(Fraction(w[i]) for i in sub) for sub in subsets]
        exact = [float(x) for x in _fraction_sym(lam, k)]
        scale = _kernels.elem_sym_all(np.abs(np.array(lam, dtype=float))[None], k)[0]
        assert np.all(np.abs(s_row - exact) <= 256 * EPS * scale)
        fii = [0] * n
        for a, sub in enumerate(subsets):
            deleted = _fraction_sym(lam[:a] + lam[a + 1:], k - 1)[k - 1]
            for i in sub:
                fii[i] += deleted
        f_scale = math.comb(n - 1, m - 1) * scale[k - 1]
        assert np.abs(F_row - np.diag([float(x) for x in fii])).max() <= 256 * EPS * f_scale


def _fraction_sym(values, k):
    """Exact e_0..e_k of a list of Fractions."""
    e = [Fraction(1)] + [Fraction(0)] * k
    for x in values:
        for j in range(k, 0, -1):
            e[j] += x * e[j - 1]
    return e


@pytest.mark.parametrize("k", [2, 3])
def test_empty_batch_shapes(k):
    spec = ConeSpec(4, 2, k)
    H = np.zeros((0, 4, 4))
    assert lift.sym_batch(H, spec).shape == (0, k + 1)
    F, trace = lift.gradient_batch(H, spec)
    assert F.shape == (0, 4, 4) and trace.shape == (0,)


@pytest.mark.parametrize("k", [2, 7])
def test_batches_at_the_size_cap_build_no_lifted_matrices(k):
    # C = 252: one (N, C, C) array of lifted matrices would take 97 MB here;
    # both routes need about 6 MB
    rng = np.random.default_rng(59)
    spec = ConeSpec(10, 5, k)
    Hs = np.stack([rand_sym(rng, 10) for _ in range(200)])
    tracemalloc.start()
    try:
        lift.sym_batch(Hs, spec)
        lift.gradient_batch(Hs, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_spectral_lift_small_sample():
    rng = np.random.default_rng(5)
    for n in range(3, 7):
        for m in range(2, n):
            t = lift.subset_table(n, m)
            for _ in range(25):
                H = rand_sym(rng, n)
                W = lift_hessian(H, t)
                direct = np.sort(np.linalg.eigvalsh(W))
                fast = np.sort(lift.sum_spectrum(H, m))
                assert np.abs(direct - fast).max() < 1e-9
                enum = np.sort(subset_sums_enum(np.linalg.eigvalsh(H), m))
                assert np.abs(fast - enum).max() < 1e-9


@pytest.mark.parametrize("n, m, k", [(3, 2, 2), (4, 2, 3), (5, 3, 4), (6, 2, 5)])
def test_msum_helpers_match_enumeration(n, m, k):
    rng = np.random.default_rng(10 * n + k)
    spectra = rng.normal(0.0, 1.0, size=(6, n))
    s = lift.msum_sym(spectra, m, k)
    weights = lift.msum_weights(spectra, m, k)
    assert s.shape == (6, k + 1) and weights.shape == (6, n)
    step = 1e-6

    def sk(mu):
        return elem_sym_enum(subset_sums_enum(mu, m), k)

    sums_all = lift.msums(spectra, m)
    for row, sums_row, s_row, w_row in zip(spectra, sums_all, s, weights):
        # a 1-D spectrum gives the row of the stack
        assert np.array_equal(lift.msums(row, m), sums_row)
        assert np.array_equal(lift.msum_sym(row, m, k), s_row)
        assert np.array_equal(lift.msum_weights(row, m, k), w_row)
        sums = subset_sums_enum(row, m)
        assert np.allclose(sums_row, sums, rtol=0.0, atol=1e-14)
        expected = [elem_sym_enum(sums, j) for j in range(k + 1)]
        assert s_row == pytest.approx(expected, rel=1e-12, abs=1e-12)
        fd = [(sk(row + step * e) - sk(row - step * e)) / (2.0 * step) for e in np.eye(n)]
        assert w_row == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_msum_helpers_keep_longdouble():
    spectra = np.array([[1.0, 2.0, 3.0, -0.5]], dtype=np.longdouble)
    for out in (lift.msums(spectra, 2), lift.msum_sym(spectra, 2, 3),
                lift.msum_weights(spectra, 2, 3)):
        assert out.dtype == np.longdouble
    assert lift.msum_sym(spectra[0], 2, 3).dtype == np.longdouble


def _two_value_rows(rng, rows, n, dtype):
    """(alpha, beta) rows over e^-7..e^7 with random signs, the first row a
    center row alpha = beta, and the spectra [alpha, beta x (n - 1)]."""
    mag = np.exp(rng.uniform(-7.0, 7.0, size=(2, rows)))
    alpha, beta = mag * rng.choice([-1.0, 1.0], size=(2, rows))
    beta[0] = alpha[0]
    alpha, beta = alpha.astype(dtype), beta.astype(dtype)
    return alpha, beta, np.column_stack([alpha] + [beta] * (n - 1))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize(
    "n, m, k", [(3, 2, 1), (3, 2, 3), (4, 2, 3), (4, 2, 6), (5, 2, 3), (6, 3, 5), (6, 3, 20)],
)
def test_radial_helpers_match_the_msum_helpers(n, m, k, dtype):
    # on spectra [alpha, beta x (n - 1)] the two binomial sums give the
    # table's S_0..S_k and its gradient summed over the beta entries; both
    # routes round, so each is held to 64 eps of the value its terms would
    # have in absolute value
    spec = ConeSpec(n, m, k)
    eps = np.finfo(dtype).eps
    alpha, beta, spectra = _two_value_rows(np.random.default_rng(10 * n + k), 50, n, dtype)
    s = lift.radial_sym(alpha, beta, spec)
    d_alpha, d_beta = lift.radial_weights(alpha, beta, spec)
    assert s.shape == (50, k + 1)
    assert s.dtype == d_alpha.dtype == d_beta.dtype == dtype
    assert np.all(s[:, 0] == 1.0)
    table = lift.msum_sym(spectra, m, k)
    weights = lift.msum_weights(spectra, m, k)
    scale = _kernels.elem_sym_all(np.abs(lift.msums(spectra, m)), k)
    assert np.all(np.abs(s - table) <= 64 * eps * scale)
    p, q = math.comb(n - 1, m - 1), math.comb(n - 1, m)
    g_scale = scale[:, k - 1]
    assert np.all(np.abs(d_alpha - weights[:, 0]) <= 64 * eps * p * g_scale)
    tangential = weights[:, 1:].sum(axis=1)
    assert np.all(np.abs(d_beta - tangential) <= 64 * eps * ((m - 1) * p + m * q) * g_scale)
    # one row of the stack is the same row alone
    assert np.array_equal(lift.radial_sym(alpha[3], beta[3], spec), s[3])


@pytest.mark.parametrize("n, m, k", [(3, 2, 2), (4, 2, 3), (5, 2, 4), (6, 3, 10)])
def test_radial_helpers_against_exact_rationals(n, m, k):
    # float64 rows over e^-7..e^7: against Fraction arithmetic on the exact
    # m-sums a = alpha + (m - 1) beta and b = m beta of the same floats,
    # S_k is within 8 eps of S_k(|a|, |b|) and each partial within 8 eps of
    # its own value at |a|, |b|
    spec = ConeSpec(n, m, k)
    p, q = math.comb(n - 1, m - 1), math.comb(n - 1, m)
    alpha, beta, _ = _two_value_rows(np.random.default_rng(7 * n + k), 40, n, np.float64)
    s = lift.radial_sym(alpha, beta, spec)[:, k]
    d_alpha, d_beta = lift.radial_weights(alpha, beta, spec)

    def sym(a, b, pa, qb, j):
        return _fraction_sym([a] * pa + [b] * qb, j)[j]

    for row in range(alpha.size):
        a = Fraction(alpha[row]) + (m - 1) * Fraction(beta[row])
        b = m * Fraction(beta[row])
        values = {}
        for key, (x, y) in {"signed": (a, b), "abs": (abs(a), abs(b))}.items():
            da = p * sym(x, y, p - 1, q, k - 1)
            db = q * sym(x, y, p, q - 1, k - 1)
            values[key] = (sym(x, y, p, q, k), da, (m - 1) * da + m * db)
        for got, exact, size in zip((s[row], d_alpha[row], d_beta[row]),
                                    values["signed"], values["abs"]):
            assert abs(Fraction(got) - exact) <= 8 * EPS * size, (row, got, exact)


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
    assert sk_of_hessian(np.eye(3), ConeSpec(3, 2, 2)) == pytest.approx(12.0)
    for n, m, k in [(3, 2, 2), (4, 2, 3), (5, 3, 4), (6, 2, 5)]:
        val = sk_of_hessian(np.eye(n), ConeSpec(n, m, k))
        expected = math.comb(math.comb(n, m), k) * float(m) ** k
        assert val == pytest.approx(expected, rel=1e-12)
    assert sk_of_hessian(np.zeros((4, 4)), ConeSpec(4, 2, 3)) == pytest.approx(0.0)


def test_gradient_identity_hessian():
    spec = ConeSpec(3, 2, 2)
    F, trace = lift.gradient(np.eye(3), spec)
    assert np.allclose(F, 8.0 * np.eye(3))
    assert trace == pytest.approx(24.0)
    # homogeneity pairing at the same point
    assert float((F * np.eye(3)).sum()) == pytest.approx(
        spec.k * sk_of_hessian(np.eye(3), spec)
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
            fd = gradient_fd(lambda M: sk_of_hessian(symfun.symmetrize(M), spec), H)
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
            rhs = k * sk_of_hessian(H, spec)
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
        expected = m * float(_kernels.deleted_sym(lam, k - 1).sum())
        assert trace == pytest.approx(expected, rel=1e-12)


def test_cap_size_lift():
    # the largest supported lifted size: binom(10, 5) = 252
    rng = np.random.default_rng(41)
    spec = ConeSpec(10, 5, 7)
    table = lift.subset_table(10, 5)
    H = rand_sym(rng, 10)
    direct = np.sort(np.linalg.eigvalsh(lift_hessian(H, table)))
    fast = np.sort(lift.sum_spectrum(H, 5))
    assert np.abs(direct - fast).max() < 1e-9
    F1, t1 = lift.gradient(np.eye(10) + 0.1 * H, spec)
    F2, t2 = gradient_via_lift(np.eye(10) + 0.1 * H, spec)
    assert np.abs(F1 - F2).max() / np.abs(F1).max() < 1e-10


def test_gradient_batch_consistency():
    rng = np.random.default_rng(29)
    spec = ConeSpec(4, 2, 3)
    Hs = np.stack([rand_sym(rng, 4) for _ in range(8)])
    Fb, tb = lift.gradient_batch(Hs, spec)
    for H, F, t in zip(Hs, Fb, tb):
        F1, t1 = lift.gradient(H, spec)
        assert np.allclose(F, F1, atol=1e-12)
        assert t == pytest.approx(t1)
