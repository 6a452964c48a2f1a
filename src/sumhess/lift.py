"""The m-fold eigenvalue-sum lift of a Hessian.

An n x n symmetric matrix H induces a C x C symmetric matrix (C = binom(n, m))
acting on the m-th exterior power; its eigenvalues are exactly the sums of m
distinct eigenvalues of H. This module builds the lifted matrix explicitly,
computes its spectrum the fast way (diagonalize H once, form subset sums),
tests cone admissibility, and maps gradients of S_k back down to n x n space.
It owns the m-subset table: ``msums``, ``msum_sym`` and ``msum_weights`` give
the m-sums of a stack of spectra, S_0..S_k of them, and the gradient of S_k
with respect to the spectrum, for every other module.
A radial Hessian has two eigenvalues, alpha once and beta n - 1 times, so its
m-sums take two values; ``radial_sym`` and ``radial_weights`` give S_0..S_k
and the two partials of S_k from binomial sums over them, without the table.
For k <= 2, batches of S_0..S_k and of the gradient come from the entries of H,
without an eigendecomposition.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _kernels, symfun

#: Largest lifted size binom(n, m) supported by the dense representation.
MAX_LIFT_SIZE = 252


@dataclass(frozen=True)
class ConeSpec:
    """Dimensions of the operator: ambient n, sum order m, degree k."""

    n: int
    m: int
    k: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need n >= 3")
        if not 2 <= self.m <= self.n - 1:
            raise ValueError(f"need 2 <= m <= n-1, got m={self.m}, n={self.n}")
        size = math.comb(self.n, self.m)
        if size > MAX_LIFT_SIZE:
            raise ValueError(f"binom(n, m) = {size} exceeds cap {MAX_LIFT_SIZE}")
        if not 1 <= self.k <= size:
            raise ValueError(f"need 1 <= k <= {size}, got k={self.k}")

    @property
    def size(self):
        return math.comb(self.n, self.m)


@dataclass(frozen=True)
class SubsetTable:
    """All size-m subsets of {0..n-1} in lexicographic order."""

    n: int
    m: int
    tuples: np.ndarray = field(repr=False)  # (C, m) int64

    @property
    def size(self):
        return self.tuples.shape[0]


@lru_cache(maxsize=None)
def subset_table(n, m):
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    if math.comb(n, m) > MAX_LIFT_SIZE:
        raise ValueError(f"binom({n}, {m}) exceeds cap {MAX_LIFT_SIZE}")
    tuples = np.array(list(itertools.combinations(range(n), m)), dtype=np.int64)
    return SubsetTable(n=n, m=m, tuples=tuples)


@lru_cache(maxsize=None)
def _lift_pairs(n, m):
    """The off-diagonal entries of the lift, (A, B, a, b, sign): subsets A < B
    (as positions in ``subset_table(n, m)``) that share m - 1 elements, the
    elements a of A and b of B in which they differ, and the sign
    (-1)^(slot of a in A - slot of b in B) with which H[a, b] enters W[A, B].
    Subsets differing in more than one element contribute nothing."""
    tuples = subset_table(n, m).tuples
    member = np.zeros((len(tuples), n), dtype=np.int64)
    np.put_along_axis(member, tuples, 1, axis=1)
    A, B = np.nonzero(np.triu(member @ member.T == m - 1, 1))
    diff = member[A] - member[B]
    a, b = np.argmax(diff == 1, axis=1), np.argmax(diff == -1, axis=1)
    slot = np.cumsum(member, axis=1)
    sign = np.where((slot[A, a] - slot[B, b]) % 2, -1.0, 1.0)
    return A, B, a, b, sign


def lift_hessian_batch(hessians, table):
    """Lifted matrices for a batch (N, n, n) of symmetric Hessians: the
    diagonal collects each subset's own diagonal Hessian entries, and the
    ``_lift_pairs`` entries are the signed H[a, b]."""
    Hs = np.asarray(hessians, dtype=np.float64)
    A, B, a, b, sign = _lift_pairs(table.n, table.m)
    size = table.size
    W = np.zeros((Hs.shape[0], size, size))
    diag = Hs[:, np.arange(table.n), np.arange(table.n)]
    W[:, np.arange(size), np.arange(size)] = diag[:, table.tuples].sum(axis=2)
    vals = sign * Hs[:, a, b]
    W[:, A, B] = vals
    W[:, B, A] = vals
    return W


def msums(spectra, m):
    """All m-fold sums of each spectrum along the last axis of ``spectra``:
    shape (..., binom(n, m)), in the lexicographic order of the m-subsets."""
    spectra = np.asarray(spectra)
    return _kernels.subset_sums(spectra, subset_table(spectra.shape[-1], m).tuples)


def msum_sym(spectra, m, k):
    """S_0..S_k of the m-sums of each spectrum along the last axis of
    ``spectra``: shape (..., k+1)."""
    return _kernels.elem_sym_all(msums(spectra, m), k)


def msum_weights(spectra, m, k):
    """Gradient of S_k of the m-sums with respect to each spectrum entry,
    shape (..., n): entry i sums the single-deletion values S_{k-1}(lam | A)
    over the m-subsets A that hold i."""
    spectra = np.asarray(spectra)
    n = spectra.shape[-1]
    deleted = _kernels.deleted_sym(msums(spectra, m), k - 1)
    return _kernels.fold_tuple_gradient(deleted, subset_table(n, m).tuples, n)


def _two_value_terms(alpha, beta, spec):
    """The m-sum values of the two-valued spectrum (alpha once, beta n - 1
    times), a = alpha + (m - 1) beta and b = m beta, their multiplicities
    p = binom(n - 1, m - 1) and q = binom(n - 1, m), and the powers
    [1, x, .., x^k] of each by repeated products."""
    alpha, beta = _kernels.as_float(alpha), _kernels.as_float(beta)
    n, m, k = spec.n, spec.m, spec.k
    a, b = alpha + (m - 1) * beta, m * beta
    a_pows, b_pows = [np.ones_like(a), a], [np.ones_like(b), b]
    for _ in range(k - 1):
        a_pows.append(a_pows[-1] * a)
        b_pows.append(b_pows[-1] * b)
    return a_pows, b_pows, math.comb(n - 1, m - 1), math.comb(n - 1, m)


def _two_value_sym(a_pows, b_pows, p, q, j):
    """S_j of a (p times) and b (q times):
    sum_i binom(p, i) binom(q, j - i) a^i b^(j - i)."""
    total = None
    for i in range(max(0, j - q), min(j, p) + 1):
        term = (math.comb(p, i) * math.comb(q, j - i)) * (a_pows[i] * b_pows[j - i])
        total = term if total is None else total + term
    return total


def radial_sym(alpha, beta, spec):
    """S_0..S_k of the m-sum spectrum of Hessians with eigenvalues ``alpha``
    once and ``beta`` n - 1 times, shape (M, k+1) for M-vectors of each, in
    their dtype: the table ``msum_sym`` gives for the spectra
    [alpha, beta, .., beta], as a view of a batch-minor table, whose columns
    are contiguous. The m-sums take two values, a = alpha + (m - 1) beta
    with multiplicity p = binom(n - 1, m - 1) and b = m beta with
    q = binom(n - 1, m), so S_j(a x p, b x q) is a sum of at most j + 1
    terms binom(p, i) binom(q, j - i) a^i b^(j - i), O(k^2) elementwise
    products in all instead of the C = binom(n, m) columns of the table.
    Against an exact rational reference on float64 rows over e^-7..e^7 it
    stayed within 8 eps of S_k(|a|, |b|), the value whose digits a sum of
    positive terms would keep. It forms a^i and b^(j - i) separately, so an
    underflowing power loses its term: for (9, 4, 118) at alpha = 8, beta =
    1e-6 it gives S_118 = 0, ``msum_sym`` 7.5e-275. Radial solves stay near O(1).
    """
    a_pows, b_pows, p, q = _two_value_terms(alpha, beta, spec)
    out = np.empty((spec.k + 1,) + a_pows[0].shape, dtype=a_pows[0].dtype)
    out[0] = 1.0
    for j in range(1, spec.k + 1):
        out[j] = _two_value_sym(a_pows, b_pows, p, q, j)
    return np.moveaxis(out, 0, -1)


def radial_weights(alpha, beta, spec):
    """The partials (dS_k/dalpha, dS_k/dbeta) of ``radial_sym``'s S_k, in the
    dtype of ``alpha`` and ``beta``. Deleting one copy of a or of b gives
    Da = p S_{k-1}(a x (p - 1), b x q) and Db = q S_{k-1}(a x p, b x (q - 1)),
    so dS_k/dalpha = Da and dS_k/dbeta = (m - 1) Da + m Db: the sum of
    ``msum_weights`` over the n - 1 entries beta fills. Where alpha = beta
    (a Hessian that is a multiple of I) S_k's derivative along that multiple
    is their sum."""
    a_pows, b_pows, p, q = _two_value_terms(alpha, beta, spec)
    k, m = spec.k, spec.m
    da = p * _two_value_sym(a_pows, b_pows, p - 1, q, k - 1)
    db = q * _two_value_sym(a_pows, b_pows, p, q - 1, k - 1)
    return da, (m - 1) * da + m * db


def sum_spectrum(hessians, m):
    """All m-fold sums of the eigenvalues of a symmetric matrix, or of each
    matrix in a stack along leading axes.

    Equals the spectrum of the lifted matrix as a multiset, at the cost of a
    single n x n eigendecomposition.
    """
    return msums(np.linalg.eigvalsh(symfun.as_symmetric(hessians)), m)


def admissible(hess, spec):
    """Strict cone membership of the m-sum spectrum; returns (ok, margin)."""
    s = _kernels.elem_sym_all(sum_spectrum(hess, spec.m), spec.k)
    margin = float(_kernels.cone_margin(s, spec.k))
    return margin > 0.0, margin


def _subset_counts(spec):
    """(c1, c2): how many m-subsets of {0..n-1} hold a given index, and a
    given pair of indices."""
    return math.comb(spec.n - 1, spec.m - 1), math.comb(spec.n - 2, spec.m - 2)


def sym_batch(hessians, spec):
    """S_0..S_k of the m-sum spectra of a batch (N, n, n) of symmetric
    Hessians: the (N, k+1) table ``msum_sym`` gives for their eigenvalues.

    For k <= 2 no eigendecomposition is needed: S_j of the lifted matrix W is
    the sum of its principal j-minors. The lifted diagonal holds the m-subset
    sums of diag(H), and each off-diagonal H[i, j] fills c1 - c2 =
    binom(n-2, m-1) entries above W's diagonal (``_subset_counts``), so
    S_1 = e_1(diagonal sums) and
    S_2 = e_2(diagonal sums) - (c1 - c2) sum_{i<j} H[i, j]^2.
    That is O(C + n^2) per matrix. Against a 50-digit reference, for (n, m)
    from (3, 2) to (10, 5) on rotated spectra spread over e^-7..e^7, its
    error relative to S_j(|lam|) stayed within 6 eps, and it was below the
    eigenvalue route's wherever that one lost digits (one lifted eigenvalue
    1e6 times the others: 2e5 against 5e6 eps). Past k = 2 the minors would
    need the Faddeev-LeVerrier recurrence, whose traces cancel: at
    (n, m, k) = (3, 2, 3), on a diagonal H whose lifted sums cancel to O(1)
    beside one of 1e6, it was 1e11 eps off against 1 eps for the eigenvalue
    route, which larger k therefore take. There a Hessian with a non-finite
    entry gives NaN S_1..S_k, as a NaN Hessian does on the minor sums,
    instead of stopping the whole stack.
    """
    Hs = np.asarray(hessians, dtype=np.float64)
    if spec.k > 2:
        # not sum_spectrum: as on the k <= 2 route, input checks are the caller's
        return msum_sym(_eig_finite(np.linalg.eigvalsh, Hs), spec.m, spec.k)
    s = msum_sym(np.diagonal(Hs, axis1=1, axis2=2), spec.m, spec.k)
    if spec.k == 2:
        c1, c2 = _subset_counts(spec)
        rows, cols = np.triu_indices(spec.n, 1)
        off = (Hs[:, rows, cols] * Hs[:, cols, rows]).sum(axis=1)
        s[:, 2] -= (c1 - c2) * off
    return s


def gradient(hess, spec):
    """Gradient of H -> S_k(lift(H)) as a symmetric n x n matrix, plus trace."""
    H = symfun.as_symmetric(hess)
    F, trace = gradient_batch(H[None], spec)
    return F[0], float(trace[0])


def gradient_batch(hessians, spec):
    """Batched gradient of H -> S_k(lift(H)): returns (F (N, n, n), trace (N,)).

    For k <= 2 it differentiates the minor sums of ``sym_batch``:
    dS_1/dH = c1 I and dS_2/dH = (c1^2 - c2) tr H I - (c1 - c2) H. Larger k
    work in the eigenbasis of H: the diagonal gradient entries are sums of
    single-deletion symmetric values of the m-sum spectrum over the subsets
    containing each eigen-direction, rotated back to ambient coordinates.
    There a Hessian with a non-finite entry gives a NaN F and trace, as a
    NaN one does for k = 2.
    """
    Hs = np.asarray(hessians, dtype=np.float64)
    if spec.k > 2:
        return _gradient_eigen(Hs, spec)
    c1, c2 = _subset_counts(spec)
    if spec.k == 1:
        F = np.broadcast_to(c1 * np.eye(spec.n), Hs.shape).copy()
    else:
        tr = np.trace(Hs, axis1=1, axis2=2)
        F = (c1 * c1 - c2) * tr[:, None, None] * np.eye(spec.n)
        F -= (c1 - c2) / 2.0 * (Hs + Hs.transpose(0, 2, 1))
    return F, np.trace(F, axis1=1, axis2=2)


def _gradient_eigen(Hs, spec):
    """``gradient_batch`` through one eigendecomposition of each H."""
    w, Q = _eig_finite(np.linalg.eigh, Hs)
    fii = msum_weights(w, spec.m, spec.k)
    F = np.einsum("sip,sp,sjp->sij", Q, fii, Q)
    F = (F + F.transpose(0, 2, 1)) / 2.0
    return F, fii.sum(axis=1)


def _eig_finite(decompose, Hs):
    """``decompose(Hs)`` (``np.linalg.eigvalsh`` or ``eigh``) of a stack of
    Hessians, with every output of a Hessian that holds a non-finite entry
    set to NaN: LAPACK stops the whole stack on such a matrix."""
    bad = ~np.isfinite(Hs).all(axis=(1, 2))
    if not bad.any():
        return decompose(Hs)
    out = decompose(np.where(bad[:, None, None], 0.0, Hs))
    for part in out if isinstance(out, tuple) else (out,):
        part[bad] = np.nan
    return out
