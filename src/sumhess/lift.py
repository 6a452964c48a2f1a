"""The m-fold eigenvalue-sum lift of a Hessian.

An n x n symmetric matrix H induces a C x C symmetric matrix (C = binom(n, m))
acting on the m-th exterior power; its eigenvalues are exactly the sums of m
distinct eigenvalues of H. This module builds the lifted matrix explicitly,
computes its spectrum the fast way (diagonalize H once, form subset sums),
tests cone admissibility, and maps gradients of S_k back down to n x n space.
It owns the m-subset table: ``msums``, ``msum_sym`` and ``msum_weights`` give
the m-sums of a stack of spectra, S_0..S_k of them, and the gradient of S_k
with respect to the spectrum, for every other module.
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
    """All size-m subsets of {0..n-1} in lexicographic order, with positions."""

    n: int
    m: int
    tuples: np.ndarray = field(repr=False)  # (C, m) int64
    position: dict = field(repr=False)  # tuple -> 0-based ordinal

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
    position = {tuple(row): a for a, row in enumerate(tuples.tolist())}
    return SubsetTable(n=n, m=m, tuples=tuples, position=position)


@dataclass(frozen=True)
class LiftOperator:
    """Sparse description of the lift: which Hessian entry feeds which
    lifted entry, with the slot-position sign.

    Off-diagonal rule: subsets that differ in exactly one element, say a in
    the row subset (slot i) replaced by b in the column subset (slot j),
    contribute sign (-1)^|i-j| times H[a, b]. Subsets differing in more than
    one element contribute nothing; the diagonal collects the subset's own
    diagonal Hessian entries.
    """

    table: SubsetTable
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)
    src_a: np.ndarray = field(repr=False)
    src_b: np.ndarray = field(repr=False)
    sign: np.ndarray = field(repr=False)


@lru_cache(maxsize=None)
def lift_operator(n, m):
    table = subset_table(n, m)
    tuples = table.tuples
    rows, cols, src_a, src_b, sign = [], [], [], [], []
    for a_idx in range(table.size):
        base = tuples[a_idx]
        base_set = set(base.tolist())
        for slot_i in range(m):
            removed = int(base[slot_i])
            for repl in range(n):
                if repl in base_set:
                    continue
                other = sorted(base_set - {removed} | {repl})
                b_idx = table.position[tuple(other)]
                if b_idx <= a_idx:
                    continue  # store each unordered pair once
                slot_j = other.index(repl)
                rows.append(a_idx)
                cols.append(b_idx)
                src_a.append(removed)
                src_b.append(repl)
                sign.append(-1.0 if (slot_i - slot_j) % 2 else 1.0)
    return LiftOperator(
        table=table,
        rows=np.array(rows, dtype=np.int64),
        cols=np.array(cols, dtype=np.int64),
        src_a=np.array(src_a, dtype=np.int64),
        src_b=np.array(src_b, dtype=np.int64),
        sign=np.array(sign, dtype=np.float64),
    )


def lift_hessian_batch(hessians, table):
    """Lifted matrices for a batch (N, n, n) of symmetric Hessians."""
    Hs = np.asarray(hessians, dtype=np.float64)
    op = lift_operator(table.n, table.m)
    size = table.size
    W = np.zeros((Hs.shape[0], size, size))
    diag = Hs[:, np.arange(table.n), np.arange(table.n)]
    W[:, np.arange(size), np.arange(size)] = diag[:, table.tuples].sum(axis=2)
    vals = op.sign * Hs[:, op.src_a, op.src_b]
    W[:, op.rows, op.cols] = vals
    W[:, op.cols, op.rows] = vals
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
