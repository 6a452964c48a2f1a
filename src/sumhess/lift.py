"""The m-fold eigenvalue-sum lift of a Hessian.

An n x n symmetric matrix H induces a C x C symmetric matrix (C = binom(n, m))
acting on the m-th exterior power; its eigenvalues are exactly the sums of m
distinct eigenvalues of H. This module builds the lifted matrix explicitly,
computes its spectrum the fast way (diagonalize H once, form subset sums),
tests cone admissibility, and maps gradients of S_k back down to n x n space.
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


def sum_spectrum(hess, m):
    """All m-fold sums of the eigenvalues of a symmetric matrix.

    Equals the spectrum of the lifted matrix as a multiset, at the cost of a
    single n x n eigendecomposition.
    """
    H = symfun.as_symmetric(hess)
    table = subset_table(H.shape[0], m)
    return _kernels.subset_sums(np.linalg.eigvalsh(H), table.tuples)


def sum_spectrum_batch(hessians, m):
    Hs = np.asarray(hessians, dtype=np.float64)
    table = subset_table(Hs.shape[1], m)
    return _kernels.subset_sums(np.linalg.eigvalsh(Hs), table.tuples)


def admissible(hess, spec, slack=0.0):
    """Strict cone membership of the m-sum spectrum; returns (ok, margin)."""
    return symfun.in_cone(sum_spectrum(hess, spec.m), spec.k, slack=slack)


def sk_of_hessian(hess, spec):
    """S_k of the lifted matrix, evaluated through the fast spectrum."""
    return symfun.elem_sym(sum_spectrum(hess, spec.m), spec.k)


def gradient(hess, spec):
    """Gradient of H -> S_k(lift(H)) as a symmetric n x n matrix, plus trace.

    Works in the eigenbasis of H: the diagonal gradient entries are sums of
    single-deletion symmetric values of the m-sum spectrum over the subsets
    containing each eigen-direction, rotated back to ambient coordinates.
    """
    H = symfun.as_symmetric(hess)
    F, fii, trace = gradient_batch(H[None], spec)
    return F[0], float(trace[0])


def gradient_batch(hessians, spec):
    """Batched gradient: returns (F (N,n,n), eigenbasis diagonals (N,n), trace (N,))."""
    Hs = np.asarray(hessians, dtype=np.float64)
    table = subset_table(spec.n, spec.m)
    w, Q = np.linalg.eigh(Hs)
    lam = _kernels.subset_sums(w, table.tuples)
    deleted = _kernels.deleted_sym(lam, spec.k - 1)
    fii = _kernels.fold_tuple_gradient(deleted, table.tuples, spec.n)
    F = np.einsum("sip,sp,sjp->sij", Q, fii, Q)
    F = (F + F.transpose(0, 2, 1)) / 2.0
    return F, fii, fii.sum(axis=1)
