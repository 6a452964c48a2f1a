"""Hot numeric kernels, batched over sample/node axes.

Every kernel works on the last axis of its first argument and treats any
leading axes as the batch: a ``(N, C)`` input gives ``N`` rows back, a 1-D
input gives one row.

Inputs become float arrays: float64, or the input's own dtype when it is
wider (``np.longdouble`` on platforms with extended precision), so a wider
state keeps its digits through every kernel.
"""

import numpy as np


def as_float(x):
    """``x`` as a float64 array, or in its own dtype when that is wider."""
    x = np.asarray(x)
    return x.astype(np.longdouble if x.dtype == np.longdouble else np.float64, copy=False)


def elem_sym_all(lams, kmax):
    """All elementary symmetric values S_0..S_kmax of each row of ``lams``.

    Uses the coefficient recurrence of prod_i (x + lam_i); O(C*kmax) per row,
    never subset enumeration.
    """
    lams = as_float(lams)
    e = np.zeros(lams.shape[:-1] + (kmax + 1,), dtype=lams.dtype)
    e[..., 0] = 1.0
    for i in range(lams.shape[-1]):
        col = lams[..., i]
        for j in range(min(i + 1, kmax), 0, -1):
            e[..., j] += col * e[..., j - 1]
    return e


def cone_margin(s, k):
    """Cone margin min(S_1..S_k) of each row of an ``elem_sym_all`` table.

    A row is k-admissible when its margin is > 0; a NaN entry gives a NaN
    margin, which fails that test.
    """
    return s[..., 1 : k + 1].min(axis=-1)


def deleted_sym(lams, degree):
    """S_degree(lam | i) for every entry i of every row, via prefix/suffix
    coefficient tables (no subtraction of the deleted entry)."""
    lams = as_float(lams)
    batch, size = lams.shape[:-1], lams.shape[-1]
    kk = degree + 1
    pre = np.zeros((size + 1,) + batch + (kk,), dtype=lams.dtype)
    suf = np.zeros((size + 2,) + batch + (kk,), dtype=lams.dtype)
    pre[0, ..., 0] = 1.0
    suf[size + 1, ..., 0] = 1.0
    for i in range(1, size + 1):
        col = lams[..., i - 1, None]
        pre[i] = pre[i - 1]
        pre[i, ..., 1:] += col * pre[i - 1, ..., :-1]
    for i in range(size, 0, -1):
        col = lams[..., i - 1, None]
        suf[i] = suf[i + 1]
        suf[i, ..., 1:] += col * suf[i + 1, ..., :-1]
    out = np.zeros(batch + (size,), dtype=lams.dtype)
    for i in range(1, size + 1):
        acc = np.zeros(batch, dtype=lams.dtype)
        for p in range(kk):
            acc += pre[i - 1, ..., p] * suf[i + 1, ..., degree - p]
        out[..., i - 1] = acc
    return out


def subset_sums(mu, idx):
    """Row-wise sums mu[tuple] over the index table ``idx`` of shape (C, m)."""
    mu = as_float(mu)
    return mu[..., idx].sum(axis=-1)


def fold_tuple_gradient(grads, idx, n):
    """out[..., i] = sum of grads[..., A] over tuples A containing position i."""
    grads = as_float(grads)
    out = np.zeros(grads.shape[:-1] + (n,), dtype=grads.dtype)
    for a in range(idx.shape[0]):
        out[..., idx[a]] += grads[..., a, None]
    return out
