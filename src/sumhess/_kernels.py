"""Hot numeric kernels, batched over sample/node axes.

Every kernel works on the last axis of its first argument and treats any
leading axes as the batch: a ``(N, C)`` input gives ``N`` rows back, a 1-D
input gives one row.

Inputs become float arrays: float64, or the input's own dtype when it is
wider (``np.longdouble`` on platforms with extended precision), so a wider
state keeps its digits through every kernel.

``elem_sym_all`` and ``deleted_sym`` store their tables batch-minor, with
the batch axes last, so each recurrence step works on whole contiguous batch
columns: a ``(kmax + 1, *batch)`` table for ``elem_sym_all`` and a
``(C + 1, degree + 1, *batch)`` suffix table for ``deleted_sym``.
``elem_sym_all`` returns its table as a ``(*batch, kmax + 1)`` view whose
columns are contiguous, so a reduction over the last axis, such as
``cone_margin``, runs column by column. ``deleted_sym`` returns a C-order
copy, so a row sum over its last axis keeps numpy's summation order. The
values are those of the row-major recurrences, bit for bit.
"""

import numpy as np


def _batch_last(table):
    """View of a batch-minor table with its leading axis moved last."""
    return table.transpose(*range(1, table.ndim), 0)


def as_float(x):
    """``x`` as a float64 array, or in its own dtype when that is wider."""
    x = np.asarray(x)
    return x.astype(np.longdouble if x.dtype == np.longdouble else np.float64, copy=False)


def elem_sym_all(lams, kmax):
    """All elementary symmetric values S_0..S_kmax of each row of ``lams``.

    Uses the coefficient recurrence of prod_i (x + lam_i); O(C*kmax) per row,
    never subset enumeration. The result is a view of a batch-minor table.
    """
    lams = as_float(lams)
    e = np.zeros((kmax + 1,) + lams.shape[:-1], dtype=lams.dtype)
    e[0] = 1.0
    for i in range(lams.shape[-1]):
        col = lams[..., i]
        for j in range(min(i + 1, kmax), 0, -1):
            e[j] += col * e[j - 1]
    return _batch_last(e)


def cone_margin(s, k):
    """Cone margin min(S_1..S_k) of each row of an ``elem_sym_all`` table.

    A row is k-admissible when its margin is > 0; a NaN entry gives a NaN
    margin, which fails that test.
    """
    return s[..., 1 : k + 1].min(axis=-1)


def deleted_sym(lams, degree):
    """S_degree(lam | i) for every entry i of every row, from a suffix
    coefficient table and a running prefix (no subtraction of the deleted
    entry)."""
    lams = as_float(lams)
    batch, size = lams.shape[:-1], lams.shape[-1]
    cols = np.ascontiguousarray(lams.transpose(-1, *range(lams.ndim - 1)))
    kk = degree + 1
    # suf[i] holds S_0..S_degree of entries i.., pre of the entries before i
    suf = np.zeros((size + 1, kk) + batch, dtype=lams.dtype)
    suf[:, 0] = 1.0
    for i in range(size - 1, -1, -1):
        suf[i, 1:] = suf[i + 1, 1:] + cols[i] * suf[i + 1, :-1]
    pre = np.zeros((kk,) + batch, dtype=lams.dtype)
    pre[0] = 1.0
    out = np.zeros((size,) + batch, dtype=lams.dtype)
    for i in range(size):
        for p in range(kk):
            out[i] += pre[p] * suf[i + 1, degree - p]
        pre[1:] = pre[1:] + cols[i] * pre[:-1]
    return np.ascontiguousarray(_batch_last(out))


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
