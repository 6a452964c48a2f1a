"""Elementary symmetric function algebra on real spectra and symmetric matrices.

All spectra are plain 1-D float arrays; matrices are dense symmetric float
arrays. Degrees use the convention S_0 = 1, and S_k = 0 when k exceeds the
number of (nonzero) entries.
"""

import math

import numpy as np

from . import _kernels


def as_spectrum(values):
    """Validate and return a finite 1-D float spectrum (length >= 1)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("spectrum must be a 1-D vector with at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError("spectrum entries must be finite")
    return arr


def as_symmetric(mat):
    """Validate a square matrix, or a stack of them along leading axes, that
    is symmetric exactly as stored."""
    arr = np.asarray(mat, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError("matrix must be square")
    if not np.array_equal(arr, np.swapaxes(arr, -1, -2)):
        raise ValueError("matrix must be symmetric exactly as stored")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def symmetrize(mat):
    """Symmetric part of a matrix, or of each matrix in a stack."""
    arr = np.asarray(mat, dtype=np.float64)
    return (arr + np.swapaxes(arr, -1, -2)) / 2.0


def elem_sym(values, k):
    """S_k of a spectrum via the prefix-coefficient recurrence."""
    lam = as_spectrum(values)
    if not 0 <= k <= lam.size:
        raise ValueError(f"degree k={k} out of range 0..{lam.size}")
    return float(_kernels.elem_sym_all(lam, k)[k])


def elem_sym_all(values, kmax):
    """Array [S_0, ..., S_kmax] of a spectrum."""
    lam = as_spectrum(values)
    if not 0 <= kmax <= lam.size:
        raise ValueError(f"degree kmax={kmax} out of range 0..{lam.size}")
    return _kernels.elem_sym_all(lam, kmax)


def deleted_sym(values, k, drop):
    """S_k with the entries at positions ``drop`` (one or two, 0-based) zeroed."""
    lam = as_spectrum(values).copy()
    if np.isscalar(drop):
        drop = (int(drop),)
    drop = tuple(int(i) for i in drop)
    if len(drop) not in (1, 2) or len(set(drop)) != len(drop):
        raise ValueError("drop must hold one or two distinct indices")
    for i in drop:
        if not 0 <= i < lam.size:
            raise ValueError(f"drop index {i} out of range")
        lam[i] = 0.0
    return elem_sym(lam, k)


def deleted_sym_table(values, degree):
    """All single-deletion values S_degree(lam | i), i = 0..N-1."""
    lam = as_spectrum(values)
    if not 0 <= degree <= lam.size:
        raise ValueError(f"degree {degree} out of range 0..{lam.size}")
    return _kernels.deleted_sym(lam, degree)


def matrix_sym(mat, k):
    """S_k of a symmetric matrix (sum of principal k-minors, via eigenvalues)."""
    arr = as_symmetric(mat)
    return elem_sym(np.linalg.eigvalsh(arr), k)


def mixed_sym_all(a_mat, b_mat, k):
    """All mixed symmetric values [l = 0..k] with k - l factors of A and l
    of B.

    Computed by polarization: S_k(A + tB) is a degree-k polynomial in t whose
    coefficient of t^l is binom(k, l) * mixed_sym(A, B, k, l). The polynomial
    is sampled at k + 1 centered integer nodes and interpolated.
    """
    A = as_symmetric(a_mat)
    B = as_symmetric(b_mat)
    if A.shape != B.shape:
        raise ValueError("matrices must have equal shape")
    size = A.shape[0]
    if not 0 <= k <= size:
        raise ValueError(f"need 0 <= k <= {size}, got k={k}")
    if k == 0:
        return np.ones(1)
    nodes = np.arange(k + 1, dtype=np.float64) - (k // 2)
    samples = np.array([matrix_sym(A + t * B, k) for t in nodes])
    vander = np.vander(nodes, k + 1, increasing=True)
    coeffs = np.linalg.solve(vander, samples)
    return coeffs / np.array([math.comb(k, l) for l in range(k + 1)])


def mixed_sym(a_mat, b_mat, k, l):
    """Mixed symmetric value with k - l factors of A and l of B."""
    if not 0 <= l <= k:
        raise ValueError(f"need 0 <= l <= k, got k={k}, l={l}")
    return float(mixed_sym_all(a_mat, b_mat, k)[l])


def newton_transform(w_mat, k):
    """Gradient matrix of S_k with respect to a symmetric matrix argument.

    T_0 = I and T_j = S_j * I - W @ T_{j-1}; the result T_{k-1} has diagonal
    entries equal to single-deletion values when W is diagonal. ``w_mat`` may
    be a stack of matrices along leading axes.
    """
    W = as_symmetric(w_mat)
    size = W.shape[-1]
    if not 1 <= k <= size:
        raise ValueError(f"degree k={k} out of range 1..{size}")
    s = _kernels.elem_sym_all(np.linalg.eigvalsh(W), k - 1)
    eye = np.eye(size)
    T = np.broadcast_to(eye, W.shape)
    for j in range(1, k):
        T = s[..., j, None, None] * eye - W @ T
    return symmetrize(T)


def in_cone(values, k, slack=0.0):
    """Strict cone membership: S_1..S_k all positive.

    Returns (ok, margin) where margin = min_i S_i (signed). ``slack`` lets a
    caller loosen or tighten the strict comparison against zero.
    """
    lam = as_spectrum(values)
    if not 1 <= k <= lam.size:
        raise ValueError(f"degree k={k} out of range 1..{lam.size}")
    margin = float(_kernels.cone_margin(_kernels.elem_sym_all(lam, k), k))
    return margin > slack, margin
