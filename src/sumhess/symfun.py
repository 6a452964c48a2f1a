"""Elementary symmetric function algebra on symmetric matrices.

Matrices are dense symmetric float arrays. Degrees use the convention
S_0 = 1, and S_k = 0 when k exceeds the number of (nonzero) eigenvalues.
S_k of spectra is ``_kernels.elem_sym_all``; of m-sum spectra, ``lift.msum_sym``.
"""

import math

import numpy as np

from . import _kernels


def as_symmetric(mat):
    """Validate a square matrix, or a stack of them along leading axes, that
    is symmetric exactly as stored."""
    arr = np.asarray(mat, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError("matrix must be square")
    # NaN != NaN, so a NaN entry would otherwise be reported as asymmetry
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(arr, np.swapaxes(arr, -1, -2)):
        raise ValueError("matrix must be symmetric exactly as stored")
    return arr


def symmetrize(mat):
    """Symmetric part of a matrix, or of each matrix in a stack."""
    arr = np.asarray(mat, dtype=np.float64)
    return (arr + np.swapaxes(arr, -1, -2)) / 2.0


def matrix_sym(mat, k):
    """S_k of a symmetric matrix (sum of principal k-minors, via eigenvalues)."""
    arr = as_symmetric(mat)
    size = arr.shape[-1]
    if not 0 <= k <= size:
        raise ValueError(f"degree k={k} out of range 0..{size}")
    return float(_kernels.elem_sym_all(np.linalg.eigvalsh(arr), k)[..., k])


def mixed_sym_all(a_mat, b_mat, k):
    """All mixed symmetric values [l = 0..k] with k - l factors of A and l
    of B.

    Computed by polarization: S_k(A + tB) is a degree-k polynomial in t whose
    coefficient of t^l is binom(k, l) times entry l. The polynomial is sampled
    at k + 1 centered integer nodes and interpolated.
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
