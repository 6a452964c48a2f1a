"""Brute-force reference implementations used only by the test suite.

Everything here enumerates subsets or permutations directly, or (for the
lifted gradient) goes through the dense lifted matrix, independent of the
production code paths it cross-checks.
"""

import itertools
import math

import numpy as np

from sumhess import lift, symfun


def elem_sym_enum(values, k):
    """S_k by explicit summation over all k-subsets."""
    values = np.asarray(values, dtype=np.float64)
    if k == 0:
        return 1.0
    total = 0.0
    for combo in itertools.combinations(range(values.size), k):
        total += float(np.prod(values[list(combo)]))
    return total


def deleted_sym_enum(values, k, drop):
    values = np.asarray(values, dtype=np.float64).copy()
    for i in np.atleast_1d(drop):
        values[int(i)] = 0.0
    return elem_sym_enum(values, k)


def subset_sums_enum(mu, m):
    mu = np.asarray(mu, dtype=np.float64)
    return np.array(
        [sum(mu[list(c)]) for c in itertools.combinations(range(mu.size), m)]
    )


def matrix_sym_minors(mat, k):
    """S_k of a matrix as the sum of its principal k x k minors."""
    mat = np.asarray(mat, dtype=np.float64)
    if k == 0:
        return 1.0
    total = 0.0
    for rows in itertools.combinations(range(mat.shape[0]), k):
        sub = mat[np.ix_(rows, rows)]
        total += float(np.linalg.det(sub))
    return total


def mixed_sym_enum(a_mat, b_mat, k, l):
    """Mixed symmetric value by direct mixed-minor expansion.

    For each principal k-subset S and each l-subset T of S, take the
    determinant of the matrix whose rows in T come from B and the rest from
    A (columns restricted to S); normalize by binom(k, l).
    """
    A = np.asarray(a_mat, dtype=np.float64)
    B = np.asarray(b_mat, dtype=np.float64)
    if k == 0:
        return 1.0
    total = 0.0
    for rows in itertools.combinations(range(A.shape[0]), k):
        rows = list(rows)
        for replaced in itertools.combinations(range(k), l):
            M = A[np.ix_(rows, rows)].copy()
            for pos in replaced:
                M[pos, :] = B[np.ix_([rows[pos]], rows)]
            total += float(np.linalg.det(M))
    return total / math.comb(k, l)


def gradient_fd(sk_fn, H, step=1e-6):
    """Central-difference gradient of a scalar matrix function at symmetric H."""
    n = H.shape[0]
    grad = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = 1.0
            E[j, i] = 1.0
            plus = sk_fn(H + step * E)
            minus = sk_fn(H - step * E)
            d = (plus - minus) / (2.0 * step)
            # d = <F, E> = 2 F_ij off-diagonal, F_ii on the diagonal
            if i == j:
                grad[i, i] = d
            else:
                grad[i, j] = d / 2.0
                grad[j, i] = d / 2.0
    return grad


def gradient_via_lift(hess, spec):
    """Gradient of H -> S_k(lift(H)) by the chain rule through the dense
    lifted matrix: the S_k gradient in lifted space (Newton transform),
    pulled back through the sparse lift entries."""
    H = symfun.as_symmetric(hess)
    table = lift.subset_table(spec.n, spec.m)
    op = lift.lift_operator(spec.n, spec.m)
    W = lift.lift_hessian(H, table)
    G = symfun.newton_transform(W, spec.k)
    F = np.zeros((spec.n, spec.n))
    gdiag = np.diag(G)
    for a_idx in range(table.size):
        F[table.tuples[a_idx], table.tuples[a_idx]] += gdiag[a_idx]
    np.add.at(F, (op.src_a, op.src_b), op.sign * G[op.rows, op.cols])
    np.add.at(F, (op.src_b, op.src_a), op.sign * G[op.rows, op.cols])
    return symfun.symmetrize(F), float(np.trace(F))
