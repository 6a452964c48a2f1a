"""Brute-force reference implementations used only by the test suite.

Everything here enumerates subsets or permutations directly, or (for the
lifted gradient) goes through the dense lifted matrix, independent of the
production code paths it cross-checks. The one-at-a-time helpers at the end
(one lifted matrix, one subset position, one homotopy member, one boundary
point, one barrier value, one sample into a report) are the scalar forms the
batch code is checked against.
"""

import itertools
import math

import numpy as np

from sumhess import geometry, lift, symfun
from sumhess.cones import MARGIN_FLOOR


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
    W = lift_hessian(H, table)
    G = symfun.newton_transform(W, spec.k)
    F = np.zeros((spec.n, spec.n))
    gdiag = np.diag(G)
    for a_idx in range(table.size):
        F[table.tuples[a_idx], table.tuples[a_idx]] += gdiag[a_idx]
    np.add.at(F, (op.src_a, op.src_b), op.sign * G[op.rows, op.cols])
    np.add.at(F, (op.src_b, op.src_a), op.sign * G[op.rows, op.cols])
    return symfun.symmetrize(F), float(np.trace(F))


def lift_hessian(hess, table):
    """Dense lifted matrix of one symmetric n x n Hessian."""
    H = symfun.as_symmetric(hess)
    if H.shape[0] != table.n:
        raise ValueError(f"Hessian size {H.shape[0]} does not match table n={table.n}")
    return lift.lift_hessian_batch(H[None], table)[0]


def index_of(table, tup):
    """0-based lexicographic position of the subset ``tup`` in ``table``."""
    return table.position[tuple(int(i) for i in tup)]


def homotopy_data(system, t, values=None):
    """Interior right-hand side and boundary data of the path member at t."""
    if values is None:
        values = system.initial_values()
    return system.rhs(t, values), system.boundary_target(t)


def boundary_data(geom, x):
    """Outward unit normal and principal curvatures at the boundary point
    nearest to ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if geom.kind in ("ball", "radial"):
        rel = x - geom.center
        nu = rel / np.linalg.norm(rel)
        kappa = np.full(geom.dim - 1, 1.0 / geom.radius)
        return nu, kappa
    _, grad, _ = geometry.distance_pack(geom, x)
    return -grad, np.zeros(geom.dim - 1)


def barrier_value(geom, params, x):
    """The collar barrier -d + K3 d^2 at one point."""
    d = geometry.distance(geom, x)
    return -d + params.K3 * d * d


def record_sample(report, result, sample):
    """Add one scalar check result to ``report``, one sample at a time: the
    reference for what ``SampleReport.record_block`` keeps. NaN margins are
    passed over here (NaN compares false), where the block path counts them."""
    report.trials += 1
    if not result["hypothesis"]:
        return
    report.hypothesis_hits += 1
    for name, margin in result["margins"].items():
        prev = report.checks.get(name, math.inf)
        report.checks[name] = min(prev, margin)
        if margin < report.worst_margin:
            report.worst_margin = margin
            if margin < MARGIN_FLOOR:
                report.witness = np.asarray(sample).tolist()
    if any(m < MARGIN_FLOOR for m in result["margins"].values()):
        report.violations += 1


def barrier_hessian_point(geom, params, x):
    """Hessian of the collar barrier at one point, from the distance, its
    gradient and its Hessian written out for that point alone."""
    x = np.asarray(x, dtype=np.float64)
    if geom.kind in ("ball", "radial"):
        rel = x - geom.center
        r = np.linalg.norm(rel)
        d = geom.radius - r
        u = rel / r
        grad = -u
        hess_d = -(np.eye(geom.dim) - np.outer(u, u)) / r
    else:
        lo = geom.center - geom.extents / 2.0
        hi = geom.center + geom.extents / 2.0
        dists = np.concatenate([x - lo, hi - x])
        face = int(np.argsort(dists)[0])
        d = dists[face]
        grad = np.zeros(geom.dim)
        grad[face % geom.dim] = 1.0 if face < geom.dim else -1.0
        hess_d = np.zeros((geom.dim, geom.dim))
    H = 2.0 * params.K3 * np.outer(grad, grad) + (2.0 * params.K3 * d - 1.0) * hess_d
    return (H + H.T) / 2.0


def verify_barrier_points(u_hess, geom, params, spec, pts, which="lemma53"):
    """The collar check one point at a time: the reference for
    ``geometry.verify_barrier_bound`` on the same points. NaN values drop
    out of these minima (NaN compares false), where the block path keeps them."""
    out = {"count": 0, "skips": [], "min_margin": math.inf, "empirical_k3": math.inf,
           "min_h_margin": math.inf, "min_lambda_k": math.inf, "min_sl_ratio": math.inf}
    for idx, x in enumerate(pts):
        H = symfun.symmetrize(u_hess(x))
        ok, margin = lift.admissible(H, spec)
        if not ok:
            out["skips"].append({"index": idx, "margin": float(margin)})
            continue
        F, trace = lift.gradient(H, spec)
        Dh = barrier_hessian_point(geom, params, x)
        value = float((F * Dh).sum())
        scale = math.sqrt(params.K3) if which == "lemma53" else params.k3
        out["count"] += 1
        out["min_margin"] = min(out["min_margin"], value - scale * (1.0 + trace))
        out["empirical_k3"] = min(out["empirical_k3"], value / (1.0 + trace))
        lam = np.sort(lift.sum_spectrum(Dh, spec.m))[::-1]
        _, h_margin = symfun.in_cone(lam, spec.k)
        out["min_h_margin"] = min(out["min_h_margin"], h_margin)
        out["min_lambda_k"] = min(out["min_lambda_k"], float(lam[spec.k - 1]))
        s = symfun.elem_sym_all(lam, spec.k)
        ratios = [s[l] / params.K3**l for l in range(1, spec.k + 1)]
        out["min_sl_ratio"] = min(out["min_sl_ratio"], float(min(ratios)))
    return out
