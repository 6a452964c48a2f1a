"""Brute-force reference implementations used only by the test suite.

Everything here enumerates subsets or permutations directly, or (for the
lifted gradient) goes through the dense lifted matrix, independent of the
production code paths it cross-checks. The one-at-a-time helpers at the end
(one lifted matrix, one subset position, one homotopy member, one boundary
point, one barrier value, one sample into a report, one collar point, one CSV
row, one whole-block prop21 suite) are the scalar or unchunked forms the batch
code is checked against, and ``coo_jacobian`` assembles a Jacobian from
concatenated COO triplets, the reference for its fixed CSR pattern. The grid
stencils written out by hand (box Hessians from shifted slices, the radial
spectra formula, and the differentiated interior rows of both grids) are the
references for the grids' stencil tables.
``manufactured_suite`` is the convergence study the solver tests run: solves
on a mesh family and the observed order of the error.
"""

import csv
import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.stats import norm, qmc

from sumhess import _kernels, cones, geometry, lift, symfun
from sumhess.cones import MARGIN_FLOOR
from sumhess.errors import ConfigError
from sumhess.solver import box_cosine_problem, box_solve, radial_quartic_problem, radial_solve


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


def sk_of_hessian(hess, spec):
    """S_k of the lifted matrix, evaluated through the fast spectrum."""
    return float(_kernels.elem_sym_all(lift.sum_spectrum(hess, spec.m), spec.k)[spec.k])


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
    _, grad, _ = geometry.distance_pack(geom, x[None])
    return -grad[0], np.zeros(geom.dim - 1)


def barrier_value(geom, params, x):
    """The collar barrier -d + K3 d^2 at one point."""
    d = geometry.distance(geom, x[None])[0]
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


def quartic_hessian_point(x, coef):
    """Hessian of |x|^2 / 2 + coef |x|^4 at one point: the reference for the
    block form of ``barrier-check``'s quartic field."""
    return np.eye(x.size) * (1.0 + 4.0 * coef * float(x @ x)) + 8.0 * coef * np.outer(x, x)


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
        H = symfun.symmetrize(u_hess(x[None])[0])
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
        s = _kernels.elem_sym_all(lam, spec.k)
        out["min_h_margin"] = min(out["min_h_margin"], float(_kernels.cone_margin(s, spec.k)))
        out["min_lambda_k"] = min(out["min_lambda_k"], float(lam[spec.k - 1]))
        ratios = [s[l] / params.K3**l for l in range(1, spec.k + 1)]
        out["min_sl_ratio"] = min(out["min_sl_ratio"], float(min(ratios)))
    return out


def collar_points_scipy(geom, count, depth_max):
    """Collar points from ``scipy.stats``: ``qmc.Halton(scramble=False)``
    without its origin sample and ``norm.ppf``, a box filled one point and one
    coordinate at a time: the reference for ``geometry.collar_points``."""
    raw = qmc.Halton(d=geom.dim + 1, scramble=False).random(count + 1)[1:]
    depth = (0.02 + 0.96 * raw[:, -1]) * depth_max
    if geom.kind in ("ball", "radial"):
        gauss = norm.ppf(np.clip(raw[:, : geom.dim], 1e-12, 1 - 1e-12))
        dirs = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
        return geom.center + (geom.radius - depth)[:, None] * dirs
    lo = geom.center - geom.extents / 2.0
    hi = geom.center + geom.extents / 2.0
    pts = np.empty((count, geom.dim))
    for i in range(count):
        face = i % (2 * geom.dim)
        axis, side = face % geom.dim, face // geom.dim
        for j in range(geom.dim):
            if j == axis:
                pts[i, j] = (lo[j] + depth[i]) if side == 0 else (hi[j] - depth[i])
            else:
                pts[i, j] = lo[j] + raw[i, j] * (hi[j] - lo[j])
    return pts


def write_solution_csv_rows(path, grid, state):
    """``solution.csv`` through ``csv.writer``, one row at a time: the
    reference for the block-formatted ``cli._write_solution_csv``."""
    pts = grid.points
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(pts.shape[1])] + ["u", "margin"])
        for row in range(pts.shape[0]):
            writer.writerow(
                [f"{v:.17g}" for v in pts[row]]
                + [f"{state.values[row]:.17g}", f"{state.margins[row]:.17g}"]
            )


def partition_identities_whole(n, trials, seed):
    """The prop21 suite as one block: every sample, deleted table and margin
    column at once, with one scalar index draw per (sample, degree)."""
    rng = np.random.default_rng(seed)
    lams = rng.normal(0.0, 1.0, size=(trials, n))
    picks = np.array([[rng.integers(n) for _ in range(n)] for _ in range(trials)])
    s = _kernels.elem_sym_all(lams, n)
    deleted = [_kernels.deleted_sym(lams, degree) for degree in range(n + 1)]
    rows = np.arange(trials)
    margins = {}
    for k in range(1, n + 1):
        deleted_k, deleted_km1 = deleted[k], deleted[k - 1]
        i = picks[:, k - 1]
        sk = s[:, k]
        lhs = deleted_k[rows, i] + lams[rows, i] * deleted_km1[rows, i]
        scale = (np.abs(deleted_k[rows, i]) + np.abs(lams[rows, i] * deleted_km1[rows, i])
                 + np.abs(sk))
        margins[f"split_k{k}"] = cones._rel_margin(lhs, sk, scale)
        weighted = lams * deleted_km1
        margins[f"weighted_k{k}"] = cones._rel_margin(
            weighted.sum(axis=1), k * sk, np.abs(weighted).sum(axis=1) + np.abs(k * sk)
        )
        margins[f"sum_k{k}"] = cones._rel_margin(
            deleted_k.sum(axis=1), (n - k) * sk,
            np.abs(deleted_k).sum(axis=1) + np.abs((n - k) * sk),
        )
    report = cones.SampleReport(suite="prop21")
    report.record_block(cones._all_rows(margins), lams)
    return report


def coo_jacobian(system, values, t, stencil=None):
    """``system.jacobian`` assembled from COO triplets: the interior stencil,
    the ``-t f_u`` diagonal as duplicate entries, the grid's ``dnu_*``
    triplets and the ``a_b`` diagonal, summed by ``csr_matrix``. The stencil
    is the (rows, cols, vals) triplets ``stencil(system, values)`` gives, by
    default the grid's table with the system's ``stencil_values``."""
    grid = system.grid
    values = np.asarray(values, dtype=np.float64)
    parts = [(stencil or table_stencil)(system, values)]
    if system.problem.f_u is not None:
        fu = system.problem.eval_f_u(system.interior_points, values[grid.interior_flat])
        parts.append((grid.interior_flat, grid.interior_flat, -t * fu))
    parts.append((grid.dnu_rows, grid.dnu_cols, grid.dnu_vals))
    parts.append((grid.boundary_flat, grid.boundary_flat, system.a_b))
    rows, cols, data = (np.concatenate(p) for p in zip(*parts))
    return sp.csr_matrix((data, (rows, cols)), shape=(system.npoints, system.npoints))


def table_stencil(system, values):
    """The interior stencil's triplets from the grid's stencil table."""
    cols = system.grid.stencil_cols
    rows = np.broadcast_to(system.grid.interior_flat, cols.shape)
    return rows.ravel(), cols.ravel(), system.stencil_values(values).ravel()


def box_hessians_slices(grid, values):
    """Centered discrete Hessians at the interior nodes, (Pi, n, n), from
    shifted slices of the node array."""
    U = np.asarray(values, dtype=np.float64).reshape(grid.shape)
    n = grid.dim
    core = tuple(slice(1, -1) for _ in range(n))
    H = np.empty((grid.interior_flat.size, n, n))

    def shifted(offsets):
        sel = list(core)
        for c, off in offsets:
            sel[c] = slice(1 + off, (-1 + off) or None)
        return U[tuple(sel)]

    mid = U[core]
    for c in range(n):
        hc = grid.spacings[c]
        d2 = (shifted([(c, 1)]) - 2.0 * mid + shifted([(c, -1)])) / (hc * hc)
        H[:, c, c] = d2.ravel()
        for d in range(c + 1, n):
            hd = grid.spacings[d]
            mixed = (
                shifted([(c, 1), (d, 1)])
                - shifted([(c, 1), (d, -1)])
                - shifted([(c, -1), (d, 1)])
                + shifted([(c, -1), (d, -1)])
            ) / (4.0 * hc * hd)
            H[:, c, d] = mixed.ravel()
            H[:, d, c] = H[:, c, d]
    return H


def radial_spectra_formula(grid, values):
    """Hessian eigenvalue profiles [u'', u'/r * (dim-1)] at the M equation
    nodes, the center's from the mirror closure u(-h) = u(h)."""
    u = _kernels.as_float(values)
    h = grid.h
    out = np.empty((grid.M, grid.dim), dtype=u.dtype)
    out[0, :] = 2.0 * (u[1] - u[0]) / (h * h)
    i = np.arange(1, grid.M)
    out[1:, 0] = (u[i + 1] - 2.0 * u[i] + u[i - 1]) / (h * h)
    out[1:, 1:] = ((u[i + 1] - u[i - 1]) / (2.0 * h) / grid.r[i])[:, None]
    return out


def hand_stencil(system, values):
    """The interior stencil's triplets differentiated by hand from
    ``radial_spectra_formula`` or ``box_hessians_slices``."""
    grid, spec = system.grid, system.spec
    if system.kind == "radial":
        M, h = grid.M, grid.h
        fii = lift.msum_weights(radial_spectra_formula(grid, values), spec.m, spec.k)
        # center row: the Hessian is u''(0) times the identity, so its weight is the trace
        trace0 = fii[0].sum()
        i = np.arange(1, M)
        Frr = fii[1:, 0]
        Ftt = fii[1:, 1:].sum(axis=1)  # total tangential weight (dim-1 slots)
        inv_h2 = 1.0 / (h * h)
        inv_2hr = 1.0 / (2.0 * h * grid.r[i])
        rows = np.concatenate([[0, 0], i, i, i])
        cols = np.concatenate([[0, 1], i - 1, i, i + 1])
        vals = np.concatenate([
            [trace0 * (-2.0 / (h * h)), trace0 * (2.0 / (h * h))],
            Frr * inv_h2 - Ftt * inv_2hr,
            -2.0 * Frr * inv_h2,
            Frr * inv_h2 + Ftt * inv_2hr,
        ])
        return rows, cols, vals
    n, h = grid.dim, grid.spacings
    F, _ = lift.gradient_batch(box_hessians_slices(grid, values), spec)
    strides = [int(np.prod(grid.shape[c + 1 :])) for c in range(n)]
    offsets = [0]
    vals = [-2.0 * (F[:, range(n), range(n)] / h[None, :] ** 2).sum(axis=1)]
    for c in range(n):
        offsets += [strides[c], -strides[c]]
        vals += [F[:, c, c] / (h[c] * h[c])] * 2
    for c in range(n):
        for d in range(c + 1, n):
            sc, sd = strides[c], strides[d]
            mixed = F[:, c, d] / (2.0 * h[c] * h[d])
            offsets += [sc + sd, -sc - sd, sc - sd, -sc + sd]
            vals += [mixed, mixed, -mixed, -mixed]
    cols = grid.interior_flat[None, :] + np.array(offsets)[:, None]
    rows = np.broadcast_to(grid.interior_flat, cols.shape)
    return rows.ravel(), cols.ravel(), np.concatenate(vals)


def manufactured_suite(kind, spec, meshes, cfg=None, **kwargs):
    """Solve a manufactured problem on a mesh family and report the observed
    convergence order (least-squares slope of log error against log h)."""
    if kind not in ("radial", "box"):
        raise ConfigError(f"unknown manufactured template {kind!r}")
    template, solve = (
        (radial_quartic_problem, radial_solve) if kind == "radial"
        else (box_cosine_problem, box_solve)
    )
    problem, exact = template(spec, **kwargs)
    rows = []
    for mesh in meshes:
        state, grid = solve(problem, mesh, cfg)
        err = state.values - exact(grid.points)
        rows.append({
            "mesh": int(mesh),
            "h": grid.h,
            "linf": float(np.abs(err).max()),
            "l2": float(np.sqrt((err**2).mean())),
            "diagnostics": state.diagnostics,
        })
    report = {"kind": kind, "rows": rows}
    errs = np.array([r["linf"] for r in rows])
    hs = np.array([r["h"] for r in rows])
    if np.all(errs > 1e-12) and len(rows) >= 2:
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        report["observed_order"] = float(slope)
        report["pairwise_orders"] = [
            float(np.log(errs[i] / errs[i + 1]) / np.log(hs[i] / hs[i + 1]))
            for i in range(len(rows) - 1)
        ]
    else:
        report["observed_order"] = None
        report["order_undefined"] = True
    return report
