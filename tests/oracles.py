"""Brute-force reference implementations used only by the test suite.

Everything here enumerates subsets or permutations directly, or (for the
lifted gradient) goes through the dense lifted matrix, independent of the
production code paths it cross-checks. The one-at-a-time helpers at the end
(one lifted matrix, one subset position, one homotopy member, one boundary
point, one barrier value, one sample into a report, one collar point, one CSV
row, one whole-block prop21 suite) are the scalar or unchunked forms the batch
code is checked against, ``lift_by_minors`` builds the lift from its
definition, and ``coo_jacobian`` assembles a Jacobian from
concatenated COO triplets, the reference for its fixed CSR pattern. The grid
stencils written out by hand (box Hessians from shifted slices, the radial
spectra formula, and the differentiated interior rows of both grids) are the
references for the grids' stencil tables.
``manufactured_suite`` is the convergence study the solver tests run: solves
on a mesh family and the observed order of the error; ``minors_data`` gives
it interior data built from a stated exact Hessian by ``lift_by_minors`` and
``matrix_sym_minors`` alone. ``elem_sym_rows`` and ``deleted_sym_rows`` are
the row-major (batch-first) forms of the two symmetric-function kernels,
which the batch-minor kernels must match bit for bit.
"""

import csv
import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.stats import norm, qmc

from sumhess import _kernels, cones, lift, symfun
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


def elem_sym_rows(lams, kmax):
    """``_kernels.elem_sym_all`` on a row-major (*batch, kmax + 1) table."""
    lams = _kernels.as_float(lams)
    e = np.zeros(lams.shape[:-1] + (kmax + 1,), dtype=lams.dtype)
    e[..., 0] = 1.0
    for i in range(lams.shape[-1]):
        col = lams[..., i]
        for j in range(min(i + 1, kmax), 0, -1):
            e[..., j] += col * e[..., j - 1]
    return e


def deleted_sym_rows(lams, degree):
    """``_kernels.deleted_sym`` on row-major (size + 1, *batch, degree + 1)
    prefix/suffix tables, one deleted entry at a time."""
    lams = _kernels.as_float(lams)
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
    A, B, a, b, sign = lift._lift_pairs(spec.n, spec.m)
    W = lift_hessian(H, table)
    G = symfun.newton_transform(W, spec.k)
    F = np.zeros((spec.n, spec.n))
    gdiag = np.diag(G)
    for a_idx in range(table.size):
        F[table.tuples[a_idx], table.tuples[a_idx]] += gdiag[a_idx]
    np.add.at(F, (a, b), sign * G[A, B])
    np.add.at(F, (b, a), sign * G[A, B])
    return symfun.symmetrize(F), float(np.trace(F))


def lift_hessian(hess, table):
    """Dense lifted matrix of one symmetric n x n Hessian."""
    H = symfun.as_symmetric(hess)
    if H.shape[0] != table.n:
        raise ValueError(f"Hessian size {H.shape[0]} does not match table n={table.n}")
    return lift.lift_hessian_batch(H[None], table)[0]


def lift_by_minors(hess, m):
    """Lifted matrix from its definition, independent of the lift's pair
    table: the m-th additive compound of H, W[A, B] = d/dt det((I + t H)[A, B])
    at t = 0 over the lexicographic m-subsets, by Jacobi's formula the sum
    over columns j of det(I[A, B]) with column j taken from H[A, B]."""
    H = symfun.as_symmetric(hess)
    subsets = list(itertools.combinations(range(H.shape[0]), m))
    eye = np.eye(H.shape[0])
    W = np.zeros((len(subsets), len(subsets)))
    for p, A in enumerate(subsets):
        for q, B in enumerate(subsets):
            for j in range(m):
                M = eye[np.ix_(A, B)]
                M[:, j] = H[np.ix_(A, B)][:, j]
                W[p, q] += np.linalg.det(M)
    return W


def index_of(table, tup):
    """0-based lexicographic position of the subset ``tup`` in ``table``."""
    return int(np.flatnonzero((table.tuples == np.asarray(tup)).all(axis=1))[0])


def homotopy_data(system, t, values=None):
    """Interior right-hand side and boundary data of the path member at t,
    for the deviation w = ``values`` (0 by default): the boundary rows B of
    the system's Jacobian satisfy B w = t (b - B q)."""
    if values is None:
        values = system.initial_values()
    return system.rhs(t, values), t * system.g_b


def boundary_data(geom, x):
    """Outward unit normal and principal curvatures at the point of the
    ball's boundary nearest to ``x``."""
    rel = np.asarray(x, dtype=np.float64)
    return rel / np.linalg.norm(rel), np.full(geom.dim - 1, 1.0 / geom.radius)


def barrier_value(geom, params, x):
    """The collar barrier -d + K3 d^2 at one point."""
    d = geom.radius - np.linalg.norm(np.asarray(x, dtype=np.float64))
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
    """Hessian of the collar barrier of a ball at one point, from the
    distance, its gradient and its Hessian written out for that point alone."""
    rel = np.asarray(x, dtype=np.float64)
    r = np.linalg.norm(rel)
    d = geom.radius - r
    u = rel / r
    grad = -u
    hess_d = -(np.eye(geom.dim) - np.outer(u, u)) / r
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
    """Collar points of a ball from ``scipy.stats``:
    ``qmc.Halton(scramble=False)`` without its origin sample and
    ``norm.ppf``: the reference for ``geometry.collar_points``."""
    raw = qmc.Halton(d=geom.dim + 1, scramble=False).random(count + 1)[1:]
    depth = (0.02 + 0.96 * raw[:, -1]) * depth_max
    gauss = norm.ppf(np.clip(raw[:, : geom.dim], 1e-12, 1 - 1e-12))
    dirs = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
    return (geom.radius - depth)[:, None] * dirs


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
    """``system.jacobian`` at the deviation w = ``values`` assembled from COO
    triplets: the interior stencil, the ``-t f_u`` diagonal (f_u at
    u = q + w) as duplicate entries, the grid's ``dnu_*`` triplets and the
    ``a_b`` diagonal, summed by ``csr_matrix``. The stencil is the
    (rows, cols, vals) triplets ``stencil(system, values)`` gives, by default
    the grid's table with the system's ``stencil_values``."""
    grid = system.grid
    values = np.asarray(values, dtype=np.float64)
    parts = [(stencil or table_stencil)(system, values)]
    if system.problem.f_u is not None:
        u = 0.5 * (grid.points**2).sum(axis=1) + values
        fu = system.problem.eval_f_u(system.interior_points, u[grid.interior_flat])
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
    out = np.empty((grid.mesh, grid.dim), dtype=u.dtype)
    out[0, :] = 2.0 * (u[1] - u[0]) / (h * h)
    i = np.arange(1, grid.mesh)
    out[1:, 0] = (u[i + 1] - 2.0 * u[i] + u[i - 1]) / (h * h)
    out[1:, 1:] = ((u[i + 1] - u[i - 1]) / (2.0 * h) / grid.points[i, 0])[:, None]
    return out


def hand_stencil(system, values):
    """The interior stencil's triplets at the deviation w = ``values``,
    differentiated by hand from ``radial_spectra_formula`` or
    ``box_hessians_slices`` of u = |x|^2 / 2 + w, whose quadratic part has
    the profiles 1 and the identity Hessian."""
    grid, spec = system.grid, system.spec
    if system.kind == "radial":
        M, h = grid.mesh, grid.h
        fii = lift.msum_weights(radial_spectra_formula(grid, values) + 1.0, spec.m, spec.k)
        # center row: the Hessian is u''(0) times the identity, so its weight is the trace
        trace0 = fii[0].sum()
        i = np.arange(1, M)
        Frr = fii[1:, 0]
        Ftt = fii[1:, 1:].sum(axis=1)  # total tangential weight (dim-1 slots)
        inv_h2 = 1.0 / (h * h)
        inv_2hr = 1.0 / (2.0 * h * grid.points[i, 0])
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
    F, _ = lift.gradient_batch(box_hessians_slices(grid, values) + np.eye(n), spec)
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


def minors_data(hessian, spec):
    """The interior data f(points) of the field whose exact Hessians at the
    (N, n) ``points`` are ``hessian(points)``, (N, n, n), built point by
    point from the definitions: S_k as the sum of the principal k x k minors
    of ``lift_by_minors``, with no call into the lift the solver uses."""
    def f(points):
        return np.array([
            matrix_sym_minors(lift_by_minors(H, spec.m), spec.k) for H in hessian(points)
        ])

    return f


def manufactured_suite(kind, spec, meshes, cfg=None, f=None, **kwargs):
    """Solve a manufactured problem on a mesh family and report the observed
    convergence order (least-squares slope of log error against log h).
    ``f``, when given, replaces the template's interior data."""
    if kind not in ("radial", "box"):
        raise ConfigError(f"unknown manufactured template {kind!r}")
    template, solve = (
        (radial_quartic_problem, radial_solve) if kind == "radial"
        else (box_cosine_problem, box_solve)
    )
    problem, exact = template(spec, **kwargs)
    if f is not None:
        problem.f = f
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
