"""Continuation Newton solver for the eigenvalue-sum Neumann problem.

The interior equation sets the degree-k symmetric value of the lifted
discrete Hessian equal to the homotopy right-hand side; boundary rows impose
the Robin-type normal derivative condition. Path following starts from the
exact quadratic solution of the t = 0 member and carries it to t = 1 with
damped, admissibility-guarded Newton steps.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _kernels, geometry, grids, lift
from .cones import SampleReport
from .errors import AdmissibilityError, ConfigError, ContinuationError, NonconvergenceError


@dataclass
class ProblemSpec:
    """Data of the Neumann problem: operator dimensions, domain, and fields.

    ``f`` maps interior points (P, d) to positive values; optionally it may
    depend on the solution through ``f(points, u)`` with the monotone
    derivative ``f_u <= 0`` supplied separately. ``a`` (positive) and ``b``
    are boundary fields; ``b`` receives (points, normals).
    """

    spec: lift.ConeSpec
    geom: geometry.DomainGeometry
    f: callable
    a: callable
    b: callable
    f_u: callable = None

    def eval_f(self, points, u):
        if self.f_u is None:
            return np.asarray(self.f(points), dtype=np.float64)
        return np.asarray(self.f(points, u), dtype=np.float64)

    def eval_f_u(self, points, u):
        if self.f_u is None:
            return None
        vals = np.asarray(self.f_u(points, u), dtype=np.float64)
        if np.any(vals > 0):
            raise ConfigError("f_u must be nonpositive for a monotone problem")
        return vals


@dataclass
class SolverConfig:
    tol_abs: float = None  # auto per grid kind when None
    margin_floor: float = 1e-12
    max_iter: int = 30
    armijo: float = 1e-4
    backtrack: float = 0.5
    step_min: float = 1e-6
    dt0: float = 0.1
    dt_min: float = 1e-4
    dt_max: float = 0.25
    grow: float = 1.5
    # sparse LU and V-cycle-preconditioned lgmres break even near 9^3 box
    # unknowns; LU fill-in then grows far faster than the multigrid cost
    direct_limit: int = 1_000
    c0_slack: float = 50.0

    def tolerance(self, kind):
        if self.tol_abs is not None:
            return self.tol_abs
        return 1e-10 if kind == "radial" else 1e-8


@dataclass
class ContinuationState:
    t: float
    values: np.ndarray
    steps: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    margins: np.ndarray = field(default=None, repr=False)  # t = 1, NaN on boundary

    @property
    def min_margin(self):
        return min(s["min_margin"] for s in self.steps)

    def as_dict(self):
        return {
            "t": self.t,
            "steps": self.steps,
            "diagnostics": self.diagnostics,
            "min_margin": self.min_margin,
        }


def homotopy_constant(spec):
    """Interior right-hand side of the t = 0 member: the degree-k value of
    the lift of the identity Hessian."""
    return math.comb(spec.size, spec.k) * float(spec.m) ** spec.k


class DiscreteSystem:
    """Discrete Neumann problem on a grid.

    Interior rows at ``grid.interior_flat`` set S_k of the lifted Hessian
    spectrum to the homotopy right-hand side; boundary rows at
    ``grid.boundary_flat`` impose u_nu + a u = target with the grid's
    ``normal_derivative`` and its ``dnu_*`` triplets. A grid kind supplies
    ``_spectra`` (Hessian eigenvalues at the equation nodes) and
    ``_interior_stencil`` (COO triplets of the linearized interior rows).
    """

    kind = None
    geometry_kinds = ()

    def __init__(self, problem, grid):
        if problem.geom.kind not in self.geometry_kinds:
            raise ConfigError(
                f"{self.kind} system needs a {'/'.join(self.geometry_kinds)} domain"
            )
        if grid.dim != problem.spec.n:
            raise ConfigError(
                f"grid dimension {grid.dim} does not match n = {problem.spec.n}"
            )
        self.problem = problem
        self.grid = grid
        self.spec = problem.spec
        self.table = lift.subset_table(self.spec.n, self.spec.m)
        self.K0 = homotopy_constant(self.spec)
        bidx = grid.boundary_flat
        points_b, normals_b = grid.points[bidx], grid.normals[bidx]
        self.a_b = np.asarray(problem.a(points_b), dtype=np.float64)
        self.b_b = np.asarray(problem.b(points_b, normals_b), dtype=np.float64)
        if np.any(self.a_b <= 0):
            raise ConfigError("boundary field a must be positive")
        self.x_dot_nu = (points_b * normals_b).sum(axis=1)
        self.half_sq_b = 0.5 * (points_b**2).sum(axis=1)
        self.interior_points = grid.points[grid.interior_flat]

    @property
    def npoints(self):
        return self.grid.npoints

    def initial_values(self):
        return 0.5 * (self.grid.points**2).sum(axis=1)

    def validate(self):
        """Reject non-finite data and a nonpositive f; NaN fails every
        comparison, so it must be caught here before it reaches Newton."""
        vals = self.problem.eval_f(self.grid.points, self.initial_values())
        for name, field_vals in (("f", vals), ("a", self.a_b), ("b", self.b_b)):
            if not np.all(np.isfinite(field_vals)):
                raise ConfigError(f"{name} must be finite on the closed domain")
        if np.any(vals <= 0):
            raise ConfigError("f must be positive on the closed domain")

    def boundary_target(self, t):
        return t * self.b_b + (1.0 - t) * (self.x_dot_nu + self.a_b * self.half_sq_b)

    def rhs(self, t, values):
        fvals = self.problem.eval_f(
            self.interior_points, values[self.grid.interior_flat]
        )
        return t * fvals + (1.0 - t) * self.K0

    def _sym(self, values):
        """S_0..S_k of the lifted spectra at the equation nodes."""
        lam = _kernels.subset_sums(self._spectra(values), self.table.tuples)
        return _kernels.elem_sym_all(lam, self.spec.k)

    def margins(self, values):
        return _kernels.cone_margin(self._sym(values), self.spec.k)

    def min_margin(self, values):
        return float(self.margins(values).min())

    def residual_and_margin(self, values, t):
        grid = self.grid
        s = self._sym(values)
        margins = _kernels.cone_margin(s, self.spec.k)
        res = np.empty(self.npoints)
        res[grid.interior_flat] = s[:, self.spec.k] - self.rhs(t, values)
        res[grid.boundary_flat] = (
            grid.normal_derivative(values)
            + self.a_b * values[grid.boundary_flat]
            - self.boundary_target(t)
        )
        return res, margins

    def check_admissible(self, margins):
        if not margins.min() > 0:
            node = int(self.grid.interior_flat[margins.argmin()])
            raise AdmissibilityError(
                f"state not admissible at node {node} (margin {margins.min():.3e})",
                node=node, margin=float(margins.min()),
            )

    def residual(self, values, t, require_admissible=True):
        res, margins = self.residual_and_margin(values, t)
        if require_admissible:
            self.check_admissible(margins)
        return res

    def jacobian(self, values, t):
        grid = self.grid
        parts = [self._interior_stencil(values)]
        if self.problem.f_u is not None:
            fu = self.problem.eval_f_u(
                self.interior_points, values[grid.interior_flat]
            )
            parts.append((grid.interior_flat, grid.interior_flat, -t * fu))
        parts.append((grid.dnu_rows, grid.dnu_cols, grid.dnu_vals))
        parts.append((grid.boundary_flat, grid.boundary_flat, self.a_b))
        rows, cols, data = (np.concatenate(p) for p in zip(*parts))
        return sp.csr_matrix(
            (data, (rows, cols)), shape=(self.npoints, self.npoints)
        )

    def c0_report(self, values, cfg):
        return geometry.c0_diagnostic(
            values, self.grid.boundary_flat, self.a_b, self.b_b,
            self.grid.h, cfg.c0_slack,
        )


class RadialSystem(DiscreteSystem):
    """Discrete operator on a 1-D radial mesh over a ball."""

    kind = "radial"
    geometry_kinds = ("ball", "radial")

    def _spectra(self, values):
        return grids.radial_spectra(self.grid, values)

    def _interior_stencil(self, values):
        grid = self.grid
        M, h = grid.M, grid.h
        lam = _kernels.subset_sums(self._spectra(values), self.table.tuples)
        deleted = _kernels.deleted_sym(lam, self.spec.k - 1)
        fii = _kernels.fold_tuple_gradient(deleted, self.table.tuples, self.spec.n)
        # center row: Hessian is u''(0) * identity, so the weight is the trace
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


class BoxSystem(DiscreteSystem):
    """Discrete operator on a uniform box lattice."""

    kind = "box"
    geometry_kinds = ("box",)

    def __init__(self, problem, grid):
        super().__init__(problem, grid)
        self.stencil_cols, self.stencil_roles = grids.box_interior_stencil(grid)

    def _spectra(self, values):
        return np.linalg.eigvalsh(grids.box_hessians(self.grid, values))

    def _interior_stencil(self, values):
        H = grids.box_hessians(self.grid, values)
        F, _, _ = lift.gradient_batch(H, self.spec)
        vals = grids.box_interior_values(self.grid, F, self.stencil_roles)
        rows = np.repeat(self.grid.interior_flat, vals.shape[1])
        return rows, self.stencil_cols.ravel(), vals.ravel()


# V-cycle constants (Briggs, Henson & McCormick, A Multigrid Tutorial)
_MG_OMEGA = 0.8  # damped Jacobi weight
_MG_SWEEPS = 2  # Jacobi sweeps before and after each coarse correction


class VCycle:
    """Geometric multigrid V-cycle on a box lattice, applied as ``vcycle(b)``.

    Levels halve every axis with ``grids.box_prolongation`` and carry the
    Galerkin operators P^T A P. Every level smooths with damped Jacobi; the
    coarsest is LU-factored once when it has at most ``direct_limit``
    unknowns and is otherwise only smoothed, so a lattice that cannot be
    halved gets a Jacobi-smoothing preconditioner. ``applications`` counts
    the cycles run.
    """

    def __init__(self, A, shape, direct_limit):
        # restriction P^T is stored as CSR: products with the transposed
        # (CSC) view of P take about twice as long
        self.ops, self.prolong, self.restrict = [A.tocsr()], [], []
        while (coarse := grids.box_prolongation(shape)) is not None:
            P, shape = coarse
            R = P.T.tocsr()
            self.prolong.append(P)
            self.restrict.append(R)
            self.ops.append((R @ self.ops[-1] @ P).tocsr())
        self.inv_diag = []
        for op in self.ops:
            diag = op.diagonal()
            diag[diag == 0] = 1.0
            self.inv_diag.append(1.0 / diag)
        coarsest = self.ops[-1]
        self.lu = spla.splu(coarsest.tocsc()) if coarsest.shape[0] <= direct_limit else None
        self.applications = 0

    def _smooth(self, level, x, b, sweeps):
        A, inv_diag = self.ops[level], self.inv_diag[level]
        for _ in range(sweeps):
            x = x + _MG_OMEGA * inv_diag * (b - A @ x)
        return x

    def _cycle(self, level, b):
        if level == len(self.prolong):
            if self.lu is not None:
                return self.lu.solve(b)
            return self._smooth(level, np.zeros_like(b), b, 2 * _MG_SWEEPS)
        x = self._smooth(level, np.zeros_like(b), b, _MG_SWEEPS)
        coarse_rhs = self.restrict[level] @ (b - self.ops[level] @ x)
        x = x + self.prolong[level] @ self._cycle(level + 1, coarse_rhs)
        return self._smooth(level, x, b, _MG_SWEEPS)

    def __call__(self, b):
        self.applications += 1
        return self._cycle(0, np.ravel(b))


def _linear_solve(J, rhs, shape, cfg):
    """Solve J x = rhs on a grid of the given node shape.

    Returns (x, Krylov iterations). Systems with at most ``cfg.direct_limit``
    unknowns go to sparse LU (0 iterations). Larger ones are scaled to unit
    diagonal, D^-1 J x = D^-1 rhs, and solved by lgmres preconditioned with a
    V-cycle; the count is the V-cycle applications, one per Krylov iteration.
    """
    if J.shape[0] <= cfg.direct_limit:
        return spla.spsolve(J.tocsc(), rhs), 0
    diag = J.diagonal()
    diag[diag == 0] = 1.0
    A = sp.diags(1.0 / diag) @ J
    vcycle = VCycle(A, shape, cfg.direct_limit)
    precond = spla.LinearOperator(J.shape, matvec=vcycle, dtype=np.float64)
    sol, info = spla.lgmres(
        A, rhs / diag, M=precond, rtol=1e-12, atol=0.0, maxiter=5000
    )
    if info != 0:
        raise NonconvergenceError(f"iterative linear solve failed (info={info})")
    return sol, vcycle.applications


def newton_solve(system, values, t, cfg=None):
    """Damped Newton with backtracking: a step is accepted only when the
    residual norm satisfies the Armijo decrease and every node stays inside
    the admissibility cone by at least the margin floor."""
    cfg = cfg or SolverConfig()
    tol = cfg.tolerance(system.kind)
    u = np.asarray(values, dtype=np.float64).copy()
    res, margins = system.residual_and_margin(u, t)
    margin = float(margins.min())
    norm = float(np.abs(res).max())
    if not (math.isfinite(norm) and math.isfinite(margin)):
        raise NonconvergenceError(
            f"non-finite initial residual {norm:.3e} or margin {margin:.3e} at t={t:g}",
            last_values=u, residual_norm=norm,
        )
    if not margin > 0:
        raise AdmissibilityError(
            f"initial state not admissible (margin {margin:.3e})", margin=margin
        )
    stats = {"iters": 0, "linear_iters": 0, "residual_norm": norm,
             "min_margin": margin, "residual_history": [norm]}
    while norm > tol:
        if stats["iters"] >= cfg.max_iter:
            raise NonconvergenceError(
                f"no convergence in {cfg.max_iter} iterations (|res|={norm:.3e})",
                last_values=u, residual_norm=norm,
            )
        J = system.jacobian(u, t)
        delta, linear_iters = _linear_solve(J, -res, system.grid.shape, cfg)
        stats["linear_iters"] += linear_iters
        step = 1.0
        while True:
            trial = u + step * delta
            t_res, t_margins = system.residual_and_margin(trial, t)
            t_margin = float(t_margins.min())
            t_norm = float(np.abs(t_res).max())
            if t_margin >= cfg.margin_floor and t_norm <= (1.0 - cfg.armijo * step) * norm:
                break
            step *= cfg.backtrack
            if step < cfg.step_min:
                raise NonconvergenceError(
                    f"line search stalled at t={t:g} (|res|={norm:.3e})",
                    last_values=u, residual_norm=norm,
                )
        u, res, norm = trial, t_res, t_norm
        stats["iters"] += 1
        stats["min_margin"] = min(stats["min_margin"], t_margin)
        stats["residual_history"].append(norm)
        stats["residual_norm"] = norm
    return u, stats


def continuation_solve(system, cfg=None):
    """Follow the homotopy path from the exact t = 0 quadratic to t = 1.

    The step size halves on Newton failure and grows by the configured factor
    on success; failure below dt_min aborts with the last good state.
    """
    cfg = cfg or SolverConfig()
    system.validate()
    u = system.initial_values()
    state = ContinuationState(t=0.0, values=u)
    u, stats = newton_solve(system, u, 0.0, cfg)
    state.values = u
    state.steps.append({"t": 0.0, "dt": 0.0, **_step_stats(stats)})
    dt = cfg.dt0
    while state.t < 1.0:
        dt = min(dt, 1.0 - state.t)
        try:
            u_new, stats = newton_solve(system, state.values, state.t + dt, cfg)
        except (NonconvergenceError, AdmissibilityError):
            dt *= 0.5
            if dt < cfg.dt_min:
                raise ContinuationError(
                    f"step size underflow at t={state.t:g}",
                    last_t=state.t, last_values=state.values,
                )
            continue
        state.t = state.t + dt
        state.values = u_new
        state.steps.append({"t": state.t, "dt": dt, **_step_stats(stats)})
        dt = min(dt * cfg.grow, cfg.dt_max)
    state.diagnostics = final_diagnostics(system, state, cfg)
    return state


def _step_stats(stats):
    return {
        "newton_iters": stats["iters"],
        "linear_iters": stats["linear_iters"],
        "residual_norm": stats["residual_norm"],
        "min_margin": stats["min_margin"],
    }


def final_diagnostics(system, state, cfg):
    """C0 report and residual at t = 1; keeps the per-node margins on
    ``state.margins`` (NaN on boundary nodes)."""
    res, margins = system.residual_and_margin(state.values, 1.0)
    system.check_admissible(margins)
    state.margins = np.full(system.npoints, np.nan)
    state.margins[system.grid.interior_flat] = margins
    report = system.c0_report(state.values, cfg)
    report["final_residual_norm"] = float(np.abs(res).max())
    report["min_margin_on_path"] = state.min_margin
    report["admissible_everywhere"] = bool(state.min_margin > 0)
    return report


def radial_solve(problem, M, cfg=None):
    """Continuation solve on a 1-D radial mesh with M intervals."""
    grid = grids.radial_grid(problem.geom.radius, M, problem.spec.n)
    return continuation_solve(RadialSystem(problem, grid), cfg), grid


def box_solve(problem, nodes, cfg=None):
    """Continuation solve on a box lattice with the given nodes per axis."""
    grid = grids.box_grid(problem.geom.extents, nodes, problem.geom.center)
    return continuation_solve(BoxSystem(problem, grid), cfg), grid


# ---------------------------------------------------------------------------
# manufactured problems


def radial_quartic_problem(spec, R=1.0, coef=0.05, a_const=1.0):
    """Radial field r^2/2 + coef r^4 with data derived exactly from it."""
    table = lift.subset_table(spec.n, spec.m)

    def exact(r):
        r = np.asarray(r, dtype=np.float64)
        return 0.5 * r * r + coef * r**4

    def spectra(r):
        r = np.asarray(r, dtype=np.float64).reshape(-1)
        out = np.empty((r.size, spec.n))
        out[:, 0] = 1.0 + 12.0 * coef * r * r
        out[:, 1:] = (1.0 + 4.0 * coef * r * r)[:, None]
        return out

    def f(points):
        lam = _kernels.subset_sums(spectra(points[:, 0]), table.tuples)
        return _kernels.elem_sym_all(lam, spec.k)[:, spec.k]

    def a(points):
        return np.full(points.shape[0], a_const)

    def b(points, normals):
        r = points[:, 0]
        du = r + 4.0 * coef * r**3
        return du * normals[:, 0] + a_const * exact(r)

    problem = ProblemSpec(
        spec=spec, geom=geometry.radial(R, dim=spec.n), f=f, a=a, b=b
    )
    return problem, lambda pts: exact(np.asarray(pts)[:, 0])


def box_cosine_problem(spec, extents=None, amp=0.05, a_const=1.0):
    """Box field |x|^2/2 + amp * prod cos(pi x_c / 2), data derived exactly."""
    extents = np.full(spec.n, 2.0) if extents is None else np.asarray(extents, float)
    geom = geometry.box(extents)

    def parts(points):
        arg = 0.5 * math.pi * points
        return np.cos(arg), np.sin(arg)

    def exact(points):
        points = np.asarray(points, dtype=np.float64)
        cos, _ = parts(points)
        return 0.5 * (points**2).sum(axis=1) + amp * cos.prod(axis=1)

    def hessians(points):
        points = np.asarray(points, dtype=np.float64)
        cos, sin = parts(points)
        P = cos.prod(axis=1)
        n = spec.n
        H = np.zeros((points.shape[0], n, n))
        quart = (0.5 * math.pi) ** 2
        for c in range(n):
            H[:, c, c] = 1.0 - amp * quart * P
            for d in range(c + 1, n):
                others = np.ones(points.shape[0])
                for e in range(n):
                    if e not in (c, d):
                        others = others * cos[:, e]
                H[:, c, d] = H[:, d, c] = amp * quart * sin[:, c] * sin[:, d] * others
        return H

    def gradient(points):
        points = np.asarray(points, dtype=np.float64)
        cos, sin = parts(points)
        n = spec.n
        g = np.array(points, copy=True)
        for c in range(n):
            others = np.ones(points.shape[0])
            for e in range(n):
                if e != c:
                    others = others * cos[:, e]
            g[:, c] -= amp * 0.5 * math.pi * sin[:, c] * others
        return g

    def f(points):
        lam = lift.sum_spectrum_batch(hessians(points), spec.m)
        return _kernels.elem_sym_all(lam, spec.k)[:, spec.k]

    def a(points):
        return np.full(points.shape[0], a_const)

    def b(points, normals):
        return (gradient(points) * normals).sum(axis=1) + a_const * exact(points)

    problem = ProblemSpec(spec=spec, geom=geom, f=f, a=a, b=b)
    return problem, exact


def manufactured_suite(kind, spec, meshes, cfg=None, **kwargs):
    """Solve a manufactured problem on a mesh family and report the observed
    convergence order (least-squares slope of log error against log h)."""
    cfg = cfg or SolverConfig()
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


def _smooth_field(rng, r):
    bump = rng.normal(0.0, 1.0, size=4)
    return (
        bump[0] * r**2 + bump[1] * r**3 + bump[2] * np.cos(2 * r) + bump[3]
    )


def verify_jacobian_suite(spec_list=None, states=10, seed=0, M=40, rtol=1e-5):
    """Directional finite-difference check of the assembled Jacobian at
    randomly perturbed admissible states on radial meshes.

    Directions are smooth fields: rough nodewise noise would push the
    difference quotient into its third-order truncation regime through the
    1/h^2 stencil amplification, measuring the probe instead of the matrix.
    """
    if spec_list is None:
        spec_list = [lift.ConeSpec(3, 2, 2), lift.ConeSpec(4, 2, 2), lift.ConeSpec(4, 2, 3)]
    rng = np.random.default_rng(seed)
    report = SampleReport(suite="jacobian")
    for spec in spec_list:
        problem, _ = radial_quartic_problem(spec, coef=0.05)
        grid = grids.radial_grid(1.0, M, spec.n)
        system = RadialSystem(problem, grid)
        base = system.initial_values()
        count = 0
        states_u, margins = [], []
        while count < states:
            u = base + 1e-3 * _smooth_field(rng, grid.r)
            if system.min_margin(u) <= 0:
                continue
            count += 1
            t = float(rng.uniform(0.2, 1.0))
            J = system.jacobian(u, t)
            v = _smooth_field(rng, grid.r)
            v /= np.abs(v).max()
            eps = 1e-6
            fd = (
                system.residual(u + eps * v, t, require_admissible=False)
                - system.residual(u - eps * v, t, require_admissible=False)
            ) / (2.0 * eps)
            Jv = J @ v
            scale = float(np.abs(Jv).max())
            rel = float(np.abs(Jv - fd).max()) / max(scale, 1e-30)
            states_u.append(u)
            margins.append(rtol - rel)
        report.record_block(
            {
                "hypothesis": np.ones(states, dtype=bool),
                "margins": {f"jacobian_{spec.n}_{spec.m}_{spec.k}": np.array(margins)},
            },
            np.array(states_u),
        )
    return report
