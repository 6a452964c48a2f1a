"""Continuation Newton solver for the eigenvalue-sum Neumann problem.

The interior equation sets the degree-k symmetric value of the lifted
discrete Hessian equal to the homotopy right-hand side; boundary rows impose
the Robin-type normal derivative condition. The t = 0 member is solved
exactly by q = |x|^2 / 2; Newton's state is the deviation w = u - q, which
path following carries from 0 at t = 0 to t = 1 with damped,
admissibility-guarded Newton steps.
"""

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from . import _kernels, geometry, grids, lift
from .cones import SampleReport
from .errors import AdmissibilityError, ConfigError, ContinuationError, NonconvergenceError


@dataclass
class ProblemSpec:
    """Data of the Neumann problem: operator dimensions, domain, and fields.

    ``f`` maps interior points (P, d) to positive values; optionally it may
    depend on the solution through ``f(points, u)`` with the monotone
    derivative ``f_u <= 0`` supplied separately. Without ``f_u``, ``f`` is
    fixed data and a discrete system evaluates it once. ``a`` (positive) and
    ``b`` are boundary fields; ``b`` receives (points, normals).
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


# Newton: iterations per continuation step; the line search's Armijo
# factor, backtracking factor and smallest step
MAX_ITER = 30
ARMIJO = 1e-4
BACKTRACK = 0.5
STEP_MIN = 1e-6
# dt factor after an accepted step that took <= 2, 3 or >= 4 Newton
# iterations: a fast contraction says the step could have been longer
# (Deuflhard, Newton Methods for Nonlinear Problems, 2004)
GROW = (4.0, 2.0, 1.0)
# inexact Newton (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19,
# 1982): the Krylov solve's relative tolerance follows the nonlinear
# progress, see ``forcing``; the largest, and the factor on the squared
# residual ratio
FORCING_MAX = 1e-2
FORCING_GAMMA = 0.9
# largest box system sent to banded LU: per linear solve against a V-cycle
# build plus lgmres at forcing 1e-2, 7^3 takes 0.53 against 1.71 ms, 9^3
# 2.28 against 3.00 ms and 11^3 7.32 against 3.48 ms; the band's work grows
# as n^7/3 and the multigrid's as n. Radial systems take banded LU at every size
DIRECT_LIMIT = 500
# the radial Newton state's dtype. In float64 one ulp per node moves the
# radial residual by up to 2.7e-8, above its 1e-10 tolerance, and a float64
# deviation state still stalls (5,2,3) at M = 256 (t = 0.40) and rejects
# steps at (4,2,3)-256 and (5,2,3)-128; numpy's longdouble (x87 80-bit, eps
# 1.1e-19, on x86-64 Linux) clears that floor where the platform has it. The
# Jacobian and linear solve stay float64: Newton needs only an approximate
# Jacobian (Kelley, "Newton's method in mixed precision", SIAM Review 64, 2022)
EXTENDED = np.dtype(
    np.longdouble if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps else np.float64
)


def growth(newton_iters):
    """dt factor after an accepted step that took ``newton_iters``."""
    return GROW[min(max(newton_iters - 2, 0), 2)]


@dataclass
class SolverConfig:
    """The settings a ``solve`` config may set: the CLI reads its fields.
    An unset ``dt0``, the first continuation step, is ``dt_max``; under the
    default dt_max = 1 it spans the whole path (``continuation_solve``)."""

    tol_abs: float = None  # the system's ``default_tol`` when None
    margin_floor: float = 1e-12
    dt0: float = None  # dt_max when None
    dt_min: float = 1e-4
    dt_max: float = 1.0

    def __post_init__(self):
        if self.dt0 is None:
            self.dt0 = self.dt_max
        # a NaN or zero step never advances t and never underflows dt_min;
        # every comparison with NaN is false, so the chains reject it
        if not 0 < self.dt_min <= self.dt0 <= self.dt_max < math.inf:
            raise ConfigError(
                f"need finite 0 < dt_min <= dt0 <= dt_max, got "
                f"dt_min={self.dt_min}, dt0={self.dt0}, dt_max={self.dt_max}"
            )
        if not 0 <= self.margin_floor < math.inf:
            raise ConfigError(f"need finite margin_floor >= 0, got {self.margin_floor}")
        if self.tol_abs is not None and not 0 < self.tol_abs < math.inf:
            raise ConfigError(f"need finite tol_abs > 0, got {self.tol_abs}")


@dataclass
class ContinuationState:
    t: float
    deviation: np.ndarray = field(repr=False)  # Newton's state w = u - q
    values: np.ndarray = None  # u = q + w at t = 1, set by final_diagnostics
    steps: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    margins: np.ndarray = field(default=None, repr=False)  # t = 1, NaN on boundary
    rejected_steps: list = field(default_factory=list)  # t, dt, error per failed attempt
    # wall seconds per Newton phase; kept out of as_dict, which must replay
    profile: dict = field(default_factory=dict)

    @property
    def min_margin(self):
        return min(s["min_margin"] for s in self.steps)

    def as_dict(self):
        return {
            "t": self.t,
            "steps": self.steps,
            "rejected_steps": self.rejected_steps,
            "diagnostics": self.diagnostics,
            "min_margin": self.min_margin,
        }


def homotopy_constant(spec):
    """Interior right-hand side of the t = 0 member: the degree-k value of
    the lift of the identity Hessian."""
    return math.comb(spec.size, spec.k) * float(spec.m) ** spec.k


class DiscreteSystem:
    """Discrete Neumann problem on a grid for the deviation w = u - q from
    the exact t = 0 state q = |x|^2 / 2: every ``values`` is w, and the
    fields f and f_u see u = ``solution(w)`` = q + w.

    Interior rows at ``grid.interior_flat`` set S_k of the lifted Hessian
    spectrum to the homotopy right-hand side. A grid kind supplies ``_sym``
    (the S_0..S_k table of the lifted Hessians at the equation nodes) and
    ``_data_gradient`` (W, the derivative of S_k with respect to the grid's
    stencil data at each equation node), both from the stencil data of w
    plus q's exact data. The linearized interior rows are ``stencil_values``,
    ``stencil_coef @ W.T`` at the columns ``stencil_cols``. The boundary rows
    B (the ``dnu_*`` triplets plus the a_b diagonal) are linear and fixed:
    the residual reads them from the Jacobian's data as
    ``boundary_rows @ w - t g_b``, g_b = b - B q. The Jacobian's CSR pattern
    is built once per system; each ``jacobian`` call only fills its values.
    Newton keeps w, and so the residual, in ``state_dtype``; the Jacobian is
    float64. ``default_tol`` is Newton's |res| tolerance when the config
    sets no ``tol_abs``. The field data is evaluated with numpy's
    floating-point warnings off: ``validate`` refuses a value that is not
    finite, so a warning would only repeat the refusal.
    """

    kind = None
    geometry_kinds = ()
    state_dtype = np.dtype(np.float64)
    default_tol = None

    @np.errstate(all="ignore")
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
        self.K0 = homotopy_constant(self.spec)
        bidx = grid.boundary_flat
        points_b, normals_b = grid.points[bidx], grid.normals[bidx]
        self.a_b = np.asarray(problem.a(points_b), dtype=np.float64)
        self.b_b = np.asarray(problem.b(points_b, normals_b), dtype=np.float64)
        if np.any(self.a_b <= 0):
            raise ConfigError("boundary field a must be positive")
        self.q = 0.5 * (grid.points**2).sum(axis=1)
        self.interior_points = grid.points[grid.interior_flat]
        # without f_u the field cannot depend on u: evaluate it once here
        self.f_interior = (
            problem.eval_f(self.interior_points, None) if problem.f_u is None else None
        )
        # the Jacobian's pattern holds the interior stencil, the -t f_u
        # diagonal, the dnu triplets and the a_b diagonal. The boundary rows
        # do not depend on the state, so their entries are summed here once,
        # dnu first and then a_b, the order a COO assembly sums them in. Every
        # Jacobian shares indptr and indices, so they are made read-only
        interior = grid.interior_flat
        self.indptr, self.indices, positions = _csr_pattern(
            [(interior, grid.stencil_cols), (interior, interior),
             (grid.dnu_rows, grid.dnu_cols), (bidx, bidx)],
            self.npoints,
        )
        self.indptr.flags.writeable = self.indices.flags.writeable = False
        self._stencil_pos, self._diag_pos, dnu_pos, diag_b_pos = positions
        self._fixed_data = np.zeros(self.indices.size)
        np.add.at(self._fixed_data, dnu_pos, grid.dnu_vals)
        np.add.at(self._fixed_data, diag_b_pos, self.a_b)
        self.boundary_rows = sp.csr_matrix(
            (self._fixed_data, self.indices, self.indptr), shape=(self.npoints, self.npoints)
        )[bidx]
        self.g_b = self.b_b - self.boundary_rows @ self.q

    @property
    def npoints(self):
        return self.grid.npoints

    def initial_values(self):
        return np.zeros(self.npoints, dtype=self.state_dtype)

    def solution(self, values):
        """The solution u = q + w of the deviation w = ``values``."""
        return self.q + values

    @np.errstate(all="ignore")
    def validate(self):
        """Reject non-finite data and a nonpositive f; NaN fails every
        comparison, so it must be caught here before it reaches Newton."""
        if self.f_interior is None:
            vals = self.problem.eval_f(self.grid.points, self.q)
        else:
            # fixed f is in hand on the interior; the boundary nodes complete
            # the closed domain
            boundary = self.grid.points[self.grid.boundary_flat]
            vals = np.append(self.f_interior, self.problem.eval_f(boundary, None))
        for name, field_vals in (("f", vals), ("a", self.a_b), ("b", self.b_b)):
            if not np.all(np.isfinite(field_vals)):
                raise ConfigError(f"{name} must be finite on the closed domain")
        if np.any(vals <= 0):
            raise ConfigError("f must be positive on the closed domain")

    def rhs(self, t, values):
        fvals = self.f_interior
        if fvals is None:
            fvals = self.problem.eval_f(
                self.interior_points, self.solution(values)[self.grid.interior_flat]
            )
        return t * fvals + (1.0 - t) * self.K0

    def residual_and_margin(self, values, t):
        grid = self.grid
        s = self._sym(values)
        margins = _kernels.cone_margin(s, self.spec.k)
        res = np.empty(self.npoints, dtype=s.dtype)
        res[grid.interior_flat] = s[:, self.spec.k] - self.rhs(t, values)
        res[grid.boundary_flat] = self.boundary_rows @ values - t * self.g_b
        return res, margins

    def check_admissible(self, margins):
        if not margins.min() > 0:
            node = int(self.grid.interior_flat[margins.argmin()])
            raise AdmissibilityError(
                f"state not admissible at node {node} (margin {margins.min():.3e})",
                node=node, margin=float(margins.min()),
            )

    def stencil_values(self, values):
        """The linearized interior rows, (S, Pe) in the slots of
        ``grid.stencil_cols``: ``stencil_coef @ W.T``."""
        return self.grid.stencil_coef @ self._data_gradient(values).T

    def jacobian(self, values, t):
        values = np.asarray(values, dtype=np.float64)
        data = self._fixed_data.copy()
        # add, not assign: a slot pair may repeat, as the radial center's
        # two mirror slots both name node 1
        np.add.at(data, self._stencil_pos, self.stencil_values(values).ravel())
        if self.problem.f_u is not None:
            fu = self.problem.eval_f_u(
                self.interior_points, self.solution(values)[self.grid.interior_flat]
            )
            data[self._diag_pos] += -t * fu
        return sp.csr_matrix(
            (data, self.indices, self.indptr), shape=(self.npoints, self.npoints)
        )


def _csr_pattern(parts, size):
    """CSR pattern of a size x size matrix with the (rows, cols) pairs of
    each of ``parts``.

    Returns (indptr, indices, positions): int32 ``indptr`` and ``indices``,
    the indices sorted within each row and without duplicates, and for each
    part the int32 data positions of its pairs, in the order of the broadcast
    ``rows * size + cols``; repeated pairs share one position.
    """
    keys = [(np.asarray(rows, dtype=np.int64) * size + cols).ravel() for rows, cols in parts]
    ends = np.cumsum([part.size for part in keys])[:-1]
    keys = np.concatenate(keys)
    # np.unique would quicksort; a stable sort runs through the sorted key
    # runs of a slot-major layout in about a third of the time (7 vs 18 ms
    # for the 626k pairs of a 33^3 box)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    group = np.cumsum(first, dtype=np.intp)
    group -= 1
    pos = np.empty(keys.size, dtype=np.int32)
    pos[order] = group
    del order, group  # before the index arrays: the 33^3 build peaks 10 MB lower
    keys = keys[first]
    indptr = np.searchsorted(keys, np.arange(size + 1) * size).astype(np.int32)
    return indptr, (keys % size).astype(np.int32), np.split(pos, ends)


class RadialSystem(DiscreteSystem):
    """Discrete operator on a 1-D radial mesh over a ball."""

    kind = "radial"
    geometry_kinds = ("ball",)
    state_dtype = EXTENDED
    default_tol = 1e-10

    def _profiles(self, values):
        # q's profiles u'' and u'/r are 1 at every node
        return grids.radial_spectra(self.grid, values) + 1

    def _sym(self, values):
        profiles = self._profiles(values)
        return lift.radial_sym(profiles[:, 0], profiles[:, 1], self.spec)

    def _data_gradient(self, values):
        grid = self.grid
        profiles = self._profiles(values)
        d_alpha, d_beta = lift.radial_weights(profiles[:, 0], profiles[:, 1], self.spec)
        # back through the profiles map: u'' is alpha and u'/r is beta; at
        # the center alpha = beta = u''(0), so u'' takes both partials and u'
        # none. The rows agree with the hand-differentiated ones in
        # tests/oracles.py, which sum msum_weights over the tangential
        # columns, to roundoff, not bit for bit
        M = grid.mesh
        W = np.zeros((M, 2))
        W[:, 0] = d_alpha
        W[0, 0] += d_beta[0]
        W[1:, 1] = d_beta[1:] * (1.0 / grid.points[1:M, 0])
        return W


class BoxSystem(DiscreteSystem):
    """Discrete operator on a uniform box lattice."""

    kind = "box"
    geometry_kinds = ("box",)
    default_tol = 1e-8

    def _hessians(self, values):
        H = grids.box_hessians(self.grid, values)
        # q's Hessian is I, added in place: a copy costs 0.16 ms at 33^3
        for c in range(self.grid.dim):
            H[:, c, c] += 1.0
        return H

    def _sym(self, values):
        return lift.sym_batch(self._hessians(values), self.spec)

    def _data_gradient(self, values):
        F, _ = lift.gradient_batch(self._hessians(values), self.spec)
        return F.reshape(F.shape[0], -1)


# V-cycle constants (Briggs, Henson & McCormick, A Multigrid Tutorial)
_MG_OMEGA = 0.8  # damped Jacobi weight
_MG_SWEEPS = 2  # Jacobi sweeps before and after each coarse correction


class VCycle:
    """Coarse hierarchy of a geometric multigrid V-cycle on a box lattice.

    Built from one fine operator A, it keeps only what lies below it: levels
    that halve every axis to n // 2 + 1 nodes with ``grids.box_prolongation``
    until some axis has 3 or 4, their restrictions, the Galerkin operators
    P^T A P, and the banded LU of the coarsest of them. Every box lattice
    has at least one coarse level. Each level above the coarsest smooths
    with damped Jacobi, pre-smoothing from x = 0 (``_presmooth``).
    ``preconditioner(A)`` runs the cycle under a current fine operator, so one
    hierarchy serves the later Jacobians of a Newton solve and holds no
    reference to any of them. ``applications`` counts the cycles run.
    """

    def __init__(self, A, shape):
        # restriction P^T is stored as CSR: products with the transposed
        # (CSC) view of P take about twice as long
        self.ops, self.prolong, self.restrict = [], [], []
        op = A.tocsr()
        while (coarse := grids.box_prolongation(shape)) is not None:
            P, shape = coarse
            R = P.T.tocsr()
            op = (R @ op @ P).tocsr()
            self.prolong.append(P)
            self.restrict.append(R)
            self.ops.append(op)
        self.inv_diag = [_inv_diagonal(op) for op in self.ops[:-1]]
        self.lu = _BandedLU(self.ops[-1], shape)
        self.applications = 0

    def preconditioner(self, A):
        """The V-cycle with fine operator ``A`` on top, as a LinearOperator."""
        # a partial, not a recursive closure: a closure that calls itself is
        # a reference cycle, and would keep A alive until the next collection
        levels = ([A, *self.ops], [_inv_diagonal(A), *self.inv_diag])
        return spla.LinearOperator(
            A.shape, matvec=functools.partial(self._apply, *levels), dtype=np.float64
        )

    def _apply(self, ops, inv_diag, b):
        self.applications += 1
        return self._cycle(ops, inv_diag, 0, np.ravel(b))

    def _cycle(self, ops, inv_diag, level, b):
        if level == len(self.prolong):
            return self.lu.solve(b)
        A, inv = ops[level], inv_diag[level]
        x = _presmooth(A, inv, b)
        coarse_rhs = self.restrict[level] @ (b - A @ x)
        x = x + self.prolong[level] @ self._cycle(ops, inv_diag, level + 1, coarse_rhs)
        return _smooth(A, inv, x, b, _MG_SWEEPS)


def _smooth(A, inv_diag, x, b, sweeps):
    """``sweeps`` damped Jacobi sweeps on A x = b from x."""
    for _ in range(sweeps):
        x = x + _MG_OMEGA * inv_diag * (b - A @ x)
    return x


def _presmooth(A, inv_diag, b):
    """``_MG_SWEEPS`` damped Jacobi sweeps on A x = b from x = 0; the first
    sweep's iterate omega D^-1 b is formed without the product A @ 0."""
    return _smooth(A, inv_diag, _MG_OMEGA * inv_diag * b, b, _MG_SWEEPS - 1)


def _inv_diagonal(op):
    """Inverse diagonal of ``op`` with zero entries taken as 1."""
    diag = op.diagonal()
    diag[diag == 0] = 1.0
    return 1.0 / diag


def forcing(norm, prev_norm, tol):
    """Relative tolerance of Newton's next Krylov solve (Eisenstat & Walker,
    SIAM J. Sci. Comput. 17, 1996, choice 2, as in Kelley, Solving Nonlinear
    Equations with Newton's Method, 2003): ``FORCING_MAX`` on a Newton
    solve's first step, then FORCING_GAMMA (|F_k| / |F_k-1|)^2, at least
    half of tol / |F_k|, where a looser solve still reaches tol, and at most
    ``FORCING_MAX``. Choice 2's safeguard acts only where FORCING_GAMMA
    eta_k-1^2 exceeds 0.1, which this cap never lets it reach."""
    if prev_norm is None:
        return FORCING_MAX
    eta = FORCING_GAMMA * (norm / prev_norm) ** 2
    return min(FORCING_MAX, max(eta, 0.5 * tol / norm))


def _linear_route(shape):
    """The route ``_linear_solve`` takes on a grid of node ``shape``:
    ``"banded"`` for a radial grid and for a box of at most ``DIRECT_LIMIT``
    nodes, ``"vcycle"`` for a larger box."""
    if len(shape) == 1 or math.prod(shape) <= DIRECT_LIMIT:
        return "banded"
    return "vcycle"


def _linear_solve(J, rhs, shape, rtol=1e-12, cache=None, timing=None):
    """Solve J x = rhs on a grid of the given node shape.

    Returns (x, Krylov iterations); the route is ``_linear_route(shape)``,
    which ``newton_solve`` records once. NonconvergenceError, before any
    route, on a J with a non-finite entry. A radial Jacobian, banded at every
    mesh, and a box one with at most ``DIRECT_LIMIT`` unknowns go to
    ``_BandedLU`` (0 iterations); among cubes these boxes are 5^3 to 7^3,
    the ones a sequenced ``box_solve`` follows its path on. Larger box ones
    are scaled to unit diagonal, D^-1 J x = D^-1 rhs, and solved by lgmres to
    relative tolerance ``rtol``, preconditioned with a V-cycle; D^-1 J
    shares J's ``indices`` and ``indptr`` and scales a copy of its data, so
    J itself must be CSR and is left unchanged. The count is the
    V-cycle applications, one per Krylov iteration. lgmres always runs on
    the exact D^-1 J. The V-cycle's coarse hierarchy comes from the dict
    ``cache`` under ``"vcycle"``; when it holds none, one is built from this
    D^-1 J and stored there, and the build's wall seconds are added to
    ``timing["hierarchy_s"]``.
    """
    if not np.all(np.isfinite(J.data)):
        raise NonconvergenceError("linear solve: non-finite Jacobian entry")
    if _linear_route(shape) == "banded":
        return _BandedLU(J, shape).solve(rhs), 0
    inv_diag = _inv_diagonal(J)
    A = sp.csr_matrix(
        (J.data * np.repeat(inv_diag, np.diff(J.indptr)), J.indices, J.indptr),
        shape=J.shape,
    )
    cache = {} if cache is None else cache
    if "vcycle" not in cache:
        cache["vcycle"] = _timed(
            {} if timing is None else timing, "hierarchy_s", VCycle, A, shape
        )
    vcycle = cache["vcycle"]
    before = vcycle.applications
    sol, info = spla.lgmres(
        A, rhs * inv_diag, M=vcycle.preconditioner(A), rtol=rtol, atol=0.0, maxiter=5000
    )
    cycles = vcycle.applications - before
    if info != 0:
        raise NonconvergenceError(
            f"iterative linear solve failed (info={info}, rtol={rtol:.3g}, "
            f"{cycles} V-cycles)"
        )
    return sol, cycles


class _BandedLU:
    """LU factors of J by LAPACK's banded LU with partial pivoting (Golub &
    Van Loan, Matrix Computations, 4.3): ``dgbtrf`` once here, ``dgbtrs`` per
    ``solve``, the two halves of ``dgbsv``. J is CSR without repeated
    entries on the C-order nodes of a lattice of node ``shape``, renumbered
    longest axis first, so that the band spans the two shortest axes. kl
    and ku are read from that pattern: 2 and 1 on a radial grid, twice the
    first axis's stride for a box Jacobian or a Galerkin operator of one.
    The band array has 2 kl + ku + 1 rows; its top kl rows take the fill-in
    of the row interchanges. NonconvergenceError on an exactly zero pivot,
    and from ``solve`` on a non-finite solution, which overflow gives."""

    def __init__(self, J, shape):
        axes = sorted(range(len(shape)), key=lambda axis: -shape[axis])
        self.order = np.arange(J.shape[0]).reshape(shape).transpose(axes).ravel()
        if axes != sorted(axes):
            J = J[self.order][:, self.order]
        below = np.repeat(np.arange(J.shape[0]), np.diff(J.indptr)) - J.indices
        self.kl, self.ku = int(below.max(initial=0)), int(-below.min(initial=0))
        band = np.zeros((2 * self.kl + self.ku + 1, J.shape[0]), order="F")
        band[self.kl + self.ku + below, J.indices] = J.data
        self.band, self.pivots, info = lapack.dgbtrf(band, self.kl, self.ku, overwrite_ab=True)
        if info > 0:
            raise NonconvergenceError(
                f"banded LU: zero pivot U[{info - 1}, {info - 1}], the matrix is singular"
            )

    def solve(self, rhs):
        x, _ = lapack.dgbtrs(self.band, self.kl, self.ku, rhs[self.order], self.pivots)
        if not np.all(np.isfinite(x)):
            raise NonconvergenceError("banded LU: non-finite solution")
        x[self.order] = x.copy()
        return x


def _timed(timing, key, fn, *args):
    """``fn(*args)``, adding its wall time to ``timing[key]``."""
    begin = time.perf_counter()
    try:
        return fn(*args)
    finally:
        timing[key] = timing.get(key, 0.0) + time.perf_counter() - begin


def newton_solve(system, values, t, cfg=None, start=None, *, timing):
    """Damped Newton with backtracking: a step is accepted only when the
    residual norm satisfies the Armijo decrease and every node stays inside
    the admissibility cone by at least the margin floor. ``start`` is
    ``system.residual_and_margin(values, t)`` when the caller already has it;
    ``values`` is the deviation w, a failure's ``last_values`` is u. Each
    linear solve is inexact, to the relative tolerance ``forcing`` gives,
    and the Krylov solves of one call share the V-cycle hierarchy of its
    first Jacobian. The caller's ``timing`` dict accumulates the wall
    seconds spent in residuals, Jacobian assembly and linear solves as
    ``residual_s``, ``jacobian_s`` and ``linear_solve_s``, and the part of
    ``linear_solve_s`` that built hierarchies as ``hierarchy_s``, also when
    the solve fails. The state and residuals are in ``system.state_dtype``;
    the Jacobian, the linear solve and its update are float64. The returned
    stats keep the |res| Newton started from as ``start_residual_norm`` and
    the route of the system's linear solves as ``linear_route``."""
    cfg = cfg or SolverConfig()
    tol = system.default_tol if cfg.tol_abs is None else cfg.tol_abs
    w = np.array(values, dtype=system.state_dtype)
    res, margins = start if start is not None else _timed(
        timing, "residual_s", system.residual_and_margin, w, t
    )
    margin = float(margins.min())
    norm = float(np.abs(res).max())
    if not (math.isfinite(norm) and math.isfinite(margin)):
        raise NonconvergenceError(
            f"non-finite initial residual {norm:.3e} or margin {margin:.3e} at t={t:g}",
            last_values=system.solution(w), residual_norm=norm,
        )
    if not margin > 0:
        raise AdmissibilityError(
            f"initial state not admissible (margin {margin:.3e})", margin=margin
        )
    stats = {
        "iters": 0, "linear_iters": 0, "start_residual_norm": norm,
        "residual_norm": norm, "min_margin": margin,
        # recorded once: every linear solve of the system takes this route,
        # and a solve that needs no iteration still names it
        "linear_route": _linear_route(system.grid.shape),
    }
    prev_norm = None
    cache = {}  # this solve's V-cycle hierarchy, built by its first Krylov solve
    while norm > tol:
        if stats["iters"] >= MAX_ITER:
            raise NonconvergenceError(
                f"no convergence in {MAX_ITER} iterations (|res|={norm:.3e})",
                last_values=system.solution(w), residual_norm=norm,
            )
        eta = forcing(norm, prev_norm, tol)
        J = _timed(timing, "jacobian_s", system.jacobian, w, t)
        delta, linear_iters = _timed(
            timing, "linear_solve_s", _linear_solve, J,
            -res.astype(np.float64), system.grid.shape, eta, cache, timing
        )
        del J  # the hierarchy keeps no fine operator; free it for the line search
        stats["linear_iters"] += linear_iters
        step = 1.0
        while True:
            trial = w + step * delta
            t_res, t_margins = _timed(
                timing, "residual_s", system.residual_and_margin, trial, t
            )
            t_margin = float(t_margins.min())
            t_norm = float(np.abs(t_res).max())
            if t_margin >= cfg.margin_floor and t_norm <= (1.0 - ARMIJO * step) * norm:
                break
            step *= BACKTRACK
            if step < STEP_MIN:
                raise NonconvergenceError(
                    f"line search stalled at t={t:g} (|res|={norm:.3e})",
                    last_values=system.solution(w), residual_norm=norm,
                )
        w, res, prev_norm, norm = trial, t_res, norm, t_norm
        stats["iters"] += 1
        stats["min_margin"] = min(stats["min_margin"], t_margin)
        stats["residual_norm"] = norm
    return w, stats


def continuation_solve(system, cfg=None):
    """Follow the homotopy path from the exact t = 0 quadratic (w = 0) to
    t = 1.

    The first attempt spans ``cfg.dt0``, which defaults to dt_max and so to
    the whole path: a step is as long as Newton's convergence allows
    (Deuflhard, Newton Methods for Nonlinear Problems, 2004), and path
    following starts only where that Newton solve fails.
    Predictor-corrector (Allgower & Georg, Introduction to Numerical
    Continuation Methods): once two states are accepted, each step's Newton
    starts from the secant prediction w_k + dt / dt_prev (w_k - w_{k-1}) when
    that state is finite and admissible, and from w_k otherwise. An accepted
    step multiplies dt by ``growth`` of its Newton iterations, up to dt_max;
    a failed one is recorded in ``rejected_steps`` and halves dt, and failure
    below dt_min aborts with the last good solution u and the last attempt's
    error. ``state.profile`` totals Newton's phase times over every attempt.
    """
    cfg = cfg or SolverConfig()
    system.validate()
    profile = dict.fromkeys(
        ("residual_s", "jacobian_s", "linear_solve_s", "hierarchy_s"), 0.0
    )
    w, stats = newton_solve(system, system.initial_values(), 0.0, cfg, timing=profile)
    state = ContinuationState(t=0.0, deviation=w, profile=profile)
    state.steps.append(_step(system, 0.0, 0.0, False, stats))
    w_prev = dt_prev = None
    dt = cfg.dt0
    while state.t < 1.0:
        dt = min(dt, 1.0 - state.t)
        t_new = state.t + dt
        start_values, start = state.deviation, None
        if w_prev is not None:
            start_values, start = _secant_start(
                system, state.deviation, w_prev, dt / dt_prev, t_new, cfg
            )
        try:
            w_new, stats = newton_solve(
                system, start_values, t_new, cfg, start, timing=profile
            )
        except (NonconvergenceError, AdmissibilityError) as exc:
            state.rejected_steps.append(_rejected(system.grid.mesh, state.t, dt, exc))
            dt *= 0.5
            if dt < cfg.dt_min:
                raise ContinuationError(
                    f"step size underflow at t={state.t:g}; the last attempt, "
                    f"to t={t_new:g}, failed: {exc}",
                    last_t=state.t, last_values=system.solution(state.deviation),
                )
            continue
        w_prev, dt_prev = state.deviation, dt
        state.t, state.deviation = t_new, w_new
        state.steps.append(_step(system, t_new, dt, start is not None, stats))
        dt = min(dt * growth(stats["iters"]), cfg.dt_max)
    state.diagnostics = final_diagnostics(system, state)
    return state


def _secant_start(system, w, w_prev, ratio, t, cfg):
    """Newton's start at t: the secant prediction w + ratio (w - w_prev) with
    its ``residual_and_margin``, or ``(w, None)`` when the prediction is not
    finite or not admissible by the margin floor."""
    predicted = w + ratio * (w - w_prev)
    if not np.all(np.isfinite(predicted)):
        return w, None
    res, margins = system.residual_and_margin(predicted, t)
    margin = float(margins.min())
    if not (np.all(np.isfinite(res)) and margin > 0 and margin >= cfg.margin_floor):
        return w, None
    return predicted, (res, margins)


def _step(system, t, dt, predicted, stats):
    """The ``steps[]`` entry of a Newton solve to t accepted on ``system``."""
    return {
        "t": t,
        "dt": dt,
        "predicted": predicted,
        "newton_iters": stats["iters"],
        "linear_iters": stats["linear_iters"],
        "linear_route": stats["linear_route"],
        "start_residual_norm": stats["start_residual_norm"],
        "residual_norm": stats["residual_norm"],
        "min_margin": stats["min_margin"],
        "mesh": system.grid.mesh,
    }


def _rejected(mesh, t, dt, exc):
    """The ``rejected_steps[]`` entry of an attempt from t over dt on
    ``mesh`` that failed with ``exc``."""
    return {
        "t": t, "dt": dt, "error": type(exc).__name__, "message": str(exc), "mesh": mesh
    }


def final_diagnostics(system, state):
    """C0 report, the residual at t = 1 of the state as Newton holds it, and
    that state's dtype and machine epsilon; sets ``state.values`` to the
    solution u of ``state.deviation`` and keeps the per-node margins on
    ``state.margins`` (NaN on boundary nodes)."""
    res, margins = system.residual_and_margin(state.deviation, 1.0)
    system.check_admissible(margins)
    state.values = system.solution(state.deviation)
    state.margins = np.full(system.npoints, np.nan)
    state.margins[system.grid.interior_flat] = margins
    report = geometry.c0_diagnostic(
        state.values, system.grid.boundary_flat, system.a_b, system.b_b, system.grid.h
    )
    report["final_residual_norm"] = float(np.abs(res).max())
    report["state_dtype"] = "float64" if system.state_dtype == np.float64 else "longdouble"
    report["state_eps"] = float(np.finfo(system.state_dtype).eps)
    report["min_margin_on_path"] = state.min_margin
    report["admissible_everywhere"] = bool(state.min_margin > 0)
    return report


def radial_solve(problem, M, cfg=None):
    """Continuation solve on a 1-D radial mesh with M intervals."""
    grid = grids.radial_grid(problem.geom.radius, M, problem.spec.n)
    return continuation_solve(RadialSystem(problem, grid), cfg), grid


# failures of a mesh-sequenced box solve that send the fine mesh to full
# continuation
SEQUENCE_ERRORS = (NonconvergenceError, AdmissibilityError, ContinuationError)


def box_solve(problem, nodes, cfg=None):
    """Continuation solve on a box lattice with the given nodes per axis.

    Mesh sequencing (nested iteration: Briggs, Henson & McCormick, A
    Multigrid Tutorial; Kelley, Solving Nonlinear Equations with Newton's
    Method, 2003): when ``_half_mesh`` gives a coarse lattice, ``box_solve``
    solves on it, recursively, and the fine mesh gets one Newton solve at
    t = 1 from ``grids.box_cubic_interpolation`` of the half mesh's deviation
    w_c; each mesh adds its own exact q. Only the coarsest lattice follows
    the path: 33^3 recurses 33 -> 17 -> 9 -> 5, and 32^3 32 -> 17 -> 9 -> 5;
    each runs continuation on 5^3 and one t = 1 Newton solve on each finer
    mesh. The V-cycle's linear prolongation of w_c would leave kinks in the
    start's discrete Hessian: at 33^3 Newton would start from |res| 2.74 and
    take 4 iterations, against 0.099 and 2 from the cubic. The steps of
    every mesh, each with its ``mesh``, and their summed ``profile`` make up
    the state; ``diagnostics`` are the fine system's. When the coarse solve or the fine
    Newton fails with one of ``SEQUENCE_ERRORS``, the failure is recorded in
    ``rejected_steps`` (the coarse solve as t = 0, dt = 1, the correction as
    t = 1, dt = 0) and the fine mesh runs ``continuation_solve``, whose state
    is returned. Each level handles the failures of its own half mesh, so
    the plain continuation runs on the mesh just above the failure, and the
    finer meshes sequence from it. A lattice whose half has an axis below
    5 nodes (5^3 to 7^3, (9, 7, 11)) runs ``continuation_solve`` alone.
    """
    grid = grids.box_grid(problem.geom.extents, nodes)
    system = BoxSystem(problem, grid)
    half = _half_mesh(grid.shape)
    if half is None:
        return continuation_solve(system, cfg), grid
    system.validate()
    try:
        state = box_solve(problem, half, cfg)[0]
    except SEQUENCE_ERRORS as exc:
        failed = [_rejected(list(half), 0.0, 1.0, exc)]
        return _fallback(system, cfg, failed, {}), grid
    start = grids.box_cubic_interpolation(state.deviation, half, grid.shape)
    try:
        state.deviation, stats = newton_solve(system, start, 1.0, cfg, timing=state.profile)
    except SEQUENCE_ERRORS as exc:
        failed = [*state.rejected_steps, _rejected(grid.mesh, 1.0, 0.0, exc)]
        return _fallback(system, cfg, failed, state.profile), grid
    state.steps.append(_step(system, 1.0, 0.0, False, stats))
    state.diagnostics = final_diagnostics(system, state)
    return state, grid


def _half_mesh(shape):
    """``grids.box_coarse_shape(shape)`` of the box lattice ``shape`` when
    it is a box mesh (at least 5 nodes per axis), None otherwise."""
    half = grids.box_coarse_shape(shape)
    return half if min(half) >= 5 else None


def _fallback(system, cfg, failed, profile):
    """``continuation_solve(system, cfg)`` with the ``failed`` attempts
    ahead of its ``rejected_steps`` and ``profile`` added to its own."""
    state = continuation_solve(system, cfg)
    state.rejected_steps[:0] = failed
    for key, seconds in profile.items():
        state.profile[key] += seconds
    return state


# ---------------------------------------------------------------------------
# manufactured problems


def radial_quartic_problem(spec, R=1.0, coef=0.05):
    """Radial field r^2/2 + coef r^4 with data derived exactly from it."""
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
        return lift.msum_sym(spectra(points[:, 0]), spec.m, spec.k)[:, spec.k]

    def a(points):
        return np.ones(points.shape[0])

    def b(points, normals):
        r = points[:, 0]
        du = r + 4.0 * coef * r**3
        return du * normals[:, 0] + exact(r)

    problem = ProblemSpec(
        spec=spec, geom=geometry.ball(R, dim=spec.n), f=f, a=a, b=b
    )
    return problem, lambda pts: exact(np.asarray(pts)[:, 0])


def box_cosine_problem(spec, extents=None, amp=0.05):
    """Box field |x|^2/2 + amp * prod cos(pi x_c / 2), data derived exactly."""
    if not math.isfinite(amp):
        # a non-finite amplitude would reach validate only as "f must be
        # finite"; reject it here so the error names it
        raise ValueError(f"amp must be finite, got {amp}")
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
        return lift.sym_batch(hessians(points), spec)[:, spec.k]

    def a(points):
        return np.ones(points.shape[0])

    def b(points, normals):
        return (gradient(points) * normals).sum(axis=1) + exact(points)

    problem = ProblemSpec(spec=spec, geom=geom, f=f, a=a, b=b)
    return problem, exact


def _smooth_field(rng, r):
    bump = rng.normal(0.0, 1.0, size=4)
    return (
        bump[0] * r**2 + bump[1] * r**3 + bump[2] * np.cos(2 * r) + bump[3]
    )


def verify_jacobian_suite(spec_list, states=10, seed=0):
    """Directional finite-difference check of the assembled Jacobian at
    randomly perturbed admissible states on a radial mesh for each ConeSpec
    of ``spec_list``; witnesses are u.

    Directions are smooth fields: rough nodewise noise would push the
    difference quotient into its third-order truncation regime through the
    1/h^2 stencil amplification, measuring the probe instead of the matrix.
    """
    if states < 1:
        raise ConfigError(f"need states >= 1, got states={states}")
    rng = np.random.default_rng(seed)
    report = SampleReport(suite="jacobian")
    for spec in spec_list:
        problem, _ = radial_quartic_problem(spec, coef=0.05)
        grid = grids.radial_grid(1.0, 40, spec.n)
        system = RadialSystem(problem, grid)
        r = grid.points[:, 0]
        base = system.initial_values()
        count = 0
        states_u, margins = [], []
        while count < states:
            w = base + 1e-3 * _smooth_field(rng, r)
            # the cone margins do not depend on t, which is drawn next
            if system.residual_and_margin(w, 1.0)[1].min() <= 0:
                continue
            count += 1
            t = float(rng.uniform(0.2, 1.0))
            J = system.jacobian(w, t)
            v = _smooth_field(rng, r)
            v /= np.abs(v).max()
            eps = 1e-6
            fd = (
                system.residual_and_margin(w + eps * v, t)[0]
                - system.residual_and_margin(w - eps * v, t)[0]
            ) / (2.0 * eps)
            Jv = J @ v
            scale = float(np.abs(Jv).max())
            rel = float(np.abs(Jv - fd).max()) / max(scale, 1e-30)
            states_u.append(system.solution(w))
            margins.append(1e-5 - rel)
        report.record_block(
            {
                "hypothesis": np.ones(states, dtype=bool),
                "margins": {f"jacobian_{spec.n}_{spec.m}_{spec.k}": np.array(margins)},
            },
            np.array(states_u),
        )
    return report
