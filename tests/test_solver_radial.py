import dataclasses
import re

import numpy as np
import pytest

from sumhess import _kernels, geometry, grids, lift, solver
from sumhess.errors import (
    AdmissibilityError, ConfigError, ContinuationError, NonconvergenceError,
)
from sumhess.expressions import parse_expression
from sumhess.lift import ConeSpec
from sumhess.solver import ProblemSpec, RadialSystem
from oracles import homotopy_data, manufactured_suite, minors_data


def trivial_problem(spec, R=1.0):
    # data for which the homotopy path is constant: f is the t=0 constant and
    # b matches the t=0 boundary closure
    K0 = solver.homotopy_constant(spec)

    def f(points):
        return np.full(points.shape[0], K0)

    def a(points):
        return np.ones(points.shape[0])

    def b(points, normals):
        r = points[:, 0]
        return r * normals[:, 0] + 0.5 * r * r

    return ProblemSpec(spec=spec, geom=geometry.ball(R, dim=spec.n), f=f, a=a, b=b)


def test_homotopy_constant_example():
    assert solver.homotopy_constant(ConeSpec(3, 2, 2)) == pytest.approx(12.0)


def test_t0_anchor_residual_zero():
    # arbitrary f, a, b: the t = 0 member is solved exactly by the quadratic
    spec = ConeSpec(3, 2, 2)
    def f(points):
        r = points[:, 0]
        return 3.0 + np.cos(5.0 * r) ** 2

    def a(points):
        return 2.0 + points[:, 0]

    def b(points, normals):
        return 7.0 - points[:, 0] ** 3

    problem = ProblemSpec(spec=spec, geom=geometry.ball(1.0, dim=3), f=f, a=a, b=b)
    grid = grids.radial_grid(1.0, 64, 3)
    system = RadialSystem(problem, grid)
    # w = 0: q's exact data and no boundary term, so no rounding is left
    res, margins = system.residual_and_margin(system.initial_values(), 0.0)
    system.check_admissible(margins)
    assert np.all(res == 0.0)


def test_homotopy_data_endpoints():
    spec = ConeSpec(3, 2, 2)
    problem, exact = solver.radial_quartic_problem(spec)
    grid = grids.radial_grid(1.0, 32, 3)
    system = RadialSystem(problem, grid)
    w = exact(grid.points) - system.q
    rhs0, bt0 = homotopy_data(system, 0.0, w)
    assert np.allclose(rhs0, 12.0)
    assert np.all(bt0 == 0.0)
    rhs1, bt1 = homotopy_data(system, 1.0, w)
    assert np.allclose(rhs1, problem.f(system.interior_points))
    # the deviation's boundary data is b less q_nu + a q = r + r^2 / 2 at r = 1
    assert bt1 == pytest.approx(system.b_b - 1.5)


def test_boundary_row_identity():
    # constant field b/a satisfies the boundary condition exactly
    spec = ConeSpec(3, 2, 2)
    problem = trivial_problem(spec)
    grid = grids.radial_grid(1.0, 32, 3)
    system = RadialSystem(problem, grid)
    const = system.b_b / system.a_b
    w = np.full(grid.npoints, const) - system.q
    res = system.residual_and_margin(w, 1.0)[0]
    assert abs(res[-1]) < 1e-12


def test_manufactured_residual_consistency():
    # the exact field has O(h^2) residual under the discrete operator
    spec = ConeSpec(3, 2, 2)
    problem, exact = solver.radial_quartic_problem(spec)
    norms = []
    for M in (32, 64):
        grid = grids.radial_grid(1.0, M, 3)
        system = RadialSystem(problem, grid)
        w = exact(grid.points) - system.q
        res, margins = system.residual_and_margin(w, 1.0)
        system.check_admissible(margins)
        norms.append(np.abs(res).max())
    assert norms[0] / norms[1] == pytest.approx(4.0, rel=0.25)


@pytest.mark.parametrize(
    "spec,f_of_u,eps",
    # at (5,2,3) the cubic S_3 gives the central difference an eps^2
    # truncation error of 5.3e-5 relative at eps = 1e-6, 5.3e-7 at 1e-7
    [(ConeSpec(3, 2, 2), False, 1e-6), (ConeSpec(3, 2, 2), True, 1e-6),
     (ConeSpec(5, 2, 3), False, 1e-7)],
    ids=["f_x", "f_xu", "5-2-3"],
)
def test_jacobian_matches_finite_differences(spec, f_of_u, eps):
    problem, exact = solver.radial_quartic_problem(spec)
    if f_of_u:
        # f(x, u) = f(x) - (1 + r^2) (u - exact(x)): f_u = -(1 + r^2) <= 0
        base_f = problem.f
        problem.f_u = lambda points, u: -(1.0 + points[:, 0] ** 2)
        problem.f = lambda points, u: (
            base_f(points) + problem.f_u(points, u) * (u - exact(points))
        )
    grid = grids.radial_grid(1.0, 40, spec.n)
    system = RadialSystem(problem, grid)
    rng = np.random.default_rng(5)
    u = system.initial_values() + 1e-3 * rng.normal(size=grid.npoints)
    for t in (0.3, 1.0):
        J = system.jacobian(u, t)
        v = rng.normal(size=grid.npoints)
        fd = (
            system.residual_and_margin(u + eps * v, t)[0]
            - system.residual_and_margin(u - eps * v, t)[0]
        ) / (2 * eps)
        Jv = J @ v
        assert np.abs(Jv - fd).max() / np.abs(Jv).max() < 1e-5


def test_jacobian_suite():
    specs = [ConeSpec(3, 2, 2), ConeSpec(4, 2, 2), ConeSpec(4, 2, 3)]
    report = solver.verify_jacobian_suite(specs, states=3, seed=2)
    assert report.passed, report.as_dict()


@pytest.mark.parametrize("states", [0, -2])
def test_jacobian_suite_rejects_states_below_one(states):
    # 0 states would pass with nothing checked; -2 would end in numpy's
    # "negative dimensions" ValueError
    with pytest.raises(ConfigError, match=rf"^need states >= 1, got states={states}$"):
        solver.verify_jacobian_suite([ConeSpec(3, 2, 2)], states=states)


def test_newton_zero_iterations_at_exact_solution():
    spec = ConeSpec(3, 2, 2)
    problem = trivial_problem(spec)
    grid = grids.radial_grid(1.0, 64, 3)
    system = RadialSystem(problem, grid)
    u, stats = solver.newton_solve(system, system.initial_values(), 0.0, timing={})
    assert stats["iters"] == 0


def test_newton_quadratic_convergence_from_perturbation():
    spec = ConeSpec(3, 2, 2)
    problem = trivial_problem(spec)
    grid = grids.radial_grid(1.0, 64, 3)
    system = RadialSystem(problem, grid)
    u0 = system.initial_values() + 1e-3 * np.sin(2.0 * grid.points[:, 0])
    res0, _ = system.residual_and_margin(u0, 0.0)
    u, stats = solver.newton_solve(system, u0, 0.0, timing={})
    assert stats["iters"] <= 5
    assert stats["residual_norm"] <= 1e-10
    # contraction should be superlinear once in the basin
    assert stats["residual_norm"] <= 1e-6 * float(np.abs(res0).max())


def test_newton_rejects_inadmissible_start():
    spec = ConeSpec(3, 2, 2)
    problem = trivial_problem(spec)
    grid = grids.radial_grid(1.0, 32, 3)
    system = RadialSystem(problem, grid)
    # w = -2 q is u = -q, whose Hessian is -I (w = -0 would be admissible)
    with pytest.raises(AdmissibilityError):
        solver.newton_solve(system, -2.0 * system.q, 0.0, timing={})
    with pytest.raises(AdmissibilityError):
        system.check_admissible(system.residual_and_margin(-2.0 * system.q, 0.0)[1])


def test_non_finite_state_and_data_rejected():
    spec = ConeSpec(3, 2, 2)
    problem = trivial_problem(spec)
    grid = grids.radial_grid(1.0, 32, 3)
    system = RadialSystem(problem, grid)
    u = system.initial_values()
    u[5] = np.nan
    with pytest.raises(NonconvergenceError):
        solver.newton_solve(system, u, 0.0, timing={})
    # a NaN margin counts as inadmissible
    with pytest.raises(AdmissibilityError):
        system.check_admissible(system.residual_and_margin(u, 0.0)[1])
    problem.a = lambda points: np.full(points.shape[0], np.inf)
    with pytest.raises(ConfigError, match="a must be finite"):
        solver.continuation_solve(RadialSystem(problem, grid))


def test_trivial_continuation_path_is_constant():
    spec = ConeSpec(3, 2, 2)
    problem = trivial_problem(spec)
    grid = grids.radial_grid(1.0, 64, 3)
    state = solver.continuation_solve(RadialSystem(problem, grid))
    assert state.t == 1.0
    assert sum(s["newton_iters"] for s in state.steps) == 0
    assert np.abs(state.values - 0.5 * grid.points[:, 0] ** 2).max() < 1e-12


def test_manufactured_radial_convergence():
    spec = ConeSpec(3, 2, 2)
    report = manufactured_suite("radial", spec, (32, 64, 128))
    assert 1.8 <= report["observed_order"] <= 2.2, report
    for row in report["rows"]:
        assert row["diagnostics"]["bound_ok"]
        assert row["diagnostics"]["max_on_boundary"]
        assert row["diagnostics"]["admissible_everywhere"]


@pytest.mark.parametrize("c", [2.0, 0.5])
@pytest.mark.parametrize("nmk", [(3, 2, 2), (5, 2, 3)], ids=["3-2-2", "5-2-3"])
def test_radial_solution_is_homogeneous_in_the_data(nmk, c):
    # the operator has degree k in u and the boundary rows are linear, so the
    # data (c^k f, c b) give the solution c u; no exact solution is needed
    spec = ConeSpec(*nmk)
    problem, _ = solver.radial_quartic_problem(spec)
    scaled = dataclasses.replace(
        problem,
        f=lambda points: c**spec.k * problem.f(points),
        b=lambda points, normals: c * problem.b(points, normals),
    )
    state, _ = solver.radial_solve(problem, 128)
    scaled_state, _ = solver.radial_solve(scaled, 128)
    assert state.t == scaled_state.t == 1.0
    assert np.abs(scaled_state.values - c * state.values).max() <= 1e-12


def test_radial_expression_fields_self_converge_at_second_order():
    # the benchmark's expression fields have no exact solution: successive
    # meshes' differences at their shared nodes must fall by 4 per halving
    problem = ProblemSpec(
        spec=ConeSpec(3, 2, 2), geom=geometry.ball(1.0, dim=3),
        f=parse_expression("1.7 + sin(7*r)^2 + r^3"),
        a=parse_expression("1 + 0.5*cos(r)"),
        b=lambda points, normals: parse_expression("2 - r^2/3")(points),
    )
    solutions = [solver.radial_solve(problem, M)[0].values for M in (64, 128, 256, 512, 1024)]
    diffs = [np.abs(fine[::2] - coarse).max() for coarse, fine in zip(solutions, solutions[1:])]
    orders = [np.log2(a / b) for a, b in zip(diffs, diffs[1:])]
    assert all(1.9 <= order <= 2.1 for order in orders), (diffs, orders)


def test_radial_meshes_past_the_direct_limit_take_banded_lu():
    # the radial Jacobian is banded, so banded LU serves every mesh; on
    # V-cycle lgmres M = 2048 stalled at t = 0, and the odd M = 1001, which
    # has no coarse level, took minutes
    problem, exact = solver.radial_quartic_problem(ConeSpec(3, 2, 2))
    errors = {}
    for mesh in (2048, 1024, 1001):
        state, grid = solver.radial_solve(problem, mesh)
        assert grid.npoints > solver.DIRECT_LIMIT
        assert state.t == 1.0
        assert all(s["linear_iters"] == 0 for s in state.steps)
        assert all(s["linear_route"] == "banded" for s in state.steps)
        errors[mesh] = np.abs(state.values - exact(grid.points)).max()
    assert 3.8 <= errors[1024] / errors[2048] <= 4.2, errors


@pytest.mark.parametrize("nmk", [(3, 2, 2), (4, 2, 3), (5, 2, 3)], ids=str)
@pytest.mark.parametrize("mesh", [16, 256, 2048])
def test_radial_linear_solve_matches_dense_solve(nmk, mesh):
    # V-cycle lgmres stalled at M = 2048; banded LU must hold every mesh to
    # the dense LU of the same Jacobian, at t = 0, 1/2 and 1 on the
    # manufactured state
    problem, exact = solver.radial_quartic_problem(ConeSpec(*nmk))
    grid = grids.radial_grid(1.0, mesh, nmk[0])
    system = RadialSystem(problem, grid)
    w = exact(grid.points) - system.q
    rhs = np.random.default_rng(mesh).normal(size=grid.npoints)
    for t in (0.0, 0.5, 1.0):
        J = system.jacobian(w, t)
        x, iters = solver._linear_solve(J, rhs, grid.shape)
        ref = np.linalg.solve(J.toarray(), rhs)
        assert (iters, solver._linear_route(grid.shape)) == (0, "banded")
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max(), t


def test_singular_radial_jacobian_raises():
    problem, exact = solver.radial_quartic_problem(ConeSpec(3, 2, 2))
    grid = grids.radial_grid(1.0, 32, 3)
    system = RadialSystem(problem, grid)
    J = system.jacobian(exact(grid.points) - system.q, 1.0)
    J.data[J.indptr[10]:J.indptr[11]] = 0.0  # interior row 10
    with pytest.raises(NonconvergenceError, match=r"zero pivot U\[\d+, \d+\], the matrix is singular"):
        solver._linear_solve(J, np.ones(grid.npoints), grid.shape)


def test_nan_jacobian_entry_ends_in_nonconvergence():
    # f_u = NaN at one node passes the f_u <= 0 check and poisons one
    # Jacobian entry; Newton must fail on its first solve, not exit at t = 1
    spec = ConeSpec(3, 2, 2)
    problem, exact = solver.radial_quartic_problem(spec)
    base_f = problem.f

    def f_u(points, u):
        out = -np.ones(points.shape[0])
        out[5] = np.nan
        return out

    problem.f = lambda points, u: base_f(points) + (exact(points) - u)
    problem.f_u = f_u
    grid = grids.radial_grid(1.0, 32, 3)
    system = RadialSystem(problem, grid)
    w = exact(grid.points) - system.q + 1e-3 * np.sin(grid.points[:, 0])
    with pytest.raises(NonconvergenceError, match="linear solve: non-finite Jacobian entry"):
        solver.newton_solve(system, w, 1.0, timing={})
    with pytest.raises(ContinuationError, match="non-finite Jacobian entry") as info:
        solver.continuation_solve(system)
    assert info.value.last_t == 0.0


def test_manufactured_higher_degree():
    # a case inside the larger-degree existence range
    spec = ConeSpec(4, 2, 3)
    report = manufactured_suite("radial", spec, (32, 64))
    assert 1.7 <= report["observed_order"] <= 2.2, report


def test_manufactured_study_on_independent_data():
    # the template's f comes from lift.msum_sym; here f is built from the
    # exact Hessian of u = r^2 / 2 + c r^4,
    # (1 + 4 c |x|^2) I + 8 c x x^T, at x = r e_1, by minors alone
    spec, coef = ConeSpec(4, 2, 3), 0.05

    def hessian(points):
        x = np.zeros((points.shape[0], spec.n))
        x[:, 0] = points[:, 0]
        scale = 1.0 + 4.0 * coef * (x * x).sum(axis=1)
        return scale[:, None, None] * np.eye(spec.n) + 8.0 * coef * x[:, :, None] * x[:, None, :]

    library = manufactured_suite("radial", spec, (64, 128), coef=coef)
    report = manufactured_suite("radial", spec, (64, 128), f=minors_data(hessian, spec), coef=coef)
    for row, ref in zip(report["rows"], library["rows"]):
        assert abs(row["linf"] - ref["linf"]) <= 1e-9 * ref["linf"], (row, ref)
    assert 1.9 <= report["observed_order"] <= 2.1, report


def test_radial_solve_runs_without_the_msum_table(monkeypatch):
    # a radial Hessian has two eigenvalues, so the system takes S_k and its
    # gradient from lift.radial_sym and radial_weights: with the m-sum table
    # helpers disabled, the solve on the minors-built data still converges
    spec, coef = ConeSpec(4, 2, 3), 0.05

    def hessian(points):
        x = np.zeros((points.shape[0], spec.n))
        x[:, 0] = points[:, 0]
        scale = 1.0 + 4.0 * coef * (x * x).sum(axis=1)
        return scale[:, None, None] * np.eye(spec.n) + 8.0 * coef * x[:, :, None] * x[:, None, :]

    def disabled(*args, **kwargs):
        raise AssertionError("the radial system built the m-sum table")

    for owner, name in ((lift, "msum_sym"), (lift, "msum_weights"),
                        (_kernels, "subset_sums")):
        monkeypatch.setattr(owner, name, disabled)
    report = manufactured_suite("radial", spec, (32, 64), f=minors_data(hessian, spec), coef=coef)
    for row in report["rows"]:
        assert row["diagnostics"]["final_residual_norm"] <= 1e-10, row
    assert 1.9 <= report["observed_order"] <= 2.1, report


@pytest.mark.parametrize(
    "n,m,k,meshes",
    [(3, 2, 1, (32, 64)), (5, 2, 4, (32, 64)), (6, 3, 5, (32, 64)),
     (6, 2, 6, (32, 64, 128))],
    ids=["3-2-1", "5-2-4", "6-3-5", "6-2-6"],
)
def test_manufactured_wide_shapes(n, m, k, meshes):
    # interior values scale like binom(C, k) m^k (3.8e6 at (6,3,5)), and the
    # residual's roundoff floor with them; the deviation state keeps that
    # floor under the default tolerance on these meshes
    report = manufactured_suite("radial", ConeSpec(n, m, k), meshes)
    assert 1.7 <= report["observed_order"] <= 2.2, report


def test_machine_precision_flag():
    spec = ConeSpec(3, 2, 2)
    report = manufactured_suite("radial", spec, (16, 32), coef=0.0)
    assert report.get("order_undefined"), report


def test_stress_bump_adapts():
    spec = ConeSpec(3, 2, 2)
    problem, _ = solver.radial_quartic_problem(spec)
    base_f = problem.f

    def bumpy(points):
        r = points[:, 0]
        return base_f(points) * (1.0 + 10.0 * np.exp(-(((r - 0.5) / 0.1) ** 2)))

    problem.f = bumpy
    grid = grids.radial_grid(1.0, 64, 3)
    # from a first step of 0.1 the bump makes the path take several steps
    cfg = solver.SolverConfig(dt0=0.1)
    state = solver.continuation_solve(RadialSystem(problem, grid), cfg)
    assert state.t == 1.0
    assert len(state.steps) >= 5
    assert state.min_margin > 0


# the manufactured radial solves of the radial-collar benchmark workload
MANUFACTURED_RADIAL = [
    (nmk, M) for nmk in ((3, 2, 2), (4, 2, 2), (4, 2, 3), (5, 2, 3)) for M in (64, 128, 256)
]


def _manufactured_radial(nmk, M, cfg=None):
    problem, exact = solver.radial_quartic_problem(ConeSpec(*nmk))
    state, grid = solver.radial_solve(problem, M, cfg)
    return state, float(np.abs(state.values - exact(grid.points)).max())


@pytest.mark.parametrize(
    "nmk, M", MANUFACTURED_RADIAL,
    ids=[f"{'-'.join(map(str, nmk))}-{M}" for nmk, M in MANUFACTURED_RADIAL],
)
def test_default_first_step_reaches_t1(nmk, M):
    # the default first step is dt_max = 1: Newton goes from the t = 0
    # quadratic straight to t = 1, to the error the path from dt0 = 0.1 reaches;
    # its Newton iterations guard the solver path's work without a clock (4 or
    # 5 per solve, 54 over the twelve, against 168 from dt0 = 0.1)
    state, error = _manufactured_radial(nmk, M)
    assert [s["t"] for s in state.steps] == [0.0, 1.0]
    assert state.steps[1]["dt"] == 1.0 and not state.rejected_steps
    assert sum(s["newton_iters"] for s in state.steps) <= 5
    _, path_error = _manufactured_radial(nmk, M, solver.SolverConfig(dt0=0.1))
    assert abs(error - path_error) <= 1e-9 * path_error


def test_radial_system_accepts_ball_geometry():
    spec = ConeSpec(3, 2, 2)
    problem, exact = solver.radial_quartic_problem(spec)
    problem.geom = geometry.ball(1.0, dim=3)
    state, grid = solver.radial_solve(problem, 32)
    assert state.t == 1.0
    assert np.abs(state.values - exact(grid.points)).max() < 5e-3


def test_f_must_be_positive():
    spec = ConeSpec(3, 2, 2)
    problem = trivial_problem(spec)
    problem.f = lambda points: np.zeros(points.shape[0])
    grid = grids.radial_grid(1.0, 16, 3)
    with pytest.raises(ConfigError):
        solver.continuation_solve(RadialSystem(problem, grid))


def test_f_depending_on_u():
    # monotone dependence f(x, u) with f_u <= 0 still converges
    spec = ConeSpec(3, 2, 2)
    problem, exact = solver.radial_quartic_problem(spec)
    base_f = problem.f

    def f(points, u):
        return base_f(points) + (exact(points) - u)

    def f_u(points, u):
        return -np.ones(points.shape[0])

    problem.f = f
    problem.f_u = f_u
    grid = grids.radial_grid(1.0, 64, 3)
    state = solver.continuation_solve(RadialSystem(problem, grid))
    err = np.abs(state.values - exact(grid.points)).max()
    assert err < 5e-4


def test_f_u_positive_rejected():
    spec = ConeSpec(3, 2, 2)
    problem, _ = solver.radial_quartic_problem(spec)
    base_f = problem.f
    problem.f = lambda points, u: base_f(points)
    problem.f_u = lambda points, u: np.ones(points.shape[0])
    grid = grids.radial_grid(1.0, 16, 3)
    system = RadialSystem(problem, grid)
    with pytest.raises(ConfigError):
        system.jacobian(system.initial_values(), 1.0)


def test_growth_table():
    assert solver.SolverConfig().dt_max == 1.0
    assert [solver.growth(iters) for iters in range(7)] == [4, 4, 4, 2, 1, 1, 1]


def test_first_step_defaults_to_dt_max():
    assert solver.SolverConfig().dt0 == 1.0
    assert solver.SolverConfig(dt_max=0.5).dt0 == 0.5
    assert solver.SolverConfig(dt0=0.1, dt_max=0.5).dt0 == 0.1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dt0": np.nan}, {"dt0": 0.0}, {"dt_min": 0.2, "dt0": 0.1}, {"dt_max": np.inf},
        {"dt0": 2.0}, {"margin_floor": -1e-12},
        {"margin_floor": np.nan}, {"tol_abs": 0.0},
    ],
    ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()),
)
def test_solver_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        solver.SolverConfig(**kwargs)


def test_rejected_steps_are_recorded(monkeypatch):
    # three Newton iterations cannot reach t = 1, 1/2 or 1/4 in one step, so
    # those attempts fail and dt halves until a step converges
    monkeypatch.setattr(solver, "MAX_ITER", 3)
    problem, _ = solver.radial_quartic_problem(ConeSpec(3, 2, 2))
    grid = grids.radial_grid(1.0, 64, 3)
    cfg = solver.SolverConfig(dt0=1.0)
    state = solver.continuation_solve(RadialSystem(problem, grid), cfg)
    assert state.t == 1.0
    for step in state.rejected_steps:
        assert re.fullmatch(r"no convergence in 3 iterations \(\|res\|=\S+\)",
                            step["message"]), step
    assert [{**step, "message": ""} for step in state.rejected_steps] == [
        {"t": 0.0, "dt": 2.0**-i, "error": "NonconvergenceError", "message": "",
         "mesh": 64}
        for i in range(3)
    ]
    assert state.steps[1]["dt"] == 0.125
    assert state.as_dict()["rejected_steps"] == state.rejected_steps


def test_failures_carry_the_solution_not_the_deviation(monkeypatch):
    # with no Newton iterations allowed every step off t = 0 fails at once,
    # so each error holds the start it was given, as u = |x|^2 / 2 + w
    monkeypatch.setattr(solver, "MAX_ITER", 0)
    problem, _ = solver.radial_quartic_problem(ConeSpec(3, 2, 2))
    grid = grids.radial_grid(1.0, 32, 3)
    system = RadialSystem(problem, grid)
    q = 0.5 * grid.points[:, 0] ** 2
    w = 1e-3 * np.sin(2.0 * grid.points[:, 0])
    with pytest.raises(NonconvergenceError, match="no convergence") as info:
        solver.newton_solve(system, w, 1.0, timing={})
    assert np.abs(info.value.last_values - (q + w)).max() <= 1e-16
    with pytest.raises(ContinuationError, match="step size underflow") as info:
        solver.continuation_solve(system, solver.SolverConfig(dt_min=0.05))
    assert info.value.last_t == 0.0
    assert np.array_equal(info.value.last_values, q)


@pytest.mark.parametrize("poison", [False, True], ids=["admissible", "inadmissible"])
def test_secant_prediction_and_its_fallback(monkeypatch, poison):
    # the test's own secant oracle finds the predicted state among the
    # residual evaluations; poisoning its margins must send Newton back to
    # the last accepted state and record predicted = false
    accepted = []
    newton = solver.newton_solve

    def recording_newton(system, values, t, cfg=None, start=None, *, timing):
        u, stats = newton(system, values, t, cfg, start, timing=timing)
        accepted.append((t, u))
        return u, stats

    monkeypatch.setattr(solver, "newton_solve", recording_newton)
    hits = []

    class Fenced(RadialSystem):
        def residual_and_margin(self, values, t):
            res, margins = super().residual_and_margin(values, t)
            if len(accepted) >= 2:
                (t0, u0), (t1, u1) = accepted[-2:]
                secant = u1 + (t - t1) / (t1 - t0) * (u1 - u0)
                if t > t1 and np.allclose(values, secant, rtol=0.0, atol=1e-12):
                    hits.append(t)
                    if poison:
                        margins = margins - 1e3
            return res, margins

    spec = ConeSpec(3, 2, 2)
    problem, exact = solver.radial_quartic_problem(spec)
    grid = grids.radial_grid(1.0, 64, 3)
    # the default first step reaches t = 1 at once; from 0.1 the path takes
    # several steps, and each after the second is predicted
    cfg = solver.SolverConfig(dt0=0.1)
    state = solver.continuation_solve(Fenced(problem, grid), cfg)
    assert state.t == 1.0 and not state.rejected_steps
    assert hits and hits == [s["t"] for s in state.steps[2:]]
    assert [s["predicted"] for s in state.steps] == [False, False] + [not poison] * len(hits)
    assert np.abs(state.values - exact(grid.points)).max() < 2e-4


needs_extended = pytest.mark.skipif(
    solver.EXTENDED == np.float64,
    reason="numpy's longdouble is float64 on this platform, so the radial "
    "state is float64 and its roundoff floor is not cleared",
)


@needs_extended
def test_extended_state_clears_the_radial_roundoff_floor():
    # one ulp per node, alternating in sign (the worst case for the 1/h^2
    # stencil), on the deviation w = exact - q of the (5,2,3) quartic at
    # M = 256: in float64 it moves the max-norm residual by 1.7e-9, above the
    # 1e-10 tolerance; in the extended state by 8.2e-13, so the tolerance
    # sits over 100x above that floor
    spec = ConeSpec(5, 2, 3)
    problem, exact = solver.radial_quartic_problem(spec)
    grid = grids.radial_grid(1.0, 256, spec.n)
    system = RadialSystem(problem, grid)
    signs = (-1.0) ** np.arange(grid.npoints)
    moved = {}
    for dtype in (np.float64, solver.EXTENDED):
        w = (exact(grid.points) - system.q).astype(dtype)
        res, _ = system.residual_and_margin(w, 1.0)
        assert res.dtype == dtype
        bumped, _ = system.residual_and_margin(w + signs * np.spacing(w), 1.0)
        moved[dtype] = float(np.abs(bumped - res).max())
    assert moved[np.float64] > 1e-10
    assert moved[solver.EXTENDED] <= 2e-11


@needs_extended
def test_formerly_floored_radial_meshes_converge():
    # (4,2,2)-256, (4,2,3)-128/256 and (5,2,3)-64/128/256 stalled at t = 0
    # with a float64 state
    state, _ = solver.radial_solve(solver.radial_quartic_problem(ConeSpec(4, 2, 2))[0], 256)
    assert state.t == 1.0
    assert state.diagnostics["final_residual_norm"] <= 1e-10
    assert state.values.dtype == solver.EXTENDED
    assert state.diagnostics["state_dtype"] == "longdouble"
    assert state.diagnostics["state_eps"] == float(np.finfo(np.longdouble).eps)
    for nmk in ((4, 2, 3), (5, 2, 3)):
        report = manufactured_suite("radial", ConeSpec(*nmk), (64, 128, 256))
        for row in report["rows"]:
            assert row["diagnostics"]["final_residual_norm"] <= 1e-10, (nmk, row)
        assert 1.9 <= report["observed_order"] <= 2.1, report
