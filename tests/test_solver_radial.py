import numpy as np
import pytest

from sumhess import grids, solver
from sumhess.errors import AdmissibilityError, ConfigError, NonconvergenceError
from sumhess.lift import ConeSpec
from sumhess.solver import ProblemSpec, RadialSystem
from oracles import homotopy_data, manufactured_suite


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

    from sumhess import geometry

    return ProblemSpec(spec=spec, geom=geometry.radial(R, dim=spec.n), f=f, a=a, b=b)


def test_homotopy_constant_example():
    assert solver.homotopy_constant(ConeSpec(3, 2, 2)) == pytest.approx(12.0)


def test_t0_anchor_residual_zero():
    # arbitrary f, a, b: the t = 0 member is solved exactly by the quadratic
    spec = ConeSpec(3, 2, 2)
    from sumhess import geometry

    def f(points):
        r = points[:, 0]
        return 3.0 + np.cos(5.0 * r) ** 2

    def a(points):
        return 2.0 + points[:, 0]

    def b(points, normals):
        return 7.0 - points[:, 0] ** 3

    problem = ProblemSpec(spec=spec, geom=geometry.radial(1.0, dim=3), f=f, a=a, b=b)
    grid = grids.radial_grid(1.0, 64, 3)
    system = RadialSystem(problem, grid)
    res = system.residual(system.initial_values(), 0.0)
    assert np.abs(res).max() <= 1e-12


def test_homotopy_data_endpoints():
    spec = ConeSpec(3, 2, 2)
    problem, _ = solver.radial_quartic_problem(spec)
    grid = grids.radial_grid(1.0, 32, 3)
    system = RadialSystem(problem, grid)
    rhs0, bt0 = homotopy_data(system, 0.0)
    assert np.allclose(rhs0, 12.0)
    rhs1, bt1 = homotopy_data(system, 1.0)
    assert np.allclose(rhs1, problem.f(system.interior_points))
    assert bt1 == pytest.approx(system.b_b)


def test_boundary_row_identity():
    # constant field b/a satisfies the boundary condition exactly
    spec = ConeSpec(3, 2, 2)
    problem = trivial_problem(spec)
    grid = grids.radial_grid(1.0, 32, 3)
    system = RadialSystem(problem, grid)
    const = system.b_b / system.a_b
    u = np.full(grid.npoints, const)
    res = system.residual(u, 1.0, require_admissible=False)
    assert abs(res[-1]) < 1e-12


def test_manufactured_residual_consistency():
    # the exact field has O(h^2) residual under the discrete operator
    spec = ConeSpec(3, 2, 2)
    problem, exact = solver.radial_quartic_problem(spec)
    norms = []
    for M in (32, 64):
        grid = grids.radial_grid(1.0, M, 3)
        system = RadialSystem(problem, grid)
        u = exact(grid.points)
        res = system.residual(u, 1.0)
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
            system.residual(u + eps * v, t, require_admissible=False)
            - system.residual(u - eps * v, t, require_admissible=False)
        ) / (2 * eps)
        Jv = J @ v
        assert np.abs(Jv - fd).max() / np.abs(Jv).max() < 1e-5


def test_jacobian_suite():
    report = solver.verify_jacobian_suite(states=3, seed=2)
    assert report.passed, report.as_dict()


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
    u0 = system.initial_values() + 1e-3 * np.sin(2.0 * grid.r)
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
    with pytest.raises(AdmissibilityError):
        solver.newton_solve(system, -system.initial_values(), 0.0, timing={})
    with pytest.raises(AdmissibilityError):
        system.residual(-system.initial_values(), 0.0)


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
        system.residual(u, 0.0)
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
    assert np.abs(state.values - 0.5 * grid.r**2).max() < 1e-12


def test_manufactured_radial_convergence():
    spec = ConeSpec(3, 2, 2)
    report = manufactured_suite("radial", spec, (32, 64, 128))
    assert 1.8 <= report["observed_order"] <= 2.2, report
    for row in report["rows"]:
        assert row["diagnostics"]["bound_ok"]
        assert row["diagnostics"]["max_on_boundary"]
        assert row["diagnostics"]["admissible_everywhere"]


def test_manufactured_higher_degree():
    # a case inside the larger-degree existence range
    spec = ConeSpec(4, 2, 3)
    report = manufactured_suite("radial", spec, (32, 64))
    assert 1.7 <= report["observed_order"] <= 2.2, report


@pytest.mark.parametrize("n,m,k", [(3, 2, 1), (5, 2, 4), (6, 3, 5), (6, 2, 6)])
def test_manufactured_wide_shapes(n, m, k):
    # interior values scale like binom(C, k) m^k, so the absolute Newton
    # tolerance must follow the problem's magnitude
    spec = ConeSpec(n, m, k)
    cfg = solver.SolverConfig(tol_abs=max(1e-8, solver.homotopy_constant(spec) * 1e-12))
    report = manufactured_suite("radial", spec, (32, 64), cfg=cfg)
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
    state = solver.continuation_solve(RadialSystem(problem, grid))
    assert state.t == 1.0
    assert len(state.steps) >= 5
    assert state.min_margin > 0


def test_radial_system_accepts_ball_geometry():
    from sumhess import geometry

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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dt0": np.nan}, {"dt0": 0.0}, {"dt_min": 0.2}, {"dt_max": np.inf},
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
    assert state.rejected_steps == [
        {"t": 0.0, "dt": 2.0**-i, "error": "NonconvergenceError"} for i in range(3)
    ]
    assert state.steps[1]["dt"] == 0.125
    assert state.as_dict()["rejected_steps"] == state.rejected_steps


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
    state = solver.continuation_solve(Fenced(problem, grid))
    assert state.t == 1.0 and not state.rejected_steps
    assert hits == [s["t"] for s in state.steps[2:]]
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
    # stencil), on the exact (5,2,3) quartic at M = 256: in float64 it moves
    # the max-norm residual by 2.7e-8, far above the 1e-10 tolerance; in the
    # extended state by 1.3e-11, so the tolerance sits 5x above that floor
    spec = ConeSpec(5, 2, 3)
    problem, exact = solver.radial_quartic_problem(spec)
    grid = grids.radial_grid(1.0, 256, spec.n)
    system = RadialSystem(problem, grid)
    signs = (-1.0) ** np.arange(grid.npoints)
    moved = {}
    for dtype in (np.float64, solver.EXTENDED):
        u = exact(grid.points).astype(dtype)
        res, _ = system.residual_and_margin(u, 1.0)
        assert res.dtype == dtype
        bumped, _ = system.residual_and_margin(u + signs * np.spacing(u), 1.0)
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
