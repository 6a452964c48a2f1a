import gc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sumhess import geometry, grids, solver
from sumhess.errors import ConfigError, NonconvergenceError
from sumhess.lift import ConeSpec
from sumhess.solver import BoxSystem, ProblemSpec, RadialSystem
from oracles import (
    box_hessians_slices, coo_jacobian, hand_stencil, manufactured_suite, radial_spectra_formula,
)


def arbitrary_fields_problem(spec, extents=(2.0, 2.0, 2.0)):
    def f(points):
        return 2.0 + np.cos(points).sum(axis=1) ** 2

    def a(points):
        return 1.5 + 0.25 * np.sin(points[:, 0])

    def b(points, normals):
        return 1.0 + points.prod(axis=1)

    return ProblemSpec(
        spec=spec, geom=geometry.box(extents), f=f, a=a, b=b
    )


def test_normal_derivative_exact_for_quadratics():
    grid = grids.box_grid([2.0, 2.0, 2.0], 9)
    u = 0.5 * (grid.points**2).sum(axis=1)
    dnu_u = (grid.dnu @ u)[grid.boundary_flat]
    x_dot_nu = (grid.points[grid.boundary_flat] * grid.normals[grid.boundary_flat]).sum(axis=1)
    assert np.abs(dnu_u - x_dot_nu).max() < 1e-13


def test_box_hessian_exact_for_quadratic_forms():
    rng = np.random.default_rng(3)
    grid = grids.box_grid([2.0, 1.6, 2.4], (9, 7, 11))
    A = rng.normal(size=(3, 3))
    A = (A + A.T) / 2
    u = 0.5 * np.einsum("pi,ij,pj->p", grid.points, A, grid.points)
    H = grids.box_hessians(grid, u)
    assert np.abs(H - A[None]).max() < 1e-10


# the anisotropic lattice has three different spacings, two of them (4/15, 6/25)
# not powers of two, so the table and the hand formulas round differently there
STENCIL_CASES = [
    pytest.param("radial", ConeSpec(3, 2, 2), 64, None, id="radial-64"),
    pytest.param("radial", ConeSpec(5, 2, 3), 40, None, id="radial-5-2-3"),
    pytest.param("box", ConeSpec(3, 2, 2), (9, 7, 11), [2.0, 1.6, 2.4], id="box-9x7x11"),
    pytest.param("box", ConeSpec(4, 2, 2), 7, None, id="box-7^4"),
    pytest.param("box", ConeSpec(3, 2, 3), 7, None, id="box-k3"),
]


def _stencil_system(kind, spec, nodes, extents):
    if kind == "radial":
        problem, exact = solver.radial_quartic_problem(spec)
        system = RadialSystem(problem, grids.radial_grid(1.0, nodes, spec.n))
    else:
        problem, exact = solver.box_cosine_problem(spec, extents=extents)
        system = BoxSystem(problem, grids.box_grid(problem.geom.extents, nodes))
    grid = system.grid
    u = exact(grid.points) + 1e-3 * np.sin(np.arange(grid.npoints))
    return system, u.astype(system.state_dtype)


@pytest.mark.parametrize("kind,spec,nodes,extents", STENCIL_CASES)
def test_stencil_table_matches_hand_formulas(kind, spec, nodes, extents):
    system, u = _stencil_system(kind, spec, nodes, extents)
    grid = system.grid
    assert grid.stencil_cols.dtype == np.int32
    assert grid.stencil_cols.shape[1] == grid.interior_flat.size
    if kind == "radial":
        ours, ref = grids.radial_spectra(grid, u), radial_spectra_formula(grid, u)
        assert ours.dtype == ref.dtype == system.state_dtype
    else:
        ours, ref = grids.box_hessians(grid, u), box_hessians_slices(grid, u)
        assert ours.shape == ref.shape
        assert np.array_equal(ours, ours.transpose(0, 2, 1))
    assert np.abs(ours - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("kind,spec,nodes,extents", STENCIL_CASES)
def test_table_jacobian_matches_hand_stencil(kind, spec, nodes, extents):
    system, u = _stencil_system(kind, spec, nodes, extents)
    for t in (0.4, 1.0):
        J = system.jacobian(u, t)
        ref = coo_jacobian(system, u, t, stencil=hand_stencil)
        ref.sum_duplicates()
        ref.sort_indices()
        assert np.array_equal(J.indptr, ref.indptr)
        assert np.array_equal(J.indices, ref.indices)
        assert np.abs(J.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max()


def test_t0_anchor_residual_zero_box():
    spec = ConeSpec(3, 2, 2)
    problem = arbitrary_fields_problem(spec)
    grid = grids.box_grid(problem.geom.extents, 17)
    system = BoxSystem(problem, grid)
    res = system.residual(system.initial_values(), 0.0)
    assert np.abs(res).max() <= 1e-12


@pytest.mark.parametrize(
    "spec,extents,nodes,f_of_u",
    [
        (ConeSpec(3, 2, 2), (2.0, 2.0, 2.0), 7, False),
        (ConeSpec(3, 2, 2), (2.0, 2.0, 2.0), 7, True),
        (ConeSpec(3, 2, 2), (2.0, 1.5, 2.5), (9, 7, 11), False),
        (ConeSpec(4, 2, 2), (2.0, 2.0, 2.0, 2.0), 7, False),
        (ConeSpec(3, 2, 3), (2.0, 2.0, 2.0), 7, False),
    ],
    ids=["f_x", "f_xu", "9x7x11", "7^4", "k3"],
)
def test_box_jacobian_matches_finite_differences(spec, extents, nodes, f_of_u):
    problem = arbitrary_fields_problem(spec, extents)
    if f_of_u:
        # f(x, u) = f(x) - (1 + |x|^2) (u - |x|^2 / 2): f_u = -(1 + |x|^2) <= 0
        base_f = problem.f
        problem.f_u = lambda points, u: -(1.0 + (points**2).sum(axis=1))
        problem.f = lambda points, u: (
            base_f(points) + problem.f_u(points, u) * (u - 0.5 * (points**2).sum(axis=1))
        )
    grid = grids.box_grid(problem.geom.extents, nodes)
    system = BoxSystem(problem, grid)
    rng = np.random.default_rng(11)
    u = system.initial_values() + 1e-3 * rng.normal(size=grid.npoints)
    assert system.min_margin(u) > 0
    for t in (0.4, 1.0):
        J = system.jacobian(u, t)
        v = rng.normal(size=grid.npoints)
        eps = 1e-6
        fd = (
            system.residual(u + eps * v, t, require_admissible=False)
            - system.residual(u - eps * v, t, require_admissible=False)
        ) / (2 * eps)
        Jv = J @ v
        assert np.abs(Jv - fd).max() / np.abs(Jv).max() < 1e-5


def test_box_manufactured_small():
    spec = ConeSpec(3, 2, 2)
    report = manufactured_suite("box", spec, (9, 17))
    assert 1.5 <= report["observed_order"] <= 2.3, report
    for row in report["rows"]:
        assert row["diagnostics"]["bound_ok"]
        assert row["diagnostics"]["max_on_boundary"]
        assert row["diagnostics"]["admissible_everywhere"]


def test_box_solve_makes_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("box solve called an eigendecomposition")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    spec = ConeSpec(3, 2, 2)
    problem, exact = solver.box_cosine_problem(spec)
    state, grid = solver.box_solve(problem, 9)
    assert state.t == 1.0
    assert np.abs(state.values - exact(grid.points)).max() < 5e-3


def test_box_four_dimensional():
    spec = ConeSpec(4, 2, 2)
    problem, exact = solver.box_cosine_problem(spec)
    state, grid = solver.box_solve(problem, 7)
    assert state.t == 1.0
    assert np.abs(state.values - exact(grid.points)).max() < 2e-2
    assert state.diagnostics["bound_ok"] and state.diagnostics["max_on_boundary"]


def test_box_non_cubic_mesh():
    spec = ConeSpec(3, 2, 2)
    problem, exact = solver.box_cosine_problem(spec, extents=[2.0, 1.5, 2.5])
    state, grid = solver.box_solve(problem, (9, 7, 11))
    assert state.t == 1.0
    assert np.abs(state.values - exact(grid.points)).max() < 1e-2
    assert state.diagnostics["bound_ok"] and state.diagnostics["max_on_boundary"]


def test_box_solution_dependent_f():
    spec = ConeSpec(3, 2, 2)
    problem, exact = solver.box_cosine_problem(spec)
    base_f = problem.f
    problem.f = lambda pts, u: base_f(pts) + (exact(pts) - u)
    problem.f_u = lambda pts, u: -np.ones(pts.shape[0])
    state, grid = solver.box_solve(problem, 9)
    assert state.t == 1.0
    assert np.abs(state.values - exact(grid.points)).max() < 5e-3


def test_box_trivial_path():
    spec = ConeSpec(3, 2, 2)
    K0 = solver.homotopy_constant(spec)

    def f(points):
        return np.full(points.shape[0], K0)

    def a(points):
        return np.ones(points.shape[0])

    def b(points, normals):
        return (points * normals).sum(axis=1) + 0.5 * (points**2).sum(axis=1)

    problem = ProblemSpec(spec=spec, geom=geometry.box([2.0, 2.0, 2.0]), f=f, a=a, b=b)
    state, grid = solver.box_solve(problem, 9)
    assert state.t == 1.0
    assert sum(s["newton_iters"] for s in state.steps) == 0


def manufactured_jacobian(spec, nodes, extents=None):
    problem, exact = solver.box_cosine_problem(spec, extents=extents)
    grid = grids.box_grid(problem.geom.extents, nodes)
    J = BoxSystem(problem, grid).jacobian(exact(grid.points), 1.0)
    return J, grid


def _with_f_of_u(problem, exact):
    # f(x, u) = f(x) - (1 + |x|^2) (u - exact(x)): f_u = -(1 + |x|^2) <= 0
    base_f = problem.f
    problem.f_u = lambda points, u: -(1.0 + (points**2).sum(axis=1))
    problem.f = lambda points, u: base_f(points) + problem.f_u(points, u) * (u - exact(points))
    return problem


@pytest.mark.parametrize(
    "spec,nodes,extents,f_of_u",
    [
        (ConeSpec(3, 2, 2), 64, None, False),
        (ConeSpec(3, 2, 2), 64, None, True),
        (ConeSpec(3, 2, 2), 9, None, False),
        (ConeSpec(3, 2, 2), 9, None, True),
        (ConeSpec(3, 2, 2), (9, 7, 11), [2.0, 1.5, 2.5], False),
        (ConeSpec(4, 2, 2), 7, None, False),
        (ConeSpec(3, 2, 2), 17, None, False),
    ],
    ids=["radial-64", "radial-64-f_xu", "box-9", "box-9-f_xu", "box-9x7x11", "box-7^4",
         "box-17"],
)
def test_pattern_jacobian_matches_coo_assembly(spec, nodes, extents, f_of_u):
    if nodes == 64:
        problem, exact = solver.radial_quartic_problem(spec)
        system_cls, grid = RadialSystem, grids.radial_grid(1.0, nodes, spec.n)
    else:
        problem, exact = solver.box_cosine_problem(spec, extents=extents)
        system_cls, grid = BoxSystem, grids.box_grid(problem.geom.extents, nodes)
    if f_of_u:
        problem = _with_f_of_u(problem, exact)
    system = system_cls(problem, grid)
    u = exact(grid.points) + 1e-3 * np.sin(np.arange(grid.npoints))
    for t in (0.4, 1.0):
        J = system.jacobian(u, t)
        ref = coo_jacobian(system, u, t)
        ref.sum_duplicates()
        ref.sort_indices()
        assert J.has_canonical_format
        assert J.indices.dtype == J.indptr.dtype == np.int32
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(J, name), getattr(ref, name)), name


def test_box_prolongation_interpolates_linear_fields():
    fine = grids.box_grid([2.0, 1.5, 2.5], (9, 5, 17))
    P, coarse_shape = grids.box_prolongation(fine.shape)
    assert coarse_shape == (5, 3, 9)
    coarse_points = fine.points.reshape(fine.shape + (3,))[::2, ::2, ::2].reshape(-1, 3)

    def field(x):
        return 1.0 + x[:, 0] - 2.0 * x[:, 1] + 0.5 * x[:, 0] * x[:, 1] * x[:, 2]

    # tensor-product linear interpolation is exact for multilinear fields
    assert np.abs(P @ field(coarse_points) - field(fine.points)).max() < 1e-13
    assert grids.box_prolongation((12, 12, 12)) is None
    assert grids.box_prolongation((9, 7, 11)) is not None
    assert grids.box_prolongation((3, 3, 3)) is None


@pytest.mark.parametrize(
    "spec,nodes,extents",
    [
        (ConeSpec(3, 2, 2), 17, None),
        (ConeSpec(3, 2, 2), (9, 7, 11), [2.0, 1.5, 2.5]),
        (ConeSpec(4, 2, 2), 7, None),
    ],
)
def test_multigrid_solve_matches_direct(monkeypatch, spec, nodes, extents):
    # a direct limit below the fine sizes but above the coarsest level's, so
    # these systems take the V-cycle route with an LU-factored coarsest level
    monkeypatch.setattr(solver, "DIRECT_LIMIT", 300)
    J, grid = manufactured_jacobian(spec, nodes, extents)
    assert solver.VCycle(J, grid.shape).lu is not None
    rhs = np.random.default_rng(5).normal(size=J.shape[0])
    x, iters = solver._linear_solve(J, rhs, grid.shape)
    assert iters > 0
    ref = spla.spsolve(J.tocsc(), rhs)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


def test_multigrid_iterations_do_not_grow_with_mesh():
    iters = {}
    for nodes in (17, 33):
        J, grid = manufactured_jacobian(ConeSpec(3, 2, 2), nodes)
        assert J.shape[0] > solver.DIRECT_LIMIT
        rhs = np.random.default_rng(7).normal(size=J.shape[0])
        _, iters[nodes] = solver._linear_solve(J, rhs, grid.shape)
    assert 0 < iters[33] <= 1.5 * iters[17], iters


def test_unhalvable_box_converges_on_smoothing_only():
    J, grid = manufactured_jacobian(ConeSpec(3, 2, 2), 12)
    assert J.shape[0] > solver.DIRECT_LIMIT
    assert grids.box_prolongation(grid.shape) is None
    assert solver.VCycle(J, grid.shape).lu is None
    rhs = np.random.default_rng(9).normal(size=J.shape[0])
    x, iters = solver._linear_solve(J, rhs, grid.shape)
    assert iters > 0
    ref = spla.spsolve(J.tocsc(), rhs)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


def test_radial_jacobian_goes_to_direct_solve(monkeypatch):
    routes = []
    direct = spla.spsolve

    def spsolve(*args, **kwargs):
        routes.append("spsolve")
        return direct(*args, **kwargs)

    def lgmres(*args, **kwargs):
        raise AssertionError("radial system sent to lgmres")

    monkeypatch.setattr(spla, "spsolve", spsolve)
    monkeypatch.setattr(spla, "lgmres", lgmres)
    problem, _ = solver.radial_quartic_problem(ConeSpec(3, 2, 2))
    state, _ = solver.radial_solve(problem, 256)
    assert routes
    assert all(s["linear_iters"] == 0 for s in state.steps)


def test_box_steps_record_krylov_iterations():
    problem, exact = solver.box_cosine_problem(ConeSpec(3, 2, 2))
    state, grid = solver.box_solve(problem, 13)
    assert grid.npoints > solver.DIRECT_LIMIT
    assert np.abs(state.values - exact(grid.points)).max() < 5e-3
    for step in state.steps:
        assert (step["linear_iters"] > 0) == (step["newton_iters"] > 0), step


def test_one_vcycle_hierarchy_per_newton_solve(monkeypatch):
    builds, solves = [], []
    build, newton = solver.VCycle, solver.newton_solve

    def counted_build(*args):
        builds.append(args[1])
        return build(*args)

    def counted_newton(*args, **kwargs):
        u, stats = newton(*args, **kwargs)
        solves.append(stats["iters"])
        return u, stats

    monkeypatch.setattr(solver, "VCycle", counted_build)
    monkeypatch.setattr(solver, "newton_solve", counted_newton)
    problem, _ = solver.box_cosine_problem(ConeSpec(3, 2, 2))
    state, grid = solver.box_solve(problem, 17)
    assert not state.rejected_steps
    iterating = sum(1 for iters in solves if iters > 0)
    assert iterating > 0 and builds == [grid.shape] * iterating
    assert sum(solves) > iterating  # later iterations reused their solve's hierarchy
    assert 0 < state.profile["hierarchy_s"] <= state.profile["linear_solve_s"]


def test_reused_hierarchy_keeps_no_fine_operator():
    # the fine D^-1 J must go when _linear_solve returns: neither the cached
    # hierarchy nor a reference cycle, which only a collection frees, holds it
    J, grid = manufactured_jacobian(ConeSpec(3, 2, 2), 13)
    cache, timing = {}, {}
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            solver._linear_solve(J, np.ones(J.shape[0]), grid.shape, 1e-8, cache, timing)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert all(op.shape[0] < J.shape[0] for op in cache["vcycle"].ops)
    assert timing["hierarchy_s"] > 0


def _box_17_solve():
    problem, exact = solver.box_cosine_problem(ConeSpec(3, 2, 2))
    state, grid = solver.box_solve(problem, 17)
    error = np.abs(state.values - exact(grid.points)).max()
    return state, error, sum(s["linear_iters"] for s in state.steps)


def test_inexact_newton_keeps_the_tight_solve(monkeypatch):
    state, error, linear_iters = _box_17_solve()
    assert state.diagnostics["final_residual_norm"] <= 1e-8
    monkeypatch.setattr(solver, "forcing", lambda *args: 1e-12)
    tight_state, tight_error, tight_iters = _box_17_solve()
    assert tight_state.diagnostics["final_residual_norm"] <= 1e-8
    assert abs(error - tight_error) <= 1e-6 * tight_error
    assert linear_iters <= 0.6 * tight_iters, (linear_iters, tight_iters)


def test_krylov_route_scales_a_copy_of_the_jacobian(monkeypatch):
    J, grid = manufactured_jacobian(ConeSpec(3, 2, 2), 13)
    assert J.shape[0] > solver.DIRECT_LIMIT
    names = ("data", "indices", "indptr")
    before = [getattr(J, name).copy() for name in names]
    operators = []

    def capturing(A, b, M, **kwargs):
        operators.append(A)
        return np.zeros_like(b), 0

    monkeypatch.setattr(spla, "lgmres", capturing)
    solver._linear_solve(J, np.ones(J.shape[0]), grid.shape)
    for name, old in zip(names, before):
        assert np.array_equal(getattr(J, name), old), name
    diag = J.diagonal()
    assert np.all(diag != 0)
    # the product drops explicit zeros and leaves its columns unsorted
    A, ref = operators[0].copy(), (sp.diags(1.0 / diag) @ J).tocsr()
    for op in (A, ref):
        op.eliminate_zeros()
        op.sort_indices()
    assert A.shape == ref.shape
    for name in names:
        assert np.array_equal(getattr(A, name), getattr(ref, name)), name


def test_lgmres_failure_names_rtol_and_cycles(monkeypatch):
    def failing(A, b, M, **kwargs):
        M.matvec(b)
        return np.zeros_like(b), 1

    monkeypatch.setattr(spla, "lgmres", failing)
    J, grid = manufactured_jacobian(ConeSpec(3, 2, 2), 13)
    assert J.shape[0] > solver.DIRECT_LIMIT
    with pytest.raises(NonconvergenceError, match=r"info=1, rtol=1e-12, 1 V-cycles"):
        solver._linear_solve(J, np.ones(J.shape[0]), grid.shape)


def test_lgmres_failure_rejects_the_step_and_halves_dt(monkeypatch):
    lgmres, calls = spla.lgmres, []

    def fails_once(A, b, **kwargs):
        calls.append(kwargs["rtol"])
        if len(calls) == 1:
            return np.zeros_like(b), 1
        return lgmres(A, b, **kwargs)

    monkeypatch.setattr(spla, "lgmres", fails_once)
    problem, exact = solver.box_cosine_problem(ConeSpec(3, 2, 2))
    state, grid = solver.box_solve(problem, 13)
    cfg = solver.SolverConfig()
    assert calls[0] == solver.FORCING_MAX
    assert state.rejected_steps == [{"t": 0.0, "dt": cfg.dt0, "error": "NonconvergenceError"}]
    assert state.steps[1]["dt"] == 0.5 * cfg.dt0
    assert state.t == 1.0
    assert np.abs(state.values - exact(grid.points)).max() < 5e-3


@pytest.mark.parametrize(
    "grid",
    [grids.radial_grid(1.0, 16, 3), grids.box_grid([2.0, 1.6, 2.4], (9, 7, 11))],
    ids=["radial", "box"],
)
def test_grids_share_one_boundary_interface(grid):
    # both grid kinds: u = |x|^2 / 2 has u_nu = x . nu on the boundary nodes,
    # and the dnu triplets apply the same one-sided closure
    u = 0.5 * (grid.points**2).sum(axis=1)
    bidx = grid.boundary_flat
    x_dot_nu = (grid.points[bidx] * grid.normals[bidx]).sum(axis=1)
    assert np.abs(grid.normal_derivative(u) - x_dot_nu).max() < 1e-13
    dnu = np.zeros(grid.npoints)
    np.add.at(dnu, grid.dnu_rows, grid.dnu_vals * u[grid.dnu_cols])
    assert np.abs(dnu[bidx] - grid.normal_derivative(u)).max() < 1e-13
    assert np.array_equal(np.sort(np.concatenate([grid.interior_flat, bidx])),
                          np.arange(grid.npoints))
    assert np.all(grid.normals[grid.interior_flat] == 0.0)


def test_system_rejects_grid_of_other_dimension():
    spec = ConeSpec(3, 2, 2)
    problem = arbitrary_fields_problem(spec)
    with pytest.raises(ConfigError, match="grid dimension 2 does not match n = 3"):
        BoxSystem(problem, grids.box_grid([2.0, 2.0], 9))


def test_box_manufactured_17_takes_three_predicted_steps():
    problem, exact = solver.box_cosine_problem(ConeSpec(3, 2, 2))
    state, grid = solver.box_solve(problem, 17)
    steps = state.steps[1:]
    assert len(steps) == 3 and not state.rejected_steps
    assert sum(s["newton_iters"] for s in steps) <= 8
    assert [s["predicted"] for s in steps] == [False, True, True]
    assert np.abs(state.values - exact(grid.points)).max() < 8e-4


def _counting(field):
    """``field`` wrapped to record the number of points of every call."""
    calls = []

    def counted(points, *u):
        calls.append(points.shape[0])
        return field(points, *u)

    return counted, calls


@pytest.mark.parametrize("kind, mesh", [("radial", 32), ("box", 9)])
def test_fixed_f_is_evaluated_at_most_twice_per_solve(kind, mesh):
    # validate checks f on the whole grid; the system evaluates the interior
    # once, however many residuals the path takes
    template, solve = {
        "radial": (solver.radial_quartic_problem, solver.radial_solve),
        "box": (solver.box_cosine_problem, solver.box_solve),
    }[kind]
    problem, _ = template(ConeSpec(3, 2, 2))
    problem.f, calls = _counting(problem.f)
    state, _ = solve(problem, mesh)
    assert state.t == 1.0 and sum(s["newton_iters"] for s in state.steps) > 0
    assert len(calls) <= 2


@pytest.mark.parametrize("f_of_u", [False, True], ids=["f_x", "f_xu"])
def test_rhs_blends_f_and_the_t0_constant(f_of_u):
    spec = ConeSpec(3, 2, 2)
    problem = arbitrary_fields_problem(spec)
    if f_of_u:
        base_f = problem.f
        problem.f_u = lambda points, u: -np.ones(points.shape[0])
        problem.f = lambda points, u: base_f(points) + 0.5 * (points**2).sum(axis=1) - u
    field = problem.f
    problem.f, calls = _counting(field)
    grid = grids.box_grid(problem.geom.extents, 7)
    system = BoxSystem(problem, grid)
    u = 1.01 * system.initial_values()
    interior_u = (u[grid.interior_flat],) if f_of_u else ()
    fvals = field(system.interior_points, *interior_u)
    for t in (0.0, 0.3, 1.0):
        np.testing.assert_array_equal(system.rhs(t, u), t * fvals + (1.0 - t) * system.K0)
        system.residual(u, t)
    # f(x): once, when the system is built; f(x, u): on every rhs
    assert len(calls) == (6 if f_of_u else 1)
