import dataclasses
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
    box_hessians_slices, coo_jacobian, hand_stencil, manufactured_suite, minors_data,
    radial_spectra_formula,
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


def _normal_derivative(grid, values):
    """The ``dnu_*`` triplets applied to ``values``, at the boundary nodes."""
    dnu = np.zeros(grid.npoints)
    np.add.at(dnu, grid.dnu_rows, grid.dnu_vals * values[grid.dnu_cols])
    return dnu[grid.boundary_flat]


def test_normal_derivative_exact_for_quadratics():
    grid = grids.box_grid([2.0, 2.0, 2.0], 9)
    q = 0.5 * (grid.points**2).sum(axis=1)
    x_dot_nu = (grid.points[grid.boundary_flat] * grid.normals[grid.boundary_flat]).sum(axis=1)
    assert np.abs(_normal_derivative(grid, q) - x_dot_nu).max() < 1e-13


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
    assert grid.stencil_cols.dtype == np.intp
    assert grid.stencil_cols.shape[1] == grid.interior_flat.size
    if kind == "radial":
        # the profiles [u'', u'/r]: the formula's first two columns
        ours, ref = grids.radial_spectra(grid, u), radial_spectra_formula(grid, u)[:, :2]
        assert ours.dtype == ref.dtype == system.state_dtype
    else:
        ours, ref = grids.box_hessians(grid, u), box_hessians_slices(grid, u)
        assert ours.shape == ref.shape
        assert np.array_equal(ours, ours.transpose(0, 2, 1))
    assert np.abs(ours - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("kind,spec,nodes,extents", STENCIL_CASES)
def test_table_jacobian_matches_hand_stencil(kind, spec, nodes, extents):
    system, u = _stencil_system(kind, spec, nodes, extents)
    w = u - system.q
    for t in (0.4, 1.0):
        J = system.jacobian(w, t)
        ref = coo_jacobian(system, w, t, stencil=hand_stencil)
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
    # w = 0: q's exact data and no boundary term, so no rounding is left
    res = system.residual(system.initial_values(), 0.0)
    assert np.all(res == 0.0)


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


def test_box_manufactured_study_on_independent_data():
    # the template's f comes from lift.sym_batch, the function the solver
    # calls; here f is built from the exact Hessian of
    # u = |x|^2 / 2 + amp cos(pi x1 / 2) cos(pi x2 / 2) cos(pi x3 / 2)
    # by minors alone
    spec, amp = ConeSpec(3, 2, 2), 0.05
    quart = (0.5 * np.pi) ** 2

    def hessian(points):
        cos, sin = np.cos(0.5 * np.pi * points), np.sin(0.5 * np.pi * points)
        H = np.empty((points.shape[0], 3, 3))
        for c in range(3):
            H[:, c, c] = 1.0 - amp * quart * cos.prod(axis=1)
            for d in range(c + 1, 3):
                H[:, c, d] = H[:, d, c] = amp * quart * sin[:, c] * sin[:, d] * cos[:, 3 - c - d]
        return H

    library = manufactured_suite("box", spec, (9, 17), amp=amp)
    report = manufactured_suite("box", spec, (9, 17), f=minors_data(hessian, spec), amp=amp)
    for row, ref in zip(report["rows"], library["rows"]):
        assert abs(row["linf"] - ref["linf"]) <= 1e-9 * ref["linf"], (row, ref)
    assert 1.5 <= report["observed_order"] <= 2.3, report


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


def _lattice_points(extents, shape):
    """The nodes of the centered lattice ``shape`` on the box ``extents``,
    (P, dim) in C order; unlike ``box_grid``, any axis may have 3 or 4."""
    axes = [np.linspace(-e / 2.0, e / 2.0, n) for e, n in zip(extents, shape)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(shape))


def test_box_prolongation_interpolates_linear_fields():
    def field(x):
        return 1.0 + x[:, 0] - 2.0 * x[:, 1] + 0.5 * x[:, 0] * x[:, 1] * x[:, 2]

    extents = [2.0, 1.5, 2.5]
    # odd axes keep their even nodes; even ones halve to non-nested nodes
    for shape, half in (((9, 5, 17), (5, 3, 9)), ((8, 6, 12), (5, 4, 7))):
        P, coarse_shape = grids.box_prolongation(shape)
        assert coarse_shape == half
        fine = field(_lattice_points(extents, shape))
        # tensor-product linear interpolation is exact for multilinear fields
        assert np.abs(P @ field(_lattice_points(extents, half)) - fine).max() < 1e-13
    assert grids.box_prolongation((12, 12, 12))[1] == (7, 7, 7)
    assert grids.box_prolongation((9, 7, 11))[1] == (5, 4, 6)
    assert grids.box_prolongation((3, 3, 3)) is None
    assert grids.box_prolongation((9, 4, 9)) is None


@pytest.mark.parametrize("n", [5, 7, 9, 17, 6, 8, 12, 16])
def test_cubic_interpolation_1d_rows(n):
    nc = n // 2 + 1
    Q = grids._interpolation_1d(n, nc, 2)
    assert Q.shape == (n, nc)
    if n % 2:
        # the coarse nodes are the even fine ones: the literal dyadic rules
        expected = np.zeros((n, nc))
        expected[::2] = np.eye(nc)
        for j in range(1, nc - 2):
            expected[2 * j + 1, j - 1 : j + 3] = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
        expected[1, :3] = np.array([3.0, 6.0, -1.0]) / 8.0
        expected[-2, -3:] = np.array([-1.0, 6.0, 3.0]) / 8.0
        assert np.array_equal(Q, expected)
    assert np.abs(Q.sum(axis=1) - 1.0).max() < 1e-15

    def quadratic(x):
        return 0.5 + x - 0.75 * x**2

    coarse, fine = np.linspace(0.0, 1.0, nc), np.linspace(0.0, 1.0, n)
    assert np.abs(Q @ quadratic(coarse) - quadratic(fine)).max() < 1e-15


def _tensor_field(points, degree):
    # per-axis polynomials of the given degree, multiplied across axes
    out = np.ones(points.shape[0])
    for c in range(points.shape[1]):
        x = points[:, c]
        out = out * (0.5 + x - 0.75 * x**2 + (0.3 * x**3 if degree == 3 else 0.0))
    return out


def test_box_cubic_interpolation_is_exact_on_tensor_polynomials():
    for shape in ((9, 5, 17), (8, 6, 12)):
        _check_cubic_interpolation([2.0, 1.5, 2.5], shape)


def _check_cubic_interpolation(extents, shape):
    coarse_shape = grids.box_coarse_shape(shape)
    # per axis, the fine nodes at a coarse node, that coarse node, and the
    # fine nodes whose coarse interval is neither the first nor the last
    on_node, below, inner = [], [], []
    for n, nc in zip(shape, coarse_shape):
        s = np.arange(n) * (nc - 1) / (n - 1)
        on_node.append(np.flatnonzero(s == np.round(s)))
        below.append(s[on_node[-1]].astype(int))
        inner.append(np.flatnonzero((s == np.round(s)) | ((s >= 1) & (s < nc - 2))))
    for degree in (2, 3):
        coarse = _tensor_field(_lattice_points(extents, coarse_shape), degree)
        out = grids.box_cubic_interpolation(coarse, coarse_shape, shape).reshape(shape)
        error = np.abs(out - _tensor_field(_lattice_points(extents, shape), degree).reshape(shape))
        # fine nodes at a coarse node copy its value
        assert np.array_equal(out[np.ix_(*on_node)],
                              coarse.reshape(coarse_shape)[np.ix_(*below)])
        if degree == 2:
            assert error.max() < 1e-14
        else:
            # the first and last coarse interval use the one-sided quadratic rule
            assert error[np.ix_(*inner)].max() < 1e-14
            assert error.max() > 1e-3


@pytest.mark.parametrize(
    "spec,nodes,extents",
    [
        (ConeSpec(3, 2, 2), 17, None),
        (ConeSpec(3, 2, 2), (9, 7, 11), [2.0, 1.5, 2.5]),
        (ConeSpec(4, 2, 2), 7, None),
        (ConeSpec(3, 2, 2), 12, None),
    ],
)
def test_multigrid_solve_matches_direct(spec, nodes, extents):
    # each fine system is past the direct limit, so it takes the V-cycle route
    J, grid = manufactured_jacobian(spec, nodes, extents)
    rhs = np.random.default_rng(5).normal(size=J.shape[0])
    x, iters = solver._linear_solve(J, rhs, grid.shape)
    assert iters > 0
    ref = spla.spsolve(J.tocsc(), rhs)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


def test_multigrid_iterations_do_not_grow_with_mesh():
    iters = {}
    for nodes in (17, 33, 16, 32):
        J, grid = manufactured_jacobian(ConeSpec(3, 2, 2), nodes)
        assert J.shape[0] > solver.DIRECT_LIMIT
        rhs = np.random.default_rng(7).normal(size=J.shape[0])
        _, iters[nodes] = solver._linear_solve(J, rhs, grid.shape)
    for coarse, fine in ((17, 33), (16, 32)):
        assert 0 < iters[fine] <= 1.5 * iters[coarse], iters


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
    # 13^3 follows the path on its half mesh 7^3 (343 unknowns, LU) and
    # takes its own t = 1 solve on the Krylov route
    problem, exact = solver.box_cosine_problem(ConeSpec(3, 2, 2))
    state, grid = solver.box_solve(problem, 13)
    assert grid.npoints > solver.DIRECT_LIMIT
    assert np.abs(state.values - exact(grid.points)).max() < 5e-3
    krylov = [s for s in state.steps if np.prod(s["mesh"]) > solver.DIRECT_LIMIT]
    assert krylov and all(s["mesh"] == [13, 13, 13] for s in krylov)
    for step in state.steps:
        if step in krylov:
            assert (step["linear_iters"] > 0) == (step["newton_iters"] > 0), step
        else:
            assert step["linear_iters"] == 0, step


def test_one_vcycle_hierarchy_per_newton_solve(monkeypatch):
    builds, solves = [], []
    build, newton = solver.VCycle, solver.newton_solve

    def counted_build(*args):
        builds.append(args[1])
        return build(*args)

    def counted_newton(system, *args, **kwargs):
        u, stats = newton(system, *args, **kwargs)
        solves.append((system.grid.shape, stats["iters"]))
        return u, stats

    monkeypatch.setattr(solver, "VCycle", counted_build)
    monkeypatch.setattr(solver, "newton_solve", counted_newton)
    problem, _ = solver.box_cosine_problem(ConeSpec(3, 2, 2))
    state, _ = solver.box_solve(problem, 17)
    assert not state.rejected_steps
    # the 5^3 path is on the LU route; 9^3 and 17^3 each take one Krylov
    # Newton solve at t = 1
    krylov = [(shape, iters) for shape, iters in solves
              if iters > 0 and np.prod(shape) > solver.DIRECT_LIMIT]
    assert builds == [shape for shape, _ in krylov] == [(9, 9, 9), (17, 17, 17)]
    # later iterations reused their solve's hierarchy
    assert sum(iters for _, iters in krylov) > len(krylov)
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


@pytest.mark.parametrize("nodes", [17, 12], ids=["17^3", "12^3"])
def test_presmoothing_start_is_the_first_sweep_from_zero(monkeypatch, nodes):
    # the first pre-smoothing sweep forms omega D^-1 b directly; the cycle must
    # equal one whose smoothing starts from x = 0 bit for bit, through the
    # nested coarse levels of 17^3 and the non-nested 12^3 -> 7^3 -> 4^3
    J, grid = manufactured_jacobian(ConeSpec(3, 2, 2), nodes)
    operators = []

    def capturing(A, b, M, **kwargs):
        operators.append(A)
        return np.zeros_like(b), 0

    monkeypatch.setattr(spla, "lgmres", capturing)
    solver._linear_solve(J, np.ones(J.shape[0]), grid.shape)
    A = operators[0]
    vcycle = solver.VCycle(A, grid.shape)
    b = np.random.default_rng(11).normal(size=A.shape[0])
    x = vcycle.preconditioner(A).matvec(b)
    monkeypatch.setattr(solver, "_presmooth", lambda A, inv, b: solver._smooth(
        A, inv, np.zeros_like(b), b, solver._MG_SWEEPS))
    assert np.array_equal(x, vcycle.preconditioner(A).matvec(b))


def test_box_solution_is_homogeneous_in_the_data():
    # the operator has degree k in u and the boundary rows are linear, so the
    # data (c^k f, c b) give the solution c u; no exact solution is needed
    spec, c = ConeSpec(3, 2, 2), 2.0
    problem, _ = solver.box_cosine_problem(spec)
    scaled = dataclasses.replace(
        problem,
        f=lambda points: c**spec.k * problem.f(points),
        b=lambda points, normals: c * problem.b(points, normals),
    )
    state, _ = solver.box_solve(problem, 17)
    scaled_state, _ = solver.box_solve(scaled, 17)
    assert [s["mesh"] for s in scaled_state.steps][-3:] == [[5, 5, 5], [9, 9, 9], [17, 17, 17]]
    assert not scaled_state.rejected_steps
    assert np.abs(scaled_state.values - c * state.values).max() <= 1e-11


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
    # (9, 7, 11) would halve to (5, 4, 6), no box mesh, so it follows the
    # whole path on Krylov
    state, grid = solver.box_solve(problem, (9, 7, 11))
    cfg = solver.SolverConfig()
    assert calls[0] == solver.FORCING_MAX
    assert state.rejected_steps == [{
        "t": 0.0, "dt": cfg.dt0, "error": "NonconvergenceError",
        "message": "iterative linear solve failed (info=1, rtol=0.01, 0 V-cycles)",
        "mesh": [9, 7, 11],
    }]
    assert state.steps[1]["dt"] == 0.5 * cfg.dt0
    assert state.t == 1.0
    assert np.abs(state.values - exact(grid.points)).max() < 5e-3


@pytest.mark.parametrize(
    "grid",
    [grids.radial_grid(1.0, 16, 3), grids.box_grid([2.0, 1.6, 2.4], (9, 7, 11))],
    ids=["radial", "box"],
)
def test_grids_share_one_boundary_interface(grid):
    # both grid kinds: the dnu triplets' one-sided closure gives
    # q = |x|^2 / 2 its normal derivative q_nu = x . nu on the boundary nodes
    q = 0.5 * (grid.points**2).sum(axis=1)
    bidx = grid.boundary_flat
    x_dot_nu = (grid.points[bidx] * grid.normals[bidx]).sum(axis=1)
    assert np.abs(_normal_derivative(grid, q) - x_dot_nu).max() < 1e-13
    assert np.array_equal(np.sort(np.concatenate([grid.interior_flat, bidx])),
                          np.arange(grid.npoints))
    assert np.all(grid.normals[grid.interior_flat] == 0.0)


def test_system_rejects_grid_of_other_dimension():
    spec = ConeSpec(3, 2, 2)
    problem = arbitrary_fields_problem(spec)
    with pytest.raises(ConfigError, match="grid dimension 2 does not match n = 3"):
        BoxSystem(problem, grids.box_grid([2.0, 2.0], 9))


def test_box_manufactured_17_takes_three_predicted_steps():
    # 17 -> 9 -> 5: the path runs on 5^3, then 9^3 and 17^3 each take one
    # Newton solve at t = 1
    problem, exact = solver.box_cosine_problem(ConeSpec(3, 2, 2))
    state, grid = solver.box_solve(problem, 17)
    *path, nine, last = state.steps
    steps = path[1:]
    assert all(s["mesh"] == [5, 5, 5] for s in path) and not state.rejected_steps
    assert len(steps) == 3 and steps[-1]["t"] == 1.0
    assert sum(s["newton_iters"] for s in steps) <= 8
    assert [s["predicted"] for s in steps] == [False, True, True]
    for step, mesh in ((nine, [9, 9, 9]), (last, [17, 17, 17])):
        assert step["mesh"] == mesh and step["t"] == 1.0 and step["dt"] == 0.0
        assert step["newton_iters"] > 0 and not step["predicted"]
    assert state.diagnostics["final_residual_norm"] <= 1e-8
    error = np.abs(state.values - exact(grid.points)).max()
    assert error < 8e-4
    full = _full_continuation(problem, 17)
    full_error = np.abs(full.values - exact(grid.points)).max()
    assert abs(error - full_error) <= 1e-6 * full_error


def _full_continuation(problem, nodes):
    grid = grids.box_grid(problem.geom.extents, nodes)
    return solver.continuation_solve(BoxSystem(problem, grid))


def test_half_mesh_is_the_coarse_box_mesh():
    assert solver._half_mesh((33, 33, 33)) == (17, 17, 17)
    assert solver._half_mesh((33, 17, 17)) == (17, 9, 9)
    assert solver._half_mesh((17, 17, 17)) == (9, 9, 9)
    assert solver._half_mesh((9, 9, 9)) == (5, 5, 5)
    # every axis halves to n // 2 + 1
    assert solver._half_mesh((12, 12, 12)) == (7, 7, 7)
    assert solver._half_mesh((32, 32, 32)) == (17, 17, 17)
    assert solver._half_mesh((64, 64, 64)) == (33, 33, 33)
    # 3^3, (3, 33, 33) and 4^3 are no box meshes
    for shape in ((5, 5, 5), (5, 65, 65), (7, 7, 7)):
        assert solver._half_mesh(shape) is None


def test_box_solve_follows_the_path_on_the_half_mesh():
    # (33, 17, 17) halves to (17, 9, 9), then to (9, 5, 5), which halves no
    # further: the path runs there, and each finer mesh takes one t = 1 solve
    problem, exact = solver.box_cosine_problem(ConeSpec(3, 2, 2))
    state, grid = solver.box_solve(problem, (33, 17, 17))
    *path, middle, last = state.steps
    assert len(path) >= 2 and all(s["mesh"] == [9, 5, 5] for s in path)
    assert path[-1]["t"] == 1.0
    for step, mesh in ((middle, [17, 9, 9]), (last, [33, 17, 17])):
        assert step["mesh"] == mesh and step["t"] == 1.0 and step["dt"] == 0.0
        assert step["newton_iters"] > 0
    assert state.t == 1.0 and not state.rejected_steps
    assert state.diagnostics["final_residual_norm"] <= 1e-8
    assert state.margins.shape == (grid.npoints,)
    error = np.abs(state.values - exact(grid.points)).max()
    full = _full_continuation(problem, (33, 17, 17))
    full_error = np.abs(full.values - exact(grid.points)).max()
    assert abs(error - full_error) <= 1e-6 * full_error


def test_box_solve_33_starts_the_fine_newton_near_its_solution():
    # the cubic start of the fine mesh opens at |res| 0.099 and converges in
    # 2 Newton iterations; from the V-cycle's linear prolongation it would
    # open at 2.74 and take 4
    problem, exact = solver.box_cosine_problem(ConeSpec(3, 2, 2))
    state, grid = solver.box_solve(problem, 33)
    last = state.steps[-1]
    assert last["mesh"] == [33, 33, 33] and last["t"] == 1.0 and last["dt"] == 0.0
    assert 0 < last["newton_iters"] <= 2
    assert last["start_residual_norm"] < 0.2
    assert not state.rejected_steps
    assert state.diagnostics["final_residual_norm"] <= 1e-8
    error = np.abs(state.values - exact(grid.points)).max()
    assert abs(error - 1.94299559e-4) <= 1e-6 * 1.94299559e-4


def test_box_solve_32_sequences_through_non_nested_half_meshes():
    # 32 -> 17 -> 9 -> 5: the even lattice sequences like 33^3 does, where
    # an odd-only halving rule left it on 184 V-cycles of plain continuation
    problem, exact = solver.box_cosine_problem(ConeSpec(3, 2, 2))
    state, grid = solver.box_solve(problem, 32)
    chain = [s["mesh"] for s in state.steps if s["mesh"] != [5, 5, 5]]
    assert state.steps[0]["mesh"] == [5, 5, 5]
    assert chain == [[9, 9, 9], [17, 17, 17], [32, 32, 32]]
    assert not state.rejected_steps
    assert state.diagnostics["final_residual_norm"] <= 1e-8
    assert sum(s["linear_iters"] for s in state.steps) <= 100
    error = np.abs(state.values - exact(grid.points)).max()
    full = _full_continuation(problem, 32)
    full_error = np.abs(full.values - exact(grid.points)).max()
    assert abs(error - full_error) <= 1e-6 * full_error


@pytest.mark.parametrize(
    "failing, entry, fallback",
    [
        ((33, 17, 17), {"t": 1.0, "dt": 0.0, "mesh": [33, 17, 17]}, (33, 17, 17)),
        ((9, 5, 5), {"t": 0.0, "dt": 1.0, "mesh": [9, 5, 5]}, (17, 9, 9)),
        ((17, 9, 9), {"t": 1.0, "dt": 0.0, "mesh": [17, 9, 9]}, (17, 9, 9)),
    ],
    ids=["fine-correction", "coarse-path", "nested-correction"],
)
def test_failed_sequencing_falls_back_to_fine_continuation(
    monkeypatch, failing, entry, fallback
):
    # (33, 17, 17) -> (17, 9, 9) -> (9, 5, 5): the mesh just above a failure
    # runs the plain continuation, and the finer meshes sequence from it
    newton, failed = solver.newton_solve, []

    def fails_once(system, *args, **kwargs):
        if system.grid.shape == failing and not failed:
            failed.append(args[1])
            raise NonconvergenceError("refused")
        return newton(system, *args, **kwargs)

    def sequenced_from_fallback():
        half_mesh = solver._half_mesh
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_half_mesh",
                          lambda shape: None if shape == fallback else half_mesh(shape))
            return solver.box_solve(problem, (33, 17, 17))[0]

    problem, _ = solver.box_cosine_problem(ConeSpec(3, 2, 2))
    reference = sequenced_from_fallback()
    if fallback == (33, 17, 17):
        full = _full_continuation(problem, fallback)
        assert np.array_equal(reference.values, full.values)
        assert reference.steps == full.steps
    monkeypatch.setattr(solver, "newton_solve", fails_once)
    state, _ = solver.box_solve(problem, (33, 17, 17))
    assert failed == [entry["t"]]
    assert np.array_equal(state.values, reference.values)
    assert state.steps == reference.steps and state.diagnostics == reference.diagnostics
    assert state.rejected_steps == [
        {**entry, "error": "NonconvergenceError", "message": "refused"}
    ]


@pytest.mark.parametrize("nodes", [(9, 7, 11), 5], ids=["9x7x11", "5^3"])
def test_box_solve_without_a_krylov_half_mesh_is_plain_continuation(nodes):
    # no lattice here has a half mesh: (9, 7, 11) would halve to (5, 4, 6)
    # and 5^3 to 3^3, which are no box meshes
    problem, _ = solver.box_cosine_problem(ConeSpec(3, 2, 2))
    state, grid = solver.box_solve(problem, nodes)
    full = _full_continuation(problem, nodes)
    assert all(s["mesh"] == list(grid.shape) for s in state.steps)
    assert np.array_equal(state.values, full.values)
    assert state.as_dict() == full.as_dict()


def _counting(field):
    """``field`` wrapped to record the number of points of every call."""
    calls = []

    def counted(points, *u):
        calls.append(points.shape[0])
        return field(points, *u)

    return counted, calls


@pytest.mark.parametrize("kind, mesh", [("radial", 32), ("box", 9)])
def test_fixed_f_is_evaluated_at_most_twice_per_solve(kind, mesh):
    # each system evaluates its interior once, however many residuals the
    # path takes, and validate adds the boundary nodes; box 9^3 builds its
    # own system, then the 5^3 one its path runs on
    template, solve = {
        "radial": (solver.radial_quartic_problem, solver.radial_solve),
        "box": (solver.box_cosine_problem, solver.box_solve),
    }[kind]
    problem, _ = template(ConeSpec(3, 2, 2))
    problem.f, calls = _counting(problem.f)
    state, grid = solve(problem, mesh)
    assert state.t == 1.0 and sum(s["newton_iters"] for s in state.steps) > 0
    systems = [grid]
    if kind == "box":
        systems.append(grids.box_grid(problem.geom.extents, 5))
        assert {tuple(s["mesh"]) for s in state.steps} == {(9, 9, 9), (5, 5, 5)}
    assert calls == [size for g in systems
                     for size in (g.interior_flat.size, g.boundary_flat.size)]


def _system(kind, spec=ConeSpec(3, 2, 2)):
    if kind == "radial":
        problem, _ = solver.radial_quartic_problem(spec)
        return problem, lambda: RadialSystem(problem, grids.radial_grid(1.0, 16, spec.n))
    problem, _ = solver.box_cosine_problem(spec)
    return problem, lambda: BoxSystem(problem, grids.box_grid(problem.geom.extents, 7))


@pytest.mark.parametrize("f_of_u", [False, True], ids=["f_x", "f_xu"])
@pytest.mark.parametrize("bad, message", [(np.nan, "f must be finite"),
                                          (0.0, "f must be positive")],
                         ids=["nan", "zero"])
@pytest.mark.parametrize("node", ["interior", "boundary"])
@pytest.mark.parametrize("kind", ["radial", "box"])
def test_validate_rejects_bad_f_at_one_node(kind, node, bad, message, f_of_u):
    problem, build = _system(kind)
    grid = build().grid
    where = grid.points[getattr(grid, f"{node}_flat")[-1]]
    base_f = problem.f

    def f(points, *u):
        vals = np.array(base_f(points))
        vals[(points == where).all(axis=1)] = bad
        return vals

    problem.f = f
    if f_of_u:
        problem.f_u = lambda points, u: np.zeros(points.shape[0])
    system = build()
    with pytest.raises(ConfigError, match=message):
        system.validate()


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
    # the deviation w of u = 1.01 q; f(x, u) sees u
    w = 0.01 * system.q
    interior_u = ((system.q + w)[grid.interior_flat],) if f_of_u else ()
    fvals = field(system.interior_points, *interior_u)
    for t in (0.0, 0.3, 1.0):
        np.testing.assert_array_equal(system.rhs(t, w), t * fvals + (1.0 - t) * system.K0)
        system.residual(w, t)
    # f(x): once, when the system is built; f(x, u): on every rhs
    assert len(calls) == (6 if f_of_u else 1)
