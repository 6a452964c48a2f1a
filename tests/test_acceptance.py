"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured margins and runtime. Run with ``pytest tests/test_acceptance.py -s``.
"""

import math
import time

import numpy as np
import pytest

from sumhess import _kernels, cones, geometry, grids, lift, solver, symfun
from sumhess.geometry import BarrierParams
from sumhess.lift import ConeSpec
from sumhess.solver import BoxSystem, ProblemSpec, RadialSystem
from oracles import manufactured_suite, sk_of_hessian


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # first-call costs (imports, table caches) stay outside the timed budgets
    spec = ConeSpec(3, 2, 2)
    lift.gradient(np.eye(3), spec)
    yield


def _report(idx, name, elapsed, detail):
    print(f"ACCEPTANCE {idx} ({name}): PASS in {elapsed:.2f}s - {detail}")


def test_acceptance_1_spectral_lift():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    pairs = 0
    for n in range(3, 7):
        for m in range(2, n):
            pairs += 1
            table = lift.subset_table(n, m)
            Hs = rng.normal(0.0, 1.0, size=(1000, n, n))
            Hs = (Hs + Hs.transpose(0, 2, 1)) / 2.0
            W = lift.lift_hessian_batch(Hs, table)
            direct = np.sort(np.linalg.eigvalsh(W), axis=1)
            fast = np.sort(lift.sum_spectrum(Hs, m), axis=1)
            dev = float(np.abs(direct - fast).max())
            worst = max(worst, dev)
            assert dev <= 1e-9, (n, m, dev)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(1, "spectral lift", elapsed,
            f"{pairs} (n,m) pairs x 1000 matrices, worst deviation {worst:.2e}")


def test_acceptance_2_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    rtol = 1e-12
    worst = 0.0

    # split/weighted/plain partition identities, batched, 10^4 spectra
    for n in (3, 4, 5, 6):
        lams = rng.normal(0.0, 1.5, size=(2500, n))
        for k in range(1, n + 1):
            s = _kernels.elem_sym_all(lams, k)
            del_k = _kernels.deleted_sym(lams, k)
            del_km1 = _kernels.deleted_sym(lams, k - 1)
            lhs = del_k + lams * del_km1
            scale = np.abs(del_k) + np.abs(lams * del_km1) + np.abs(s[:, [k]])
            rel = np.abs(lhs - s[:, [k]]) / np.maximum(scale, 1e-300)
            worst = max(worst, float(rel.max()))
            lhs2 = (lams * del_km1).sum(axis=1)
            scale2 = np.abs(lams * del_km1).sum(axis=1) + np.abs(k * s[:, k])
            rel2 = np.abs(lhs2 - k * s[:, k]) / np.maximum(scale2, 1e-300)
            worst = max(worst, float(rel2.max()))
            lhs3 = del_k.sum(axis=1)
            scale3 = np.abs(del_k).sum(axis=1) + np.abs((n - k) * s[:, k])
            rel3 = np.abs(lhs3 - (n - k) * s[:, k]) / np.maximum(scale3, 1e-300)
            worst = max(worst, float(rel3.max()))
    assert worst <= rtol, worst

    # diagonal gradient identities, 10^4 diagonal matrices
    worst_diag = 0.0
    for trial in range(10_000):
        n = 3 + trial % 4
        diag = rng.normal(0.4, 1.2, size=n)
        if trial % 2 == 0:
            k = int(rng.integers(1, n + 1))
            T = symfun.newton_transform(np.diag(diag), k)
            deleted = _kernels.deleted_sym(diag, k - 1)
            scale = float(np.abs(deleted).sum()) + 1.0
            dev = max(
                float(np.abs(np.diag(T) - deleted).max()),
                float(np.abs(T - np.diag(np.diag(T))).max()),
            )
            worst_diag = max(worst_diag, dev / scale)
        else:
            m = int(rng.integers(2, n))
            table = lift.subset_table(n, m)
            kk = int(rng.integers(1, min(table.size, 6) + 1))
            spec = ConeSpec(n, m, kk)
            lam = _kernels.subset_sums(diag, table.tuples)
            expected = _kernels.fold_tuple_gradient(
                _kernels.deleted_sym(lam, kk - 1), table.tuples, n
            )
            F, _ = lift.gradient(np.diag(diag), spec)
            scale = float(np.abs(expected).sum()) + 1.0
            worst_diag = max(worst_diag, float(np.abs(np.diag(F) - expected).max()) / scale)
    assert worst_diag <= rtol, worst_diag

    # binomial decomposition of the mixed values, 10^4 matrix pairs
    worst_mixed = 0.0
    for trial in range(10_000):
        n = 3 + trial % 4
        A = symfun.symmetrize(rng.normal(0.0, 1.0, size=(n, n)))
        B = symfun.symmetrize(rng.normal(0.0, 1.0, size=(n, n)))
        k = int(rng.integers(1, n + 1))
        mixed = symfun.mixed_sym_all(A, B, k)
        weights = np.array([math.comb(k, i) for i in range(k + 1)])
        total = float((weights * mixed).sum())
        direct = symfun.matrix_sym(A + B, k)
        scale = float(np.abs(weights * mixed).sum()) + abs(direct)
        worst_mixed = max(worst_mixed, abs(total - direct) / scale)
    assert worst_mixed <= rtol, worst_mixed

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, "identity suite", elapsed,
            f"worst rel errors: partition {worst:.2e}, gradient {worst_diag:.2e}, "
            f"mixed {worst_mixed:.2e}")


def test_acceptance_3_inequality_suite():
    t0 = time.perf_counter()
    trials = 10_000
    floor = cones.MARGIN_FLOOR
    runs = [
        ("prop23", ConeSpec(6, 2, 3), {}),
        ("prop24", ConeSpec(5, 2, 3), {"l": 1}),
        ("prop25", ConeSpec(5, 2, 3), {}),
        ("prop26", ConeSpec(4, 2, 2), {"delta": 0.4}),
        ("prop26", ConeSpec(5, 2, 3), {"delta": 0.4}),
        ("prop27", ConeSpec(6, 2, 3), {"delta": 0.5, "eps": 0.15}),
    ]
    details = []
    for which, spec, kwargs in runs:
        report = cones.run_suite(which, spec=spec, trials=trials, seed=314, **kwargs)
        assert report.hypothesis_hits >= trials, (which, report.hypothesis_hits)
        assert report.violations == 0, (which, report.as_dict())
        assert report.worst_margin > floor
        if which == "prop23":
            assert "midpoint_concavity" in report.checks
        if which == "prop26":
            # both the gradient-sum and the single-partial bounds ran
            assert {"gradient_sum", "partial_vs_sum"} <= set(report.checks)
        details.append(f"{which}(n={spec.n},k={spec.k}):{report.worst_margin:.2e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(3, "inequality suite", elapsed,
            f">= {trials} hypothesis samples per run, zero violations; "
            "worst margins " + ", ".join(details))


def test_acceptance_4_euler_and_jacobian():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    spec_list = [ConeSpec(3, 2, 2), ConeSpec(4, 2, 2), ConeSpec(4, 2, 3)]
    worst_euler = 0.0
    for spec in spec_list:
        count = 0
        while count < 10:
            H = symfun.symmetrize(rng.normal(0.0, 0.45, size=(spec.n, spec.n)))
            H += np.eye(spec.n) * rng.uniform(0.3, 1.2)
            ok, _ = lift.admissible(H, spec)
            if not ok:
                continue
            count += 1
            F, _ = lift.gradient(H, spec)
            lhs = float((F * H).sum())
            rhs = spec.k * sk_of_hessian(H, spec)
            rel = abs(lhs - rhs) / max(abs(rhs), 1e-30)
            worst_euler = max(worst_euler, rel)
            assert rel <= 1e-9, (spec, rel)

    report = solver.verify_jacobian_suite(spec_list, states=10, seed=5)
    assert report.passed, report.as_dict()
    worst_jac = 1e-5 - report.worst_margin  # stored as rtol - rel

    # one assembled box operator as well
    problem, _ = solver.box_cosine_problem(ConeSpec(3, 2, 2))
    grid = grids.box_grid(problem.geom.extents, 9)
    system = BoxSystem(problem, grid)
    u = system.initial_values() + 1e-3 * rng.normal(size=grid.npoints)
    J = system.jacobian(u, 1.0)
    v = rng.normal(size=grid.npoints)
    eps = 1e-6
    fd = (
        system.residual(u + eps * v, 1.0, require_admissible=False)
        - system.residual(u - eps * v, 1.0, require_admissible=False)
    ) / (2 * eps)
    Jv = J @ v
    rel_box = float(np.abs(Jv - fd).max() / np.abs(Jv).max())
    assert rel_box <= 1e-5

    elapsed = time.perf_counter() - t0
    _report(4, "homogeneity pairing + jacobian", elapsed,
            f"worst pairing rel {worst_euler:.2e}, worst radial jacobian rel "
            f"{worst_jac:.2e}, box jacobian rel {rel_box:.2e}")


def _weird_radial_problem(spec):
    def f(points):
        r = points[:, 0]
        return 1.7 + np.sin(7.0 * r) ** 2 + r**3

    def a(points):
        return 1.0 + 0.5 * np.cos(points[:, 0])

    def b(points, normals):
        return 2.0 - points[:, 0] ** 2 / 3.0

    return ProblemSpec(spec=spec, geom=geometry.ball(1.0, dim=spec.n),
                       f=f, a=a, b=b)


def _weird_box_problem(spec):
    def f(points):
        return 1.1 + np.exp(points[:, 0]) * np.cos(points[:, 1]) ** 2

    def a(points):
        return 2.0 + points.prod(axis=1) / 9.0

    def b(points, normals):
        return 0.3 + (points**2).sum(axis=1) ** 2

    return ProblemSpec(spec=spec, geom=geometry.box([2.0] * spec.n), f=f, a=a, b=b)


def test_acceptance_5_path_anchor():
    t0 = time.perf_counter()
    spec = ConeSpec(3, 2, 2)
    system = RadialSystem(_weird_radial_problem(spec), grids.radial_grid(1.0, 64, 3))
    res_r = system.residual(system.initial_values(), 0.0)
    assert np.abs(res_r).max() <= 1e-12

    system = BoxSystem(_weird_box_problem(spec), grids.box_grid([2.0] * 3, 17))
    res_b = system.residual(system.initial_values(), 0.0)
    assert np.abs(res_b).max() <= 1e-12
    elapsed = time.perf_counter() - t0
    _report(5, "path anchor at t=0", elapsed,
            f"|res|_inf radial {np.abs(res_r).max():.2e}, "
            f"box {np.abs(res_b).max():.2e} (arbitrary data)")


def test_acceptance_6_manufactured_convergence():
    spec = ConeSpec(3, 2, 2)
    t0 = time.perf_counter()
    radial_report = manufactured_suite("radial", spec, (64, 128, 256))
    radial_elapsed = time.perf_counter() - t0
    assert radial_elapsed < 10.0
    order_r = radial_report["observed_order"]
    assert 1.9 <= order_r <= 2.1, radial_report
    for row in radial_report["rows"]:
        assert row["diagnostics"]["admissible_everywhere"]

    t0 = time.perf_counter()
    box_report = manufactured_suite("box", spec, (17, 33))
    box_elapsed = time.perf_counter() - t0
    assert box_elapsed < 300.0
    order_b = box_report["observed_order"]
    assert 1.7 <= order_b <= 2.1, box_report
    for row in box_report["rows"]:
        assert row["diagnostics"]["admissible_everywhere"]

    _report(6, "manufactured convergence", radial_elapsed + box_elapsed,
            f"radial order {order_r:.3f} in {radial_elapsed:.1f}s, "
            f"box order {order_b:.3f} in {box_elapsed:.1f}s")


def test_acceptance_7_solution_diagnostics():
    t0 = time.perf_counter()
    spec = ConeSpec(3, 2, 2)
    checked = 0

    problem, _ = solver.radial_quartic_problem(spec)
    state, _ = solver.radial_solve(problem, 64)
    runs = [("radial manufactured", state)]

    problem, _ = solver.box_cosine_problem(spec)
    state, _ = solver.box_solve(problem, 9)
    runs.append(("box manufactured", state))

    problem, _ = solver.radial_quartic_problem(spec)
    base_f = problem.f
    problem.f = lambda pts: base_f(pts) * (
        1.0 + 10.0 * np.exp(-(((pts[:, 0] - 0.5) / 0.1) ** 2))
    )
    state, _ = solver.radial_solve(problem, 64)
    runs.append(("radial stress bump", state))

    for name, st in runs:
        diag = st.diagnostics
        assert diag["bound_ok"], (name, diag)
        assert diag["max_on_boundary"], (name, diag)
        assert diag["admissible_everywhere"] and st.min_margin > 0, (name, diag)
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(7, "solution diagnostics", elapsed,
            f"{checked} converged runs: sup bound, boundary max, positive margins")


def test_acceptance_8_barrier_bounds():
    t0 = time.perf_counter()
    geom = geometry.ball(1.0, dim=4)
    u_hess = lambda x: np.broadcast_to(np.eye(4), (len(x), 4, 4))

    spec53 = ConeSpec(4, 2, 2)  # within k <= binom(n-1, m-1) = 3
    K3, _ = geometry.search_barrier_constant(
        u_hess, geom, spec53, sample_points=1000, which="lemma53"
    )
    rep53 = geometry.verify_barrier_bound(
        u_hess, geom, BarrierParams(K3=K3), spec53,
        sample_points=1000, which="lemma53",
    )
    assert rep53.passed and rep53.count == 1000, rep53.as_dict()
    assert rep53.min_margin > 0 and not rep53.skips

    spec55 = ConeSpec(4, 2, 4)  # k = binom(3, 1) + 1, convexity order k0 = 1
    K3b, _ = geometry.search_barrier_constant(
        u_hess, geom, spec55, sample_points=1000, which="lemma55"
    )
    rep55 = geometry.verify_barrier_bound(
        u_hess, geom, BarrierParams(K3=K3b, k3=0.01), spec55,
        sample_points=1000, which="lemma55",
    )
    assert rep55.passed and rep55.count == 1000, rep55.as_dict()
    assert rep55.min_margin > 0 and rep55.empirical_k3 > 0

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(8, "barrier bounds", elapsed,
            f"K3={K3:g} margin {rep53.min_margin:.3g}; "
            f"K3={K3b:g} empirical small constant {rep55.empirical_k3:.3g}")
