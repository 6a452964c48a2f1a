import math

import numpy as np
import pytest

from sumhess import geometry, lift
from sumhess.errors import CollarError, ConfigError
from sumhess.geometry import BarrierParams
from sumhess.lift import ConeSpec
from oracles import (
    barrier_hessian_point, barrier_value, boundary_data, verify_barrier_points,
)


def quad_hessian(dim):
    # Hessian of |x|^2 / 2
    return lambda x: np.eye(dim)


def quartic_hessian(dim, coef):
    # Hessian of |x|^2 / 2 + coef |x|^4
    def hess(x):
        x = np.asarray(x)
        return np.eye(dim) * (1.0 + 4.0 * coef * float(x @ x)) + 8.0 * coef * np.outer(x, x)

    return hess


def test_ball_distance_pack():
    geom = geometry.ball(1.0, dim=3)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        depth = rng.uniform(0.01, 0.49)
        x = (1.0 - depth) * u
        d, grad, hess = geometry.distance_pack(geom, x)
        assert d == pytest.approx(depth, abs=1e-12)
        assert np.allclose(grad, -u, atol=1e-12)
        eig = np.sort(np.linalg.eigvalsh(hess))
        expected = -1.0 / (1.0 - depth)
        assert abs(eig[-1]) < 1e-10
        assert np.allclose(eig[:-1], expected, atol=1e-10)


def test_gradient_is_minus_normal():
    geom = geometry.ball(2.0, dim=4, center=[1.0, 0.0, 0.0, 0.0])
    x = np.array([1.0, 0.0, 0.0, 1.9])
    _, grad, _ = geometry.distance_pack(geom, x)
    nu, kappa = boundary_data(geom, x)
    assert np.allclose(grad, -nu)
    assert np.allclose(kappa, 0.5)


def test_collar_errors():
    geom = geometry.ball(1.0, dim=3)
    with pytest.raises(CollarError):
        geometry.distance_pack(geom, np.zeros(3))  # center: d = 1 >= mu0
    with pytest.raises(CollarError):
        geometry.distance_pack(geom, np.array([1.5, 0.0, 0.0]))  # outside


def test_box_face_and_edge():
    geom = geometry.box([2.0, 2.0, 2.0])
    x = np.array([0.0, 0.0, -0.9])
    d, grad, hess = geometry.distance_pack(geom, x)
    assert d == pytest.approx(0.1)
    assert np.allclose(grad, [0.0, 0.0, 1.0])
    assert np.allclose(hess, 0.0)
    with pytest.warns(UserWarning):
        geometry.distance_pack(geom, np.array([-0.92, 0.0, -0.9]), edge_tol=0.05)


def test_barrier_hessian_at_boundary_limit():
    geom = geometry.ball(1.0, dim=3)
    params = BarrierParams(K3=8.0)
    x = np.array([0.0, 0.0, 1.0 - 1e-9])
    eig = np.sort(np.linalg.eigvalsh(geometry.barrier_hessian(geom, params, x)))
    assert np.allclose(eig, [1.0, 1.0, 16.0], atol=1e-6)


def test_barrier_tangential_zero_crossing():
    # tangential eigenvalues vanish where 2 K3 d = 1
    geom = geometry.ball(1.0, dim=3)
    params = BarrierParams(K3=2.5)
    x = np.array([0.0, 0.0, 1.0 - 0.2])  # d = 1 / (2 K3)
    eig = np.sort(np.linalg.eigvalsh(geometry.barrier_hessian(geom, params, x)))
    assert np.allclose(eig[:2], 0.0, atol=1e-12)
    assert eig[2] == pytest.approx(5.0)


def test_barrier_sum_spectrum_at_boundary():
    geom = geometry.ball(1.0, dim=4)
    params = BarrierParams(K3=16.0)
    x = np.array([0.0, 0.0, 0.0, 1.0 - 1e-10])
    Dh = geometry.barrier_hessian(geom, params, x)
    spec = np.sort(lift.sum_spectrum(Dh, 2))
    expected = np.sort([2.0, 2.0, 2.0, 33.0, 33.0, 33.0])
    assert np.allclose(spec, expected, atol=1e-6)


def test_barrier_hessian_matches_finite_differences():
    rng = np.random.default_rng(3)
    geom = geometry.ball(1.0, dim=3)
    params = BarrierParams(K3=4.0)
    step = 1e-5
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        x = (1.0 - rng.uniform(0.05, 0.4)) * u
        H = geometry.barrier_hessian(geom, params, x)
        for i in range(3):
            for j in range(3):
                ei = np.zeros(3)
                ej = np.zeros(3)
                ei[i] = step
                ej[j] = step
                fd = (
                    barrier_value(geom, params, x + ei + ej)
                    - barrier_value(geom, params, x + ei - ej)
                    - barrier_value(geom, params, x - ei + ej)
                    + barrier_value(geom, params, x - ei - ej)
                ) / (4 * step * step)
                assert fd == pytest.approx(H[i, j], rel=1e-4, abs=1e-4)


def test_mk0_convexity():
    ok, _ = geometry.mk0_convex_check([1.0, 1.0, 1.0], 2, 3)
    assert ok
    ok, _ = geometry.mk0_convex_check([1.0, 1.0, -0.05], 2, 1)
    assert ok
    ok, _ = geometry.mk0_convex_check([1.0, 1.0, -3.0], 2, 1)
    assert not ok
    with pytest.raises(ValueError):
        geometry.mk0_convex_check([1.0, 1.0], 3, 1)


def test_collar_points_deterministic_and_inside():
    geom = geometry.ball(1.0, dim=4)
    pts1 = geometry.collar_points(geom, 64, 0.2)
    pts2 = geometry.collar_points(geom, 64, 0.2)
    assert np.array_equal(pts1, pts2)
    for x in pts1:
        d = geometry.distance(geom, x)
        assert 0 < d < 0.2
    assert geometry.collar_points(geom, 0, 0.2).shape == (0, 4)


def test_verify_barrier_bound_ball():
    geom = geometry.ball(1.0, dim=3)
    spec = ConeSpec(3, 2, 2)
    params = BarrierParams(K3=1024.0)
    rep = geometry.verify_barrier_bound(
        quad_hessian(3), geom, params, spec, sample_points=200, which="lemma53"
    )
    assert rep.passed, rep.as_dict()
    assert rep.min_lambda_k >= params.K3
    assert rep.min_sl_ratio >= 0.5
    assert not rep.skips


def test_verify_barrier_margin_monotone_in_k3():
    geom = geometry.ball(1.0, dim=3)
    spec = ConeSpec(3, 2, 2)
    margins = []
    for K3 in (10.0, 100.0, 1000.0):
        rep = geometry.verify_barrier_bound(
            quad_hessian(3), geom, BarrierParams(K3=K3), spec, sample_points=100
        )
        margins.append(rep.min_margin)
    assert margins[0] < margins[1] < margins[2]


def test_verify_barrier_explicit_points():
    geom = geometry.ball(1.0, dim=3)
    spec = ConeSpec(3, 2, 2)
    params = BarrierParams(K3=512.0)
    pts = geometry.collar_points(geom, 32, params.collar(geom))
    rep = geometry.verify_barrier_bound(
        quad_hessian(3), geom, params, spec, sample_points=pts, which="lemma53"
    )
    assert rep.passed and rep.count == 32


def test_collar_edge_exclusion_validation():
    geom = geometry.box([2.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        geometry.collar_points(geom, 8, 0.2, edge_exclusion=1.5)


def test_verify_barrier_quartic_field():
    geom = geometry.ball(1.0, dim=4)
    spec = ConeSpec(4, 2, 2)
    rep = geometry.verify_barrier_bound(
        quartic_hessian(4, 0.05), geom, BarrierParams(K3=512.0), spec,
        sample_points=200, which="lemma53",
    )
    assert rep.passed, rep.as_dict()
    assert not rep.skips


def test_verify_barrier_box_faces():
    # flat faces: zero curvature, the normal eigenvalue carries the bound;
    # sampling keeps away from edges where the distance is not smooth
    geom = geometry.box([2.0, 2.0, 2.0])
    spec = ConeSpec(3, 2, 2)
    rep = geometry.verify_barrier_bound(
        quad_hessian(3), geom, BarrierParams(K3=64.0), spec,
        sample_points=200, which="lemma53", edge_exclusion=0.125,
    )
    assert rep.passed, rep.as_dict()
    assert not rep.skips


def test_verify_barrier_lemma55():
    geom = geometry.ball(1.0, dim=5)
    # k = binom(4, 1) + 1 = 5 is inside the strict-convexity regime
    spec = ConeSpec(5, 2, 5)
    params = BarrierParams(K3=2048.0, k3=0.01)
    rep = geometry.verify_barrier_bound(
        quad_hessian(5), geom, params, spec, sample_points=100, which="lemma55"
    )
    assert rep.passed, rep.as_dict()
    assert rep.empirical_k3 > params.k3


def test_lemma_range_validation():
    geom = geometry.ball(1.0, dim=3)
    with pytest.raises(ConfigError):
        geometry.verify_barrier_bound(
            quad_hessian(3), geom, BarrierParams(K3=64.0), ConeSpec(3, 2, 3),
            sample_points=10, which="lemma53",
        )
    with pytest.raises(ConfigError):
        geometry.verify_barrier_bound(
            quad_hessian(3), geom, BarrierParams(K3=64.0), ConeSpec(3, 2, 2),
            sample_points=10, which="lemma55",
        )


def test_search_barrier_constant():
    geom = geometry.ball(1.0, dim=3)
    spec = ConeSpec(3, 2, 2)
    K3, _ = geometry.search_barrier_constant(
        quad_hessian(3), geom, spec, sample_points=100
    )
    assert K3 == 2.0 ** round(math.log2(K3))
    rep = geometry.verify_barrier_bound(
        quad_hessian(3), geom, BarrierParams(K3=K3), spec, sample_points=100
    )
    assert rep.passed
    if K3 > 1.0:
        rep = geometry.verify_barrier_bound(
            quad_hessian(3), geom, BarrierParams(K3=K3 / 2), spec, sample_points=100
        )
        assert not rep.passed


def test_verify_barrier_skips_inadmissible():
    geom = geometry.ball(1.0, dim=3)
    spec = ConeSpec(3, 2, 2)
    rep = geometry.verify_barrier_bound(
        lambda x: -np.eye(3), geom, BarrierParams(K3=64.0), spec, sample_points=10
    )
    assert rep.count == 0 and len(rep.skips) == 10
    assert not rep.passed


def test_c0_diagnostic():
    u = np.array([0.1, 0.2, 0.5])
    boundary = np.array([False, False, True])
    rep = geometry.c0_diagnostic(u, boundary, np.array([1.0]), np.array([1.0]), 0.1)
    assert rep["bound_ok"] and rep["max_on_boundary"]
    u = np.array([0.1, 2.0, 0.5])
    rep = geometry.c0_diagnostic(u, boundary, np.array([1.0]), np.array([1.0]), 0.1)
    assert not rep["bound_ok"] and not rep["max_on_boundary"]


@pytest.mark.parametrize("kind", ["ball", "box"])
def test_barrier_hessian_block_matches_points(kind):
    if kind == "ball":
        geom = geometry.ball(1.0, dim=4, center=[0.5, 0.0, -0.25, 0.0])
        pts = geometry.collar_points(geom, 300, 0.3)
    else:
        geom = geometry.box([2.0, 1.5, 3.0])
        pts = geometry.collar_points(geom, 300, 0.3, edge_exclusion=0.1)
    params = BarrierParams(K3=6.0)
    block = geometry.barrier_hessian(geom, params, pts)
    assert block.shape == (300, geom.dim, geom.dim)
    for x, H in zip(pts, block):
        ref = barrier_hessian_point(geom, params, x)
        assert np.allclose(H, ref, rtol=1e-13, atol=1e-13)
        assert np.array_equal(geometry.barrier_hessian(geom, params, x), H)
    d, grad, _ = geometry.distance_pack(geom, pts)
    assert np.allclose(d, [geometry.distance(geom, x) for x in pts], rtol=0, atol=1e-15)
    assert np.allclose(np.linalg.norm(grad, axis=1), 1.0)


def test_barrier_block_rejects_point_outside_collar():
    geom = geometry.ball(1.0, dim=3)
    pts = np.array([[0.0, 0.0, 0.9], [0.0, 0.0, 0.0]])  # the center is not in the collar
    with pytest.raises(CollarError):
        geometry.barrier_hessian(geom, BarrierParams(K3=4.0), pts)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_barrier_nan_point_fails_the_check():
    # a field so large that the lifted gradient overflows: its margins are NaN,
    # which must fail the check rather than drop out of the minimum
    geom = geometry.ball(1.0, dim=4)
    rep = geometry.verify_barrier_bound(
        lambda x: 1e306 * np.eye(4), geom, BarrierParams(K3=64.0), ConeSpec(4, 2, 2),
        sample_points=20,
    )
    assert rep.count == 20
    assert math.isnan(rep.min_margin) and not rep.passed
    assert math.isnan(rep.as_dict()["min_margin"])


def test_search_returns_its_passing_report():
    geom = geometry.ball(1.0, dim=4)
    spec = ConeSpec(4, 2, 2)
    K3, rep = geometry.search_barrier_constant(
        quartic_hessian(4, 0.05), geom, spec, sample_points=300
    )
    assert rep.passed and rep.K3 == K3 and rep.count == 300
    assert rep.search_passes >= 2  # the passing constant and the failing one below it
    again = geometry.verify_barrier_bound(
        quartic_hessian(4, 0.05), geom, BarrierParams(K3=K3), spec, sample_points=300
    ).as_dict()
    again["search_passes"] = rep.search_passes
    assert rep.as_dict() == again


@pytest.mark.parametrize("case", ["ball-lemma53", "ball-lemma55", "box-lemma53", "skips"])
def test_verify_barrier_bound_matches_point_loop(case):
    if case == "box-lemma53":
        geom, spec, which = geometry.box([2.0, 2.0, 2.0]), ConeSpec(3, 2, 2), "lemma53"
        field = quad_hessian(3)
        pts = geometry.collar_points(geom, 200, 0.1, edge_exclusion=0.125)
    else:
        geom = geometry.ball(1.0, dim=4)
        which = "lemma55" if case == "ball-lemma55" else "lemma53"
        spec = ConeSpec(4, 2, 4 if which == "lemma55" else 2)
        field = quartic_hessian(4, 0.05)
        if case == "skips":
            # indefinite away from the first axis: some points are not admissible
            field = lambda x: np.diag([1.0, 1.0, 1.0, 0.2 - 8.0 * abs(x[0])])
        pts = geometry.collar_points(geom, 200, 0.2)
    params = BarrierParams(K3=2.5, k3=0.01)
    rep = geometry.verify_barrier_bound(field, geom, params, spec, sample_points=pts,
                                        which=which)
    ref = verify_barrier_points(field, geom, params, spec, pts, which=which)
    assert rep.count == ref["count"] > 0
    assert rep.skips == ref["skips"]
    if case == "skips":
        assert rep.skips
    for key in ("min_margin", "empirical_k3", "min_h_margin", "min_lambda_k", "min_sl_ratio"):
        assert getattr(rep, key) == pytest.approx(ref[key], rel=1e-12, abs=1e-12), key
