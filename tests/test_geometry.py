import math
from types import SimpleNamespace

import numpy as np
import pytest

from sumhess import geometry, grids, lift
from sumhess.errors import CollarError, ConfigError
from sumhess.geometry import BarrierParams
from sumhess.lift import ConeSpec
from oracles import (
    barrier_hessian_point, barrier_value, boundary_data, collar_points_scipy,
    verify_barrier_points,
)


# fields map an (N, dim) block of points to (N, dim, dim) Hessians


def const_hessian(H):
    return lambda x: np.broadcast_to(H, (len(x),) + H.shape)


def quad_hessian(dim):
    # Hessian of |x|^2 / 2
    return const_hessian(np.eye(dim))


def quartic_hessian(dim, coef):
    # Hessian of |x|^2 / 2 + coef |x|^4
    def hess(x):
        xx = (x * x).sum(axis=1)
        return (np.eye(dim) * (1.0 + 4.0 * coef * xx)[:, None, None]
                + 8.0 * coef * x[:, :, None] * x[:, None, :])

    return hess


def hessian_from_eigen_form(nu, alpha, beta):
    """The (N, dim, dim) matrices beta I + (alpha - beta) nu nu^T."""
    dim = nu.shape[1]
    return (beta[:, None, None] * np.eye(dim)
            + (alpha - beta)[:, None, None] * nu[:, :, None] * nu[:, None, :])


def test_ball_barrier_eigen_form():
    # at depth d in the unit ball: the normal is the point's direction, and
    # the tangential eigenvalue is (1 - 2 K3 d) / (1 - d)
    geom = geometry.ball(1.0, dim=3)
    params = BarrierParams(K3=3.0)
    rng = np.random.default_rng(1)
    u = rng.normal(size=(1000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    depth = rng.uniform(0.01, 0.49, size=1000)
    nu, alpha, beta = geometry.barrier_hessian(geom, params, (1.0 - depth)[:, None] * u)
    assert np.allclose(nu, u, atol=1e-12)
    assert alpha == 6.0
    assert np.allclose(beta, (1.0 - 6.0 * depth) / (1.0 - depth), rtol=1e-12, atol=1e-12)


def test_gradient_is_minus_normal():
    # the barrier's normal is the outward normal at the nearest boundary point
    geom = geometry.ball(2.0, dim=4)
    x = np.array([[0.0, 0.0, 0.0, 1.9]])
    nu, _, _ = geometry.barrier_hessian(geom, BarrierParams(K3=1.0), x)
    normal, kappa = boundary_data(geom, x[0])
    assert np.allclose(nu[0], normal)
    assert np.allclose(kappa, 0.5)


def test_domains_sit_at_the_origin():
    # the problem does not change when its domain moves, so none takes a center
    with pytest.raises(TypeError):
        geometry.ball(1.0, dim=3, center=[5.0, 0.0, 0.0])
    with pytest.raises(TypeError):
        geometry.box([2.0, 1.0], center=[1.0, 0.0])
    with pytest.raises(TypeError):
        grids.box_grid([2.0, 1.0], 5, center=[1.0, 0.0])
    points = grids.box_grid([2.0, 1.0], 5).points
    assert np.array_equal(points.min(axis=0), -points.max(axis=0))


def test_collar_errors():
    geom = geometry.ball(1.0, dim=3)
    params = BarrierParams(K3=1.0)
    with pytest.raises(CollarError):
        geometry.barrier_hessian(geom, params, np.zeros((1, 3)))  # center: d = 1 >= mu0
    with pytest.raises(CollarError):
        geometry.barrier_hessian(geom, params, np.array([[1.5, 0.0, 0.0]]))  # outside


@pytest.mark.parametrize("points", [np.array([0.0, 0.0, 0.9]), np.zeros((4, 2))],
                         ids=["one-point-1d", "wrong-dim"])
def test_distance_takes_only_point_blocks(points):
    geom = geometry.ball(1.0, dim=3)
    with pytest.raises(ValueError):
        geometry.barrier_hessian(geom, BarrierParams(K3=1.0), points)


def test_barrier_hessian_at_boundary_limit():
    geom = geometry.ball(1.0, dim=3)
    params = BarrierParams(K3=8.0)
    x = np.array([[0.0, 0.0, 1.0 - 1e-9]])
    _, alpha, beta = geometry.barrier_hessian(geom, params, x)
    assert alpha == 16.0
    assert beta[0] == pytest.approx(1.0, abs=1e-6)


def test_barrier_tangential_zero_crossing():
    # tangential eigenvalues vanish where 2 K3 d = 1
    geom = geometry.ball(1.0, dim=3)
    params = BarrierParams(K3=2.5)
    x = np.array([[0.0, 0.0, 1.0 - 0.2]])  # d = 1 / (2 K3)
    _, alpha, beta = geometry.barrier_hessian(geom, params, x)
    assert abs(beta[0]) <= 1e-12
    assert alpha == pytest.approx(5.0)


def test_barrier_sum_spectrum_at_boundary():
    geom = geometry.ball(1.0, dim=4)
    params = BarrierParams(K3=16.0)
    x = np.array([[0.0, 0.0, 0.0, 1.0 - 1e-10]])
    _, alpha, beta = geometry.barrier_hessian(geom, params, x)
    spec = np.sort(lift.msums(np.array([alpha, beta[0], beta[0], beta[0]]), 2))
    expected = np.sort([2.0, 2.0, 2.0, 33.0, 33.0, 33.0])
    assert np.allclose(spec, expected, atol=1e-6)


@pytest.mark.filterwarnings("error")  # S_2 of the barrier m-sums overflows, unwarned
@pytest.mark.parametrize("radius", [1e-200, 1e-300])
def test_tiny_ball_collar_points_are_inside_it(radius):
    # the norm of offsets of about 1e-200 underflowed to 0, which put every
    # collar point at the center, outside the collar
    geom = geometry.ball(radius, dim=4)
    params = BarrierParams(K3=1.0)
    pts = geometry.collar_points(geom, 50, params.collar(geom))
    _, _, beta = geometry.barrier_hessian(geom, params, pts)
    depth = 1.0 - np.linalg.norm(pts / radius, axis=1)  # in units of the radius
    assert np.all((0 < depth) & (depth < 0.5))
    assert np.allclose(beta * radius, 1.0 / (1.0 - depth), rtol=1e-12)
    for which, spec in (("lemma53", ConeSpec(4, 2, 2)), ("lemma55", ConeSpec(4, 2, 4))):
        _, rep = geometry.search_barrier_constant(
            quartic_hessian(4, 0.05), geom, spec, sample_points=50, which=which
        )
        assert rep.passed and rep.count == 50, rep.as_dict()


def test_barrier_hessian_matches_finite_differences():
    rng = np.random.default_rng(3)
    geom = geometry.ball(1.0, dim=3)
    params = BarrierParams(K3=4.0)
    step = 1e-5
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        x = (1.0 - rng.uniform(0.05, 0.4)) * u
        H = hessian_from_eigen_form(*geometry.barrier_hessian(geom, params, x[None]))[0]
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


def test_collar_points_deterministic_and_inside():
    geom = geometry.ball(1.0, dim=4)
    pts1 = geometry.collar_points(geom, 64, 0.2)
    pts2 = geometry.collar_points(geom, 64, 0.2)
    assert np.array_equal(pts1, pts2)
    d = geom.radius - np.linalg.norm(pts1, axis=1)
    assert np.all((0 < d) & (d < 0.2))
    assert geometry.collar_points(geom, 0, 0.2).shape == (0, 4)


@pytest.mark.parametrize("dim", [3, 252])  # Halton dimension 4 and the largest, 253
@pytest.mark.parametrize("count", [1, 1000])
def test_collar_points_match_scipy_halton_on_a_ball(dim, count):
    geom = geometry.ball(1.0, dim=dim)
    pts = geometry.collar_points(geom, count, 0.3)
    assert np.array_equal(pts, collar_points_scipy(geom, count, 0.3))


def test_halton_table_is_shared_and_read_only():
    # one table per (count, d) serves every later collar point set
    table = geometry._halton(64, 4)
    assert geometry._halton(64, 4) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0.5
    pts = geometry.collar_points(geometry.ball(1.0, dim=3), 64, 0.2)
    pts[0, 0] = 7.0  # the points are the caller's own array
    assert not np.array_equal(pts, geometry.collar_points(geometry.ball(1.0, dim=3), 64, 0.2))


@pytest.mark.parametrize("count, depth_max, error", [
    (8, math.nan, CollarError),
    (-1, 0.2, ValueError),
], ids=["nan-depth", "negative-count-ball"])
def test_collar_points_reject_bad_arguments(count, depth_max, error):
    with pytest.raises(error):
        geometry.collar_points(geometry.ball(1.0, dim=3), count, depth_max)


def test_ball_only_entry_points_reject_a_box():
    # a box has no smooth collar, so its barrier is not defined
    geom = geometry.box([2.0, 2.0, 2.0])
    pts = np.array([[0.0, 0.0, 0.9]])
    spec = ConeSpec(3, 2, 2)
    calls = [
        lambda: geometry.barrier_hessian(geom, BarrierParams(K3=4.0), pts),
        lambda: geometry.collar_points(geom, 8, 0.1),
        lambda: geometry.verify_barrier_bound(quad_hessian(3), geom, BarrierParams(K3=64.0),
                                              spec, sample_points=10),
        lambda: geometry.search_barrier_constant(quad_hessian(3), geom, spec, sample_points=10),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match="needs a ball, got a box"):
            call()


@pytest.mark.parametrize("points", [0, -3, True, 2.5])
@pytest.mark.parametrize("search", [False, True], ids=["verify", "search"])
def test_barrier_checks_reject_a_bad_point_count(points, search):
    geom = geometry.ball(1.0, dim=3)
    spec = ConeSpec(3, 2, 2)
    match = "need points >= 1" if points in (0, -3) else "must be an integer count"
    with pytest.raises(ConfigError, match=match):
        if search:
            geometry.search_barrier_constant(quad_hessian(3), geom, spec, sample_points=points)
        else:
            geometry.verify_barrier_bound(quad_hessian(3), geom, BarrierParams(K3=64.0), spec,
                                          sample_points=points)


def test_barrier_checks_take_a_numpy_integer_count():
    geom = geometry.ball(1.0, dim=3)
    spec = ConeSpec(3, 2, 2)
    params = BarrierParams(K3=1024.0)
    rep = geometry.verify_barrier_bound(
        quad_hessian(3), geom, params, spec, sample_points=np.int64(50)
    )
    ref = geometry.verify_barrier_bound(quad_hessian(3), geom, params, spec, sample_points=50)
    assert rep.count == 50 and rep.as_dict() == ref.as_dict()
    K3, rep = geometry.search_barrier_constant(
        quad_hessian(3), geom, spec, sample_points=np.int64(50)
    )
    K3_ref, ref = geometry.search_barrier_constant(quad_hessian(3), geom, spec, sample_points=50)
    assert K3 == K3_ref and rep.as_dict() == ref.as_dict()


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
    # a count stands for the first collar points at the check's own depth
    geom = geometry.ball(1.0, dim=3)
    spec = ConeSpec(3, 2, 2)
    params = BarrierParams(K3=512.0)
    rep = geometry.verify_barrier_bound(
        quad_hessian(3), geom, params, spec, sample_points=32, which="lemma53"
    )
    assert rep.passed and rep.count == 32
    pts = geometry.collar_points(geom, 32, params.collar(geom))
    ref = verify_barrier_points(quad_hessian(3), geom, params, spec, pts, which="lemma53")
    assert ref["count"] == 32 and ref["skips"] == []
    assert rep.min_margin == pytest.approx(ref["min_margin"], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("points", [np.array([0.0, 0.0, 0.9]), True, np.zeros((4, 2))],
                         ids=["one-point-1d", "bool", "wrong-dim"])
def test_verify_barrier_rejects_points_of_the_wrong_shape(points):
    # the check draws its own collar points: an array of points is refused
    geom = geometry.ball(1.0, dim=3)
    with pytest.raises(ConfigError, match="must be an integer count"):
        geometry.verify_barrier_bound(
            quad_hessian(3), geom, BarrierParams(K3=512.0), ConeSpec(3, 2, 2),
            sample_points=points,
        )


def test_verify_barrier_quartic_field():
    geom = geometry.ball(1.0, dim=4)
    spec = ConeSpec(4, 2, 2)
    rep = geometry.verify_barrier_bound(
        quartic_hessian(4, 0.05), geom, BarrierParams(K3=512.0), spec,
        sample_points=200, which="lemma53",
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


def test_verify_barrier_lemma55_on_a_large_ball():
    # the m-sums of the curvatures, 4 / R = 4e-6, are positive: the ball is
    # strictly (m, k0)-convex however large its radius
    geom = geometry.ball(1e6, dim=9)
    spec = ConeSpec(9, 4, 118)
    rep = geometry.verify_barrier_bound(
        quad_hessian(9), geom, BarrierParams(K3=4.0), spec, sample_points=50, which="lemma55"
    )
    assert rep.passed and rep.count == 50, rep.as_dict()


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
        const_hessian(-np.eye(3)), geom, BarrierParams(K3=64.0), spec, sample_points=10
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


def test_barrier_hessian_block_matches_points():
    geom = geometry.ball(1.0, dim=4)
    pts = geometry.collar_points(geom, 300, 0.3)
    params = BarrierParams(K3=6.0)
    nu, alpha, beta = geometry.barrier_hessian(geom, params, pts)
    assert nu.shape == (300, geom.dim) and beta.shape == (300,)
    assert np.allclose(np.linalg.norm(nu, axis=1), 1.0)
    block = hessian_from_eigen_form(nu, alpha, beta)
    for x, H, row in zip(pts, block, zip(nu, beta)):
        ref = barrier_hessian_point(geom, params, x)
        assert np.allclose(H, ref, rtol=1e-13, atol=1e-13)
        nu1, alpha1, beta1 = geometry.barrier_hessian(geom, params, x[None])
        assert alpha1 == alpha
        assert np.array_equal(nu1[0], row[0]) and beta1[0] == row[1]


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
        const_hessian(1e306 * np.eye(4)), geom, BarrierParams(K3=64.0), ConeSpec(4, 2, 2),
        sample_points=20,
    )
    assert rep.count == 20
    assert math.isnan(rep.min_margin) and not rep.passed
    assert math.isnan(rep.as_dict()["min_margin"])


@pytest.mark.parametrize("steps_up", [5, None])
def test_search_doubles_from_a_failing_guess(monkeypatch, steps_up):
    # a check that passes from a chosen K3 up: the search doubles K3 from its
    # failing first guess to the smallest passing power of two, and gives up
    # after 40 doublings when none passes
    calls = []

    def fake_verify(u_hess, geom, params, spec, sample_points, which):
        calls.append(params.K3)
        passed = steps_up is not None and params.K3 >= calls[0] * 2.0**steps_up
        return SimpleNamespace(passed=passed, K3=params.K3)

    monkeypatch.setattr(geometry, "verify_barrier_bound", fake_verify)
    args = (quad_hessian(3), geometry.ball(1.0, dim=3), ConeSpec(3, 2, 2))
    if steps_up is None:
        with pytest.raises(ConfigError, match="no passing barrier constant"):
            geometry.search_barrier_constant(*args, sample_points=50)
        assert calls == [calls[0] * 2.0**e for e in range(41)]
        return
    K3, rep = geometry.search_barrier_constant(*args, sample_points=50)
    assert K3 == calls[0] * 2.0**steps_up == rep.K3 and rep.passed
    assert calls == [calls[0] * 2.0**e for e in range(steps_up + 1)]
    assert rep.search_passes == steps_up + 1


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


@pytest.mark.parametrize("case", ["ball-lemma53", "ball-lemma55", "skips"])
def test_verify_barrier_bound_matches_point_loop(case):
    geom = geometry.ball(1.0, dim=4)
    which = "lemma55" if case == "ball-lemma55" else "lemma53"
    spec = ConeSpec(4, 2, 4 if which == "lemma55" else 2)
    field = quartic_hessian(4, 0.05)
    if case == "skips":
        # indefinite away from the first axis: some points are not admissible
        def field(x):
            diag = np.ones_like(x)
            diag[:, 3] = 0.2 - 8.0 * np.abs(x[:, 0])
            return np.eye(4) * diag[:, None, :]
    params = BarrierParams(K3=2.5, k3=0.01)
    rep = geometry.verify_barrier_bound(field, geom, params, spec, sample_points=200,
                                        which=which)
    pts = geometry.collar_points(geom, 200, params.collar(geom))
    ref = verify_barrier_points(field, geom, params, spec, pts, which=which)
    assert rep.count == ref["count"] > 0
    assert rep.skips == ref["skips"]
    if case == "skips":
        assert rep.skips
    for key in ("min_margin", "empirical_k3", "min_h_margin", "min_lambda_k", "min_sl_ratio"):
        assert getattr(rep, key) == pytest.approx(ref[key], rel=1e-12, abs=1e-12), key


def test_field_is_called_once_per_point_set():
    geom = geometry.ball(1.0, dim=4)
    spec = ConeSpec(4, 2, 2)
    shapes = []

    def field(x):
        shapes.append(x.shape)
        return quartic_hessian(4, 0.05)(x)

    geometry.verify_barrier_bound(field, geom, BarrierParams(K3=8.0), spec, sample_points=300)
    assert shapes == [(300, 4)]
    shapes.clear()
    _, rep = geometry.search_barrier_constant(field, geom, spec, sample_points=300)
    assert rep.search_passes >= 2
    # the probe's 128 points, then the 300 points of each pass
    assert shapes == [(128, 4)] + [(300, 4)] * rep.search_passes


@pytest.mark.parametrize("search", [False, True], ids=["verify", "search"])
def test_per_point_field_is_rejected(search):
    geom = geometry.ball(1.0, dim=4)
    spec = ConeSpec(4, 2, 2)
    per_point = lambda x: np.eye(4)
    with pytest.raises(ValueError, match=r"shape \(50, 4, 4\), got \(4, 4\)"):
        if search:
            geometry.search_barrier_constant(per_point, geom, spec, sample_points=50)
        else:
            geometry.verify_barrier_bound(per_point, geom, BarrierParams(K3=8.0), spec,
                                          sample_points=50)
