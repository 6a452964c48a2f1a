"""Domain geometry: distance to the boundary, normals and principal
curvatures, the quadratic distance barrier on a boundary collar, boundary
convexity in the eigenvalue-sum sense, and numeric verification that the
linearized operator dominates the barrier.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm, qmc

from . import _kernels, lift, symfun
from .errors import CollarError, ConfigError


@dataclass(frozen=True)
class DomainGeometry:
    """Ball, axis-aligned box, or radial (ball handled through 1-D profiles).

    ``mu0`` is the collar width within which the distance function is smooth;
    for a ball any width below the radius works, for a box smoothness fails
    near edges and the collar machinery flags tie zones.
    """

    kind: str
    dim: int
    radius: float = 0.0
    center: np.ndarray = field(default=None, repr=False)
    extents: np.ndarray = field(default=None, repr=False)
    mu0: float = 0.0


def ball(radius, dim=3, center=None, mu0=None):
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=np.float64)
    if center.shape != (dim,):
        raise ValueError("center must have length dim")
    return DomainGeometry(
        kind="ball", dim=dim, radius=float(radius), center=center,
        mu0=float(mu0) if mu0 is not None else radius / 2.0,
    )


def radial(radius, dim=3, mu0=None):
    if radius <= 0:
        raise ValueError("radius must be positive")
    return DomainGeometry(
        kind="radial", dim=dim, radius=float(radius), center=np.zeros(dim),
        mu0=float(mu0) if mu0 is not None else radius / 2.0,
    )


def box(extents, center=None, mu0=None):
    extents = np.asarray(extents, dtype=np.float64)
    if extents.ndim != 1 or np.any(extents <= 0):
        raise ValueError("extents must be positive")
    dim = extents.size
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=np.float64)
    return DomainGeometry(
        kind="box", dim=dim, extents=extents, center=center,
        mu0=float(mu0) if mu0 is not None else float(extents.min()) / 4.0,
    )


def _is_ball(geom):
    return geom.kind in ("ball", "radial")


def distance(geom, x):
    """Signed-inward distance to the boundary (positive inside) of one point,
    or of each row of an (N, dim) block."""
    x = np.asarray(x, dtype=np.float64)
    if _is_ball(geom):
        d = geom.radius - np.linalg.norm(x - geom.center, axis=-1)
    else:
        lo = geom.center - geom.extents / 2.0
        hi = geom.center + geom.extents / 2.0
        d = np.minimum((x - lo).min(axis=-1), (hi - x).min(axis=-1))
    return float(d) if x.ndim == 1 else d


def distance_pack(geom, x, edge_tol=0.0):
    """Distance, its gradient, and its Hessian at a collar point, or at each
    row of an (N, dim) block of them.

    Raises CollarError outside the smooth collar. For a box the Hessian is
    zero on face zones; a tie between faces within ``edge_tol`` triggers a
    non-smoothness warning.
    """
    x = np.asarray(x, dtype=np.float64)
    pts = np.atleast_2d(x)
    d = distance(geom, pts)
    outside = (d <= 0) | (d >= geom.mu0)
    if outside.any():
        bad = d[np.argmax(outside)]
        raise CollarError(f"point at distance {bad:g} outside collar (0, {geom.mu0:g})")
    count, dim = pts.shape
    if _is_ball(geom):
        rel = pts - geom.center
        r = np.linalg.norm(rel, axis=1)[:, None]
        u = rel / r
        grad = -u
        outer = u[:, :, None] * u[:, None, :]
        hess = -(np.eye(dim) - outer) / r[:, :, None]
    else:
        lo = geom.center - geom.extents / 2.0
        hi = geom.center + geom.extents / 2.0
        dists = np.concatenate([pts - lo, hi - pts], axis=1)
        if edge_tol > 0:
            two = np.sort(dists, axis=1)[:, :2]
            if np.any(two[:, 1] - two[:, 0] < edge_tol):
                warnings.warn("distance not smooth: near a box edge", stacklevel=2)
        face = np.argmin(dists, axis=1)
        grad = np.zeros((count, dim))
        # a low face points inward along +axis, a high face along -axis
        grad[np.arange(count), face % dim] = np.where(face < dim, 1.0, -1.0)
        hess = np.zeros((count, dim, dim))
    if x.ndim == 1:
        return float(d[0]), grad[0], hess[0]
    return d, grad, hess


@dataclass(frozen=True)
class BarrierParams:
    """Constants of the collar barrier -d + K3 d^2."""

    K3: float
    k3: float = 0.01

    def __post_init__(self):
        if self.K3 <= 0 or self.k3 <= 0:
            raise ValueError("barrier constants must be positive")

    def collar(self, geom):
        return min(1.0 / (4.0 * self.K3), geom.mu0)


def barrier_hessian(geom, params, x):
    """Hessian of the barrier -d + K3 d^2 at one point, or at each row of an
    (N, dim) block; in the principal frame its eigenvalues are
    (1 - 2 K3 d) kappa_i / (1 - kappa_i d) tangentially and 2 K3 along the
    normal. Valid on the smoothness collar (0, mu0)."""
    d, grad, hess_d = distance_pack(geom, x)
    d = np.asarray(d)[..., None, None]
    outer = grad[..., :, None] * grad[..., None, :]
    H = 2.0 * params.K3 * outer + (2.0 * params.K3 * d - 1.0) * hess_d
    return symfun.symmetrize(H)


def mk0_convex_check(kappa, m, k0):
    """Strict convexity of a boundary point in the eigenvalue-sum sense:
    the m-sums of the principal curvatures lie in the degree-k0 cone."""
    kappa = symfun.as_spectrum(kappa)
    if m > kappa.size:
        raise ValueError(f"need m <= {kappa.size}, got m={m}")
    table = lift.subset_table(kappa.size, m)
    sums = kappa[table.tuples].sum(axis=1)
    if not 1 <= k0 <= sums.size:
        raise ValueError(f"need 1 <= k0 <= {sums.size}, got k0={k0}")
    return symfun.in_cone(sums, k0)


def collar_points(geom, count, depth_max, edge_exclusion=0.0):
    """Deterministic low-discrepancy points in the collar 0 < d < depth_max."""
    if depth_max <= 0 or depth_max > geom.mu0:
        raise CollarError(f"collar depth {depth_max:g} outside (0, {geom.mu0:g}]")
    if count == 0:
        return np.empty((0, geom.dim))
    sampler = qmc.Halton(d=geom.dim + 1, scramble=False)
    raw = sampler.random(count + 1)[1:]  # drop the origin sample
    depth = (0.02 + 0.96 * raw[:, -1]) * depth_max
    if _is_ball(geom):
        gauss = norm.ppf(np.clip(raw[:, : geom.dim], 1e-12, 1 - 1e-12))
        dirs = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
        return geom.center + (geom.radius - depth)[:, None] * dirs
    lo = geom.center - geom.extents / 2.0
    hi = geom.center + geom.extents / 2.0
    if edge_exclusion < 0 or 2 * edge_exclusion >= float(geom.extents.min()):
        raise ValueError("edge_exclusion must be nonnegative and below half the extent")
    pts = np.empty((count, geom.dim))
    for i in range(count):
        face = i % (2 * geom.dim)
        axis, side = face % geom.dim, face // geom.dim
        for j in range(geom.dim):
            if j == axis:
                pts[i, j] = (lo[j] + depth[i]) if side == 0 else (hi[j] - depth[i])
            else:
                span = hi[j] - lo[j] - 2 * edge_exclusion
                pts[i, j] = lo[j] + edge_exclusion + raw[i, j] * span
    return pts


@dataclass
class BarrierReport:
    which: str
    K3: float
    k3: float
    count: int = 0
    skips: list = field(default_factory=list)
    min_margin: float = math.inf
    empirical_k3: float = math.inf
    min_h_margin: float = math.inf
    min_sl_ratio: float = math.inf
    min_lambda_k: float = math.inf
    search_passes: int = 0  # checks run by search_barrier_constant, 0 if K3 was given

    @property
    def passed(self):
        return (
            self.count > 0
            and self.min_margin > 0
            and self.min_h_margin > 0
        )

    def as_dict(self):
        def fin(x):
            return None if math.isinf(x) else x

        return {
            "which": self.which,
            "K3": self.K3,
            "k3": self.k3,
            "count": self.count,
            "skips": self.skips,
            "min_margin": fin(self.min_margin),
            "empirical_k3": fin(self.empirical_k3),
            "min_h_margin": fin(self.min_h_margin),
            "min_sl_ratio": fin(self.min_sl_ratio),
            "min_lambda_k": fin(self.min_lambda_k),
            "search_passes": self.search_passes,
            "passed": self.passed,
        }


def _check_lemma_range(geom, spec, which):
    edge = math.comb(spec.n - 1, spec.m - 1)
    if which == "lemma53":
        if spec.k > edge:
            raise ConfigError(f"lemma53 needs k <= binom(n-1, m-1) = {edge}")
        return None
    if which == "lemma55":
        k0 = spec.k - edge
        if k0 < 1:
            raise ConfigError(f"lemma55 needs k > binom(n-1, m-1) = {edge}")
        if not _is_ball(geom):
            raise ConfigError("lemma55 verification requires curvature: ball only")
        kappa = np.full(spec.n - 1, 1.0 / geom.radius)
        ok, _ = mk0_convex_check(kappa, spec.m, k0)
        if not ok:
            raise ConfigError("boundary is not strictly convex at order (m, k0)")
        return k0
    raise ConfigError(f"unknown bound id {which!r}")


def _field_table(u_hess, pts, spec):
    """The caller's Hessians at ``pts``, symmetrized and stacked, with the
    elementary symmetric table S_0..S_k of their m-sum spectra."""
    Hs = symfun.as_symmetric(
        symfun.symmetrize(np.array([u_hess(x) for x in pts], dtype=np.float64))
    )
    lam = lift.sum_spectrum_batch(Hs, spec.m)
    return Hs, _kernels.elem_sym_all(lam, spec.k)


def verify_barrier_bound(u_hess, geom, params, spec, sample_points=1000,
                         which="lemma53", edge_exclusion=None):
    """Check that contracting the operator gradient against the barrier
    Hessian dominates the required multiple of (1 + trace) at collar points.

    ``u_hess`` maps a point to the n x n Hessian of the field under test; it
    is called once per point, and every other step runs on the stacked block
    of points. Also verifies that the barrier itself is admissible at each
    point and records the spectral slack of its m-sum spectrum. A NaN at any
    point makes the corresponding minimum NaN, which fails the check.
    """
    _check_lemma_range(geom, spec, which)
    mu = params.collar(geom)
    if isinstance(sample_points, int):
        excl = edge_exclusion if edge_exclusion is not None else 0.0
        pts = collar_points(geom, sample_points, mu, edge_exclusion=excl)
    else:
        pts = np.asarray(sample_points, dtype=np.float64)
    report = BarrierReport(which=which, K3=params.K3, k3=params.k3)
    if len(pts) == 0:
        return report
    k = spec.k
    Hs, s = _field_table(u_hess, pts, spec)
    margin = _kernels.cone_margin(s, k)
    ok = margin > 0
    report.skips = [{"index": int(i), "margin": float(margin[i])} for i in np.flatnonzero(~ok)]
    report.count = int(ok.sum())
    if not report.count:
        return report
    F, _, trace = lift.gradient_batch(Hs[ok], spec)
    Dh = barrier_hessian(geom, params, pts[ok])
    value = (F * Dh).sum(axis=(1, 2))
    scale = math.sqrt(params.K3) if which == "lemma53" else params.k3
    bound = scale * (1.0 + trace)
    lam = np.sort(lift.sum_spectrum_batch(Dh, spec.m), axis=1)[:, ::-1]
    s_h = _kernels.elem_sym_all(lam, k)
    powers = np.array([params.K3**l for l in range(1, k + 1)])
    report.min_margin = float((value - bound).min())
    report.empirical_k3 = float((value / (1.0 + trace)).min())
    report.min_h_margin = float(_kernels.cone_margin(s_h, k).min())
    report.min_lambda_k = float(lam[:, k - 1].min())
    report.min_sl_ratio = float((s_h[:, 1:] / powers).min())
    return report


def search_barrier_constant(u_hess, geom, spec, sample_points=400,
                            which="lemma53", k3=0.01, max_doublings=40):
    """Smallest power-of-two barrier constant whose bound check passes.

    The starting guess follows the square of (4 n max(S_k)^(1/k)) over
    (k min(S_k)) evaluated on collar samples of the field itself. Returns
    (K3, report): the report is the passing check at ``sample_points``, and
    its ``search_passes`` counts the checks the search ran.
    """
    _check_lemma_range(geom, spec, which)
    probe = collar_points(geom, min(sample_points, 128), geom.mu0 * 0.999)
    _, s = _field_table(u_hess, probe, spec)
    vals = s[_kernels.cone_margin(s, spec.k) > 0, spec.k]
    if not vals.size:
        raise ConfigError("field is nowhere admissible on the collar")
    guess = (4.0 * spec.n * vals.max() ** (1.0 / spec.k) / (spec.k * vals.min())) ** 2
    exponent = max(0, math.ceil(math.log2(max(guess, 1.0))))
    reports = {}

    def passes(e):
        if e not in reports:
            params = BarrierParams(K3=2.0**e, k3=k3)
            reports[e] = verify_barrier_bound(
                u_hess, geom, params, spec, sample_points=sample_points, which=which
            )
        return reports[e].passed

    if passes(exponent):
        while exponent > 0 and passes(exponent - 1):
            exponent -= 1
    else:
        while not passes(exponent):
            exponent += 1
            if exponent - math.ceil(math.log2(max(guess, 1.0))) > max_doublings:
                raise ConfigError("no passing barrier constant found")
    report = reports[exponent]
    report.search_passes = len(reports)
    return 2.0**exponent, report


def c0_diagnostic(u_values, boundary_flat, a_boundary, b_boundary, h, slack_const=50.0):
    """Post-solve checks: the solution stays below sup(b)/inf(a) up to the
    scheme's consistency slack, and its maximum sits on the boundary nodes
    ``boundary_flat``."""
    u_values = np.asarray(u_values, dtype=np.float64)
    a_boundary = np.asarray(a_boundary, dtype=np.float64)
    b_boundary = np.asarray(b_boundary, dtype=np.float64)
    bound = float(b_boundary.max() / a_boundary.min())
    max_u = float(u_values.max())
    tol = slack_const * h * h
    boundary_max = float(u_values[boundary_flat].max())
    return {
        "bound": bound,
        "max_u": max_u,
        "margin": bound - max_u,
        "bound_ok": bool(bound - max_u >= -tol),
        "tolerance": tol,
        "max_on_boundary": bool(boundary_max >= max_u),
    }
