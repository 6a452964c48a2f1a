"""Domain geometry: ball and box domains, and on a ball the distance to the
boundary, the quadratic distance barrier on a boundary collar, numeric
verification that the linearized operator dominates the barrier, and
post-solve diagnostics.
"""

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _kernels, lift, symfun
from .errors import CollarError, ConfigError


@dataclass(frozen=True)
class DomainGeometry:
    """A ball (``kind`` "ball") or an axis-aligned box ("box"). Both are
    solve domains; a radial solve takes a ball centered at the origin
    through its 1-D profiles. The distance and the collar barrier need a
    boundary that is smooth on a collar, so they run on a ball only.
    """

    kind: str
    dim: int
    radius: float = 0.0
    center: np.ndarray = field(default=None, repr=False)
    extents: np.ndarray = field(default=None, repr=False)

    @property
    def mu0(self):
        """Collar width within which a ball's distance is smooth: any width
        below the radius works, and half of it is used."""
        return self.radius / 2.0


def _check_radius(radius):
    # NaN fails every comparison, so the chain rejects it too
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")


def _check_center(center, dim):
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=np.float64)
    if center.shape != (dim,):
        raise ValueError("center must have length dim")
    if not np.all(np.isfinite(center)):
        raise ValueError(f"center must be finite, got {center.tolist()}")
    return center


def ball(radius, dim=3, center=None):
    _check_radius(radius)
    center = _check_center(center, dim)
    return DomainGeometry(kind="ball", dim=dim, radius=float(radius), center=center)


def box(extents, center=None):
    extents = np.asarray(extents, dtype=np.float64)
    if extents.ndim != 1 or not np.all((extents > 0) & (extents < math.inf)):
        raise ValueError(f"extents must be positive and finite, got {extents.tolist()}")
    dim = extents.size
    center = _check_center(center, dim)
    return DomainGeometry(kind="box", dim=dim, extents=extents, center=center)


def _check_ball(geom):
    """ConfigError unless ``geom`` is a ball: a box has no smooth collar."""
    if geom.kind != "ball":
        raise ConfigError(f"the collar barrier needs a ball, got a {geom.kind}")


def distance(geom, x):
    """Signed-inward distance to the boundary of a ball (positive inside) of
    each row of an (N, dim) block of points."""
    _check_ball(geom)
    x = np.asarray(x, dtype=np.float64)
    return geom.radius - np.linalg.norm(x - geom.center, axis=1)


def distance_pack(geom, x):
    """Distance to the boundary of a ball, its gradient and its Hessian at
    each row of an (N, dim) block of collar points: arrays of shape (N,),
    (N, dim), (N, dim, dim).

    Raises CollarError outside the smooth collar (0, mu0).
    """
    pts = np.asarray(x, dtype=np.float64)
    d = distance(geom, pts)
    outside = (d <= 0) | (d >= geom.mu0)
    if outside.any():
        bad = d[np.argmax(outside)]
        raise CollarError(f"point at distance {bad:g} outside collar (0, {geom.mu0:g})")
    rel = pts - geom.center
    r = np.linalg.norm(rel, axis=1)[:, None]
    u = rel / r
    outer = u[:, :, None] * u[:, None, :]
    hess = -(np.eye(geom.dim) - outer) / r[:, :, None]
    return d, -u, hess


@dataclass(frozen=True)
class BarrierParams:
    """Constants of the collar barrier -d + K3 d^2."""

    K3: float
    k3: float = 0.01

    def __post_init__(self):
        if not (0 < self.K3 < math.inf and 0 < self.k3 < math.inf):
            raise ValueError("barrier constants must be positive and finite")

    def collar(self, geom):
        return min(1.0 / (4.0 * self.K3), geom.mu0)


def barrier_hessian(geom, params, x):
    """Hessians of the barrier -d + K3 d^2 at each row of an (N, dim) block
    of points in a ball of radius R, shape (N, dim, dim): the eigenvalues are
    (1 - 2 K3 d) / (R - d) tangentially and 2 K3 along the normal. Valid on
    the smoothness collar (0, mu0)."""
    d, grad, hess_d = distance_pack(geom, x)
    d = d[:, None, None]
    outer = grad[:, :, None] * grad[:, None, :]
    H = 2.0 * params.K3 * outer + (2.0 * params.K3 * d - 1.0) * hess_d
    return symfun.symmetrize(H)


@functools.lru_cache(maxsize=8)
def _halton(count, d):
    """Points 1..count of the unscrambled Halton sequence in [0, 1)^d:
    column j is the radical inverse of the index in the j-th prime base
    (Halton, Numer. Math. 2, 1960). Digits are added from the least
    significant up with the scale divided by the base each step, the order
    ``scipy.stats.qmc.Halton(scramble=False)`` uses, so the values agree bit
    for bit. The table is a pure function of (count, d), so it is kept for
    the next call (``search_barrier_constant`` asks for the same one per K3
    candidate) and returned read-only."""
    primes = []
    candidate = 2
    while len(primes) < d:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    index = np.arange(1, count + 1)
    out = np.zeros((count, d))
    for j, base in enumerate(primes):
        q, scale = index, 1.0 / base
        while q.any():
            q, digit = np.divmod(q, base)
            out[:, j] += digit * scale
            scale /= base
    out.flags.writeable = False
    return out


def collar_points(geom, count, depth_max):
    """Deterministic low-discrepancy points in the collar 0 < d < depth_max
    of a ball."""
    _check_ball(geom)
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    # NaN fails every comparison, so the chains reject it too
    if not 0 < depth_max <= geom.mu0:
        raise CollarError(f"collar depth {depth_max:g} outside (0, {geom.mu0:g}]")
    # imported here: loading scipy.special takes longer than importing the
    # whole CLI, and only the collar needs it
    from scipy.special import ndtri

    raw = _halton(count, geom.dim + 1)
    depth = (0.02 + 0.96 * raw[:, -1]) * depth_max
    gauss = ndtri(np.clip(raw[:, : geom.dim], 1e-12, 1 - 1e-12))
    dirs = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
    return geom.center + (geom.radius - depth)[:, None] * dirs


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
        """The fields and ``passed``, an infinite value written as None."""
        return {key: None if isinstance(value, float) and math.isinf(value) else value
                for key, value in {**asdict(self), "passed": self.passed}.items()}


def _check_request(geom, spec, which, sample_points):
    """ConfigError unless the barrier check can run: a ball, a point count of
    at least 1, and a degree k in the range of the lemma ``which``. Lemma 5.5
    also asks for a strictly (m, k0)-convex boundary, k0 = k - binom(n-1,
    m-1); on a ball every m-sum of the principal curvatures is m/R > 0, so
    that holds for every k0 the spec allows."""
    _check_ball(geom)
    if isinstance(sample_points, bool) or not isinstance(sample_points, (int, np.integer)):
        raise ConfigError(f"points must be an integer count, got {sample_points!r}")
    if sample_points < 1:
        raise ConfigError(f"need points >= 1, got points={sample_points}")
    edge = math.comb(spec.n - 1, spec.m - 1)
    if which == "lemma53":
        if spec.k > edge:
            raise ConfigError(f"lemma53 needs k <= binom(n-1, m-1) = {edge}")
    elif which == "lemma55":
        if spec.k <= edge:
            raise ConfigError(f"lemma55 needs k > binom(n-1, m-1) = {edge}")
    else:
        raise ConfigError(f"unknown bound id {which!r}")


def _field_table(u_hess, pts, spec):
    """The caller's Hessians at the (N, n) block ``pts``, from one call of
    ``u_hess``, symmetrized, with the elementary symmetric table S_0..S_k of
    their m-sum spectra. ValueError unless the call returns (N, n, n)."""
    Hs = np.asarray(u_hess(pts), dtype=np.float64)
    expected = (len(pts), spec.n, spec.n)
    if Hs.shape != expected:
        raise ValueError(f"u_hess must map the (N, {spec.n}) block of points to "
                         f"Hessians of shape {expected}, got {Hs.shape}")
    Hs = symfun.as_symmetric(symfun.symmetrize(Hs))
    return Hs, lift.msum_sym(np.linalg.eigvalsh(Hs), spec.m, spec.k)


def verify_barrier_bound(u_hess, geom, params, spec, sample_points=1000,
                         which="lemma53"):
    """Check that contracting the operator gradient against the barrier
    Hessian dominates the required multiple of (1 + trace) at the first
    ``sample_points`` collar points of the ball ``geom`` (``collar_points``
    at depth ``params.collar(geom)``).

    ``u_hess`` maps an (N, n) block of points to the (N, n, n) Hessians of
    the field under test; it is called once, on the whole block, as is every
    other step. Also verifies that the barrier itself is admissible at each
    point and records the spectral slack of its m-sum spectrum. A NaN at any
    point makes the corresponding minimum NaN, which fails the check.
    """
    _check_request(geom, spec, which, sample_points)
    pts = collar_points(geom, sample_points, params.collar(geom))
    report = BarrierReport(which=which, K3=params.K3, k3=params.k3)
    k = spec.k
    Hs, s = _field_table(u_hess, pts, spec)
    margin = _kernels.cone_margin(s, k)
    ok = margin > 0
    report.skips = [{"index": int(i), "margin": float(margin[i])} for i in np.flatnonzero(~ok)]
    report.count = int(ok.sum())
    if not report.count:
        return report
    F, trace = lift.gradient_batch(Hs[ok], spec)
    Dh = barrier_hessian(geom, params, pts[ok])
    value = (F * Dh).sum(axis=(1, 2))
    scale = math.sqrt(params.K3) if which == "lemma53" else params.k3
    bound = scale * (1.0 + trace)
    lam = np.sort(lift.sum_spectrum(Dh, spec.m), axis=1)[:, ::-1]
    s_h = _kernels.elem_sym_all(lam, k)
    powers = np.array([params.K3**l for l in range(1, k + 1)])
    report.min_margin = float((value - bound).min())
    report.empirical_k3 = float((value / (1.0 + trace)).min())
    report.min_h_margin = float(_kernels.cone_margin(s_h, k).min())
    report.min_lambda_k = float(lam[:, k - 1].min())
    report.min_sl_ratio = float((s_h[:, 1:] / powers).min())
    return report


def search_barrier_constant(u_hess, geom, spec, sample_points=400,
                            which="lemma53", k3=0.01):
    """Smallest power-of-two barrier constant whose bound check passes.

    The starting guess follows the square of (4 n max(S_k)^(1/k)) over
    (k min(S_k)) evaluated on collar samples of the field itself. Returns
    (K3, report): the report is the passing check at ``sample_points``, and
    its ``search_passes`` counts the checks the search ran.
    """
    _check_request(geom, spec, which, sample_points)
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
            if exponent - math.ceil(math.log2(max(guess, 1.0))) > 40:
                raise ConfigError("no passing barrier constant found")
    report = reports[exponent]
    report.search_passes = len(reports)
    return 2.0**exponent, report


def c0_diagnostic(u_values, boundary_flat, a_boundary, b_boundary, h):
    """Post-solve checks: the solution stays below sup(b)/inf(a) up to the
    scheme's consistency slack 50 h^2, and its maximum sits on the boundary
    nodes ``boundary_flat``."""
    u_values = np.asarray(u_values, dtype=np.float64)
    a_boundary = np.asarray(a_boundary, dtype=np.float64)
    b_boundary = np.asarray(b_boundary, dtype=np.float64)
    bound = float(b_boundary.max() / a_boundary.min())
    max_u = float(u_values.max())
    tol = 50.0 * h * h
    boundary_max = float(u_values[boundary_flat].max())
    return {
        "bound": bound,
        "max_u": max_u,
        "margin": bound - max_u,
        "bound_ok": bool(bound - max_u >= -tol),
        "tolerance": tol,
        "max_on_boundary": bool(boundary_max >= max_u),
    }
