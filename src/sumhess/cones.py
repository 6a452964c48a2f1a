"""Executable cone predicates: inequality checks with explicit constants,
rejection samplers for their hypothesis sets, and suite runners.

Suites are addressed by short ids (prop21..prop27, euler, spectral-lift)
shared with the CLI ``verify`` command. Margins are signed: a check passes
when every margin stays above ``MARGIN_FLOOR``; identity-style suites store
``tolerance - relative_error`` so the same convention applies.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, lift, symfun
from .errors import ConfigError, SamplerStarvationError

#: Strict inequalities are accepted down to this signed margin (roundoff guard).
MARGIN_FLOOR = -1e-12

#: Relative tolerance for the exact-identity suites.
IDENTITY_RTOL = 1e-12

_STARVATION_RATE = 1e-4
_STARVATION_MIN_PROPOSALS = 200_000


@dataclass(frozen=True)
class InequalityConstants:
    """The explicit constants entering the gradient-sum and deletion bounds."""

    n: int
    m: int
    k: int
    delta: float
    eps: float | None
    theta1: float
    theta2: float
    delta1: float
    c0: float | None

    @classmethod
    def for_problem(cls, n, m, k, delta, eps=None):
        if delta <= 0:
            raise ValueError("delta must be positive")
        size = math.comb(n, m)
        # log-space: the factorial of binom(n, m) overflows quickly
        log_delta1 = k * math.log(delta) - math.lgamma(size + 1) - k * math.log(4.0)
        delta1 = math.exp(log_delta1)
        theta1 = math.exp((k - 1) * log_delta1)
        theta2 = math.exp(
            (k - 1) * math.log(delta)
            - (k * math.log(2.0) + (k - 1) * math.log(m) + 3 * math.log(size))
        )
        c0 = None if eps is None else deletion_constant(n, delta, eps)
        return cls(
            n=n, m=m, k=k, delta=delta, eps=eps,
            theta1=theta1, theta2=theta2, delta1=delta1, c0=c0,
        )


def deletion_constant(n, delta, eps):
    """The explicit factor bounding lower-degree values after deleting the
    dominant entry."""
    if delta <= 0 or eps <= 0:
        raise ValueError("delta and eps must be positive")
    return min(
        eps**2 * delta**2 / (2.0 * (n - 2) * (n - 1)),
        eps**2 * delta / (4.0 * (n - 1)),
    )


@dataclass
class SampleReport:
    """Aggregate outcome of running one check over sampled inputs."""

    suite: str
    trials: int = 0
    hypothesis_hits: int = 0
    violations: int = 0
    worst_margin: float = math.inf
    witness: list | None = None
    acceptance_rate: float | None = None
    checks: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def record(self, result, sample):
        self.trials += 1
        if not result["hypothesis"]:
            return
        self.hypothesis_hits += 1
        for name, margin in result["margins"].items():
            prev = self.checks.get(name, math.inf)
            self.checks[name] = min(prev, margin)
            if margin < self.worst_margin:
                self.worst_margin = margin
                if margin < MARGIN_FLOOR:
                    self.witness = np.asarray(sample).tolist()
        if any(m < MARGIN_FLOOR for m in result["margins"].values()):
            self.violations += 1

    @property
    def passed(self):
        return self.violations == 0

    def as_dict(self):
        return {
            "suite": self.suite,
            "trials": self.trials,
            "hypothesis_hits": self.hypothesis_hits,
            "violations": self.violations,
            "worst_margin": None if math.isinf(self.worst_margin) else self.worst_margin,
            "witness": self.witness,
            "acceptance_rate": self.acceptance_rate,
            "checks": {k: v for k, v in sorted(self.checks.items())},
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# single-sample checks


def _result(hypothesis, margins=None, skip_reason=None):
    return {"hypothesis": hypothesis, "margins": margins or {}, "skip": skip_reason}


def check_ordered_cone_inequalities(lam, k, partner=None):
    """Deleted-value ordering, leading-entry positivity, the weighted lower
    bound, and (optionally) midpoint concavity of S_k^(1/k) toward ``partner``."""
    lam = symfun.as_spectrum(lam)
    n = lam.size
    if np.any(np.diff(lam) > 0):
        return _result(False, skip_reason="not sorted descending")
    ok, _ = symfun.in_cone(lam, k)
    if not ok:
        return _result(False, skip_reason="outside cone")
    deleted = symfun.deleted_sym_table(lam, k - 1)
    sk = symfun.elem_sym(lam, k)
    margins = {
        "deleted_order": float(np.min(np.diff(deleted))) if n > 1 else 0.0,
        "deleted_positive": float(deleted[0]),
        "leading_positive": float(lam[k - 1]),
        "weighted_lower": float(lam[0] * deleted[0] - (k / n) * sk),
    }
    if partner is not None:
        nu = symfun.as_spectrum(partner)
        ok2, _ = symfun.in_cone(nu, k)
        if ok2:
            mid = symfun.elem_sym((lam + nu) / 2.0, k) ** (1.0 / k)
            ends = (sk ** (1.0 / k) + symfun.elem_sym(nu, k) ** (1.0 / k)) / 2.0
            margins["midpoint_concavity"] = float(mid - ends)
    return _result(True, margins)


def check_maclaurin(lam, k, l):
    """Normalized power-mean ordering between degrees l < k, and the lower
    bound on the gradient sum of S_k^(1/k)."""
    if not 1 <= l < k:
        raise ValueError("need 1 <= l < k")
    lam = symfun.as_spectrum(lam)
    n = lam.size
    ok, _ = symfun.in_cone(lam, k)
    if not ok:
        return _result(False, skip_reason="outside cone")
    s = symfun.elem_sym_all(lam, k)
    lhs = (s[k] / math.comb(n, k)) ** (1.0 / k)
    rhs = (s[l] / math.comb(n, l)) ** (1.0 / l)
    deleted = symfun.deleted_sym_table(lam, k - 1)
    grad_sum = (1.0 / k) * s[k] ** (1.0 / k - 1.0) * float(deleted.sum())
    return _result(True, {
        "ratio_order": float(rhs - lhs),
        "gradient_sum": float(grad_sum - math.comb(n, k) ** (1.0 / k)),
    })


def check_negative_entry(lam, k, neg_index):
    """With one designated negative entry: its partial derivative dominates
    the average, and the gradient sum dominates a power of the entry."""
    lam = symfun.as_spectrum(lam)
    n = lam.size
    if not 0 <= neg_index < n:
        raise ValueError("neg_index out of range")
    ok, _ = symfun.in_cone(lam, k)
    if not ok:
        return _result(False, skip_reason="outside cone")
    if lam[neg_index] >= 0:
        return _result(False, skip_reason="designated entry not negative")
    deleted = symfun.deleted_sym_table(lam, k - 1)
    total = float(deleted.sum())
    return _result(True, {
        "dominates_average": float(deleted[neg_index] - total / (n - k + 1)),
        "power_lower": float(total - (-lam[neg_index]) ** (k - 1)),
    })


def check_sum_lift_gradient_bounds(mu, spec, delta, L=1.0):
    """Lower bounds on the gradient sum of S_k over the m-sum spectrum, and
    on each single partial relative to the sum, with explicit constants."""
    n, m, k = spec.n, spec.m, spec.k
    size = spec.size
    if not 2 <= k <= (n - m) / n * size:
        raise ConfigError(
            f"no valid degree: need 2 <= k <= (n-m)/n * binom(n,m) = "
            f"{(n - m) / n * size:g}, got k={k}"
        )
    mu = symfun.as_spectrum(mu)
    if mu.size != n:
        raise ValueError("spectrum length must equal n")
    consts = InequalityConstants.for_problem(n, m, k, delta)
    if np.any(np.diff(mu) > 0):
        return _result(False, skip_reason="not sorted descending")
    lam = _kernels.subset_sums(mu, lift.subset_table(n, m).tuples)
    ok, _ = symfun.in_cone(lam, k)
    if not ok:
        return _result(False, skip_reason="outside lifted cone")
    if not mu[-1] < -delta * L:
        return _result(False, skip_reason="smallest entry not below -delta*L")
    deleted = symfun.deleted_sym_table(lam, k - 1)
    total = float(deleted.sum())
    margins = {"gradient_sum": total - consts.theta1 * L ** (k - 1)}
    in_band = bool(np.all(lam >= -consts.delta1 * L) and np.all(lam <= m * L))
    if in_band:
        margins["partial_vs_sum"] = float(deleted.min() - consts.theta2 * total)
    # looser band variant with exponent k-1 on the small constant: log when a
    # sample satisfies only that variant yet violates the bound
    delta1_alt = math.exp(
        (k - 1) * math.log(delta) - math.lgamma(size + 1) - k * math.log(4.0)
    )
    alt_only = (not in_band) and bool(
        np.all(lam >= -delta1_alt * L) and np.all(lam <= m * L)
    )
    res = _result(True, margins)
    res["alt_band_only"] = alt_only
    if alt_only:
        res["alt_partial_vs_sum"] = float(deleted.min() - consts.theta2 * total)
    return res


def check_large_entry_deletion(lam, k, delta, eps):
    """Deletion of a dominant positive entry keeps every lower-degree value
    within the explicit factor c0, given a sufficiently negative tail."""
    if k < 2:
        raise ValueError("need k >= 2")
    lam = symfun.as_spectrum(lam)
    n = lam.size
    c0 = deletion_constant(n, delta, eps)
    ok, _ = symfun.in_cone(lam, k)
    if not ok:
        return _result(False, skip_reason="outside cone")
    if np.any(np.diff(lam[1:]) > 0):
        return _result(False, skip_reason="tail not sorted descending")
    if not (lam[0] > 0 and lam[0] >= delta * lam[1] and lam[-1] <= -eps * lam[0]):
        return _result(False, skip_reason="dominance hypotheses not met")
    zeroed = lam.copy()
    zeroed[0] = 0.0
    worst = math.inf
    for l in range(k):
        margin = symfun.elem_sym(zeroed, l) - c0 * symfun.elem_sym(lam, l)
        worst = min(worst, margin)
    return _result(True, {"deletion_factor": float(worst)})


# ---------------------------------------------------------------------------
# samplers


def _rejection(rng, propose, accept, count, batch=4096):
    """Collect ``count`` accepted samples; error out on starvation."""
    out = []
    kept = 0
    proposals = 0
    while kept < count:
        block = propose(rng, batch)
        mask = accept(block)
        proposals += block.shape[0]
        sel = block[mask]
        if sel.shape[0]:
            out.append(sel[: count - kept])
            kept += min(sel.shape[0], count - kept)
        rate = kept / proposals if proposals else 0.0
        if proposals >= _STARVATION_MIN_PROPOSALS and rate < _STARVATION_RATE:
            raise SamplerStarvationError(
                f"sampler acceptance rate {rate:.2e} below {_STARVATION_RATE:.0e}",
                acceptance_rate=rate,
                proposals=proposals,
            )
    samples = np.concatenate(out, axis=0) if out else np.empty((0, 0))
    return samples, kept / proposals if proposals else 0.0


def _cone_mask(block, k):
    return _kernels.cone_margin(_kernels.elem_sym_all(block, k), k) > 0.0


def sample_cone(spec, count, mode, seed=0, delta=0.4, eps=0.15, L=1.0, shift=None):
    """Rejection-sample spectra satisfying the requested hypothesis set.

    Modes: ``gamma_k`` (length-n spectra in the degree-k cone), ``gamma_k_m``
    (spectra whose m-sum lift is in the cone), ``prop25_hypotheses``,
    ``prop26_hypotheses``, ``prop27_hypotheses``. Returns (samples,
    acceptance_rate); every emitted sample re-verifies its hypotheses.
    """
    rng = np.random.default_rng(seed)
    n, m, k = spec.n, spec.m, spec.k
    if count == 0:
        return np.empty((0, n)), 1.0

    if mode == "gamma_k":
        if k > n:
            raise ConfigError(f"gamma_k mode needs k <= n, got k={k}, n={n}")
        mu = 0.55 if shift is None else shift

        def propose(rng, b):
            return rng.normal(mu, 1.0, size=(b, n))

        return _rejection(rng, propose, lambda blk: _cone_mask(blk, k), count)

    if mode == "gamma_k_m":
        tuples = lift.subset_table(n, m).tuples
        mu = 0.55 if shift is None else shift

        def propose(rng, b):
            return rng.normal(mu, 1.0, size=(b, n))

        def accept(blk):
            return _cone_mask(_kernels.subset_sums(blk, tuples), k)

        return _rejection(rng, propose, accept, count)

    if mode == "prop25_hypotheses":
        if k > n - 1:
            raise ConfigError(
                "negative-entry hypotheses are empty for k = n "
                "(the degree-n cone is the positive orthant)"
            )
        mu = 0.35 if shift is None else shift

        def propose(rng, b):
            return rng.normal(mu, 1.0, size=(b, n))

        def accept(blk):
            return _cone_mask(blk, k) & (blk.min(axis=1) < 0.0)

        return _rejection(rng, propose, accept, count)

    if mode == "prop26_hypotheses":
        size = math.comb(n, m)
        if not 2 <= k <= (n - m) / n * size:
            raise ConfigError(
                f"no valid degree: need 2 <= k <= {(n - m) / n * size:g}, got k={k}"
            )
        consts = InequalityConstants.for_problem(n, m, k, delta)
        tuples = lift.subset_table(n, m).tuples

        def propose(rng, b):
            top = rng.uniform(0.35 * L, 0.75 * L, size=(b, n - 2))
            mid = rng.uniform(1.45 * delta * L, 2.2 * delta * L, size=(b, 1))
            low = -delta * L * (1.0 + 0.2 * rng.uniform(0.0, 1.0, size=(b, 1)))
            blk = np.concatenate([top, mid, low], axis=1)
            return -np.sort(-blk, axis=1)

        def accept(blk):
            lamb = _kernels.subset_sums(blk, tuples)
            good = _cone_mask(lamb, k)
            good &= blk[:, -1] < -delta * L
            good &= lamb.min(axis=1) >= -consts.delta1 * L
            good &= lamb.max(axis=1) <= m * L
            return good

        return _rejection(rng, propose, accept, count)

    if mode == "prop27_hypotheses":
        if k > n - 1:
            raise ConfigError("hypotheses need a negative entry, impossible for k = n")

        def propose(rng, b):
            head = 0.5 + np.abs(rng.normal(1.0, 0.5, size=(b, 1)))
            midraw = rng.normal(0.35, 0.5, size=(b, n - 2))
            mid = -np.sort(-midraw, axis=1)
            tail = -eps * head * (1.0 + np.abs(rng.normal(0.0, 0.6, size=(b, 1))))
            return np.concatenate([head, mid, tail], axis=1)

        def accept(blk):
            good = _cone_mask(blk, k)
            good &= blk[:, 0] > 0
            good &= blk[:, 0] >= delta * blk[:, 1]
            good &= blk[:, -1] <= -eps * blk[:, 0]
            good &= blk[:, -1] <= blk[:, -2]
            return good

        return _rejection(rng, propose, accept, count)

    raise ConfigError(f"unknown sampler mode {mode!r}")


# ---------------------------------------------------------------------------
# suite runners


def _normalized_desc(block):
    block = -np.sort(-block, axis=1)
    scale = np.abs(block).max(axis=1, keepdims=True)
    return block / np.where(scale == 0, 1.0, scale)


def _rel_margin(lhs, rhs, scale):
    err = abs(lhs - rhs) / max(scale, 1e-30)
    return IDENTITY_RTOL - err


def _suite_partition_identities(n, trials, seed, report):
    rng = np.random.default_rng(seed)
    lams = rng.normal(0.0, 1.0, size=(trials, n))
    for lam in lams:
        margins = {}
        s = symfun.elem_sym_all(lam, n)
        for k in range(1, n + 1):
            deleted_k = symfun.deleted_sym_table(lam, k)
            deleted_km1 = symfun.deleted_sym_table(lam, k - 1)
            i = rng.integers(n)
            lhs = deleted_k[i] + lam[i] * deleted_km1[i]
            scale = abs(deleted_k[i]) + abs(lam[i] * deleted_km1[i]) + abs(s[k])
            margins[f"split_k{k}"] = _rel_margin(lhs, s[k], scale)
            lhs2 = float((lam * deleted_km1).sum())
            margins[f"weighted_k{k}"] = _rel_margin(
                lhs2, k * s[k], float(np.abs(lam * deleted_km1).sum()) + abs(k * s[k])
            )
            lhs3 = float(deleted_k.sum())
            margins[f"sum_k{k}"] = _rel_margin(
                lhs3, (n - k) * s[k], float(np.abs(deleted_k).sum()) + abs((n - k) * s[k])
            )
        report.record(_result(True, margins), lam)


def _suite_diagonal_gradient(n, m, trials, seed, report):
    rng = np.random.default_rng(seed)
    spec_k_max = math.comb(n, m)
    for _ in range(trials):
        diag = rng.normal(0.5, 1.0, size=n)
        k = int(rng.integers(1, min(n, 4) + 1))
        # gradient of S_k at a diagonal matrix: deletion values on the diagonal
        T = symfun.newton_transform(np.diag(diag), k)
        deleted = symfun.deleted_sym_table(diag, k - 1)
        scale = float(np.abs(deleted).sum()) + 1.0
        margins = {
            "diag_gradient": IDENTITY_RTOL
            - float(np.abs(np.diag(T) - deleted).max()) / scale,
            "offdiag_zero": IDENTITY_RTOL - float(np.abs(T - np.diag(np.diag(T))).max()) / scale,
        }
        # lifted version: gradient of the composite map at a diagonal Hessian
        kk = int(rng.integers(1, min(spec_k_max, 4) + 1))
        spec = lift.ConeSpec(n, m, kk)
        table = lift.subset_table(n, m)
        lam = _kernels.subset_sums(diag, table.tuples)
        del_lift = symfun.deleted_sym_table(lam, kk - 1)
        expected = _kernels.fold_tuple_gradient(del_lift, table.tuples, n)
        F, _ = lift.gradient(np.diag(diag), spec)
        scale2 = float(np.abs(expected).sum()) + 1.0
        margins["lifted_diag_gradient"] = IDENTITY_RTOL - float(
            np.abs(np.diag(F) - expected).max()
        ) / scale2
        report.record(_result(True, margins), diag)


def _suite_mixed_decomposition(n, trials, seed, report):
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        A = symfun.symmetrize(rng.normal(0.0, 1.0, size=(n, n)))
        B = symfun.symmetrize(rng.normal(0.0, 1.0, size=(n, n)))
        k = int(rng.integers(1, n + 1))
        mixed = symfun.mixed_sym_all(A, B, k)
        weights = np.array([math.comb(k, i) for i in range(k + 1)])
        total = float((weights * mixed).sum())
        direct = symfun.matrix_sym(A + B, k)
        scale = float(np.abs(weights * mixed).sum()) + abs(direct)
        report.record(
            _result(True, {"binomial_sum": _rel_margin(total, direct, scale)}),
            A,
        )


def _suite_euler(spec, trials, seed, report, rtol=1e-9):
    rng = np.random.default_rng(seed)
    kept = 0
    proposals = 0
    while kept < trials:
        H = symfun.symmetrize(rng.normal(0.0, 0.45, size=(spec.n, spec.n)))
        H += np.eye(spec.n) * rng.uniform(0.3, 1.2)
        proposals += 1
        ok, _ = lift.admissible(H, spec)
        if not ok:
            continue
        kept += 1
        F, _ = lift.gradient(H, spec)
        lhs = float((F * H).sum())
        rhs = spec.k * lift.sk_of_hessian(H, spec)
        scale = max(abs(lhs), abs(rhs), 1e-30)
        report.record(
            _result(True, {"euler": rtol - abs(lhs - rhs) / scale}), H.ravel()
        )
    report.acceptance_rate = kept / proposals


def _suite_spectral_lift(spec, trials, seed, report, atol=1e-9):
    rng = np.random.default_rng(seed)
    table = lift.subset_table(spec.n, spec.m)
    batch = rng.normal(0.0, 1.0, size=(trials, spec.n, spec.n))
    batch = (batch + batch.transpose(0, 2, 1)) / 2.0
    W = lift.lift_hessian_batch(batch, table)
    direct = np.sort(np.linalg.eigvalsh(W), axis=1)
    fast = np.sort(lift.sum_spectrum_batch(batch, spec.m), axis=1)
    devs = np.abs(direct - fast).max(axis=1)
    for H, dev in zip(batch, devs):
        report.record(_result(True, {"spectral_lift": atol - float(dev)}), H.ravel())


def run_suite(which, spec=None, trials=10_000, seed=0, l=None, delta=0.4,
              eps=0.15, L=1.0, n=None):
    """Run one named verification suite and return its SampleReport.

    ``spec`` supplies (n, m, k) where needed; plain-cone suites accept ``n``
    directly with spec.k as degree.
    """
    report = SampleReport(suite=which)
    if which == "prop21":
        dim = n or (spec.n if spec else 5)
        _suite_partition_identities(dim, trials, seed, report)
        return report
    if which == "prop22":
        if spec is None:
            raise ConfigError("prop22 needs a ConeSpec")
        _suite_diagonal_gradient(spec.n, spec.m, trials, seed, report)
        return report
    if which == "mixed":
        dim = n or (spec.n if spec else 4)
        _suite_mixed_decomposition(dim, trials, seed, report)
        return report
    if which == "euler":
        if spec is None:
            raise ConfigError("euler needs a ConeSpec")
        _suite_euler(spec, trials, seed, report)
        return report
    if which == "spectral-lift":
        if spec is None:
            raise ConfigError("spectral-lift needs a ConeSpec")
        _suite_spectral_lift(spec, trials, seed, report)
        return report

    if spec is None:
        raise ConfigError(f"suite {which!r} needs a ConeSpec")
    dim, k = spec.n, spec.k

    if which == "prop23":
        samples, rate = sample_cone(spec, 2 * trials, "gamma_k", seed=seed)
        samples = _normalized_desc(samples)
        pairs = samples.reshape(trials, 2, dim)
        for lam, partner in pairs:
            report.record(
                check_ordered_cone_inequalities(lam, k, partner=partner), lam
            )
        report.acceptance_rate = rate
        return report

    if which == "prop24":
        if l is None:
            l = max(1, k - 1)
        samples, rate = sample_cone(spec, trials, "gamma_k", seed=seed)
        samples = _normalized_desc(samples)
        for lam in samples:
            report.record(check_maclaurin(lam, k, l), lam)
        report.acceptance_rate = rate
        return report

    if which == "prop25":
        samples, rate = sample_cone(spec, trials, "prop25_hypotheses", seed=seed)
        samples = _normalized_desc(samples)
        for lam in samples:
            report.record(check_negative_entry(lam, k, int(np.argmin(lam))), lam)
        report.acceptance_rate = rate
        return report

    if which == "prop26":
        samples, rate = sample_cone(
            spec, trials, "prop26_hypotheses", seed=seed, delta=delta, L=L
        )
        alt_only = 0
        alt_violations = 0
        for mu in samples:
            res = check_sum_lift_gradient_bounds(mu, spec, delta, L)
            report.record(res, mu)
            if res.get("alt_band_only"):
                alt_only += 1
                if res.get("alt_partial_vs_sum", 0.0) < MARGIN_FLOOR:
                    alt_violations += 1
        report.acceptance_rate = rate
        report.notes["alt_band_only_samples"] = alt_only
        report.notes["alt_band_violations"] = alt_violations
        return report

    if which == "prop27":
        samples, rate = sample_cone(
            spec, trials, "prop27_hypotheses", seed=seed, delta=delta, eps=eps
        )
        scale = np.abs(samples).max(axis=1, keepdims=True)
        samples = samples / scale
        for lam in samples:
            report.record(check_large_entry_deletion(lam, k, delta, eps), lam)
        report.acceptance_rate = rate
        return report

    raise ConfigError(f"unknown suite {which!r}")
