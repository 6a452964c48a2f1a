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
    proposals: int | None = None
    checks: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def record_block(self, result, samples):
        """Add a block check result and the samples it was computed on.

        ``result`` holds a per-row ``hypothesis`` mask and one margin array
        per named inequality (``+inf`` where a row lacks that margin);
        ``samples`` has one row per result row. A row violates when any
        margin is below ``MARGIN_FLOOR`` or NaN; a NaN makes the worst
        margin NaN. The witness is the first sample that reaches the worst
        margin, kept only when that margin is below the floor.
        """
        hyp = np.asarray(result["hypothesis"], dtype=bool).reshape(-1)
        self.trials += hyp.size
        self.hypothesis_hits += int(hyp.sum())
        if not hyp.any() or not result["margins"]:
            return
        rows = np.flatnonzero(hyp)
        table = np.column_stack([
            np.asarray(col, dtype=np.float64).reshape(-1)[rows]
            for col in result["margins"].values()
        ])
        nan = np.isnan(table)
        for name, col, col_nan in zip(result["margins"], table.T, nan.T):
            if np.all(col == math.inf):
                continue  # no hypothesis row has this margin
            low = math.nan if col_nan.any() else float(col.min())
            prev = self.checks.get(name, math.inf)
            self.checks[name] = math.nan if math.isnan(prev) or math.isnan(low) else min(prev, low)
        self.violations += int((nan | (table < MARGIN_FLOOR)).any(axis=1).sum())
        if nan.any():
            if math.isnan(self.worst_margin):
                return
            worst, hit = math.nan, nan.any(axis=1)
        else:
            worst = float(table.min())
            if not worst < self.worst_margin:
                return
            hit = (table == worst).any(axis=1)
        self.worst_margin = worst
        if not worst >= MARGIN_FLOOR:
            self.witness = np.asarray(samples)[rows[np.argmax(hit)]].tolist()

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
            "proposals": self.proposals,
            "checks": {k: v for k, v in sorted(self.checks.items())},
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# block checks
#
# Every check_* takes an (N, n) block, one sample per row, and returns
# {"hypothesis": (N,) bool, "margins": {name: (N,) float}, "skip": (N,)
# reasons}; a margin a row does not have is +inf. Margins are computed only
# on the rows that meet the hypotheses. A 1-D input is one sample and gets
# the scalar form back: a bool, the margins that sample has, its skip reason.


def _pow(x, e):
    """Elementwise ``x ** e`` through the C library's pow, one value at a
    time: numpy's SIMD power loop can round differently in the last bit,
    and the margins must not depend on the block size."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        vals = [v ** e for v in x.ravel()]
    return np.array(vals, dtype=np.float64).reshape(x.shape)


class _Block:
    """Hypothesis mask, skip reasons and margin columns of one check call."""

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.float64)
        self.single = arr.ndim == 1
        block = arr[None] if self.single else arr
        if block.ndim != 2 or block.shape[1] < 1:
            raise ValueError("samples must be a 1-D spectrum or an (N, n) block")
        if not np.all(np.isfinite(block)):
            raise ValueError("spectrum entries must be finite")
        self.values = block
        self.hypothesis = np.ones(block.shape[0], dtype=bool)
        self.skip = np.full(block.shape[0], None, dtype=object)
        self.margins = {}
        self.extra = {}

    def require(self, ok, reason):
        """Keep only the rows where ``ok`` holds; the others skip with ``reason``."""
        failed = self.hypothesis & ~ok
        self.skip[failed] = reason
        self.hypothesis &= ok

    def put(self, name, values, where=None):
        """Margin ``name`` on the hypothesis rows (or the rows ``where``)."""
        col = np.full(self.hypothesis.size, math.inf)
        col[self.hypothesis if where is None else where] = values
        self.margins[name] = col

    def result(self):
        if not self.single:
            return {"hypothesis": self.hypothesis, "margins": self.margins,
                    "skip": self.skip, **self.extra}
        out = {
            "hypothesis": bool(self.hypothesis[0]),
            "margins": {k: float(v[0]) for k, v in self.margins.items() if v[0] != math.inf},
            "skip": self.skip[0],
        }
        for key, col in self.extra.items():
            if col[0] != math.inf:
                out[key] = col[0].item()
        return out


def _check_degree(k, n):
    if not 1 <= k <= n:
        raise ValueError(f"degree k={k} out of range 1..{n}")


def _sorted_desc(block):
    return ~np.any(np.diff(block, axis=1) > 0, axis=1)


def check_ordered_cone_inequalities(lam, k, partner=None):
    """Deleted-value ordering, leading-entry positivity, the weighted lower
    bound, and (optionally) midpoint concavity of S_k^(1/k) toward ``partner``."""
    blk = _Block(lam)
    n = blk.values.shape[1]
    _check_degree(k, n)
    nu_all = None if partner is None else _Block(partner).values
    if nu_all is not None and nu_all.shape != blk.values.shape:
        raise ValueError("partner block must match the sample block")
    blk.require(_sorted_desc(blk.values), "not sorted descending")
    s = _kernels.elem_sym_all(blk.values, k)
    blk.require(_kernels.cone_margin(s, k) > 0.0, "outside cone")
    h = blk.hypothesis
    lam, sk = blk.values[h], s[h, k]
    deleted = _kernels.deleted_sym(lam, k - 1)
    blk.put("deleted_order", np.diff(deleted, axis=1).min(axis=1) if n > 1 else 0.0)
    blk.put("deleted_positive", deleted[:, 0])
    blk.put("leading_positive", lam[:, k - 1])
    blk.put("weighted_lower", lam[:, 0] * deleted[:, 0] - (k / n) * sk)
    if nu_all is not None:
        s_nu = _kernels.elem_sym_all(nu_all, k)
        both = h & (_kernels.cone_margin(s_nu, k) > 0.0)
        pair = both[h]
        mid_s = _kernels.elem_sym_all((lam[pair] + nu_all[both]) / 2.0, k)[:, k]
        mid = _pow(mid_s, 1.0 / k)
        ends = (_pow(sk[pair], 1.0 / k) + _pow(s_nu[both, k], 1.0 / k)) / 2.0
        blk.put("midpoint_concavity", mid - ends, where=both)
    return blk.result()


def check_maclaurin(lam, k, l):
    """Normalized power-mean ordering between degrees l < k, and the lower
    bound on the gradient sum of S_k^(1/k)."""
    if not 1 <= l < k:
        raise ValueError("need 1 <= l < k")
    blk = _Block(lam)
    n = blk.values.shape[1]
    _check_degree(k, n)
    s = _kernels.elem_sym_all(blk.values, k)
    blk.require(_kernels.cone_margin(s, k) > 0.0, "outside cone")
    h = blk.hypothesis
    sk = s[h, k]
    lhs = _pow(sk / math.comb(n, k), 1.0 / k)
    rhs = _pow(s[h, l] / math.comb(n, l), 1.0 / l)
    deleted = _kernels.deleted_sym(blk.values[h], k - 1)
    grad_sum = (1.0 / k) * _pow(sk, 1.0 / k - 1.0) * deleted.sum(axis=1)
    blk.put("ratio_order", rhs - lhs)
    blk.put("gradient_sum", grad_sum - math.comb(n, k) ** (1.0 / k))
    return blk.result()


def check_negative_entry(lam, k, neg_index):
    """With one designated negative entry: its partial derivative dominates
    the average, and the gradient sum dominates a power of the entry.

    ``neg_index`` is one position for every row or one per row."""
    blk = _Block(lam)
    rows, n = blk.values.shape
    idx = np.broadcast_to(np.asarray(neg_index), (rows,))
    if np.any((idx < 0) | (idx >= n)):
        raise ValueError("neg_index out of range")
    _check_degree(k, n)
    s = _kernels.elem_sym_all(blk.values, k)
    blk.require(_kernels.cone_margin(s, k) > 0.0, "outside cone")
    entry = blk.values[np.arange(rows), idx]
    blk.require(entry < 0, "designated entry not negative")
    h = blk.hypothesis
    deleted = _kernels.deleted_sym(blk.values[h], k - 1)
    total = deleted.sum(axis=1)
    own = deleted[np.arange(total.size), idx[h]]
    blk.put("dominates_average", own - total / (n - k + 1))
    blk.put("power_lower", total - _pow(-entry[h], k - 1))
    return blk.result()


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
    blk = _Block(mu)
    if blk.values.shape[1] != n:
        raise ValueError("spectrum length must equal n")
    consts = InequalityConstants.for_problem(n, m, k, delta)
    blk.require(_sorted_desc(blk.values), "not sorted descending")
    lam_all = _kernels.subset_sums(blk.values, lift.subset_table(n, m).tuples)
    s = _kernels.elem_sym_all(lam_all, k)
    blk.require(_kernels.cone_margin(s, k) > 0.0, "outside lifted cone")
    blk.require(blk.values[:, -1] < -delta * L, "smallest entry not below -delta*L")
    h = blk.hypothesis
    deleted = _kernels.deleted_sym(lam_all[h], k - 1)
    total = deleted.sum(axis=1)
    blk.put("gradient_sum", total - consts.theta1 * L ** (k - 1))
    partial = np.full(h.size, math.inf)
    partial[h] = deleted.min(axis=1) - consts.theta2 * total
    below_top = np.all(lam_all <= m * L, axis=1)
    band = h & np.all(lam_all >= -consts.delta1 * L, axis=1) & below_top
    blk.put("partial_vs_sum", partial[band], where=band)
    # looser band variant with exponent k-1 on the small constant: log when a
    # sample satisfies only that variant yet violates the bound
    delta1_alt = math.exp(
        (k - 1) * math.log(delta) - math.lgamma(size + 1) - k * math.log(4.0)
    )
    alt = h & ~band & np.all(lam_all >= -delta1_alt * L, axis=1) & below_top
    blk.extra["alt_band_only"] = alt
    blk.extra["alt_partial_vs_sum"] = np.where(alt, partial, math.inf)
    return blk.result()


def check_large_entry_deletion(lam, k, delta, eps):
    """Deletion of a dominant positive entry keeps every lower-degree value
    within the explicit factor c0, given a sufficiently negative tail."""
    if k < 2:
        raise ValueError("need k >= 2")
    blk = _Block(lam)
    n = blk.values.shape[1]
    _check_degree(k, n)
    c0 = deletion_constant(n, delta, eps)
    s = _kernels.elem_sym_all(blk.values, k)
    blk.require(_kernels.cone_margin(s, k) > 0.0, "outside cone")
    blk.require(_sorted_desc(blk.values[:, 1:]), "tail not sorted descending")
    v = blk.values
    dominant = (v[:, 0] > 0) & (v[:, 0] >= delta * v[:, 1]) & (v[:, -1] <= -eps * v[:, 0])
    blk.require(dominant, "dominance hypotheses not met")
    h = blk.hypothesis
    zeroed = v[h].copy()
    zeroed[:, 0] = 0.0
    margins = _kernels.elem_sym_all(zeroed, k - 1) - c0 * s[h, :k]
    blk.put("deletion_factor", margins.min(axis=1))
    return blk.result()


# ---------------------------------------------------------------------------
# samplers


def _rejection(rng, propose, accept, count, stats, batch=4096):
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
    if stats is not None:
        stats["proposals"] = proposals
    return samples, kept / proposals if proposals else 0.0


def _cone_mask(block, k):
    return _kernels.cone_margin(_kernels.elem_sym_all(block, k), k) > 0.0


def sample_cone(spec, count, mode, seed=0, delta=0.4, eps=0.15, L=1.0, shift=None,
                stats=None):
    """Rejection-sample spectra satisfying the requested hypothesis set.

    Modes: ``gamma_k`` (length-n spectra in the degree-k cone), ``gamma_k_m``
    (spectra whose m-sum lift is in the cone), ``prop25_hypotheses``,
    ``prop26_hypotheses``, ``prop27_hypotheses``. Returns (samples,
    acceptance_rate); every emitted sample re-verifies its hypotheses. When
    ``stats`` is a dict, the exact proposal count goes to its ``proposals``.
    """
    rng = np.random.default_rng(seed)
    n, m, k = spec.n, spec.m, spec.k
    if count == 0:
        if stats is not None:
            stats["proposals"] = 0
        return np.empty((0, n)), 1.0

    if mode == "gamma_k":
        if k > n:
            raise ConfigError(f"gamma_k mode needs k <= n, got k={k}, n={n}")
        mu = 0.55 if shift is None else shift

        def propose(rng, b):
            return rng.normal(mu, 1.0, size=(b, n))

        return _rejection(rng, propose, lambda blk: _cone_mask(blk, k), count, stats)

    if mode == "gamma_k_m":
        tuples = lift.subset_table(n, m).tuples
        mu = 0.55 if shift is None else shift

        def propose(rng, b):
            return rng.normal(mu, 1.0, size=(b, n))

        def accept(blk):
            return _cone_mask(_kernels.subset_sums(blk, tuples), k)

        return _rejection(rng, propose, accept, count, stats)

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

        return _rejection(rng, propose, accept, count, stats)

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

        return _rejection(rng, propose, accept, count, stats)

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

        return _rejection(rng, propose, accept, count, stats)

    raise ConfigError(f"unknown sampler mode {mode!r}")


# ---------------------------------------------------------------------------
# suite runners


def _normalized_desc(block):
    block = -np.sort(-block, axis=1)
    scale = np.abs(block).max(axis=1, keepdims=True)
    return block / np.where(scale == 0, 1.0, scale)


def _rel_margin(lhs, rhs, scale):
    err = np.abs(lhs - rhs) / np.maximum(scale, 1e-30)
    return IDENTITY_RTOL - err


#: Rows per block check call. The kernels' work arrays grow with the block
#: (deleted_sym keeps (C + 2) x rows x k tables), so this bounds a suite's
#: memory whatever ``trials`` is.
_CHECK_ROWS = 4096


def _record_blocks(report, samples, check):
    """Record ``check(rows)`` for consecutive row slices of ``samples``, in
    order, and return the block results."""
    results = []
    for start in range(0, len(samples), _CHECK_ROWS):
        rows = slice(start, start + _CHECK_ROWS)
        result = check(rows)
        report.record_block(result, samples[rows])
        results.append(result)
    return results


def _all_rows(margins):
    """Block result whose every row meets the hypotheses."""
    rows = len(next(iter(margins.values())))
    return {"hypothesis": np.ones(rows, dtype=bool), "margins": margins}


def _suite_partition_identities(n, trials, seed, report):
    rng = np.random.default_rng(seed)
    lams = rng.normal(0.0, 1.0, size=(trials, n))
    # one scalar draw per (sample, degree), in the order a per-sample loop draws
    picks = np.array([[rng.integers(n) for _ in range(n)] for _ in range(trials)])
    s = _kernels.elem_sym_all(lams, n)
    deleted = [_kernels.deleted_sym(lams, degree) for degree in range(n + 1)]
    rows = np.arange(trials)
    margins = {}
    for k in range(1, n + 1):
        deleted_k, deleted_km1 = deleted[k], deleted[k - 1]
        i = picks[:, k - 1]
        sk = s[:, k]
        lhs = deleted_k[rows, i] + lams[rows, i] * deleted_km1[rows, i]
        scale = (np.abs(deleted_k[rows, i]) + np.abs(lams[rows, i] * deleted_km1[rows, i])
                 + np.abs(sk))
        margins[f"split_k{k}"] = _rel_margin(lhs, sk, scale)
        weighted = lams * deleted_km1
        margins[f"weighted_k{k}"] = _rel_margin(
            weighted.sum(axis=1), k * sk, np.abs(weighted).sum(axis=1) + np.abs(k * sk)
        )
        margins[f"sum_k{k}"] = _rel_margin(
            deleted_k.sum(axis=1), (n - k) * sk,
            np.abs(deleted_k).sum(axis=1) + np.abs((n - k) * sk),
        )
    report.record_block(_all_rows(margins), lams)


def _suite_diagonal_gradient(n, m, trials, seed, report):
    rng = np.random.default_rng(seed)
    spec_k_max = math.comb(n, m)
    diags = np.empty((trials, n))
    degrees = np.empty((trials, 2), dtype=int)
    for t in range(trials):
        diags[t] = rng.normal(0.5, 1.0, size=n)
        degrees[t, 0] = rng.integers(1, min(n, 4) + 1)
        degrees[t, 1] = rng.integers(1, min(spec_k_max, 4) + 1)
    mats = np.zeros((trials, n, n))
    mats[:, np.arange(n), np.arange(n)] = diags
    table = lift.subset_table(n, m)
    margins = {name: np.empty(trials)
               for name in ("diag_gradient", "offdiag_zero", "lifted_diag_gradient")}
    for k in np.unique(degrees[:, 0]):
        # gradient of S_k at a diagonal matrix: deletion values on the diagonal
        sel = degrees[:, 0] == k
        T = symfun.newton_transform(mats[sel], int(k))
        deleted = _kernels.deleted_sym(diags[sel], k - 1)
        scale = np.abs(deleted).sum(axis=1) + 1.0
        diag_T = np.diagonal(T, axis1=1, axis2=2)
        off = T.copy()
        off[:, np.arange(n), np.arange(n)] = 0.0
        margins["diag_gradient"][sel] = (
            IDENTITY_RTOL - np.abs(diag_T - deleted).max(axis=1) / scale
        )
        margins["offdiag_zero"][sel] = IDENTITY_RTOL - np.abs(off).max(axis=(1, 2)) / scale
    for kk in np.unique(degrees[:, 1]):
        # lifted version: gradient of the composite map at a diagonal Hessian
        sel = degrees[:, 1] == kk
        lam = _kernels.subset_sums(diags[sel], table.tuples)
        del_lift = _kernels.deleted_sym(lam, kk - 1)
        expected = _kernels.fold_tuple_gradient(del_lift, table.tuples, n)
        F, _, _ = lift.gradient_batch(mats[sel], lift.ConeSpec(n, m, int(kk)))
        scale2 = np.abs(expected).sum(axis=1) + 1.0
        margins["lifted_diag_gradient"][sel] = IDENTITY_RTOL - np.abs(
            np.diagonal(F, axis1=1, axis2=2) - expected
        ).max(axis=1) / scale2
    report.record_block(_all_rows(margins), diags)


def _suite_mixed_decomposition(n, trials, seed, report):
    rng = np.random.default_rng(seed)
    samples, margins = [], []
    for _ in range(trials):
        A = symfun.symmetrize(rng.normal(0.0, 1.0, size=(n, n)))
        B = symfun.symmetrize(rng.normal(0.0, 1.0, size=(n, n)))
        k = int(rng.integers(1, n + 1))
        mixed = symfun.mixed_sym_all(A, B, k)
        weights = np.array([math.comb(k, i) for i in range(k + 1)])
        total = float((weights * mixed).sum())
        direct = symfun.matrix_sym(A + B, k)
        scale = float(np.abs(weights * mixed).sum()) + abs(direct)
        samples.append(A)
        margins.append(_rel_margin(total, direct, scale))
    report.record_block(_all_rows({"binomial_sum": np.array(margins)}), np.array(samples))


def _suite_euler(spec, trials, seed, report, rtol=1e-9):
    rng = np.random.default_rng(seed)
    n, k = spec.n, spec.k
    kept = 0
    proposals = 0
    accepted = []
    while kept < trials:
        # proposals are drawn one at a time, in the seeded order of a
        # per-sample loop, and tested as a block
        draws = [
            (rng.normal(0.0, 0.45, size=(n, n)), rng.uniform(0.3, 1.2))
            for _ in range(max(trials - kept, 64))
        ]
        Hs = symfun.symmetrize(np.array([raw for raw, _ in draws]))
        Hs += np.eye(n) * np.array([shift for _, shift in draws])[:, None, None]
        s = _kernels.elem_sym_all(lift.sum_spectrum_batch(Hs, spec.m), k)
        take = np.flatnonzero(_kernels.cone_margin(s, k) > 0.0)[: trials - kept]
        kept += take.size
        proposals += int(take[-1]) + 1 if kept == trials else len(draws)
        accepted.append((Hs[take], s[take, k]))
    Hs = np.concatenate([H for H, _ in accepted])
    sk = np.concatenate([v for _, v in accepted])
    F, _, _ = lift.gradient_batch(Hs, spec)
    lhs = (F * Hs).sum(axis=(1, 2))
    rhs = k * sk
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-30)
    report.record_block(
        _all_rows({"euler": rtol - np.abs(lhs - rhs) / scale}), Hs.reshape(trials, -1)
    )
    report.acceptance_rate = kept / proposals
    report.proposals = proposals


def _suite_spectral_lift(spec, trials, seed, report, atol=1e-9):
    rng = np.random.default_rng(seed)
    table = lift.subset_table(spec.n, spec.m)
    batch = rng.normal(0.0, 1.0, size=(trials, spec.n, spec.n))
    batch = (batch + batch.transpose(0, 2, 1)) / 2.0
    W = lift.lift_hessian_batch(batch, table)
    direct = np.sort(np.linalg.eigvalsh(W), axis=1)
    fast = np.sort(lift.sum_spectrum_batch(batch, spec.m), axis=1)
    devs = np.abs(direct - fast).max(axis=1)
    report.record_block(
        _all_rows({"spectral_lift": atol - devs}), batch.reshape(trials, -1)
    )


def run_suite(which, spec=None, trials=10_000, seed=0, l=None, delta=0.4,
              eps=0.15, L=1.0, n=None):
    """Run one named verification suite and return its SampleReport.

    ``spec`` supplies (n, m, k) where needed; plain-cone suites accept ``n``
    directly with spec.k as degree. Each suite checks its whole sample block
    in a few block calls.
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
    stats = {}

    def sample(count, mode, **kwargs):
        samples, report.acceptance_rate = sample_cone(
            spec, count, mode, seed=seed, stats=stats, **kwargs
        )
        report.proposals = stats["proposals"]
        return samples

    if which == "prop23":
        samples = _normalized_desc(sample(2 * trials, "gamma_k"))
        pairs = samples.reshape(trials, 2, dim)
        lam, partner = pairs[:, 0], pairs[:, 1]
        _record_blocks(report, lam, lambda rows: check_ordered_cone_inequalities(
            lam[rows], k, partner=partner[rows]))
        return report

    if which == "prop24":
        if l is None:
            l = max(1, k - 1)
        samples = _normalized_desc(sample(trials, "gamma_k"))
        _record_blocks(report, samples, lambda rows: check_maclaurin(samples[rows], k, l))
        return report

    if which == "prop25":
        samples = _normalized_desc(sample(trials, "prop25_hypotheses"))
        neg = np.argmin(samples, axis=1)
        _record_blocks(report, samples, lambda rows: check_negative_entry(
            samples[rows], k, neg[rows]))
        return report

    if which == "prop26":
        samples = sample(trials, "prop26_hypotheses", delta=delta, L=L)
        results = _record_blocks(report, samples, lambda rows: check_sum_lift_gradient_bounds(
            samples[rows], spec, delta, L))
        alt = np.concatenate([res["alt_band_only"] for res in results])
        alt_margin = np.concatenate([res["alt_partial_vs_sum"] for res in results])
        report.notes["alt_band_only_samples"] = int(alt.sum())
        report.notes["alt_band_violations"] = int((alt_margin[alt] < MARGIN_FLOOR).sum())
        return report

    if which == "prop27":
        samples = sample(trials, "prop27_hypotheses", delta=delta, eps=eps)
        samples = samples / np.abs(samples).max(axis=1, keepdims=True)
        _record_blocks(report, samples, lambda rows: check_large_entry_deletion(
            samples[rows], k, delta, eps))
        return report

    raise ConfigError(f"unknown suite {which!r}")
