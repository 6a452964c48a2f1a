"""Executable cone predicates: inequality checks with explicit constants,
rejection samplers for their hypothesis sets, and suite runners.

Suites are addressed by short ids (prop21..prop27, mixed, euler,
spectral-lift) shared with the CLI ``verify`` command. Margins are signed: a
check passes when every margin stays above ``MARGIN_FLOOR``; identity-style
suites store ``tolerance - relative_error`` so the same convention applies.
"""

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import _kernels, lift, symfun
from .errors import ConfigError, SamplerStarvationError

#: Strict inequalities are accepted down to this signed margin (roundoff guard).
MARGIN_FLOOR = -1e-12

#: Relative tolerance for the exact-identity suites.
IDENTITY_RTOL = 1e-12

_STARVATION_RATE = 1e-4
_STARVATION_MIN_PROPOSALS = 200_000

class Suite(NamedTuple):
    """A verification suite: the shape keys it reads, ``("n",)``,
    ``("n", "m")`` or ``("n", "m", "k")`` (a ConeSpec), and its constants
    with their defaults."""

    shape: tuple
    constants: dict = {}


_SPEC = ("n", "m", "k")
#: The suites ``run_suite`` runs. prop24's ``l`` defaults to max(1, k - 1);
#: the sampler mode ``propNN_hypotheses`` takes suite propNN's defaults.
SUITES = {
    "prop21": Suite(("n",)), "prop22": Suite(("n", "m")), "prop23": Suite(_SPEC),
    "prop24": Suite(_SPEC, {"l": None}), "prop25": Suite(_SPEC),
    "prop26": Suite(_SPEC, {"delta": 0.4, "L": 1.0}),
    "prop27": Suite(_SPEC, {"delta": 0.4, "eps": 0.15}),
    "mixed": Suite(("n",)), "euler": Suite(_SPEC), "spectral-lift": Suite(("n", "m")),
}


@dataclass(frozen=True)
class InequalityConstants:
    """The explicit constants entering the gradient-sum and deletion bounds."""

    n: int
    m: int
    k: int
    delta: float
    theta1: float
    theta2: float
    delta1: float

    @classmethod
    def for_problem(cls, n, m, k, delta):
        if delta <= 0:
            raise ValueError("delta must be positive")
        size = math.comb(n, m)
        # log-space: the factorial of binom(n, m) overflows quickly
        log_delta1 = k * math.log(delta) - math.lgamma(size + 1) - k * math.log(4.0)
        try:
            delta1 = math.exp(log_delta1)
            theta1 = math.exp((k - 1) * log_delta1)
            theta2 = math.exp(
                (k - 1) * math.log(delta)
                - (k * math.log(2.0) + (k - 1) * math.log(m) + 3 * math.log(size))
            )
        except OverflowError as exc:
            raise ConfigError(
                f"delta = {delta} is too large: its constants overflow a float"
            ) from exc
        return cls(n=n, m=m, k=k, delta=delta, theta1=theta1, theta2=theta2, delta1=delta1)


def deletion_constant(n, delta, eps):
    """The explicit factor bounding lower-degree values after deleting the
    dominant entry. Its formula divides by (n - 2)(n - 1), so n >= 3."""
    if n < 3:
        raise ValueError(f"need n >= 3 for the deletion constant, got n={n}")
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
        """The fields, an infinite one written as None."""
        return {key: None if isinstance(value, float) and math.isinf(value) else value
                for key, value in asdict(self).items()}


# ---------------------------------------------------------------------------
# block checks
#
# Every check_* takes an (N, n) block, one sample per row, and returns
# {"hypothesis": (N,) bool, "margins": {name: (N,) float}}; a margin a row
# does not have is +inf. Margins are computed only on the rows that meet the
# hypotheses, and a row's margins do not depend on the other rows: one sample
# is a (1, n) block. Checks and samplers take the cone hypothesis from
# ``_Block`` and the rest from the same helpers, so every sample a sampler
# emits meets its check's hypotheses.


def _pow(x, e):
    """Elementwise ``x ** e`` through the C library's pow, one value at a
    time: numpy's SIMD power loop can round differently in the last bit,
    and the margins must not depend on the block size."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        vals = [v ** e for v in x.ravel()]
    return np.array(vals, dtype=np.float64).reshape(x.shape)


class _Block:
    """Samples, hypothesis mask and margin columns of one check call.

    ``lifted`` holds each row's m-sums when ``m`` is given, else the row;
    ``s`` is its ``elem_sym_all`` table to degree k, and ``hypothesis``
    starts as strict degree-k cone membership of ``lifted``."""

    def __init__(self, values, k, m=None):
        block = np.asarray(values, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] < 1:
            raise ValueError(f"samples must be an (N, n) block, got shape {block.shape}")
        if not np.all(np.isfinite(block)):
            raise ValueError("spectrum entries must be finite")
        self.values = block
        self.lifted = block if m is None else lift.msums(block, m)
        width = self.lifted.shape[1]
        if not 1 <= k <= width:
            raise ValueError(f"degree k={k} out of range 1..{width}")
        self.s = _kernels.elem_sym_all(self.lifted, k)
        self.hypothesis = _kernels.cone_margin(self.s, k) > 0.0
        self.margins = {}

    def require(self, ok):
        """Keep only the rows where ``ok`` holds."""
        self.hypothesis &= ok

    def put(self, name, values, where=None):
        """Margin ``name`` on the hypothesis rows (or the rows ``where``)."""
        col = np.full(self.hypothesis.size, math.inf)
        col[self.hypothesis if where is None else where] = values
        self.margins[name] = col

    def result(self):
        return {"hypothesis": self.hypothesis, "margins": self.margins}


def _sorted_desc(block):
    """Rows sorted descending: one comparison per adjacent column pair."""
    ok = np.ones(block.shape[0], dtype=bool)
    for j in range(1, block.shape[1]):
        ok &= block[:, j - 1] >= block[:, j]
    return ok


def _has_negative(block):
    """Rows with an entry below 0: one comparison per column."""
    neg = block[:, 0] < 0.0
    for j in range(1, block.shape[1]):
        neg |= block[:, j] < 0.0
    return neg


def _in_band(lam_all, delta1, m, L):
    """Rows whose m-sums all lie in [-delta1 L, m L]: one comparison pair
    per column."""
    lo, hi = -delta1 * L, m * L
    ok = (lam_all[:, 0] >= lo) & (lam_all[:, 0] <= hi)
    for j in range(1, lam_all.shape[1]):
        ok &= (lam_all[:, j] >= lo) & (lam_all[:, j] <= hi)
    return ok


def _dominant_entry(v, delta, eps):
    """Rows with a descending tail v[1:], a positive first entry of at least
    delta v[1], and a last entry of at most -eps v[0]."""
    return (_sorted_desc(v[:, 1:]) & (v[:, 0] > 0) & (v[:, 0] >= delta * v[:, 1])
            & (v[:, -1] <= -eps * v[:, 0]))


def check_ordered_cone_inequalities(lam, k, partner=None):
    """Deleted-value ordering, leading-entry positivity, the weighted lower
    bound, and (optionally) midpoint concavity of S_k^(1/k) toward ``partner``."""
    blk = _Block(lam, k)
    n = blk.values.shape[1]
    nu = None if partner is None else _Block(partner, k)
    if nu is not None and nu.values.shape != blk.values.shape:
        raise ValueError("partner block must match the sample block")
    blk.require(_sorted_desc(blk.values))
    h = blk.hypothesis
    lam, sk = blk.values[h], blk.s[h, k]
    deleted = _kernels.deleted_sym(lam, k - 1)
    blk.put("deleted_order", np.diff(deleted, axis=1).min(axis=1) if n > 1 else 0.0)
    blk.put("deleted_positive", deleted[:, 0])
    blk.put("leading_positive", lam[:, k - 1])
    blk.put("weighted_lower", lam[:, 0] * deleted[:, 0] - (k / n) * sk)
    if nu is not None:
        both = h & nu.hypothesis
        pair = both[h]
        mid_s = _kernels.elem_sym_all((lam[pair] + nu.values[both]) / 2.0, k)[:, k]
        mid = _pow(mid_s, 1.0 / k)
        ends = (_pow(sk[pair], 1.0 / k) + _pow(nu.s[both, k], 1.0 / k)) / 2.0
        blk.put("midpoint_concavity", mid - ends, where=both)
    return blk.result()


def check_maclaurin(lam, k, l):
    """Normalized power-mean ordering between degrees l < k, and the lower
    bound on the gradient sum of S_k^(1/k)."""
    if not 1 <= l < k:
        raise ValueError("need 1 <= l < k")
    blk = _Block(lam, k)
    n = blk.values.shape[1]
    h = blk.hypothesis
    sk = blk.s[h, k]
    lhs = _pow(sk / math.comb(n, k), 1.0 / k)
    rhs = _pow(blk.s[h, l] / math.comb(n, l), 1.0 / l)
    deleted = _kernels.deleted_sym(blk.values[h], k - 1)
    grad_sum = (1.0 / k) * _pow(sk, 1.0 / k - 1.0) * deleted.sum(axis=1)
    blk.put("ratio_order", rhs - lhs)
    blk.put("gradient_sum", grad_sum - math.comb(n, k) ** (1.0 / k))
    return blk.result()


def check_negative_entry(lam, k, neg_index):
    """With one designated negative entry: its partial derivative dominates
    the average, and the gradient sum dominates a power of the entry.

    ``neg_index`` is one position for every row or one per row."""
    blk = _Block(lam, k)
    rows, n = blk.values.shape
    idx = np.broadcast_to(np.asarray(neg_index), (rows,))
    if np.any((idx < 0) | (idx >= n)):
        raise ValueError("neg_index out of range")
    entry = blk.values[np.arange(rows), idx]
    blk.require(entry < 0)
    h = blk.hypothesis
    deleted = _kernels.deleted_sym(blk.values[h], k - 1)
    total = deleted.sum(axis=1)
    own = deleted[np.arange(total.size), idx[h]]
    blk.put("dominates_average", own - total / (n - k + 1))
    blk.put("power_lower", total - _pow(-entry[h], k - 1))
    return blk.result()


def _check_lift_degree(spec):
    """The sum-lift bound's degree range 2 <= k <= (n-m)/n * binom(n, m)."""
    n, m, k = spec.n, spec.m, spec.k
    top = (n - m) / n * spec.size
    if not 2 <= k <= top:
        raise ConfigError(
            f"no valid degree: need 2 <= k <= (n-m)/n * binom(n,m) = {top:g}, got k={k}"
        )


def check_sum_lift_gradient_bounds(mu, spec, delta, L=1.0):
    """Lower bounds on the gradient sum of S_k over the m-sum spectrum, and
    on each single partial relative to the sum, with explicit constants."""
    n, m, k = spec.n, spec.m, spec.k
    _check_lift_degree(spec)
    mu = np.asarray(mu, dtype=np.float64)
    if mu.ndim == 2 and mu.shape[1] != n:
        raise ValueError("spectrum length must equal n")
    blk = _Block(mu, k, m)
    consts = InequalityConstants.for_problem(n, m, k, delta)
    blk.require(_sorted_desc(blk.values))
    blk.require(blk.values[:, -1] < -delta * L)
    h = blk.hypothesis
    deleted = _kernels.deleted_sym(blk.lifted[h], k - 1)
    total = deleted.sum(axis=1)
    blk.put("gradient_sum", total - consts.theta1 * L ** (k - 1))
    band = h & _in_band(blk.lifted, consts.delta1, m, L)
    partial = deleted.min(axis=1) - consts.theta2 * total
    blk.put("partial_vs_sum", partial[band[h]], where=band)
    return blk.result()


def check_large_entry_deletion(lam, k, delta, eps):
    """Deletion of a dominant positive entry keeps every lower-degree value
    within the explicit factor c0, given a sufficiently negative tail."""
    if k < 2:
        raise ValueError("need k >= 2")
    blk = _Block(lam, k)
    c0 = deletion_constant(blk.values.shape[1], delta, eps)
    blk.require(_dominant_entry(blk.values, delta, eps))
    h = blk.hypothesis
    zeroed = blk.values[h].copy()
    zeroed[:, 0] = 0.0
    margins = _kernels.elem_sym_all(zeroed, k - 1) - c0 * blk.s[h, :k]
    blk.put("deletion_factor", margins.min(axis=1))
    return blk.result()


# ---------------------------------------------------------------------------
# samplers


def _rejection(rng, propose, accept, count, stats, rows=lambda need: 4096):
    """The first ``count`` proposals ``accept`` passes, drawn in blocks of
    ``rows(need)`` while ``need`` samples are missing; error out on
    starvation. The proposal count, to ``stats["proposals"]`` when ``stats``
    is a dict, stops at the last sample taken."""
    out = []
    kept = 0
    proposals = 0
    while kept < count:
        block = propose(rng, rows(count - kept))
        take = np.flatnonzero(accept(block))[: count - kept]
        out.append(block[take])
        kept += take.size
        proposals += int(take[-1]) + 1 if kept == count else block.shape[0]
        rate = kept / proposals
        if proposals >= _STARVATION_MIN_PROPOSALS and rate < _STARVATION_RATE:
            raise SamplerStarvationError(
                f"sampler acceptance rate {rate:.2e} below {_STARVATION_RATE:.0e}",
                acceptance_rate=rate,
                proposals=proposals,
            )
    if stats is not None:
        stats["proposals"] = proposals
    return np.concatenate(out), kept / proposals


def _constants(suite, given):
    """The constants of ``suite``: its defaults in ``SUITES`` (none for a
    name not there) updated by ``given``. ConfigError for a constant the
    suite does not read."""
    defaults = SUITES[suite].constants if suite in SUITES else {}
    unread = sorted(given.keys() - defaults.keys())
    if unread:
        raise ConfigError(f"{suite} does not read {unread}")
    return {**defaults, **given}


def sample_cone(spec, count, mode, seed=0, stats=None, **constants):
    """Rejection-sample spectra satisfying the requested hypothesis set.

    Modes: ``gamma_k`` (length-n spectra in the degree-k cone),
    ``prop25_hypotheses``, ``prop26_hypotheses`` (constants ``delta`` and
    ``L``), ``prop27_hypotheses`` (``delta`` and ``eps``); a constant left
    out takes its suite's default from ``SUITES``.
    Returns (samples, acceptance_rate); every emitted sample re-verifies its
    hypotheses. When ``stats`` is a dict, the proposal count up to the last
    sample taken goes to its ``proposals``.
    """
    rng = np.random.default_rng(seed)
    n, m, k = spec.n, spec.m, spec.k
    constants = _constants(mode.removesuffix("_hypotheses"), constants)
    if count == 0:
        if stats is not None:
            stats["proposals"] = 0
        return np.empty((0, n)), 1.0

    if mode == "gamma_k":
        if k > n:
            raise ConfigError(f"gamma_k mode needs k <= n, got k={k}, n={n}")

        def propose(rng, b):
            return rng.normal(0.55, 1.0, size=(b, n))

        def accept(blk):
            return _Block(blk, k).hypothesis

    elif mode == "prop25_hypotheses":
        if k > n - 1:
            raise ConfigError(
                "negative-entry hypotheses are empty for k = n "
                "(the degree-n cone is the positive orthant)"
            )

        def propose(rng, b):
            return rng.normal(0.35, 1.0, size=(b, n))

        def accept(blk):
            return _Block(blk, k).hypothesis & _has_negative(blk)

    elif mode == "prop26_hypotheses":
        _check_lift_degree(spec)
        delta, L = constants["delta"], constants["L"]
        consts = InequalityConstants.for_problem(n, m, k, delta)

        def propose(rng, b):
            top = rng.uniform(0.35 * L, 0.75 * L, size=(b, n - 2))
            mid = rng.uniform(1.45 * delta * L, 2.2 * delta * L, size=(b, 1))
            low = -delta * L * (1.0 + 0.2 * rng.uniform(0.0, 1.0, size=(b, 1)))
            blk = np.concatenate([top, mid, low], axis=1)
            return -np.sort(-blk, axis=1)

        def accept(blk):
            cone = _Block(blk, k, m)
            return (cone.hypothesis & (blk[:, -1] < -delta * L)
                    & _in_band(cone.lifted, consts.delta1, m, L))

    elif mode == "prop27_hypotheses":
        if k > n - 1:
            raise ConfigError("hypotheses need a negative entry, impossible for k = n")
        delta, eps = constants["delta"], constants["eps"]

        def propose(rng, b):
            head = 0.5 + np.abs(rng.normal(1.0, 0.5, size=(b, 1)))
            midraw = rng.normal(0.35, 0.5, size=(b, n - 2))
            mid = -np.sort(-midraw, axis=1)
            tail = -eps * head * (1.0 + np.abs(rng.normal(0.0, 0.6, size=(b, 1))))
            return np.concatenate([head, mid, tail], axis=1)

        def accept(blk):
            return _Block(blk, k).hypothesis & _dominant_entry(blk, delta, eps)

    else:
        raise ConfigError(f"unknown sampler mode {mode!r}")
    return _rejection(rng, propose, accept, count, stats)


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
#: (deleted_sym keeps a (C + 1) x k x rows table), so this bounds a suite's
#: memory whatever ``trials`` is.
_CHECK_ROWS = 4096


def _record_blocks(report, samples, check):
    """Record ``check(rows)`` for consecutive row slices of ``samples``, in
    order; each block's result is dropped once recorded."""
    for start in range(0, len(samples), _CHECK_ROWS):
        rows = slice(start, start + _CHECK_ROWS)
        report.record_block(check(rows), samples[rows])


def _all_rows(margins):
    """Block result whose every row meets the hypotheses."""
    rows = len(next(iter(margins.values())))
    return {"hypothesis": np.ones(rows, dtype=bool), "margins": margins}


def _suite_partition_identities(n, trials, seed, report):
    rng = np.random.default_rng(seed)
    lams = rng.normal(0.0, 1.0, size=(trials, n))
    # one index per (sample, degree); the array draw takes the same stream
    # as one scalar rng.integers(n) per entry in row order
    picks = rng.integers(n, size=(trials, n))

    def check(rows):
        lam, pick = lams[rows], picks[rows]
        s = _kernels.elem_sym_all(lam, n)
        deleted = [_kernels.deleted_sym(lam, degree) for degree in range(n + 1)]
        idx = np.arange(len(lam))
        margins = {}
        for k in range(1, n + 1):
            deleted_k, deleted_km1 = deleted[k], deleted[k - 1]
            i = pick[:, k - 1]
            sk = s[:, k]
            lhs = deleted_k[idx, i] + lam[idx, i] * deleted_km1[idx, i]
            scale = (np.abs(deleted_k[idx, i]) + np.abs(lam[idx, i] * deleted_km1[idx, i])
                     + np.abs(sk))
            margins[f"split_k{k}"] = _rel_margin(lhs, sk, scale)
            weighted = lam * deleted_km1
            margins[f"weighted_k{k}"] = _rel_margin(
                weighted.sum(axis=1), k * sk, np.abs(weighted).sum(axis=1) + np.abs(k * sk)
            )
            margins[f"sum_k{k}"] = _rel_margin(
                deleted_k.sum(axis=1), (n - k) * sk,
                np.abs(deleted_k).sum(axis=1) + np.abs((n - k) * sk),
            )
        return _all_rows(margins)

    _record_blocks(report, lams, check)


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
        expected = lift.msum_weights(diags[sel], m, kk)
        F, _ = lift.gradient_batch(mats[sel], lift.ConeSpec(n, m, int(kk)))
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
        # S_k(A + tB) at t = 1/2: at t = 1, one of mixed_sym_all's nodes, the
        # binomial sum reproduces its sample whatever the entries' degrees
        weights = np.array([math.comb(k, i) * 0.5**i for i in range(k + 1)])
        total = float((weights * mixed).sum())
        direct = symfun.matrix_sym(A + 0.5 * B, k)
        scale = float(np.abs(weights * mixed).sum()) + abs(direct)
        samples.append(A)
        margins.append(_rel_margin(total, direct, scale))
    report.record_block(_all_rows({"binomial_sum": np.array(margins)}), np.array(samples))


def _suite_euler(spec, trials, seed, report):
    n, m, k = spec.n, spec.m, spec.k

    def propose(rng, rows):
        # proposals are drawn one at a time, in the seeded order of a
        # per-sample loop, and tested as a block
        draws = [(rng.normal(0.0, 0.45, size=(n, n)), rng.uniform(0.3, 1.2))
                 for _ in range(rows)]
        Hs = symfun.symmetrize(np.array([raw for raw, _ in draws]))
        return Hs + np.eye(n) * np.array([shift for _, shift in draws])[:, None, None]

    def admissible(Hs):
        return _Block(lift.sum_spectrum(Hs, m), k)

    stats = {}
    Hs, report.acceptance_rate = _rejection(
        np.random.default_rng(seed), propose, lambda Hs: admissible(Hs).hypothesis,
        trials, stats, rows=lambda need: max(need, 64),
    )
    report.proposals = stats["proposals"]
    F, _ = lift.gradient_batch(Hs, spec)
    lhs = (F * Hs).sum(axis=(1, 2))
    rhs = k * admissible(Hs).s[:, k]
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-30)
    report.record_block(
        _all_rows({"euler": 1e-9 - np.abs(lhs - rhs) / scale}), Hs.reshape(trials, -1)
    )


def _suite_spectral_lift(n, m, trials, seed, report):
    rng = np.random.default_rng(seed)
    table = lift.subset_table(n, m)
    batch = rng.normal(0.0, 1.0, size=(trials, n, n))
    batch = (batch + batch.transpose(0, 2, 1)) / 2.0
    W = lift.lift_hessian_batch(batch, table)
    direct = np.sort(np.linalg.eigvalsh(W), axis=1)
    fast = np.sort(lift.sum_spectrum(batch, m), axis=1)
    devs = np.abs(direct - fast).max(axis=1)
    report.record_block(
        _all_rows({"spectral_lift": 1e-9 - devs}), batch.reshape(trials, -1)
    )


def run_suite(which, spec=None, trials=10_000, seed=0, n=None, m=None, **constants):
    """Run one named verification suite and return its SampleReport.

    The suite's ``SUITES`` shape says what it reads: a suite of shape
    ``n`` (prop21, mixed) takes ``n``, 5 when it is left out; one of shape
    ``n, m`` (prop22, spectral-lift) takes ``n`` and ``m``; the others take
    ``spec`` alone. ``constants`` are the suite's own (``SUITES``), at their
    defaults when left out. Each suite checks its whole sample block in a
    few block calls. A shape argument or constant the suite does not read,
    a ``trials`` below 1, an ``n`` below 1, a shape out of range, an ``l``
    outside 1..k-1, or a ``delta``, ``eps`` or ``L`` that is not positive
    and finite raises ConfigError before any sampling.
    """
    if which not in SUITES:
        raise ConfigError(f"unknown suite {which!r}")
    constants = _constants(which, constants)
    shape = SUITES[which].shape
    given = {key for key, value in (("spec", spec), ("n", n), ("m", m)) if value is not None}
    unread = sorted(given - ({"spec"} if shape == _SPEC else set(shape)))
    if unread:
        raise ConfigError(f"{which} does not read {unread}")
    if trials < 1:
        raise ConfigError(f"need trials >= 1, got trials={trials}")
    report = SampleReport(suite=which)
    if shape == ("n",):
        n = 5 if n is None else n
        if n < 1:
            raise ConfigError(f"need n >= 1, got n={n}")
        run = _suite_partition_identities if which == "prop21" else _suite_mixed_decomposition
        run(n, trials, seed, report)
        return report
    if shape == ("n", "m"):
        if n is None or m is None:
            raise ConfigError(f"{which} needs n and m")
        try:
            lift.check_shape(n, m)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        run = _suite_diagonal_gradient if which == "prop22" else _suite_spectral_lift
        run(n, m, trials, seed, report)
        return report

    if spec is None:
        raise ConfigError(f"suite {which!r} needs a ConeSpec")
    if which == "euler":
        _suite_euler(spec, trials, seed, report)
        return report
    dim, k = spec.n, spec.k
    for key in ("delta", "eps", "L"):
        # NaN fails every comparison, so the chain rejects it too
        if key in constants and not 0 < constants[key] < math.inf:
            raise ConfigError(f"need finite {key} > 0, got {key}={constants[key]}")
    stats = {}

    def sample(count, mode, **given):
        samples, report.acceptance_rate = sample_cone(
            spec, count, mode, seed=seed, stats=stats, **given
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
        l = max(1, k - 1) if constants["l"] is None else constants["l"]
        if not 1 <= l < k:
            raise ConfigError(f"prop24 needs 1 <= l < k, got l={l}, k={k}")
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
        delta, L = constants["delta"], constants["L"]
        samples = sample(trials, "prop26_hypotheses", **constants)
        _record_blocks(report, samples, lambda rows: check_sum_lift_gradient_bounds(
            samples[rows], spec, delta, L))
        return report

    delta, eps = constants["delta"], constants["eps"]
    samples = sample(trials, "prop27_hypotheses", **constants)
    samples = samples / np.abs(samples).max(axis=1, keepdims=True)
    _record_blocks(report, samples, lambda rows: check_large_entry_deletion(
        samples[rows], k, delta, eps))
    return report
