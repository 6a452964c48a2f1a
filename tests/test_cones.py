import itertools
import json
import math

import numpy as np
import pytest

from sumhess import _kernels, cones, symfun
from sumhess.cones import InequalityConstants, MARGIN_FLOOR
from sumhess.errors import ConfigError
from sumhess.lift import ConeSpec
from oracles import deleted_sym_enum, partition_identities_whole, record_sample


def test_constants_examples():
    c = InequalityConstants.for_problem(4, 2, 2, delta=0.4)
    fact = math.factorial(6)
    assert c.delta1 == pytest.approx(0.4**2 / (fact * 16), rel=1e-12)
    assert c.theta1 == pytest.approx(c.delta1, rel=1e-12)  # exponent k-1 = 1
    assert c.theta2 == pytest.approx(0.4 / (4 * 2 * 6**3), rel=1e-12)
    assert cones.deletion_constant(3, 1.0, 0.1) == pytest.approx(0.00125)


def test_ordered_inequalities_examples():
    # one sample is a (1, n) block; its margins are entry 0 of each column
    res = cones.check_ordered_cone_inequalities([[3.0, 2.0, 1.0]], 2)
    assert res["hypothesis"][0]
    assert res["margins"]["deleted_positive"][0] == pytest.approx(3.0)
    deleted = _kernels.deleted_sym(np.array([3.0, 2.0, 1.0]), 1)
    assert deleted.tolist() == [3.0, 4.0, 5.0]
    # symmetric point: the weighted lower bound is tight
    res = cones.check_ordered_cone_inequalities([[1.0, 1.0, 1.0]], 2)
    assert res["margins"]["weighted_lower"][0] == pytest.approx(0.0, abs=1e-14)
    # degenerate midpoint segment
    res = cones.check_ordered_cone_inequalities(
        [[1.0, 1.0, 1.0]], 2, partner=[[1.0, 1.0, 1.0]]
    )
    assert res["margins"]["midpoint_concavity"][0] == pytest.approx(0.0, abs=1e-14)
    # unsorted input misses the hypotheses; it is not a failure
    res = cones.check_ordered_cone_inequalities([[1.0, 2.0, 3.0]], 2)
    assert not res["hypothesis"][0]


@pytest.mark.parametrize("samples", [[1.0, 2.0, 3.0], [[[1.0, 2.0, 3.0]]], np.zeros((2, 0))],
                         ids=["one-sample-1d", "3d", "no-entries"])
def test_checks_take_only_sample_blocks(samples):
    with pytest.raises(ValueError, match=r"\(N, n\) block"):
        cones.check_maclaurin(samples, 2, 1)


def test_maclaurin_examples():
    res = cones.check_maclaurin([[1.0, 1.0, 1.0]], 2, 1)
    assert res["margins"]["ratio_order"][0] == pytest.approx(0.0, abs=1e-14)
    assert res["margins"]["gradient_sum"][0] == pytest.approx(0.0, abs=1e-12)
    res = cones.check_maclaurin([[3.0, 2.0, 1.0]], 2, 1)
    assert res["margins"]["ratio_order"][0] == pytest.approx(
        2.0 - math.sqrt(11.0 / 3.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        cones.check_maclaurin([[1.0, 1.0, 1.0]], 2, 0)


def test_negative_entry_example():
    lam = [[3.0, 3.0, -1.0]]
    res = cones.check_negative_entry(lam, 2, 2)
    assert res["hypothesis"][0]
    assert res["margins"]["dominates_average"][0] == pytest.approx(6.0 - 10.0 / 2.0)
    assert res["margins"]["power_lower"][0] == pytest.approx(10.0 - 1.0)
    # degree one: every deleted value is 1, the average bound is tight
    res = cones.check_negative_entry([[3.0, -0.1, -0.2]], 1, 1)
    assert res["margins"]["dominates_average"][0] == pytest.approx(0.0, abs=1e-14)
    assert res["margins"]["power_lower"][0] == pytest.approx(2.0)  # n - 1 = 2 >= 1
    res = cones.check_negative_entry([[1.0, 1.0, 1.0]], 2, 0)
    assert not res["hypothesis"][0]


def test_sum_lift_bounds_example():
    spec = ConeSpec(4, 2, 2)
    res = cones.check_sum_lift_gradient_bounds(
        [[1.0, 1.0, 1.0, -0.5]], spec, delta=0.4, L=1.0
    )
    assert res["hypothesis"][0]
    assert res["margins"]["gradient_sum"][0] > 0
    assert res["margins"]["partial_vs_sum"][0] > 0


def test_sum_lift_bounds_range_error():
    spec = ConeSpec(3, 2, 2)
    with pytest.raises(ConfigError):
        cones.check_sum_lift_gradient_bounds([[1.0, 1.0, -0.5]], spec, delta=0.4)


@pytest.mark.parametrize("spec", [ConeSpec(3, 2, 2), ConeSpec(4, 2, 4), ConeSpec(5, 2, 1)],
                         ids=["k-above-top", "k-above-top-4", "k-below-2"])
def test_sum_lift_degree_rule_is_shared(spec):
    # the block check and the prop26 sampler reject a degree with one message
    with pytest.raises(ConfigError) as check:
        cones.check_sum_lift_gradient_bounds(np.ones((1, spec.n)), spec, delta=0.4)
    with pytest.raises(ConfigError) as sampler:
        cones.sample_cone(spec, 10, "prop26_hypotheses", seed=1)
    assert str(check.value) == str(sampler.value)
    assert str(check.value).startswith("no valid degree: need 2 <= k <= (n-m)/n * binom(n,m)")


@pytest.mark.parametrize("e", [1.0 / 3.0, 1.0 / 3.0 - 1.0], ids=["1/3", "1/k-1"])
def test_pow_rounds_as_scalar_pow(e):
    # numpy's vectorized power differs from the scalar pow in the last bit
    # on about 5% of these values; the margins must round as one value does
    x = np.random.default_rng(5).uniform(0.0, 4.0, 20_000)
    expected = np.array([v ** e for v in x])
    assert np.array_equal(cones._pow(x, e).view(np.uint64), expected.view(np.uint64))


def test_sum_lift_scaling():
    # both sides of the gradient-sum bound scale as L^(k-1)
    spec = ConeSpec(4, 2, 2)
    mu = np.array([[0.7, 0.7, 0.65, -0.45]])
    res1 = cones.check_sum_lift_gradient_bounds(mu, spec, delta=0.4, L=1.0)
    for c in (0.5, 2.0, 10.0):
        res = cones.check_sum_lift_gradient_bounds(c * mu, spec, delta=0.4, L=c)
        ratio = res["margins"]["gradient_sum"][0] / res1["margins"]["gradient_sum"][0]
        assert ratio == pytest.approx(c ** (spec.k - 1), rel=1e-9)


def test_deletion_needs_three_entries():
    # the deletion constant divides by (n - 2)(n - 1)
    with pytest.raises(ValueError, match="need n >= 3"):
        cones.deletion_constant(2, 0.4, 0.15)
    with pytest.raises(ValueError, match="need n >= 3"):
        cones.check_large_entry_deletion([[1.0, -0.2], [1.0, -0.5]], 2, delta=0.4, eps=0.15)


def test_large_entry_deletion_example():
    res = cones.check_large_entry_deletion([[1.0, 1.0, -0.1]], 2, delta=1.0, eps=0.1)
    assert res["hypothesis"][0]
    c0 = cones.deletion_constant(3, 1.0, 0.1)
    assert res["margins"]["deletion_factor"][0] == pytest.approx(
        min(1.0 - c0, 0.9 - c0 * 1.9), rel=1e-12
    )
    res = cones.check_large_entry_deletion([[1.0, 1.0, 1.0]], 2, delta=1.0, eps=0.1)
    assert not res["hypothesis"][0]


def test_homogeneity_of_margins():
    lam = np.array([[2.0, 1.0, 0.5, -0.3]])
    base = cones.check_ordered_cone_inequalities(lam, 2)["margins"]
    for c in (0.5, 2.0, 10.0):
        res = cones.check_ordered_cone_inequalities(c * lam, 2)["margins"]
        # S_{k-1}-type margins scale as c^(k-1), S_k-type as c^k
        assert res["deleted_positive"][0] == pytest.approx(
            c * base["deleted_positive"][0], rel=1e-12
        )
        assert res["weighted_lower"][0] == pytest.approx(
            c**2 * base["weighted_lower"][0], rel=1e-9, abs=1e-12
        )


def test_samplers_satisfy_hypotheses():
    # every sample a mode emits meets its check's whole hypothesis mask
    for spec, seed in itertools.product([ConeSpec(5, 2, 3), ConeSpec(4, 2, 2)], [1, 11]):
        n, k = spec.n, spec.k
        samples, rate = cones.sample_cone(spec, 200, "gamma_k", seed=seed)
        assert rate > 0.01 and samples.shape == (200, n)
        assert cones.check_maclaurin(samples, k, k - 1)["hypothesis"].all()
        samples, _ = cones.sample_cone(spec, 100, "prop25_hypotheses", seed=seed + 2)
        assert (samples.min(axis=1) < 0).all()
        res = cones.check_negative_entry(samples, k, np.argmin(samples, axis=1))
        assert res["hypothesis"].all()
        samples, _ = cones.sample_cone(spec, 100, "prop26_hypotheses", seed=seed + 3,
                                       delta=0.4)
        assert (samples[:, -1] < -0.4).all()
        res = cones.check_sum_lift_gradient_bounds(samples, spec, 0.4)
        assert res["hypothesis"].all()
        # every row lies in the band, so each has a partial_vs_sum margin
        assert np.isfinite(res["margins"]["partial_vs_sum"]).all()
        samples, _ = cones.sample_cone(
            spec, 100, "prop27_hypotheses", seed=seed + 4, delta=0.5, eps=0.15
        )
        assert (samples[:, -1] <= -0.15 * samples[:, 0]).all()
        assert cones.check_large_entry_deletion(samples, k, 0.5, 0.15)["hypothesis"].all()


def test_sampler_positive_orthant_limit():
    spec = ConeSpec(4, 2, 4)
    samples, _ = cones.sample_cone(spec, 100, "gamma_k", seed=7)
    assert (samples > 0).all()  # degree-n cone is the positive orthant
    empty, rate = cones.sample_cone(spec, 0, "gamma_k", seed=7)
    assert empty.shape[0] == 0 and rate == 1.0


def test_sampler_starvation():
    # a sampler whose proposals are all rejected must error out with
    # diagnostics instead of spinning forever
    from sumhess.errors import SamplerStarvationError

    rng = np.random.default_rng(0)
    with pytest.raises(SamplerStarvationError) as info:
        cones._rejection(
            rng, lambda rng, b: rng.normal(size=(b, 4)),
            lambda blk: np.zeros(blk.shape[0], dtype=bool), 10, None,
        )
    assert info.value.acceptance_rate < 1e-4
    assert info.value.proposals >= 200_000


@pytest.mark.parametrize("rows", [None, 4], ids=["4096-row", "4-row"])
def test_rejection_counts_proposals_up_to_the_last_sample(rows):
    # every third proposal (2, 5, 8, ...) is accepted: five samples take 15
    # proposals whatever the block size
    stream = itertools.count()

    def propose(rng, b):
        return np.array([[next(stream)] for _ in range(b)], dtype=np.float64)

    stats = {}
    kwargs = {} if rows is None else {"rows": lambda need: rows}
    samples, rate = cones._rejection(
        None, propose, lambda blk: blk[:, 0] % 3 == 2, 5, stats, **kwargs
    )
    assert samples[:, 0].tolist() == [2, 5, 8, 11, 14]
    assert stats["proposals"] == 15 and rate == 5 / 15


def test_sampler_impossible_modes():
    with pytest.raises(ConfigError):
        cones.sample_cone(ConeSpec(4, 2, 4), 10, "prop25_hypotheses", seed=1)
    with pytest.raises(ConfigError):
        cones.sample_cone(ConeSpec(3, 2, 2), 10, "prop26_hypotheses", seed=1)
    with pytest.raises(ConfigError):
        cones.sample_cone(ConeSpec(5, 2, 3), 10, "bogus", seed=1)


def test_oracle_equivalence_inside_checks():
    # deleted values used by the checks match explicit enumeration
    rng = np.random.default_rng(11)
    for n in (3, 4, 5):
        for _ in range(20):
            lam = rng.normal(0.5, 1.0, size=n)
            k = int(rng.integers(1, n + 1))
            table = _kernels.deleted_sym(lam, k - 1)
            for i in range(n):
                ref = deleted_sym_enum(lam, k - 1, i)
                scale = max(abs(ref), 1.0)
                assert abs(table[i] - ref) / scale < 1e-12


@pytest.mark.parametrize(
    "which,spec,kwargs",
    [
        ("prop23", ConeSpec(5, 2, 3), {}),
        ("prop24", ConeSpec(5, 2, 3), {"l": 1}),
        ("prop25", ConeSpec(5, 2, 3), {}),
        ("prop26", ConeSpec(4, 2, 2), {"delta": 0.4}),
        ("prop27", ConeSpec(6, 2, 3), {"delta": 0.5, "eps": 0.15}),
    ],
)
def test_suites_small_runs(which, spec, kwargs):
    report = cones.run_suite(which, spec=spec, trials=300, seed=42, **kwargs)
    assert report.passed, report.as_dict()
    assert report.hypothesis_hits == 300
    assert report.worst_margin > MARGIN_FLOOR


def test_suite_sweep_across_shapes():
    # lighter-weight sweep over more cone shapes; the acceptance suite runs
    # the deep 10^4-sample versions
    trials = 400
    combos = []
    for n in (4, 5, 6):
        for k in range(2, n + 1):
            combos.append(("prop23", ConeSpec(n, 2, k), {}))
            combos.append(("prop24", ConeSpec(n, 2, k), {"l": k - 1}))
            if k <= n - 1:
                combos.append(("prop25", ConeSpec(n, 2, k), {}))
    for n, m, k in [(4, 2, 3), (5, 2, 4), (5, 3, 3), (6, 2, 5), (6, 3, 6), (6, 4, 4)]:
        combos.append(("prop26", ConeSpec(n, m, k), {"delta": 0.4}))
    for n, k in [(4, 2), (5, 3), (6, 3), (6, 4)]:
        combos.append(("prop27", ConeSpec(n, 2, k), {"delta": 0.5, "eps": 0.12}))
    for which, spec, kwargs in combos:
        report = cones.run_suite(which, spec=spec, trials=trials, seed=1234, **kwargs)
        assert report.violations == 0, (which, spec, report.as_dict())
        assert report.hypothesis_hits == trials


def test_identity_suites_small_runs():
    report = cones.run_suite("prop21", n=6, trials=200, seed=1)
    assert report.passed, report.as_dict()
    report = cones.run_suite("prop22", spec=ConeSpec(5, 2, 3), trials=100, seed=2)
    assert report.passed, report.as_dict()
    report = cones.run_suite("mixed", n=4, trials=50, seed=3)
    assert report.passed, report.as_dict()


def test_mixed_suite_fails_mixed_values_on_reversed_degrees(monkeypatch):
    # at t = 1, one of mixed_sym_all's interpolation nodes, the binomial sum
    # of the reversed vector still reproduces S_k(A + B); at t = 1/2 it cannot
    correct = symfun.mixed_sym_all
    monkeypatch.setattr(symfun, "mixed_sym_all", lambda a, b, k: correct(a, b, k)[::-1])
    report = cones.run_suite("mixed", n=5, trials=50, seed=0)
    assert not report.passed
    assert report.violations == 50


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", [1, 5])
def test_prop21_slices_report_as_one_block(monkeypatch, seed, n):
    # slices of 7 rows: 60 trials take nine check calls, the last one short
    monkeypatch.setattr(cones, "_CHECK_ROWS", 7)
    report = cones.run_suite("prop21", n=n, trials=60, seed=seed)
    whole = partition_identities_whole(n, 60, seed)
    assert json.dumps(report.as_dict()) == json.dumps(whole.as_dict())


def test_prop26_slices_report_as_one_block(monkeypatch):
    spec = ConeSpec(4, 2, 2)
    whole = cones.run_suite("prop26", spec, trials=60, seed=3, delta=0.4)
    # slices of 7 rows: nine check calls, the last one short
    monkeypatch.setattr(cones, "_CHECK_ROWS", 7)
    sliced = cones.run_suite("prop26", spec, trials=60, seed=3, delta=0.4)
    assert json.dumps(sliced.as_dict()) == json.dumps(whole.as_dict())


def test_euler_and_spectral_lift_suites():
    report = cones.run_suite("euler", spec=ConeSpec(4, 2, 3), trials=100, seed=4)
    assert report.passed, report.as_dict()
    # the count a per-sample euler loop reported, up to its last sample
    report = cones.run_suite("euler", spec=ConeSpec(4, 2, 3), trials=2000, seed=0)
    assert report.proposals == 2238
    assert report.acceptance_rate == 0.8936550491510277
    report = cones.run_suite(
        "spectral-lift", spec=ConeSpec(5, 2, 3), trials=200, seed=5
    )
    assert report.passed, report.as_dict()


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize(
    "which,spec,kwargs",
    [
        ("prop21", None, {"n": 4}),
        ("prop22", ConeSpec(5, 2, 3), {}),
        ("prop23", ConeSpec(5, 2, 3), {}),
        ("prop24", ConeSpec(5, 2, 3), {"l": 1}),
        ("prop25", ConeSpec(5, 2, 3), {}),
        ("prop26", ConeSpec(4, 2, 2), {}),
        ("prop27", ConeSpec(6, 2, 3), {"delta": 0.5}),
        ("mixed", None, {"n": 4}),
        ("euler", ConeSpec(4, 2, 3), {}),
        ("spectral-lift", ConeSpec(5, 2, 3), {}),
    ],
)
def test_suites_reject_fewer_than_one_trial(which, spec, kwargs, trials):
    with pytest.raises(ConfigError, match=f"need trials >= 1, got trials={trials}"):
        cones.run_suite(which, spec=spec, trials=trials, seed=1, **kwargs)


def test_report_flags_violations_with_witness():
    # the aggregation itself must have teeth: a below-floor margin counts as
    # a violation and captures the offending sample
    report = cones.SampleReport(suite="synthetic")
    report.record_block({"hypothesis": [True], "margins": {"good": [1.0]}}, [[1.0, 2.0]])
    assert report.passed and report.violations == 0
    report.record_block({"hypothesis": [False], "margins": {}}, [[9.0]])
    assert report.hypothesis_hits == 1
    report.record_block({"hypothesis": [True], "margins": {"bad": [-1e-9]}}, [[3.0, 4.0]])
    assert not report.passed and report.violations == 1
    assert report.worst_margin == -1e-9
    assert report.witness == [3.0, 4.0]
    # margins within the roundoff floor are not violations
    report2 = cones.SampleReport(suite="synthetic")
    report2.record_block({"hypothesis": [True], "margins": {"tight": [-1e-13]}}, [[0.0]])
    assert report2.passed


def test_report_serializes():
    report = cones.run_suite("prop24", spec=ConeSpec(4, 2, 2), trials=50, seed=6, l=1)
    d = report.as_dict()
    assert d["violations"] == 0
    assert d["trials"] == 50
    import json

    json.dumps(d)


# ---------------------------------------------------------------------------
# block checks against their one-row calls


def _mixed_block(spec, mode, seed, extra_rows, **kwargs):
    samples, _ = cones.sample_cone(spec, 12, mode, seed=seed, **kwargs)
    return np.vstack([samples, np.asarray(extra_rows, dtype=np.float64)])


def _block_cases():
    s3 = ConeSpec(4, 2, 2)
    ordered = _mixed_block(s3, "gamma_k", 1, [
        [0.5, 1.0, 0.2, 0.1],      # unsorted
        [-0.1, -0.2, -0.3, -0.4],  # outside the cone
        [1.0, 1.0, 1.0, 1.0],
        [2.0, 1.0, 0.5, -0.3],
    ])
    ordered = -np.sort(-ordered, axis=1)
    ordered[12] = [0.5, 1.0, 0.2, 0.1]
    partner = np.roll(ordered, 1, axis=0)
    partner[3] = [-1.0, -1.0, -1.0, -1.0]  # partner outside the cone
    partner[14] = ordered[14]

    s5 = ConeSpec(5, 2, 3)
    macl = _mixed_block(s5, "gamma_k", 2, [
        [1.0, -2.0, 0.5, 0.3, 0.2],       # outside the cone
        [0.2, 0.9, 0.4, 0.7, 0.1],        # unsorted is fine here
    ])
    neg = _mixed_block(s5, "prop25_hypotheses", 3, [
        [1.0, 0.9, 0.8, 0.7, 0.6],        # designated entry not negative
        [-1.0, -1.0, 0.1, 0.2, 0.3],      # outside the cone
    ])
    neg_index = np.argmin(neg, axis=1)
    neg_index[-2] = 2

    s26 = ConeSpec(4, 2, 2)
    mu = _mixed_block(s26, "prop26_hypotheses", 4, [
        [0.5, 0.6, 0.55, -0.45],          # unsorted
        [0.1, 0.0, -0.9, -1.0],           # outside the lifted cone
        [0.7, 0.6, 0.5, -0.3],            # smallest entry not below -delta
        [1.5, 1.5, 1.2, -0.45],           # outside the band: no partial_vs_sum
    ], delta=0.4)

    s27 = ConeSpec(6, 2, 3)
    big = _mixed_block(s27, "prop27_hypotheses", 5, [
        [1.0, 0.5, 0.6, 0.4, 0.3, -0.2],  # tail unsorted
        [1.0, 0.9, 0.3, 0.2, 0.1, 0.05],  # dominance fails: tail not negative
        [1.0, -0.5, -0.6, -0.7, -0.8, -0.9],  # outside the cone
    ], delta=0.5, eps=0.15)
    big /= np.abs(big).max(axis=1, keepdims=True)

    return {
        "ordered": (lambda b, i=None: cones.check_ordered_cone_inequalities(
            b, 2, partner=partner if i is None else partner[i:i + 1]), ordered),
        "maclaurin": (lambda b, i=None: cones.check_maclaurin(b, 3, 1), macl),
        "negative_entry": (lambda b, i=None: cones.check_negative_entry(
            b, 3, neg_index if i is None else neg_index[i:i + 1]), neg),
        "sum_lift": (lambda b, i=None: cones.check_sum_lift_gradient_bounds(
            b, s26, 0.4, 1.0), mu),
        "large_entry": (lambda b, i=None: cones.check_large_entry_deletion(
            b, 3, 0.5, 0.15), big),
    }


@pytest.mark.parametrize("name", ["ordered", "maclaurin", "negative_entry", "sum_lift",
                                  "large_entry"])
def test_block_check_matches_one_row_calls(name):
    # row i of the block against the one-row block block[i:i+1]: guards the
    # independence of every margin (and of _pow) from the block size
    check, block = _block_cases()[name]
    res = check(block)
    rows = [check(block[i:i + 1], i) for i in range(len(block))]
    hyp = np.concatenate([r["hypothesis"] for r in rows])
    assert np.array_equal(res["hypothesis"], hyp)
    assert 0 < hyp.sum() < len(rows)  # the block mixes kept and skipped rows
    assert res.keys() == {"hypothesis", "margins"}
    for r in rows:
        assert r.keys() == res.keys() and r["margins"].keys() == res["margins"].keys()
    for key, col in res["margins"].items():
        stacked = np.concatenate([r["margins"][key] for r in rows])
        assert np.array_equal(col, stacked), key  # bitwise, row for row
    if name == "ordered":
        # a partner outside the cone drops only the midpoint margin
        assert res["hypothesis"][3] and res["margins"]["midpoint_concavity"][3] == math.inf
    if name == "sum_lift":
        assert res["hypothesis"][-1] and res["margins"]["partial_vs_sum"][-1] == math.inf


def _synthetic_block(seed, rows=60):
    rng = np.random.default_rng(seed)
    hyp = rng.uniform(size=rows) < 0.8
    margins = {
        "a": rng.normal(1e-9, 2e-9, size=rows),
        "b": rng.normal(1e-9, 2e-9, size=rows),
        "c": np.full(rows, math.inf),  # a margin no row has
    }
    margins["b"][rng.uniform(size=rows) < 0.3] = math.inf  # absent on some rows
    samples = rng.normal(size=(rows, 3))
    return {"hypothesis": hyp, "margins": margins}, samples


def _oracle_report(blocks, suite="oracle"):
    report = cones.SampleReport(suite=suite)
    for result, samples in blocks:
        for i, sample in enumerate(samples):
            margins = {k: float(v[i]) for k, v in result["margins"].items()
                       if v[i] != math.inf}
            record_sample(report, {"hypothesis": bool(result["hypothesis"][i]),
                                   "margins": margins}, sample)
    return report


def _block_report(blocks):
    report = cones.SampleReport(suite="oracle")
    for result, samples in blocks:
        report.record_block(result, samples)
    return report


def test_record_block_matches_oracle_loop():
    blocks = [_synthetic_block(seed) for seed in (1, 2, 3)]
    # forced ties at the worst margin: within a block (rows 7 and 30 of the
    # second block, margin keys a and b) and across blocks (the third block
    # reaches it too); the witness is the first sample that reaches it
    result, _ = blocks[1]
    hyp = result["hypothesis"]
    hyp[[7, 30]] = True
    result["margins"]["b"][7] = -5e-8
    result["margins"]["a"][30] = -5e-8
    blocks[2][0]["hypothesis"][4] = True
    blocks[2][0]["margins"]["a"][4] = -5e-8
    ref, got = _oracle_report(blocks), _block_report(blocks)
    for attr in ("trials", "hypothesis_hits", "violations", "worst_margin", "checks",
                 "witness"):
        assert getattr(got, attr) == getattr(ref, attr), attr
    assert got.worst_margin == -5e-8
    assert got.witness == blocks[1][1][7].tolist()
    assert "c" not in got.checks and got.violations > 0


def test_record_block_matches_oracle_loop_on_a_suite():
    spec = ConeSpec(5, 2, 3)
    samples, _ = cones.sample_cone(spec, 300, "gamma_k", seed=9)
    samples = np.vstack([-np.sort(-samples, axis=1), [[1.0, -2.0, 0.5, 0.3, 0.2]]])
    block = cones.check_maclaurin(samples, 3, 1)
    ref = _oracle_report(
        [(cones.check_maclaurin(samples[i:i + 1], 3, 1), samples[i:i + 1])
         for i in range(len(samples))], suite="prop24")
    got = cones.SampleReport(suite="prop24")
    got.record_block(block, samples)
    assert got.as_dict() == ref.as_dict()
    assert got.hypothesis_hits == 300 and got.trials == 301


def test_nan_margin_is_a_violation():
    report = cones.SampleReport(suite="synthetic")
    report.record_block(
        {"hypothesis": [True, True, True],
         "margins": {"a": [1.0, math.nan, -1.0], "b": [2.0, 3.0, 4.0]}},
        [[1.0], [2.0], [3.0]],
    )
    assert report.violations == 2 and not report.passed
    assert math.isnan(report.worst_margin)
    assert math.isnan(report.checks["a"]) and report.checks["b"] == 2.0
    assert report.witness == [2.0]
    # a later finite block keeps the NaN
    report.record_block({"hypothesis": [True], "margins": {"a": [-5.0]}}, [[4.0]])
    assert math.isnan(report.worst_margin) and math.isnan(report.checks["a"])
    assert report.witness == [2.0] and report.violations == 3
