"""Self-tests of the benchmark harness.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import signal

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from metrics import SpanTable, layer_metrics, summarize  # noqa: E402
from tracer import BoundaryMissing, Tracer  # noqa: E402

cli = run.import_program()


def _table(names, rows):
    """SpanTable from (name index, parent, start, end, op) rows."""
    cols = np.array(rows, dtype=np.float64).T
    arrays = {
        "name": cols[0].astype(np.int32),
        "parent": cols[1].astype(np.int32),
        "start": cols[2],
        "end": cols[3],
        "op": cols[4].astype(np.int32),
        "raised": np.zeros(len(rows), dtype=np.int8),
        "a": np.full(len(rows), -1, dtype=np.int64),
        "b": np.full(len(rows), -1, dtype=np.int64),
    }
    return SpanTable(names, arrays)


def test_self_time_of_synthetic_span_tree():
    names = ["cli.main", "solver.newton_solve", "solver.jacobian", "kernels.subset_sums"]
    # cli.main [0, 10] -> newton [1, 8] -> jacobian [2, 6] -> kernel [3, 4.5]
    #                  -> kernel [8.5, 9.5]
    table = _table(names, [
        (0, -1, 0.0, 10.0, 0),
        (1, 0, 1.0, 8.0, 0),
        (2, 1, 2.0, 6.0, 0),
        (3, 2, 3.0, 4.5, 0),
        (3, 0, 8.5, 9.5, 0),
    ])
    np.testing.assert_allclose(table.self_time, [2.0, 3.0, 2.5, 1.5, 1.0])
    assert table.self_time.sum() == pytest.approx(10.0)
    metrics = layer_metrics(table, [0])
    assert metrics["cli.self_s"] == pytest.approx(2.0)
    assert metrics["solver.self_s"] == pytest.approx(5.5)
    assert metrics["kernels.self_s"] == pytest.approx(2.5)
    assert metrics["solver.jacobian_s"] == pytest.approx(4.0)
    assert metrics["kernels.subset_sums.calls"] == 2
    assert metrics["solver.newton_iters"] == 1
    # spans of another op are not counted
    assert layer_metrics(table, [1])["cli.self_s"] == 0.0


def test_outermost_spans_are_not_double_counted():
    names = ["lift.gradient", "lift.gradient_batch", "geometry.verify_barrier_bound"]
    table = _table(names, [
        (2, -1, 0.0, 10.0, 0),
        (0, 0, 1.0, 4.0, 0),
        (1, 1, 1.5, 3.5, 0),
        (1, 0, 5.0, 6.0, 0),
    ])
    metrics = layer_metrics(table, [0])
    assert metrics["lift.gradient_s"] == pytest.approx(4.0)
    assert metrics["lift.calls"] == 2


def test_median_and_sample_count():
    assert summarize([3.0, 1.0, 2.0]) == {"value": 2.0, "samples": 3, "q1": 1.0, "q3": 3.0}
    assert summarize([4.0, 1.0, 2.0, 3.0])["value"] == 2.5
    single = summarize([5.0])
    assert (single["value"], single["samples"], single["q1"], single["q3"]) == (5.0, 1, 5.0, 5.0)
    with pytest.raises(ValueError):
        summarize([])


def test_pass_s_is_the_mean_pass_time():
    passes = [run.Pass(traced=False, ref=ref, wall=2 * ref) for ref in (1.0, 2.0, 6.0)]
    assert run.mean_pass_time(passes) == pytest.approx(3.0)
    assert run.mean_pass_time(passes, "wall") == pytest.approx(6.0)


def test_reference_seconds_scale_wall_time_by_probe_speed():
    probe = speed.SpeedProbe(reference_s=1e-3)
    # Samples at half the reference speed, then at the reference speed.
    probe.samples = [2e-3] * 20 + [1e-3] * 10
    start, end = (20, 0.5, 10.0), (30, 0.75, 14.25)
    assert probe.wall_seconds(start, end) == pytest.approx(4.0)
    assert probe.speed(start, end) == pytest.approx(1.0)
    assert probe.reference_seconds(start, end) == pytest.approx(4.0)
    assert probe.reference_seconds((0, 0.0, 0.0), (20, 0.5, 10.5)) == pytest.approx(5.0)
    # A stretch with fewer samples of its own takes the ones before, to 8.
    assert probe.speed((24, 0.0, 0.0), (26, 0.0, 1.0)) == pytest.approx((2 * 0.5 + 6) / 8)
    with pytest.raises(RuntimeError):
        speed.SpeedProbe().speed((0, 0.0, 0.0), (0, 0.0, 1.0))


def test_speed_probe_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval=0.005) as probe:
        start = probe.mark()
        speed.python_work(300_000)
        end = probe.mark()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert end[0] - start[0] >= 3
    assert probe.spent == pytest.approx(sum(probe.samples))
    with speed.SpeedProbe() as probe:
        # A sample is taken on entry, so that even an instant stretch has one.
        assert probe.reference_seconds(probe.mark(), probe.mark()) >= 0
    assert 0 < probe.wall_seconds(start, end) < end[2] - start[2]
    assert probe.reference_seconds(start, end) > 0


def _run_op(op, path, out_dir, reference):
    with run.pass_probe() as probe:
        return run.run_op(cli, op, path, out_dir, reference, probe)


def _radial_op(name, **config):
    base = {"mode": "radial", "n": 3, "m": 2, "k": 2, "mesh": 32}
    check = "manufactured" if "manufactured" in config else "solve"
    return workloads.Op(name, "solve", {**base, **config}, check)


def test_fail_rate_counts_forced_failure(tmp_path):
    reference = workloads.load_reference()
    ops = [
        _radial_op("forced-negative-f", f="-1", a="1", b="1"),
        _radial_op("radial-3-2-2-64", manufactured="radial", mesh=64),
    ]
    paths = workloads.write_configs(ops, tmp_path / "configs")
    rows = [_run_op(op, path, tmp_path / f"out{i}", reference)[0]
            for i, (op, path) in enumerate(zip(ops, paths))]
    assert rows[0]["exit_code"] == 1
    assert rows[0]["status"] == "failed"
    assert rows[1]["status"] == "ok"
    assert sum(row["status"] != "ok" for row in rows) == 1


def test_error_linf_is_checked_against_a_reference():
    reference = workloads.load_reference()
    report = {"diagnostics": {"final_residual_norm": 1e-12, "admissible_everywhere": True},
              "error_linf": 1e-4}
    manifest = {"report": report}
    unlisted = _radial_op("radial-3-2-2-32", manufactured="radial")
    outcome = workloads.check_op(unlisted, 0, manifest, reference)
    assert not outcome.ok and outcome.reason == "no reference error_linf"
    fixed = _radial_op("radial-5-2-3-64", manufactured="radial")
    outcome = workloads.check_op(fixed, 0, manifest, reference)
    assert outcome.ok and "known failure passes" in outcome.reason
    listed = _radial_op("radial-3-2-2-64", manufactured="radial")
    report["error_linf"] = 2 * reference["error_linf"]["radial-3-2-2-64"]
    assert not workloads.check_op(listed, 0, manifest, reference).ok


def test_known_failure_is_counted_but_recognised(tmp_path):
    reference = workloads.load_reference()
    op = next(op for op in workloads.build("radial-collar", 0) if op.name == "radial-5-2-3-64")
    path = workloads.write_configs([op], tmp_path / "configs")[0]
    row, outcome = _run_op(op, path, tmp_path / "out", reference)
    assert not outcome.ok
    assert row["exit_code"] == 2
    assert row["status"] == "known-failure:radial-roundoff-floor"


def _sumhess_bindings():
    return {
        (name, key): value
        for name, module in sys.modules.items() if name.startswith("sumhess")
        for key, value in vars(module).items()
    }


def test_tracer_restores_every_wrapper(tmp_path):
    import scipy.sparse.linalg as spla

    from sumhess import solver

    foreign = [(np.linalg, "eigh"), (np.linalg, "eigvalsh"), (spla, "spsolve"),
               (spla, "lgmres"), (solver.RadialSystem, "jacobian"),
               (solver.BoxSystem, "residual_and_margin"), (solver.ProblemSpec, "eval_f")]
    before_foreign = [getattr(owner, attr) for owner, attr in foreign]
    before = _sumhess_bindings()

    reference = workloads.load_reference()
    op = _radial_op("expr", f="1.7 + r^2", a="1", b="2")
    path = workloads.write_configs([op], tmp_path / "configs")[0]
    tracer = Tracer()
    with tracer:
        assert cli.main is not before[("sumhess.cli", "main")]
        tracer.current_op = 0
        row, _ = _run_op(op, path, tmp_path / "out", reference)
    assert row["status"] == "ok"

    after = _sumhess_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert all(getattr(owner, attr) is value
               for (owner, attr), value in zip(foreign, before_foreign))
    recorded = {tracer.names[i] for i in set(tracer.arrays()["name"].tolist())}
    assert {"cli.main", "solver.newton_solve", "solver.jacobian", "solver.spsolve",
            "expressions.eval", "kernels.elem_sym_all"} <= recorded


def test_missing_boundary_fails_loudly_and_restores(monkeypatch):
    from sumhess import grids

    original_main = cli.main
    monkeypatch.delattr(grids, "box_hessians")
    with pytest.raises(BoundaryMissing, match="box_hessians"):
        Tracer().install()
    assert cli.main is original_main


def test_harness_does_not_use_backend_switches():
    banned = re.compile(r"\b(IMPLEMENTATIONS|BACKEND|warmup)\b")
    for path in BENCH.glob("*.py"):
        assert not banned.search(path.read_text()), path


def test_fails_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "radial-collar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_workload_ops_are_fixed_and_seeded():
    first = workloads.build("verify-suite", 3)
    again = workloads.build("verify-suite", 3)
    other = workloads.build("verify-suite", 4)
    assert [op.config_text() for op in first] == [op.config_text() for op in again]
    assert [op.name for op in first] == [op.name for op in other]
    assert {op.seed for op in first} == {3} and {op.seed for op in other} == {4}
    assert len(workloads.build("radial-collar", 0)) == 19
    known = {name for group in workloads.load_reference()["known_failures"]
             for name in group["ops"]}
    all_ops = {op.name for name in workloads.WORKLOADS for op in workloads.build(name, 0)}
    assert known <= all_ops
    assert set(workloads.load_reference()["error_linf"]) <= all_ops


def test_metric_names_are_those_of_benchmark_json():
    table = _table(["cli.main"], [(0, -1, 0.0, 1.0, 0)])
    per_layer = set(layer_metrics(table, [0])) | {"setup.import_s", "trace.overhead_pct",
                                                  "machine.speed", "machine.pass_wall_s"}
    assert per_layer == set(run.declared_units(1))
    assert set(run.declared_units(0)) == {"pass_s", "setup_s", "peak_rss_mb"}
