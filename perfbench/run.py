"""sumhess benchmark: seeded CLI workloads, timed end to end, and traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client runs each workload's ops one after another through
``sumhess.cli.main(argv)`` in this process (a closed loop: the next op starts
when the previous one returns), with BLAS and OpenMP held to one thread. It
repeats whole passes over the ops while the next pass still fits in
``--seconds`` (at least one pass), and checks every op's exit code and
manifest (see ``workloads.check_op``).

Times are in reference seconds (``speed.py``): while the ops run, a timer
samples how long a fixed stretch of interpreter and small-numpy work
(``pass_probe_work``) takes, and each op's wall time is scaled by the machine
speed those samples show. On a small shared machine whose speed changes by up
to a half from one phase to the next, the pass time in wall seconds spreads by
several times its spread in reference seconds over runs of the same code; the
wall times stay in the per-op rows and the traced run's metrics.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over fresh interpreters (``setup_probe.py``) of the time
  to import ``sumhess.cli`` and write the workload's config files, sampled
  with the pure-Python probe work since numpy is part of what is imported;
- ``pass_s``: mean time of one pass over the workload's ops: the ops' total
  time over the run divided by the number of passes;
- ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced passes (``tracer.Tracer``) and
reports the per-layer metrics of ``metrics.layer_metrics`` (span times in wall
seconds), the import time of ``sumhess.cli`` in the set-up probes
``setup.import_s``, the tracing overhead ``trace.overhead_pct`` of the traced
pass time over the untraced one, both as ``mean_pass_time``, and for the
untraced passes the machine speed ``machine.speed`` (reference seconds per
wall second) and the mean pass time in wall seconds ``machine.pass_wall_s``.
Metric names and units are those BENCHMARK.json lists.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An op that exits
nonzero, raises, or misses its output check counts as failed. ``correct`` is
false when a failure is not one of the known-failure groups in
``reference.json`` or a manufactured study's observed order leaves its range.
A fuller record (provenance, per-op rows, sample counts) goes to
``.perfbench/results/`` and, for a traced run, the spans to
``.perfbench/traces/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set before numpy loads. With two threads on a small shared machine, a box
# solve's BLAS calls stall whenever the other CPU is busy: a 25^3 lgmres solve
# took 18 s instead of 6 s next to one busy loop, and 5.8 s on one thread.
for _name in THREAD_VARS:
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from metrics import SpanTable, layer_metrics, summarize  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# pass_probe_work's time on the reference machine.
PASS_PROBE_REFERENCE_S = 4e-4
_PROBE_VECTOR = np.arange(8.0)


def pass_probe_work():
    """The speed probe's work during passes: interpreter work and small numpy
    calls, the two kinds of work the ops spend most of their time in."""
    speed.python_work()
    for _ in range(25):
        np.sort(_PROBE_VECTOR * 1.5).sum()


def pass_probe():
    return speed.SpeedProbe(pass_probe_work, PASS_PROBE_REFERENCE_S)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_units(trace):
    """{metric: unit} of BENCHMARK.json's per-layer or end-to-end list."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def import_program():
    """Import ``sumhess.cli`` from this checkout's ``src``."""
    if not (SRC / "sumhess" / "cli.py").is_file():
        raise FileNotFoundError(f"program source not found at {SRC / 'sumhess'}")
    sys.path.insert(0, str(SRC))
    import sumhess.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "sumhess").resolve():
        raise ImportError(f"sumhess imported from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(workload, seed, scratch):
    """Set-up probes in fresh interpreters: one dict of times per probe, as
    ``setup_probe.py`` prints them."""
    probes = []
    for index in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
                str(scratch / f"probe-{index}")]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "sumhess").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def provenance():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "blas": blas,
    }


@dataclass
class Pass:
    traced: bool
    ref: float = 0.0  # sum of op times in reference seconds
    wall: float = 0.0  # sum of op times in wall seconds
    elapsed: float = 0.0  # wall time including output checks
    rows: list = field(default_factory=list)
    op_ids: list = field(default_factory=list)


def run_op(cli, op, config_path, out_dir, reference, probe):
    """Run one op through the CLI, timed with the entered ``probe``, and check
    it; returns (row, outcome)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    captured = io.StringIO()
    error = None
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        start = probe.mark()
        try:
            code = cli.main(op.argv(config_path, out_dir))
        except Exception:  # the op fails; the run records it and goes on
            code = None
            error = traceback.format_exc()
        end = probe.mark()
    output = captured.getvalue()
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.is_file() else None
    if error is not None:
        outcome = workloads.Outcome(False, error.strip().splitlines()[-1])
    else:
        outcome = workloads.check_op(op, code, manifest, reference)
    status = "ok"
    if not outcome.ok:
        group = workloads.known_failure(reference, op.name)
        known = (group is not None and code == group["exit_code"]
                 and group["message"] in output)
        status = f"known-failure:{group['group']}" if known else "failed"
    row = {"op": op.name, "exit_code": code, "ref_s": probe.reference_seconds(start, end),
           "wall_s": probe.wall_seconds(start, end), "status": status,
           "reason": outcome.reason or None, "error_linf": outcome.error_linf}
    return row, outcome


def run_pass(cli, ops, paths, out_root, reference, traced, tracer, first_op_id, probe):
    result = Pass(traced=traced)
    start = time.perf_counter()
    outcomes = []
    for index, (op, path) in enumerate(zip(ops, paths)):
        op_id = first_op_id + index
        if tracer is not None:
            tracer.current_op = op_id
        row, outcome = run_op(cli, op, path, out_root / f"{index:02d}", reference, probe)
        result.ref += row["ref_s"]
        result.wall += row["wall_s"]
        result.rows.append(row)
        result.op_ids.append(op_id)
        outcomes.append(outcome)
    for study, (order, ok) in workloads.check_studies(ops, outcomes, reference).items():
        result.rows.append({"study": study, "observed_order": order,
                            "status": "ok" if ok else "failed"})
    result.elapsed = time.perf_counter() - start
    return result


def run_workload(cli, ops, paths, scratch, reference, seconds, trace):
    """Repeat passes, or with ``trace`` pairs of an untraced and a traced pass,
    while the next one fits in ``seconds`` (at least one)."""
    passes = []
    budget_start = time.perf_counter()
    tracer = Tracer() if trace else None

    def next_fits(count):
        spent = time.perf_counter() - budget_start
        return spent + sum(p.elapsed for p in passes[-count:]) <= seconds

    def one_pass(traced):
        passes.append(run_pass(cli, ops, paths, scratch / "out", reference, traced,
                               tracer if traced else None, len(passes) * len(ops), probe))

    with pass_probe() as probe:
        while not passes or next_fits(2 if trace else 1):
            one_pass(False)
            if trace:
                with tracer:
                    one_pass(True)
    return passes, tracer


def _json_value(unit, value):
    """Counts that are whole numbers print as integers; everything else as measured."""
    if unit == "count" and float(value).is_integer():
        return int(value)
    return value


def mean_pass_time(passes, unit="ref"):
    """Total op time of ``passes`` divided by their number, in reference
    (``unit="ref"``) or wall (``unit="wall"``) seconds."""
    return sum(getattr(p, unit) for p in passes) / len(passes)


def end_to_end_metrics(passes, setup_probes):
    untraced = [p for p in passes if not p.traced]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": summarize([probe["setup_s"] for probe in setup_probes]),
        "pass_s": {**summarize([p.ref for p in untraced]), "value": mean_pass_time(untraced)},
        "peak_rss_mb": summarize([peak_rss_mb]),
    }


def per_layer_metrics(passes, tracer, setup_probes):
    table = SpanTable(tracer.names, tracer.arrays())
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    per_pass = [layer_metrics(table, p.op_ids) for p in traced]
    out = {name: summarize([m[name] for m in per_pass]) for name in per_pass[0]}
    out["setup.import_s"] = summarize([probe["import_s"] for probe in setup_probes])
    base = mean_pass_time(untraced)
    overhead = 100.0 * (mean_pass_time(traced) - base) / base
    out["trace.overhead_pct"] = summarize([overhead])
    out["machine.speed"] = summarize([base / mean_pass_time(untraced, "wall")])
    out["machine.pass_wall_s"] = {**summarize([p.wall for p in untraced]),
                                  "value": mean_pass_time(untraced, "wall")}
    return out


def main(argv=None):
    args = parse_args(argv)
    reference = workloads.load_reference()
    try:
        ops = workloads.build(args.workload, args.seed)
    except KeyError:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        cli = import_program()
        units = declared_units(args.trace)
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot load the program or BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "tmp"))
    try:
        paths = workloads.write_configs(ops, scratch / "configs")
        setup_probes = measure_setup(args.workload, args.seed, scratch)
        passes, tracer = run_workload(cli, ops, paths, scratch, reference,
                                      args.seconds, args.trace)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        metrics = per_layer_metrics(passes, tracer, setup_probes)
    else:
        metrics = end_to_end_metrics(passes, setup_probes)
    if metrics.keys() != units.keys():
        print(f"metrics {sorted(metrics.keys() ^ units.keys())} are not both measured "
              "and listed in BENCHMARK.json", file=sys.stderr)
        return 2
    op_rows = [row for p in passes for row in p.rows if "op" in row]
    study_rows = [row for p in passes for row in p.rows if "study" in row]
    failed = sum(row["status"] != "ok" for row in op_rows)
    correct = not any(row["status"] == "failed" for row in op_rows + study_rows)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": len(op_rows),
        "failed": failed,
        "provenance": {**provenance(), "loadavg_start": load_start,
                       "loadavg_end": os.getloadavg()},
        "speed_probe": {"interval_s": speed.INTERVAL_S,
                        "pass_reference_s": PASS_PROBE_REFERENCE_S,
                        "setup_reference_s": speed.PYTHON_REFERENCE_S},
        "setup_probes": setup_probes,
        "passes": [{"traced": p.traced, "ref_s": p.ref, "wall_s": p.wall, "rows": p.rows}
                   for p in passes],
        "metrics": {name: {**stat, "unit": units[name]} for name, stat in metrics.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.dump(OUT / "traces" / f"{stem}.npz")

    print_report(record, op_rows, study_rows, len(tracer) if tracer else None)
    print(json.dumps({
        "correct": correct,
        "attempted": len(op_rows),
        "failed": failed,
        "metrics": {name: {"value": _json_value(units[name], stat["value"]),
                           "unit": units[name]}
                    for name, stat in metrics.items()},
    }))
    return 0


def print_report(record, op_rows, study_rows, span_count):
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    by_op = {}
    for row in op_rows:
        by_op.setdefault(row["op"], []).append(row)
    print(f"{'op':34} {'status':40} {'ref_s':>9} {'wall_s':>9} {'n':>3}")
    for name, rows in by_op.items():
        statuses = sorted({row["status"] for row in rows})
        ref_s = statistics.median(row["ref_s"] for row in rows)
        wall_s = statistics.median(row["wall_s"] for row in rows)
        print(f"{name:34} {','.join(statuses):40} {ref_s:9.4f} {wall_s:9.4f} {len(rows):3d}")
        for reason in sorted({row["reason"] for row in rows if row["reason"]}):
            print(f"  {reason}")
    by_study = {}
    for row in study_rows:
        by_study.setdefault(row["study"], []).append(row)
    for name, rows in by_study.items():
        orders = ", ".join(f"{row['observed_order']:.4f}" for row in rows)
        statuses = ",".join(sorted({row["status"] for row in rows}))
        print(f"study {name}: observed order {orders} ({statuses})")
    attempted, failed = record["attempted"], record["failed"]
    print(f"fail_rate {failed}/{attempted} = {failed / attempted:.4f}")
    if span_count is not None:
        print(f"spans recorded: {span_count}")
    for name, stat in record["metrics"].items():
        print(f"{name} = {stat['value']:.6g} {stat['unit']} "
              f"({stat['samples']} samples, q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g})")


if __name__ == "__main__":
    sys.exit(main())
