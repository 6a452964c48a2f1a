"""Run every workload of BENCHMARK.json and summarise the results.

Usage (from the repository root):

    python3 perfbench/run_all.py [--seeds 1,2,3]

For each workload it runs ``run.py`` once per seed untraced, then once traced
on the first seed, each for BENCHMARK.json's ``run_seconds``. It prints, per
workload, every end-to-end metric with its unit, the median over runs, the
number of runs and the spread (distance between the quartiles over the median)
against the metric's bound, the fail rate, and the per-layer metrics with the
tracing overhead. The summary is written to ``.perfbench/summary.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        print(f"== {workload}: correct={entry['correct']} fail_rate "
              f"{entry['failed']}/{entry['attempted']}"
              f" = {entry['failed'] / entry['attempted']:.4f}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            stat = {"median": statistics.median(values), "unit": unit, "runs": len(values),
                    "spread": spread(values), "bound": bound, "values": values}
            entry["end_to_end"][name] = stat
            print(f"  {name:12} {stat['median']:12.6g} {unit:5} runs={len(values)} "
                  f"spread={stat['spread']:.3f} bound={bound}")
        traced = run_once(workload, seeds[0], seconds, 1)
        entry["per_layer"] = traced["metrics"]
        print(f"  traced run (seed {seeds[0]}), tracing overhead "
              f"{traced['metrics']['trace.overhead_pct']['value']:.1f}% of the "
              "untraced pass in the same run:")
        for name, metric in traced["metrics"].items():
            if metric["value"]:
                print(f"    {name:36} {metric['value']:12.6g} {metric['unit']}")
        summary["workloads"][workload] = entry
    out = ROOT / ".perfbench" / "summary.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"summary written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
