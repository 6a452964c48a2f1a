"""Workload definitions, config generation and per-op output checks.

A workload is a fixed, ordered list of CLI operations. Each op is one call of
``sumhess.cli.main([command, "--config", <file>, ...])`` on a config file the
harness writes during set-up. The op order never changes, so per-op rows line
up across commits. The seed only reaches ``verify`` (as ``--seed``); the solve
and barrier studies are fixed problems, so their inputs are the same for every
seed.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

RADIAL_SPECS = ((3, 2, 2), (4, 2, 2), (4, 2, 3), (5, 2, 3))
RADIAL_MESHES = (64, 128, 256)
EXPRESSION_FIELDS = {
    "f": "1.7 + sin(7*r)^2 + r^3",
    "a": "1 + 0.5*cos(r)",
    "b": "2 - r^2/3",
}
VERIFY_RUNS = (
    ("prop23", (6, 2, 3), {}),
    ("prop24", (5, 2, 3), {"l": 1}),
    ("prop25", (5, 2, 3), {}),
    ("prop26", (4, 2, 2), {"delta": 0.4}),
    ("prop26", (5, 2, 3), {"delta": 0.4}),
    ("prop27", (6, 2, 3), {"delta": 0.5, "eps": 0.15}),
)
VERIFY_TRIALS = 10_000
BARRIER_RUNS = (("lemma53", (4, 2, 2)), ("lemma55", (4, 2, 4)))
BARRIER_FIELDS = (("quadratic", {}), ("quartic", {"coef": 0.05}))
BARRIER_POINTS = 1000


@dataclass
class Op:
    """One CLI call and what its output must satisfy."""

    name: str
    command: str
    config: dict
    check: str  # manufactured | solve | verify | barrier
    study: str | None = None  # manufactured study the op belongs to
    mesh: int | None = None
    seed: int | None = None

    def config_text(self):
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())

    def argv(self, config_path, out_dir):
        argv = [self.command, "--config", str(config_path), "--out-dir", str(out_dir)]
        if self.seed is not None:
            argv += ["--seed", str(self.seed)]
        return argv


def _spec_keys(nmk):
    n, m, k = nmk
    return {"n": n, "m": m, "k": k}


def _box_ops(meshes):
    ops = []
    for mesh in meshes:
        config = {"mode": "box", **_spec_keys((3, 2, 2)), "manufactured": "box",
                  "mesh": f"{mesh},{mesh},{mesh}"}
        ops.append(Op(f"box-3-2-2-{mesh}", "solve", config, "manufactured",
                      study="box-3-2-2", mesh=mesh))
    return ops


def _radial_ops():
    ops = []
    for nmk in RADIAL_SPECS:
        tag = "-".join(map(str, nmk))
        for mesh in RADIAL_MESHES:
            config = {"mode": "radial", **_spec_keys(nmk), "manufactured": "radial",
                      "mesh": mesh}
            ops.append(Op(f"radial-{tag}-{mesh}", "solve", config, "manufactured",
                          study=f"radial-{tag}", mesh=mesh))
    for mesh in RADIAL_MESHES:
        config = {"mode": "radial", **_spec_keys((3, 2, 2)), **EXPRESSION_FIELDS,
                  "mesh": mesh}
        ops.append(Op(f"radial-expr-3-2-2-{mesh}", "solve", config, "solve"))
    return ops


def _verify_ops(seed):
    ops = []
    for which, nmk, extra in VERIFY_RUNS:
        config = {"which": which, **_spec_keys(nmk), "trials": VERIFY_TRIALS, **extra}
        tag = "-".join(map(str, nmk))
        ops.append(Op(f"verify-{which}-{tag}", "verify", config, "verify", seed=seed))
    return ops


def _barrier_ops():
    ops = []
    for which, nmk in BARRIER_RUNS:
        for field_name, extra in BARRIER_FIELDS:
            config = {"which": which, **_spec_keys(nmk), "points": BARRIER_POINTS,
                      "K3": "auto", "field": field_name, **extra}
            ops.append(Op(f"barrier-{which}-{field_name}", "barrier-check", config,
                          "barrier"))
    return ops


WORKLOADS = {
    "box-solve": lambda seed: _box_ops((17, 33)),
    "verify-suite": _verify_ops,
    "radial-collar": lambda seed: _radial_ops() + _barrier_ops(),
}


def build(workload, seed):
    """Ordered ops of ``workload`` for ``seed``; KeyError for an unknown name."""
    return WORKLOADS[workload](seed)


def write_configs(ops, directory):
    """Write one config file per op; returns the paths in op order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, op in enumerate(ops):
        path = directory / f"{index:02d}-{op.name}.cfg"
        path.write_text(op.config_text())
        paths.append(path)
    return paths


def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def known_failure(reference, op_name):
    for group in reference["known_failures"]:
        if op_name in group["ops"]:
            return group
    return None


@dataclass
class Outcome:
    """Result of one op: ``ok`` when it passed every check."""

    ok: bool
    reason: str = ""
    error_linf: float | None = None


def _finite_at_most(value, limit):
    return value is not None and math.isfinite(value) and value <= limit


def check_op(op, exit_code, manifest, reference):
    """Check one op's exit code and manifest report against the reference."""
    if exit_code != 0:
        return Outcome(False, f"exit code {exit_code}")
    if manifest is None:
        return Outcome(False, "no manifest written")
    report = manifest["report"]
    if op.check in ("manufactured", "solve"):
        diag = report["diagnostics"]
        kind = op.config["mode"]
        tol = reference["residual_tol"][kind]
        residual = diag.get("final_residual_norm")
        if not _finite_at_most(residual, tol):
            return Outcome(False, f"final_residual_norm {residual} above {tol:g}")
        if not diag.get("admissible_everywhere"):
            return Outcome(False, "admissible_everywhere is false")
        if op.check == "solve":
            return Outcome(True)
        err = report.get("error_linf")
        ref = reference["error_linf"].get(op.name)
        if ref is None:
            if known_failure(reference, op.name) is None:
                return Outcome(False, "no reference error_linf", err)
            # A fix of a known failure shows as a lower fail rate; the op
            # still has to pass its study's order check.
            return Outcome(True, "known failure passes; add its reference error_linf", err)
        if not _finite_at_most(err, ref * (1.0 + reference["error_rtol"])):
            return Outcome(False, f"error_linf {err} above reference {ref}", err)
        return Outcome(True, error_linf=err)
    if op.check == "verify":
        trials = int(op.config["trials"])
        if report["violations"] > 0:
            return Outcome(False, f"{report['violations']} violations")
        if report["hypothesis_hits"] < trials:
            return Outcome(False, f"hypothesis_hits {report['hypothesis_hits']} < {trials}")
        return Outcome(True)
    if op.check == "barrier":
        if not report["passed"]:
            return Outcome(False, "passed is false")
        if report["count"] != int(op.config["points"]):
            return Outcome(False, f"count {report['count']} != {op.config['points']}")
        return Outcome(True)
    raise ValueError(f"unknown check {op.check!r}")


def observed_order(meshes_errors, kind):
    """Least-squares slope of log error against log h over a mesh family.

    ``meshes_errors`` maps mesh size to the L-infinity error. Radial meshes
    count intervals (h = R / M); box meshes count nodes per axis
    (h = L / (nodes - 1)).
    """
    meshes = sorted(meshes_errors)
    hs = np.array([1.0 / (m if kind == "radial" else m - 1) for m in meshes])
    errs = np.array([meshes_errors[m] for m in meshes])
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def check_studies(ops, outcomes, reference):
    """Order checks for every manufactured study whose meshes all passed.

    A study with a failed mesh is skipped: its failure is already counted.
    Returns {study: (order, ok)}.
    """
    studies = {}
    for op, outcome in zip(ops, outcomes):
        if op.study is not None:
            studies.setdefault(op.study, {})[op.mesh] = outcome
    results = {}
    for study, by_mesh in studies.items():
        if not all(o.ok for o in by_mesh.values()):
            continue
        kind = study.split("-", 1)[0]
        order = observed_order({mesh: o.error_linf for mesh, o in by_mesh.items()}, kind)
        lo, hi = reference["order_ranges"][kind]
        results[study] = (order, lo <= order <= hi)
    return results
