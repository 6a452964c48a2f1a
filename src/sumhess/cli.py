"""Command-line front end.

Subcommands: ``solve``, ``verify``, ``cone-check``, ``barrier-check``. Every
run is driven by a flat key = value config file (or a previously written
manifest JSON, whose embedded config is reused verbatim); artifacts are a CSV
solution table and a JSON manifest that echoes the config and seed so runs
replay bit-identically.

Exit codes: 0 success / zero violations, 1 configuration or input error,
2 nonconvergence or failed verification.
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import _kernels, cones, geometry, solver
from .errors import ConfigError, ContinuationError, NonconvergenceError, SumhessError
from .expressions import parse_expression
from .lift import ConeSpec, subset_table
from .solver import ProblemSpec, SolverConfig


def _load_config(path):
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(text)
        config = payload.get("config", payload)
        return {str(k): str(v) for k, v in config.items()}
    config = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in config:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        config[key] = value.strip()
    return config


class _Config:
    """Typed access to the raw string map with unknown-key detection."""

    def __init__(self, raw, known):
        self.raw = dict(raw)
        unknown = set(raw) - set(known)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def get(self, key, default=None, cast=str):
        if key not in self.raw:
            if default is None:
                return None
            return default
        value = self.raw[key]
        try:
            if cast is bool:
                return value.lower() in ("1", "true", "yes", "on")
            return cast(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc

    def require(self, key, cast=str):
        if key not in self.raw:
            raise ConfigError(f"missing config key {key!r}")
        return self.get(key, cast=cast)

    def int_list(self, key):
        return self._list(key, int)

    def float_list(self, key):
        return self._list(key, float)

    def _list(self, key, cast):
        value = self.raw.get(key)
        if value is None:
            return None
        try:
            return [cast(v) for v in value.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc


def _cone_spec(cfg, defaults=None):
    """ConeSpec from the n, m, k keys; ``defaults`` (n, m, k) makes them optional."""
    if defaults is None:
        n, m, k = (cfg.require(key, int) for key in ("n", "m", "k"))
    else:
        n, m, k = (cfg.get(key, d, int) for key, d in zip(("n", "m", "k"), defaults))
    try:
        return ConeSpec(n, m, k)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write_manifest(out_dir, command, raw_config, seed, report, fmt="json", profile=None):
    """Write manifest.json. ``report`` replays bit-identically from the config
    and seed; wall-clock figures go to the separate ``profile`` section."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": raw_config,
        "seed": seed,
        "report": report,
    }
    if profile is not None:
        manifest["profile"] = profile
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2))
    if fmt == "csv":
        _write_report_csv(out_dir / "report.csv", report)
    return path


def _write_report_csv(path, report):
    """Flatten a report into key,value rows (lists become one row per item)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])

        def emit(prefix, value):
            if isinstance(value, dict):
                for k, v in sorted(value.items()):
                    emit(f"{prefix}.{k}" if prefix else str(k), v)
            elif isinstance(value, (list, tuple)):
                for i, v in enumerate(value):
                    emit(f"{prefix}[{i}]", v)
            else:
                writer.writerow([prefix, value])

        emit("", report)


def _solver_config(cfg):
    kwargs = {}
    for key in ("tol_abs", "dt0", "dt_min", "dt_max", "margin_floor"):
        value = cfg.get(key, cast=float)
        if value is not None:
            kwargs[key] = value
    return SolverConfig(**kwargs)


_SOLVE_KEYS = {
    "mode", "n", "m", "k", "radius", "extents", "mesh", "f", "a", "b",
    "manufactured", "coef", "amp", "tol_abs", "dt0", "dt_min", "dt_max",
    "margin_floor", "seed",
}


def cmd_solve(cfg, seed, out_dir, fmt):
    mode = cfg.require("mode")
    if mode not in ("radial", "box"):
        raise ConfigError("mode must be radial or box")
    spec = _cone_spec(cfg)
    scfg = _solver_config(cfg)
    manufactured = cfg.get("manufactured")
    exact = None

    if manufactured:
        if manufactured != mode:
            raise ConfigError("manufactured template must match mode")
        kwargs = {}
        if cfg.get("coef", cast=float) is not None:
            kwargs["coef"] = cfg.get("coef", cast=float)
        if mode == "radial":
            kwargs["R"] = cfg.get("radius", 1.0, float)
            problem, exact = solver.radial_quartic_problem(spec, **kwargs)
        else:
            extents = cfg.float_list("extents") or [2.0] * spec.n
            if cfg.get("amp", cast=float) is not None:
                kwargs["amp"] = cfg.get("amp", cast=float)
            problem, exact = solver.box_cosine_problem(spec, extents=extents, **kwargs)
    else:
        f_expr = parse_expression(cfg.require("f"))
        a_expr = parse_expression(cfg.require("a"))
        b_expr = parse_expression(cfg.require("b"))

        def b_field(points, normals):
            return b_expr(points)

        if mode == "radial":
            geom = geometry.radial(cfg.get("radius", 1.0, float), dim=spec.n)
        else:
            extents = cfg.float_list("extents") or [2.0] * spec.n
            geom = geometry.box(extents)
        problem = ProblemSpec(spec=spec, geom=geom, f=f_expr, a=a_expr, b=b_field)

    if mode == "radial":
        mesh = cfg.get("mesh", 64, int)
        state, grid = solver.radial_solve(problem, mesh, scfg)
    else:
        mesh = cfg.int_list("mesh") or [17] * spec.n
        state, grid = solver.box_solve(problem, mesh, scfg)

    report = state.as_dict()
    if exact is not None:
        err = state.values - exact(grid.points)
        report["error_linf"] = float(np.abs(err).max())
        report["error_l2"] = float(np.sqrt((err**2).mean()))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_solution_csv(out / "solution.csv", grid, state)
    _write_manifest(out_dir, "solve", cfg.raw, seed, report, fmt)
    print(f"solve: reached t={state.t:g} with min margin {state.min_margin:.3e}")
    return 0


def _write_solution_csv(path, grid, state):
    pts = grid.points
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(pts.shape[1])] + ["u", "margin"])
        for row in range(pts.shape[0]):
            writer.writerow(
                [f"{v:.17g}" for v in pts[row]]
                + [f"{state.values[row]:.17g}", f"{state.margins[row]:.17g}"]
            )


_VERIFY_KEYS = {"which", "n", "m", "k", "l", "trials", "delta", "eps", "L", "seed", "states"}

_VERIFY_SUITES = (
    "prop21", "prop22", "prop23", "prop24", "prop25", "prop26", "prop27",
    "mixed", "euler", "spectral-lift", "jacobian",
)


def cmd_verify(cfg, seed, out_dir, fmt):
    which = cfg.require("which")
    if which not in _VERIFY_SUITES:
        raise ConfigError(f"which must be one of {_VERIFY_SUITES}")
    trials = cfg.get("trials", 10_000, int)
    states = cfg.get("states", 10, int)
    for key, count in (("trials", trials), ("states", states)):
        if count < 1:
            raise ConfigError(f"need {key} >= 1, got {key}={count}")
    start = time.perf_counter()
    if which == "jacobian":
        spec = _cone_spec(cfg, defaults=(3, 2, 2))
        report = solver.verify_jacobian_suite([spec], states=states, seed=seed)
    elif which in ("prop21", "mixed"):
        report = cones.run_suite(which, n=cfg.get("n", 5, int), trials=trials, seed=seed)
    else:
        spec = _cone_spec(cfg)
        report = cones.run_suite(
            which, spec=spec, trials=trials, seed=seed,
            l=cfg.get("l", cast=int),
            delta=cfg.get("delta", 0.4, float),
            eps=cfg.get("eps", 0.15, float),
            L=cfg.get("L", 1.0, float),
        )
    profile = {"elapsed_s": time.perf_counter() - start}
    payload = report.as_dict()
    _write_manifest(out_dir, "verify", cfg.raw, seed, payload, fmt, profile)
    status = "pass" if report.passed else "FAIL"
    print(
        f"verify {which}: {status} ({report.hypothesis_hits} hypothesis hits, "
        f"{report.violations} violations, worst margin {payload['worst_margin']})"
    )
    return 0 if report.passed else 2


_CONE_KEYS = {"input", "n", "m", "k", "seed"}


def cmd_cone_check(cfg, seed, out_dir, fmt):
    n = cfg.require("n", int)
    m = cfg.require("m", int)
    k_conf = cfg.get("k", cast=int)
    path = Path(cfg.require("input"))
    if not path.exists():
        raise ConfigError(f"input file {path} not found")
    try:
        table = subset_table(n, m)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if k_conf is not None and not 1 <= k_conf <= table.size:
        raise ConfigError(f"need 1 <= k <= {table.size}, got k={k_conf}")
    rows_out = []
    with open(path, newline="") as fh:
        for rowno, row in enumerate(csv.reader(fh), 1):
            cells = [c for c in row if c.strip()]
            if not cells:
                continue
            try:
                values = np.array([float(c) for c in cells])
            except ValueError:
                values = None
            if values is None or not np.isfinite(values).all():
                print(f"cone-check: malformed row {rowno}", file=sys.stderr)
                return 1
            if values.size == n:
                mu = values
            elif values.size == n * n:
                M = values.reshape(n, n)
                if not np.allclose(M, M.T, atol=1e-12):
                    print(f"cone-check: row {rowno} matrix not symmetric", file=sys.stderr)
                    return 1
                mu = np.linalg.eigvalsh((M + M.T) / 2.0)
            else:
                print(
                    f"cone-check: row {rowno} has {values.size} entries, "
                    f"expected {n} or {n * n}",
                    file=sys.stderr,
                )
                return 1
            lam = mu[table.tuples].sum(axis=1)
            s = _kernels.elem_sym_all(lam, lam.size)
            positive = s[1:] > 0
            largest = int(np.argmax(~positive)) if not positive.all() else lam.size
            entry = {"row": rowno, "largest_admissible_k": largest}
            if k_conf is not None:
                margin = float(_kernels.cone_margin(s, k_conf))
                entry["margin_at_k"] = margin
                entry["admissible_at_k"] = margin > 0
            rows_out.append(entry)
    report = {"rows": rows_out, "n": n, "m": m}
    _write_manifest(out_dir, "cone-check", cfg.raw, seed, report, fmt)
    for entry in rows_out:
        print(f"row {entry['row']}: largest admissible k = {entry['largest_admissible_k']}")
    return 0


_BARRIER_KEYS = {
    "n", "m", "k", "radius", "which", "points", "K3", "k3", "field", "coef", "seed",
}


def cmd_barrier_check(cfg, seed, out_dir, fmt):
    spec = _cone_spec(cfg)
    geom = geometry.ball(cfg.get("radius", 1.0, float), dim=spec.n)
    which = cfg.get("which", "lemma53")
    points = cfg.get("points", 1000, int)
    coef = cfg.get("coef", 0.0, float)
    field = cfg.get("field", "quadratic")
    if field == "quadratic":
        u_hess = lambda x: np.eye(spec.n) * 1.0
    elif field == "quartic":
        def u_hess(x, c=coef):
            x = np.asarray(x)
            return np.eye(spec.n) * (1.0 + 4.0 * c * float(x @ x)) + 8.0 * c * np.outer(x, x)
    else:
        raise ConfigError("field must be quadratic or quartic")
    k3 = cfg.get("k3", 0.01, float)
    K3_raw = cfg.get("K3", "auto")
    start = time.perf_counter()
    if K3_raw == "auto":
        # the search's passing check is the check at every one of the points
        K3, report = geometry.search_barrier_constant(
            u_hess, geom, spec, sample_points=points, which=which, k3=k3
        )
    else:
        K3 = float(K3_raw)
        params = geometry.BarrierParams(K3=K3, k3=k3)
        report = geometry.verify_barrier_bound(
            u_hess, geom, params, spec, sample_points=points, which=which
        )
    profile = {"elapsed_s": time.perf_counter() - start}
    payload = report.as_dict()
    _write_manifest(out_dir, "barrier-check", cfg.raw, seed, payload, fmt, profile)
    status = "pass" if report.passed else "FAIL"
    print(
        f"barrier-check {which}: {status} (K3={K3:g}, min margin "
        f"{report.min_margin:.4g}, empirical small constant {report.empirical_k3:.4g})"
    )
    return 0 if report.passed else 2


_COMMANDS = {
    "solve": (cmd_solve, _SOLVE_KEYS),
    "verify": (cmd_verify, _VERIFY_KEYS),
    "cone-check": (cmd_cone_check, _CONE_KEYS),
    "barrier-check": (cmd_barrier_check, _BARRIER_KEYS),
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="sumhess", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default="out")
        p.add_argument("--format", choices=("csv", "json"), default="json")
    args = parser.parse_args(argv)

    handler, known = _COMMANDS[args.command]
    try:
        raw = _load_config(args.config)
        cfg = _Config(raw, known)
        seed = args.seed if args.seed is not None else cfg.get("seed", 0, int)
        return handler(cfg, seed, args.out_dir, args.format)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NonconvergenceError, ContinuationError) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 2
    except SumhessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
