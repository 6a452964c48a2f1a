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
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

# ``solver`` loads scipy's sparse stack, so only the code that solves imports it
from . import _kernels, cones, geometry
from .errors import ConfigError, ContinuationError, NonconvergenceError, SumhessError
from .expressions import parse_expression
from .lift import ConeSpec, msum_sym, subset_table


def _load_config(path):
    """The raw config map, and the seed a manifest ran with (else None)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except RecursionError as exc:
            raise ConfigError(f"config file {path} is nested too deeply to parse") from exc
        config = payload.get("config", payload)
        if not isinstance(config, dict):
            raise ConfigError(f"manifest config must be a key = value map, got {config!r}")
        seed = payload.get("seed") if "config" in payload else None
        if seed is not None and type(seed) is not int:
            raise ConfigError(f"manifest seed must be an integer, got {seed!r}")
        return {str(k): str(v) for k, v in config.items()}, seed
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
    return config, None


class _Config:
    """Typed access to the raw string map. It records every key read, so a
    command refuses the keys its run does not read (``refuse_unread``)."""

    def __init__(self, raw):
        self.raw = dict(raw)
        self._read = set()

    def get(self, key, default=None, cast=str):
        self._read.add(key)
        if key not in self.raw:
            return default
        value = self.raw[key]
        try:
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
        self._read.add(key)
        value = self.raw.get(key)
        if value is None:
            return None
        try:
            return [cast(v) for v in value.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc

    def refuse_unread(self):
        """ConfigError naming the keys no read has asked for: a command calls
        it once it has read its inputs, before any work or output."""
        unread = set(self.raw) - self._read
        if unread:
            raise ConfigError(f"config keys this run does not read: {sorted(unread)}")


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
    from .solver import SolverConfig

    kwargs = {}
    for f in dataclasses.fields(SolverConfig):
        value = cfg.get(f.name, cast=float)
        if value is not None:
            kwargs[f.name] = value
    return SolverConfig(**kwargs)


def _solve_problem(cfg, mode, spec):
    """The ProblemSpec of a solve config and the exact solution (or None)."""
    from . import solver

    if mode == "radial":
        radius = cfg.get("radius", 1.0, float)
    else:
        extents = cfg.float_list("extents") or [2.0] * spec.n
    manufactured = cfg.get("manufactured")
    if manufactured:
        if manufactured != mode:
            raise ConfigError("manufactured template must match mode")
        # each template takes its own amplitude key: coef radially, amp on a box
        own = "coef" if mode == "radial" else "amp"
        amplitude = cfg.get(own, cast=float)
        kwargs = {} if amplitude is None else {own: amplitude}
        if mode == "radial":
            return solver.radial_quartic_problem(spec, R=radius, **kwargs)
        return solver.box_cosine_problem(spec, extents=extents, **kwargs)

    f_expr = parse_expression(cfg.require("f"))
    a_expr = parse_expression(cfg.require("a"))
    b_expr = parse_expression(cfg.require("b"))

    def b_field(points, normals):
        return b_expr(points)

    geom = geometry.ball(radius, dim=spec.n) if mode == "radial" else geometry.box(extents)
    return solver.ProblemSpec(spec=spec, geom=geom, f=f_expr, a=a_expr, b=b_field), None


def cmd_solve(cfg, seed, out_dir, fmt):
    from . import solver

    mode = cfg.require("mode")
    if mode not in ("radial", "box"):
        raise ConfigError("mode must be radial or box")
    spec = _cone_spec(cfg)
    scfg = _solver_config(cfg)
    # ValueError here is bad domain or template input: a nonpositive or
    # non-finite radius or extent, or a non-finite amplitude
    try:
        problem, exact = _solve_problem(cfg, mode, spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if mode == "radial":
        mesh, run = cfg.get("mesh", 64, int), solver.radial_solve
    else:
        mesh, run = cfg.int_list("mesh") or [17] * spec.n, solver.box_solve
    cfg.refuse_unread()

    start = time.perf_counter()
    state, grid = run(problem, mesh, scfg)
    profile = {"elapsed_s": time.perf_counter() - start, **state.profile}

    report = state.as_dict()
    if exact is not None:
        err = state.values - exact(grid.points)
        report["error_linf"] = float(np.abs(err).max())
        report["error_l2"] = float(np.sqrt((err**2).mean()))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_solution_csv(out / "solution.csv", grid, state)
    _write_manifest(out_dir, "solve", cfg.raw, seed, report, fmt, profile)
    print(f"solve: reached t={state.t:g} with min margin {state.min_margin:.3e}")
    return 0


# rows formatted per write: one full-table string would cost megabytes of
# peak memory on a 33^3 box
_CSV_BLOCK_ROWS = 1024


def _write_solution_csv(path, grid, state):
    """Write the [points | u | margin] table: every value a float64 as
    ``%.17g``, so it reads back to the same double, comma separated, CRLF
    line ends, margin ``nan`` on boundary nodes. An extended-precision state
    is rounded to float64 here."""
    pts = grid.points
    ncols = pts.shape[1] + 2
    row_fmt = ",".join(["%.17g"] * ncols) + "\r\n"
    with open(path, "w", newline="") as fh:
        header = [f"x{i + 1}" for i in range(pts.shape[1])] + ["u", "margin"]
        fh.write(",".join(header) + "\r\n")
        for start in range(0, pts.shape[0], _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            values = state.values[rows].astype(np.float64)
            block = np.column_stack([pts[rows], values, state.margins[rows]])
            fh.write(row_fmt * block.shape[0] % tuple(block.ravel().tolist()))


def cmd_verify(cfg, seed, out_dir, fmt):
    which = cfg.require("which")
    if which == "jacobian":
        from . import solver

        spec = _cone_spec(cfg, defaults=(3, 2, 2))
        states = cfg.get("states", 10, int)
        run = functools.partial(solver.verify_jacobian_suite, [spec], states=states)
    elif which in cones.SUITES:
        suite = cones.SUITES[which]
        if "k" in suite.shape:
            suite_args = {"spec": _cone_spec(cfg)}
        else:
            # run_suite defaults a missing n to 5 and refuses a missing (n, m)
            suite_args = {key: cfg.get(key, cast=int) for key in suite.shape}
        # the suite's own constants, left to its defaults when unset
        for key in suite.constants:
            value = cfg.get(key, cast=int if key == "l" else float)
            if value is not None:
                suite_args[key] = value
        trials = cfg.get("trials", 10_000, int)
        run = functools.partial(cones.run_suite, which, trials=trials, **suite_args)
    else:
        raise ConfigError(f"which must be one of {(*cones.SUITES, 'jacobian')}")
    cfg.refuse_unread()
    start = time.perf_counter()
    report = run(seed=seed)
    profile = {"elapsed_s": time.perf_counter() - start}
    payload = report.as_dict()
    _write_manifest(out_dir, "verify", cfg.raw, seed, payload, fmt, profile)
    status = "pass" if report.passed else "FAIL"
    print(
        f"verify {which}: {status} ({report.hypothesis_hits} hypothesis hits, "
        f"{report.violations} violations, worst margin {payload['worst_margin']})"
    )
    return 0 if report.passed else 2


def _csv_rows(path):
    """The rows of the CSV file ``path``; ConfigError if it is not UTF-8 text."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield from csv.reader(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"input file {path} is not UTF-8 text: {exc}") from exc


def cmd_cone_check(cfg, seed, out_dir, fmt):
    n = cfg.require("n", int)
    m = cfg.require("m", int)
    k_conf = cfg.get("k", cast=int)
    path = Path(cfg.require("input"))
    cfg.refuse_unread()
    if not path.exists():
        raise ConfigError(f"input file {path} not found")
    try:
        table = subset_table(n, m)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if k_conf is not None and not 1 <= k_conf <= table.size:
        raise ConfigError(f"need 1 <= k <= {table.size}, got k={k_conf}")
    rows_out = []
    for rowno, row in enumerate(_csv_rows(path), 1):
        # trailing empty cells are padding; one between values is malformed
        cells = list(row)
        while cells and not cells[-1].strip():
            cells.pop()
        if not cells:
            continue
        try:
            values = np.array([float(c) for c in cells])
        except ValueError:
            values = None
        if values is None or not np.isfinite(values).all():
            raise ConfigError(f"row {rowno} malformed")
        if values.size == n:
            mu = values
        elif values.size == n * n:
            M = values.reshape(n, n)
            if not np.allclose(M, M.T, rtol=0.0, atol=1e-12):
                raise ConfigError(f"row {rowno} matrix not symmetric")
            mu = np.linalg.eigvalsh((M + M.T) / 2.0)
        else:
            raise ConfigError(
                f"row {rowno} has {values.size} entries, expected {n} or {n * n}"
            )
        # an S table that overflows would reach the manifest as Infinity,
        # which is not JSON: the row is refused instead
        with np.errstate(all="ignore"):
            s = msum_sym(mu, m, table.size)
        if not np.isfinite(s).all():
            raise ConfigError(f"row {rowno} malformed: its S_1..S_{table.size} are not all finite")
        positive = s[1:] > 0
        largest = int(np.argmax(~positive)) if not positive.all() else table.size
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


def cmd_barrier_check(cfg, seed, out_dir, fmt):
    spec = _cone_spec(cfg)
    radius = cfg.get("radius", 1.0, float)
    which = cfg.get("which", "lemma53")
    points = cfg.get("points", 1000, int)
    field = cfg.get("field", "quadratic")
    if field == "quadratic":
        u_hess = lambda x: np.broadcast_to(np.eye(spec.n), (len(x), spec.n, spec.n))
    elif field == "quartic":
        coef = cfg.get("coef", 0.0, float)

        # x.x as a batched matmul and the outer product formed before the 8c
        # scaling round each row as the one-point x @ x and 8c * outer(x, x)
        # do; einsum or a row sum of x * x differs in the last bit
        def u_hess(x, c=coef):
            xx = (x[:, None, :] @ x[:, :, None])[:, 0, 0]
            return (np.eye(spec.n) * (1.0 + 4.0 * c * xx)[:, None, None]
                    + 8.0 * c * (x[:, :, None] * x[:, None, :]))
    else:
        raise ConfigError("field must be quadratic or quartic")
    k3 = cfg.get("k3", 0.01, float)
    auto = cfg.get("K3", "auto") == "auto"
    K3 = None if auto else cfg.get("K3", cast=float)
    cfg.refuse_unread()
    start = time.perf_counter()
    # ValueError here is bad input: a nonpositive or non-finite radius,
    # barrier constants out of range, or a field whose Hessians are not
    # finite (e.g. coef = nan)
    try:
        geom = geometry.ball(radius, dim=spec.n)
        if auto:
            # the search's passing check is the check at every one of the points
            K3, report = geometry.search_barrier_constant(
                u_hess, geom, spec, sample_points=points, which=which, k3=k3
            )
        else:
            params = geometry.BarrierParams(K3=K3, k3=k3)
            report = geometry.verify_barrier_bound(
                u_hess, geom, params, spec, sample_points=points, which=which
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
    "solve": cmd_solve,
    "verify": cmd_verify,
    "cone-check": cmd_cone_check,
    "barrier-check": cmd_barrier_check,
}


@functools.cache
def _parser():
    """The argument parser, built on first use (not at import, which the
    set-up time counts) and shared by every later ``main`` call: parsing
    keeps its results in a fresh namespace, so no call sees another's."""
    parser = argparse.ArgumentParser(prog="sumhess", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default="out")
        p.add_argument("--format", choices=("csv", "json"), default="json")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    handler = _COMMANDS[args.command]
    try:
        raw, seed = _load_config(args.config)
        cfg = _Config(raw)
        # --seed, else the seed a replayed manifest ran with, else the seed
        # key, which every run reads
        key_seed = cfg.get("seed", 0, int)
        if args.seed is not None:
            seed = args.seed
        elif seed is None:
            seed = key_seed
        if seed < 0:
            raise ConfigError(f"need seed >= 0, got seed={seed}")
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
