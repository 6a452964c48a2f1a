import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import sumhess
from oracles import quartic_hessian_point, write_solution_csv_rows
from sumhess import cli, cones, geometry, grids, solver
from sumhess.cli import _write_solution_csv, main
from sumhess.expressions import parse_expression
from sumhess.errors import ConfigError
from sumhess.solver import SolverConfig


def write(path, text):
    path.write_text(text)
    return str(path)


def test_expression_parser():
    f = parse_expression("1 + 2*x1^2 - cos(x2)")
    pts = np.array([[1.0, 0.0], [2.0, math.pi]])
    assert np.allclose(f(pts), [1 + 2 - 1.0, 1 + 8 + 1.0])
    g = parse_expression("|x| + r")
    assert np.allclose(g(np.array([[3.0, 4.0]])), [10.0])
    h = parse_expression("exp(-x1)*sin(pi/2)")
    assert np.allclose(h(np.array([[0.0]])), [1.0])
    with pytest.raises(ConfigError):
        parse_expression("foo(x1)")
    with pytest.raises(ConfigError):
        parse_expression("1 +")
    with pytest.raises(ConfigError):
        parse_expression("x9")(np.array([[1.0]]))


@pytest.mark.parametrize(
    "text,expected",
    [
        ("-x1^2", -9.0),
        ("-2^2", -4.0),
        ("(-x1)^2", 9.0),
        ("--x1^2", 9.0),
        ("2^-1", 0.5),
        ("2^-x2^2", 2.0**-4),
        ("2^3^2", 512.0),
        ("x1*-x2", -6.0),
        ("1 - -x1^2", 10.0),
    ],
)
def test_expression_precedence(text, expected):
    # unary minus binds looser than ^, which is right associative and takes
    # a signed exponent
    assert parse_expression(text)(np.array([[3.0, 2.0]]))[0] == expected


@pytest.mark.parametrize("text", ["x0", "x00", "1 + x0^2"])
def test_expression_rejects_coordinate_zero(text):
    # x0 once read the last coordinate (axis -1)
    with pytest.raises(ConfigError, match="numbered from x1"):
        parse_expression(text)


@pytest.mark.parametrize(
    "text,expected",
    [("007", 7.0), ("1.", 1.0), (".5", 0.5), ("1.e5", 1e5), ("  x1  ", 3.0), ("x1\n- 007", -4.0)],
)
def test_expression_numbers_and_whitespace(text, expected):
    # numbers as the grammar writes them (a leading zero is no octal
    # prefix), and whitespace around or inside an expression is ignored
    assert parse_expression(text)(np.array([[3.0, 2.0]]))[0] == expected


@pytest.mark.parametrize(
    "text",
    ["1_0", "0x10", "x1**2", "x1 # c", "cos(x1,x2)", "x1 if x2 else x3", "x1.real",
     "__import__", "1j", "True", "+x1", "x1 | x2", "| x |", "cos|x|", "()", "", "1if x1 else 2"],
)
def test_expression_rejects_what_the_grammar_lacks(text, recwarn):
    # the text is parsed by Python's ast, but only the grammar's nodes,
    # characters and number spellings compile, and Python's warnings about
    # the text (1if is an "invalid decimal literal") stay inside the parser
    with pytest.raises(ConfigError):
        parse_expression(text)
    assert len(recwarn) == 0


def _deep(kind, depth):
    if kind == "parentheses":
        return "(" * depth + "x1" + ")" * depth
    if kind == "sum":
        return " + ".join(["x1"] * depth)
    return "-" * depth + "x1"


@pytest.mark.parametrize("kind,depth", [("parentheses", 1200), ("sum", 3000), ("minus", 3000)])
def test_deep_expression_is_a_config_error(kind, depth):
    with pytest.raises(ConfigError, match="nested"):
        parse_expression(_deep(kind, depth))


def test_field_too_deep_to_evaluate_is_a_config_error():
    field = parse_expression(_deep("sum", 400))
    assert field(np.array([[1.0]]))[0] == 400.0

    def call_below(frames):  # evaluate the field under a deep stack
        return field(np.array([[1.0]])) if frames == 0 else call_below(frames - 1)

    with pytest.raises(ConfigError, match="too deeply to evaluate"):
        call_below(sys.getrecursionlimit() - 300)


@pytest.mark.parametrize("kind,depth", [("parentheses", 1200), ("sum", 3000)])
def test_solve_with_a_deep_f_is_a_config_error(tmp_path, capsys, kind, depth):
    cfg = write(tmp_path / "run.cfg", f"""
mode = radial
n = 3
m = 2
k = 2
mesh = 16
f = {_deep(kind, depth)}
a = 1
b = 1
""")
    rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error:") and "Traceback" not in err


def test_solve_radial_manufactured(tmp_path):
    cfg = write(tmp_path / "run.cfg", """
mode = radial
n = 3
m = 2
k = 2
manufactured = radial
mesh = 64
""")
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfg, "--out-dir", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["report"]["t"] == 1.0
    assert manifest["report"]["error_linf"] < 1e-3  # O(h^2) at mesh 64
    # each step names the mesh it ran on: the radial intervals
    assert [s["mesh"] for s in manifest["report"]["steps"]] == [64] * len(
        manifest["report"]["steps"]
    )
    diagnostics = manifest["report"]["diagnostics"]
    assert diagnostics["state_dtype"] == (
        "float64" if solver.EXTENDED == np.float64 else "longdouble"
    )
    assert diagnostics["state_eps"] == float(np.finfo(solver.EXTENDED).eps)
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "x1,u,margin"
    assert len(lines) == 66  # header + 65 nodes


def test_solve_trivial_path_zero_iterations(tmp_path):
    cfg = write(tmp_path / "run.cfg", """
mode = radial
n = 3
m = 2
k = 2
mesh = 64
f = 12
a = 1
b = x1 + 0.5*x1^2
""")
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfg, "--out-dir", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sum(s["newton_iters"] for s in manifest["report"]["steps"]) == 0


def test_solve_expression_fields(tmp_path):
    # a non-constant interior field: the path has to do real Newton work
    cfg = write(tmp_path / "run.cfg", """
mode = radial
n = 3
m = 2
k = 2
mesh = 64
f = 12 + 3*x1^2
a = 1
b = x1 + 0.5*x1^2
""")
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfg, "--out-dir", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["report"]["t"] == 1.0
    assert sum(s["newton_iters"] for s in manifest["report"]["steps"]) > 0
    assert manifest["report"]["diagnostics"]["bound_ok"]
    assert manifest["report"]["diagnostics"]["final_residual_norm"] < 1e-9


def test_solve_box_manufactured(tmp_path):
    cfg = write(tmp_path / "run.cfg", """
mode = box
n = 3
m = 2
k = 2
manufactured = box
mesh = 9,9,9
amp = 0.05
""")
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfg, "--out-dir", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["report"]["t"] == 1.0
    assert manifest["report"]["diagnostics"]["bound_ok"]
    assert manifest["report"]["diagnostics"]["state_dtype"] == "float64"
    assert manifest["report"]["diagnostics"]["state_eps"] == float(np.finfo(np.float64).eps)
    # 9^3 halves to 5^3: the path runs there on LU (125 unknowns, at or
    # below direct_limit), then 9^3 takes one Newton solve at t = 1 on Krylov
    *path, last = manifest["report"]["steps"]
    assert all(s["mesh"] == [5, 5, 5] and s["linear_iters"] == 0 for s in path)
    assert path[-1]["t"] == 1.0 and path[-1]["predicted"]
    assert last["mesh"] == [9, 9, 9] and last["t"] == 1.0 and last["dt"] == 0.0
    assert last["newton_iters"] > 0 and last["linear_iters"] > 0
    assert manifest["report"]["rejected_steps"] == []
    profile = manifest["profile"]
    phases = [profile[key] for key in ("residual_s", "jacobian_s", "linear_solve_s")]
    assert min(phases) > 0 and sum(phases) <= profile["elapsed_s"]
    assert 0 < profile["hierarchy_s"] <= profile["linear_solve_s"]
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,x3,u,margin"
    assert len(lines) == 9**3 + 1


def test_solve_nonconvergence_exit_code(tmp_path, capsys):
    # an unreachable tolerance forces step-size underflow: exit code 2, and
    # the message names the Newton failure behind it
    cfg = write(tmp_path / "run.cfg", """
mode = radial
n = 3
m = 2
k = 2
manufactured = radial
mesh = 32
tol_abs = 1e-18
dt_min = 0.01
""")
    rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("solver failed: step size underflow at t=0; the last attempt, to t=")
    assert "failed: line search stalled at t=" in err


def _fresh_interpreter(probe, *args):
    """stdout of ``probe`` run by a fresh interpreter on this checkout's
    sumhess: the test oracles have loaded scipy into this one."""
    src = str(Path(sumhess.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout


_LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_imports_load_no_scipy_stats():
    # neither a bare `import sumhess` nor the CLI loads any scipy: only the
    # commands that need it import it, as they run
    probe = (
        "import sys\n"
        "import sumhess\n"
        f"bare = {_LOADED_SCIPY}\n"
        "import sumhess.cli\n"
        f"print(bare, {_LOADED_SCIPY})\n"
    )
    assert _fresh_interpreter(probe).strip() == "[] []"


_SCIPY_PROBE_CONFIGS = {
    "verify": "which = prop23\nn = 5\nm = 2\nk = 3\ntrials = 50\n",
    "cone-check": "input = {rows}\nn = 3\nm = 2\nk = 2\n",
    "barrier-check": "n = 3\nm = 2\nk = 2\npoints = 20\nK3 = 1024\n",
    "solve": "mode = radial\nn = 3\nm = 2\nk = 2\nmanufactured = radial\nmesh = 16\n",
}


@pytest.mark.parametrize("command", list(_SCIPY_PROBE_CONFIGS))
def test_each_command_loads_only_the_scipy_it_uses(tmp_path, command):
    rows = tmp_path / "rows.csv"
    rows.write_text("1,1,-1\n")
    cfg = write(tmp_path / "run.cfg", _SCIPY_PROBE_CONFIGS[command].format(rows=rows))
    probe = (
        "import sys\n"
        "from sumhess.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        f"print(rc, *{_LOADED_SCIPY})\n"
    )
    last = _fresh_interpreter(probe, command, "--config", cfg,
                             "--out-dir", str(tmp_path / "o")).splitlines()[-1]
    rc, *loaded = last.split()
    assert rc == "0"
    sparse = [m for m in loaded if m.startswith("scipy.sparse")]
    if command in ("verify", "cone-check"):
        assert loaded == []
    elif command == "barrier-check":
        assert "scipy.special" in loaded and sparse == []
    else:
        assert "scipy.sparse.linalg" in loaded


def test_solve_reads_every_solver_setting(tmp_path, capsys):
    fields = {f.name for f in dataclasses.fields(SolverConfig)}
    assert fields == {"tol_abs", "margin_floor", "dt0", "dt_min", "dt_max"}
    settings = "tol_abs = 1e-9\nmargin_floor = 1e-12\ndt0 = 0.2\ndt_min = 1e-3\ndt_max = 1\n"
    out = tmp_path / "ok"
    cfg = write(tmp_path / "ok.cfg", _RADIAL_SOLVE + settings)
    assert main(["solve", "--config", cfg, "--out-dir", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["report"]["steps"][1]["dt"] == 0.2
    # a misspelt setting is refused, not left at its default
    out = tmp_path / "typo"
    cfg = write(tmp_path / "typo.cfg", _RADIAL_SOLVE + settings.replace("dt_min", "dt_mn"))
    assert main(["solve", "--config", cfg, "--out-dir", str(out)]) == 1
    assert "does not read: ['dt_mn']" in capsys.readouterr().err
    assert not out.exists()


def test_solve_rejects_nonpositive_f(tmp_path):
    cfg = write(tmp_path / "run.cfg", """
mode = radial
n = 3
m = 2
k = 2
f = 0 - 1
a = 1
b = 1
""")
    rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 1


def test_solve_rejects_non_finite_f(tmp_path, capsys):
    # 0/0 is NaN at every node; NaN passes "vals <= 0" and "norm > tol", so
    # it must be rejected explicitly rather than reported as a solve
    cfg = write(tmp_path / "run.cfg", """
mode = radial
n = 3
m = 2
k = 2
mesh = 16
f = (x1 - x1) / (x1 - x1)
a = 1
b = 1
""")
    out = tmp_path / "o"
    with np.errstate(invalid="ignore"):
        rc = main(["solve", "--config", cfg, "--out-dir", str(out)])
    assert rc == 1
    assert "f must be finite" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", _RADIAL_SOLVE + "bogus = 1\n")
    rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "config keys this run does not read: ['bogus']" in capsys.readouterr().err


def test_verify_commands(tmp_path):
    cfg = write(tmp_path / "v.cfg", "which = prop24\nn = 5\nm = 2\nk = 3\ntrials = 500\n")
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--seed", "3", "--out-dir", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["report"]["violations"] == 0

    cfg = write(tmp_path / "v26.cfg", "which = prop26\nn = 3\nm = 2\nk = 2\ntrials = 10\n")
    rc = main(["verify", "--config", cfg, "--out-dir", str(tmp_path / "o2")])
    assert rc == 1  # no valid degree for that shape

    cfg = write(tmp_path / "vsl.cfg", "which = spectral-lift\nn = 5\nm = 2\nk = 3\ntrials = 300\n")
    rc = main(["verify", "--config", cfg, "--out-dir", str(tmp_path / "o3")])
    assert rc == 0


@pytest.mark.parametrize(
    "body",
    [
        "which = prop21\nn = 5\ntrials = 100\n",
        "which = prop22\nn = 4\nm = 2\nk = 2\ntrials = 50\n",
        "which = prop23\nn = 5\nm = 2\nk = 3\ntrials = 100\n",
        "which = prop27\nn = 5\nm = 2\nk = 3\ntrials = 100\ndelta = 0.5\neps = 0.15\n",
        "which = mixed\nn = 4\ntrials = 30\n",
        "which = euler\nn = 4\nm = 2\nk = 3\ntrials = 50\n",
        "which = jacobian\nn = 3\nm = 2\nk = 2\nstates = 2\n",
    ],
)
def test_verify_every_token(tmp_path, body):
    cfg = write(tmp_path / "v.cfg", body)
    rc = main(["verify", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 0


def test_verify_manifest_roundtrip(tmp_path):
    cfg = write(tmp_path / "v.cfg", "which = prop25\nn = 5\nm = 2\nk = 3\ntrials = 400\nseed = 11\n")
    out1 = tmp_path / "o1"
    assert main(["verify", "--config", cfg, "--out-dir", str(out1)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    out2 = tmp_path / "o2"
    assert main(["verify", "--config", str(out1 / "manifest.json"), "--out-dir", str(out2)]) == 0
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["report"] == m2["report"]
    assert m1["config"] == m2["config"]
    # a run made with --seed replays at that seed, with or without a seed key
    plain = write(tmp_path / "p.cfg", "which = prop24\nn = 5\nm = 2\nk = 3\ntrials = 200\n")
    for name, path in (("keyed", cfg), ("plain", plain)):
        first, again = tmp_path / f"{name}1", tmp_path / f"{name}2"
        assert main(["verify", "--config", path, "--seed", "7", "--out-dir", str(first)]) == 0
        manifest = str(first / "manifest.json")
        assert main(["verify", "--config", manifest, "--out-dir", str(again)]) == 0
        m1, m2 = (json.loads((out / "manifest.json").read_text()) for out in (first, again))
        assert m1["seed"] == m2["seed"] == 7
        assert m1["report"] == m2["report"]
        assert m1["config"] == m2["config"]
        # --seed still overrides a manifest's seed
        assert main(["verify", "--config", manifest, "--seed", "3", "--out-dir", str(again)]) == 0
        assert json.loads((again / "manifest.json").read_text())["seed"] == 3
    bad = write(tmp_path / "bad.json", json.dumps({**m1, "seed": "7"}))
    assert main(["verify", "--config", bad, "--out-dir", str(tmp_path / "bad")]) == 1


def test_solve_manifest_roundtrip_and_csv_format(tmp_path):
    cfg = write(tmp_path / "run.cfg", """
mode = radial
n = 3
m = 2
k = 2
manufactured = radial
mesh = 32
""")
    out1 = tmp_path / "o1"
    assert main(["solve", "--config", cfg, "--out-dir", str(out1), "--format", "csv"]) == 0
    assert (out1 / "report.csv").exists()
    m1 = json.loads((out1 / "manifest.json").read_text())
    out2 = tmp_path / "o2"
    assert main(["solve", "--config", str(out1 / "manifest.json"), "--out-dir", str(out2)]) == 0
    m2 = json.loads((out2 / "manifest.json").read_text())
    # wall time sits outside the replayed report
    assert m1["report"] == m2["report"]
    assert m1["profile"]["elapsed_s"] > 0 and m2["profile"]["elapsed_s"] > 0
    assert (out1 / "solution.csv").read_text() == (out2 / "solution.csv").read_text()


@pytest.mark.parametrize(
    "grid",
    # both grids span more than one 1024-row formatting block
    [grids.box_grid([2.0, 1.5, 3.0], (11, 11, 11)), grids.radial_grid(1.0, 2500, 3)],
    ids=["box", "radial"],
)
def test_solution_csv_bytes_match_row_writer(tmp_path, grid):
    rng = np.random.default_rng(5)
    values = rng.normal(size=grid.npoints) * 10.0 ** rng.integers(-300, 300, grid.npoints)
    margins = rng.uniform(0.0, 50.0, grid.npoints)
    specials = [-0.0, 1e-300, 1e300, 0.1]
    values[:4] = values[-4:] = specials  # the last radial node is the boundary
    margins[grid.interior_flat[:4]] = specials
    margins[grid.boundary_flat] = np.nan
    state = SimpleNamespace(values=values, margins=margins)
    _write_solution_csv(tmp_path / "block.csv", grid, state)
    write_solution_csv_rows(tmp_path / "rows.csv", grid, state)
    written = (tmp_path / "block.csv").read_bytes()
    assert written == (tmp_path / "rows.csv").read_bytes()
    assert written.count(b"\r\n") == grid.npoints + 1
    assert written.count(b",nan\r\n") == grid.boundary_flat.size


def test_solution_csv_rounds_an_extended_state_to_float64(tmp_path):
    grid = grids.radial_grid(1.0, 8, 3)
    values = np.arange(grid.npoints, dtype=np.longdouble) / 3 + np.longdouble(1e-18)
    margins = np.full(grid.npoints, 0.5)
    margins[grid.boundary_flat] = np.nan
    _write_solution_csv(tmp_path / "ext.csv", grid, SimpleNamespace(values=values, margins=margins))
    rounded = SimpleNamespace(values=values.astype(np.float64), margins=margins)
    write_solution_csv_rows(tmp_path / "rows.csv", grid, rounded)
    assert (tmp_path / "ext.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    table = np.genfromtxt(tmp_path / "ext.csv", delimiter=",", names=True)
    assert np.array_equal(table["u"], values.astype(np.float64))


def test_cone_check(tmp_path):
    rows = tmp_path / "rows.csv"
    eye = np.eye(3).ravel()
    lines = [
        ",".join(str(v) for v in eye),
        "1,1,-1",
        "",  # a blank line is skipped
        "1,1,-1, ,",  # trailing empty cells are padding
    ]
    rows.write_text("\n".join(lines) + "\n")
    cfg = write(tmp_path / "c.cfg", f"input = {rows}\nn = 3\nm = 2\nk = 2\n")
    out = tmp_path / "out"
    rc = main(["cone-check", "--config", cfg, "--out-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "manifest.json").read_text())["report"]
    assert report["rows"][0]["largest_admissible_k"] == 3
    assert report["rows"][1]["largest_admissible_k"] == 1
    assert report["rows"][2] == dict(report["rows"][1], row=4)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    cfg = write(tmp_path / "c2.cfg", f"input = {empty}\nn = 3\nm = 2\n")
    rc = main(["cone-check", "--config", cfg, "--out-dir", str(tmp_path / "o2")])
    assert rc == 0

    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,oops\n")
    cfg = write(tmp_path / "c3.cfg", f"input = {bad}\nn = 3\nm = 2\n")
    rc = main(["cone-check", "--config", cfg, "--out-dir", str(tmp_path / "o3")])
    assert rc == 1


def test_cone_check_rejects_matrix_asymmetric_beyond_atol(tmp_path, capsys):
    # entries 1 and 1.000009 agree within numpy's default rtol of 1e-5, but
    # the check is absolute: |M - M^T| <= 1e-12
    rows = tmp_path / "rows.csv"
    rows.write_text("1,1,0,1.000009,1,0,0,0,1\n")
    cfg = write(tmp_path / "c.cfg", f"input = {rows}\nn = 3\nm = 2\nk = 2\n")
    out = tmp_path / "out"
    rc = main(["cone-check", "--config", cfg, "--out-dir", str(out)])
    assert rc == 1
    assert "row 1 matrix not symmetric" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("k", [-1, 0, 7, 40])
def test_cone_check_rejects_k_outside_1_to_c(tmp_path, capsys, k):
    # n = 4, m = 2 gives C = 6 lifted eigenvalues, so k must lie in 1..6
    rows = tmp_path / "rows.csv"
    rows.write_text("1,2,3,4\n")
    cfg = write(tmp_path / "c.cfg", f"input = {rows}\nn = 4\nm = 2\nk = {k}\n")
    out = tmp_path / "out"
    rc = main(["cone-check", "--config", cfg, "--out-dir", str(out)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_cone_check_k_equal_to_c_is_accepted(tmp_path):
    rows = tmp_path / "rows.csv"
    rows.write_text("1,2,3,4\n")
    cfg = write(tmp_path / "c.cfg", f"input = {rows}\nn = 4\nm = 2\nk = 6\n")
    out = tmp_path / "out"
    assert main(["cone-check", "--config", cfg, "--out-dir", str(out)]) == 0
    entry = json.loads((out / "manifest.json").read_text())["report"]["rows"][0]
    assert entry["admissible_at_k"] and entry["margin_at_k"] > 0


@pytest.mark.parametrize("bad_row", ["nan,1,1,1", "1,inf,1,1", "1,,2,3,4", "1, ,2,3,4"])
def test_cone_check_rejects_non_finite_row(tmp_path, capsys, bad_row):
    rows = tmp_path / "rows.csv"
    rows.write_text(f"1,2,3,4\n{bad_row}\n")
    cfg = write(tmp_path / "c.cfg", f"input = {rows}\nn = 4\nm = 2\nk = 2\n")
    out = tmp_path / "out"
    rc = main(["cone-check", "--config", cfg, "--out-dir", str(out)])
    assert rc == 1
    assert "row 2" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("1,2,oops", "row 2 malformed"),
        ("1,1,0,1.5,1,0,0,0,1", "row 2 matrix not symmetric"),
        ("1,2,3,4", "row 2 has 4 entries, expected 3 or 9"),
    ],
    ids=["malformed", "asymmetric", "entry-count"],
)
def test_cone_check_row_errors_are_config_errors(tmp_path, capsys, bad_row, message):
    # a bad row ends in the typed ConfigError that main reports with exit 1
    rows = tmp_path / "rows.csv"
    rows.write_text(f"1,2,3\n{bad_row}\n")
    cfg = write(tmp_path / "c.cfg", f"input = {rows}\nn = 3\nm = 2\n")
    out = tmp_path / "out"
    rc = main(["cone-check", "--config", cfg, "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("case", ["config-bytes", "manifest-config-list", "input-row-bytes"])
def test_undecodable_input_is_a_config_error(tmp_path, capsys, case):
    rows = tmp_path / "rows.csv"
    rows.write_bytes(b"1,2,3,4\n" + (b"1,\xff,3,4\n" if case == "input-row-bytes" else b""))
    cfg = tmp_path / "c.cfg"
    if case == "config-bytes":
        cfg.write_bytes(b"\xff\xfe")
    elif case == "manifest-config-list":
        cfg.write_text(json.dumps({"config": [1, 2]}))
    else:
        cfg.write_text(f"input = {rows}\nn = 4\nm = 2\n")
    out = tmp_path / "out"
    rc = main(["cone-check", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "command, body",
    [
        ("solve", "mode = radial\nn = 2\nm = 1\nk = 1\nmanufactured = radial\n"),
        ("cone-check", "input = {rows}\nn = 4\nm = 5\n"),
        ("solve", "mode = box\nn = 3\nm = 2\nk = 2\nmanufactured = box\nmesh = 9,x,9\n"),
    ],
)
def test_bad_config_value_is_a_config_error(tmp_path, capsys, command, body):
    rows = tmp_path / "rows.csv"
    rows.write_text("1,2,3,4\n")
    cfg = write(tmp_path / "c.cfg", body.format(rows=rows))
    rc = main([command, "--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("config error: ")


_RADIAL_SOLVE = "mode = radial\nn = 3\nm = 2\nk = 2\nmanufactured = radial\nmesh = 16\n"
_BARRIER = "n = 4\nm = 2\nk = 2\nwhich = lemma53\npoints = 20\n"
_BOX_SOLVE = "mode = box\nn = 3\nm = 2\nk = 2\nmesh = 5,5,5\n"
_EXPR_FIELDS = "f = 12\na = 1\nb = 1\n"


@pytest.mark.parametrize(
    "command, body, message",
    [
        # a NaN dt0 survived dt *= 0.5 and never fell below dt_min: the
        # solve looped forever; dt0 = 0 looped without advancing t
        ("solve", _RADIAL_SOLVE + "dt0 = nan\n", "0 < dt_min <= dt0 <= dt_max"),
        ("solve", _RADIAL_SOLVE + "dt0 = 0\n", "0 < dt_min <= dt0 <= dt_max"),
        ("barrier-check", _BARRIER + "K3 = -4\n", "barrier constants must be positive"),
        ("barrier-check", _BARRIER + "K3 = abc\n", "bad value for 'K3'"),
        ("barrier-check", _BARRIER + "field = quartic\ncoef = nan\n",
         "matrix entries must be finite"),
        # NaN extents or amp made the manufactured f call eigvalsh on NaN
        # Hessians ("Eigenvalues did not converge"); negative sizes raised a
        # bare ValueError
        ("solve", _BOX_SOLVE + "manufactured = box\nextents = 2,nan,2\n",
         "extents must be positive and finite"),
        ("solve", _BOX_SOLVE + "manufactured = box\namp = inf\n", "amp must be finite"),
        ("solve", _BOX_SOLVE + _EXPR_FIELDS + "extents = 2,inf,2\n",
         "extents must be positive and finite"),
        ("solve", _BOX_SOLVE + "manufactured = box\nextents = 2,-2,2\n",
         "extents must be positive and finite"),
        ("solve", _RADIAL_SOLVE + "radius = -1\n", "radius must be positive and finite"),
        ("barrier-check", _BARRIER + "radius = nan\n", "radius must be positive and finite"),
    ],
    ids=["solve-dt0-nan", "solve-dt0-zero", "barrier-K3-negative", "barrier-K3-text",
         "barrier-quartic-coef-nan", "solve-box-extents-nan", "solve-box-amp-inf",
         "solve-expr-extents-inf", "solve-box-extents-negative",
         "solve-radial-radius-negative", "barrier-radius-nan"],
)
def test_out_of_range_value_is_a_config_error(tmp_path, capsys, command, body, message):
    cfg = write(tmp_path / "c.cfg", body)
    out = tmp_path / "out"
    rc = main([command, "--config", cfg, "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert not (out / "manifest.json").exists()


_PROP26 = "which = prop26\nn = 4\nm = 2\nk = 2\ntrials = 10\n"


@pytest.mark.parametrize(
    "command, body, extra, message",
    [
        # box_cosine_problem() got an unexpected keyword argument 'coef'
        ("solve", _BOX_SOLVE + "manufactured = box\ncoef = 0.1\n", [],
         "config keys this run does not read: ['coef']"),
        # the radial template took no amp, which was dropped without a word
        ("solve", _RADIAL_SOLVE + "amp = 0.1\n", [],
         "config keys this run does not read: ['amp']"),
        # numpy's "expected non-negative integer" from default_rng
        ("verify", _PROP26, ["--seed", "-1"], "need seed >= 0, got seed=-1"),
        ("verify", _PROP26 + "seed = -1\n", [], "need seed >= 0, got seed=-1"),
        ("verify", json.dumps({"config": {"which": "prop24", "n": "5", "m": "2", "k": "3",
                                          "trials": "10"}, "seed": -1}),
         [], "need seed >= 0, got seed=-1"),
        # OverflowError: math range error in InequalityConstants.for_problem
        ("verify", _PROP26.replace("trials", "delta = 1e308\ntrials"), [],
         "delta = 1e+308 is too large"),
    ],
    ids=["solve-box-coef", "solve-radial-amp", "verify-seed-option", "verify-seed-key",
         "verify-manifest-seed", "prop26-delta-overflow"],
)
def test_former_tracebacks_are_config_errors(tmp_path, capsys, command, body, extra, message):
    cfg = write(tmp_path / "c.cfg", body)
    out = tmp_path / "out"
    rc = main([command, "--config", cfg, "--out-dir", str(out), *extra])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert not (out / "manifest.json").exists()


_JACOBIAN = "which = jacobian\nn = 3\nm = 2\nk = 2\nstates = 1\n"
_PROP23 = "which = prop23\nn = 5\nm = 2\nk = 3\ntrials = 10\n"
_PROP21 = "which = prop21\nn = 3\ntrials = 10\n"
_QUADRATIC_BARRIER = _BARRIER + "field = quadratic\n"
_RADIAL_EXPR = _RADIAL_SOLVE.replace("manufactured = radial\n", _EXPR_FIELDS)


@pytest.mark.parametrize(
    "command, body, key, value",
    [
        ("solve", _RADIAL_EXPR, "coef", "0.3"),
        ("solve", _RADIAL_EXPR, "amp", "7"),
        ("solve", _RADIAL_SOLVE, "extents", "2,2,2"),
        ("solve", _BOX_SOLVE + _EXPR_FIELDS, "radius", "2"),
        ("solve", _RADIAL_SOLVE, "f", "12"),
        ("verify", _JACOBIAN, "trials", "10"),
        ("verify", _PROP23, "states", "3"),
        ("verify", _PROP21, "m", "2"),
        ("barrier-check", _QUADRATIC_BARRIER, "coef", "0.05"),
    ],
    ids=["expr-coef", "expr-amp", "radial-extents", "box-radius", "manufactured-f",
         "jacobian-trials", "prop23-states", "prop21-m", "quadratic-coef"],
)
def test_a_key_the_run_does_not_read_is_refused(tmp_path, capsys, command, body, key, value):
    # each of these ran and dropped the key without a word
    cfg = write(tmp_path / "c.cfg", body + f"{key} = {value}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 1
    err = capsys.readouterr()
    assert err.err == f"config error: config keys this run does not read: [{key!r}]\n"
    assert err.out == ""
    assert not out.exists()
    # the base config, without the key, runs
    assert main([command, "--config", write(tmp_path / "ok.cfg", body),
                 "--out-dir", str(out)]) == 0


def test_deeply_nested_json_config_is_a_config_error(tmp_path, capsys):
    # json.loads raised RecursionError
    depth = 5000
    cfg = write(tmp_path / "deep.json", '{"config": ' + "[" * depth + "]" * depth + "}")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "nested too deeply" in err, err
    assert not out.exists()


def test_back_to_back_main_calls_leave_no_state(tmp_path):
    # one parser serves every call; what one call parsed must not reach the
    # next: the command, --seed present or absent, and --format
    verify = write(tmp_path / "v.cfg", "which = prop21\nn = 3\ntrials = 5\n")
    keyed = write(tmp_path / "k.cfg", "which = prop21\nn = 3\ntrials = 5\nseed = 4\n")
    rows = tmp_path / "rows.csv"
    rows.write_text("1,2,3\n")
    cone = write(tmp_path / "c.cfg", f"input = {rows}\nn = 3\nm = 2\n")
    runs = [
        (["verify", "--config", verify, "--seed", "5", "--format", "csv"], 5),
        (["cone-check", "--config", cone], 0),
        (["verify", "--config", verify], 0),
        (["verify", "--config", keyed, "--seed", "6"], 6),
        (["verify", "--config", keyed], 4),
    ]
    for i, (argv, seed) in enumerate(runs):
        out = tmp_path / f"o{i}"
        assert main(argv + ["--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["command"], manifest["seed"]) == (argv[0], seed)
        assert (out / "report.csv").exists() == ("csv" in argv)
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize(
    "body, message",
    [
        ("mode = radial\nmanufactured = radial\nmesh = 1\n", "at least 4 intervals"),
        ("mode = box\nmanufactured = box\nmesh = 2,2,2\n", "at least 5 nodes per axis"),
        ("mode = box\nmanufactured = box\nextents = 2,2\n", "extents has 2 axes but mesh has 3"),
    ],
    ids=["radial-mesh-1", "box-mesh-2", "box-extents-2"],
)
def test_solve_grid_too_small_is_a_config_error(tmp_path, capsys, body, message):
    cfg = write(tmp_path / "c.cfg", "n = 3\nm = 2\nk = 2\n" + body)
    out = tmp_path / "out"
    rc = main(["solve", "--config", cfg, "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "body, key",
    [
        ("which = prop24\nn = 5\nm = 2\nk = 3\ntrials = -5\n", "trials"),
        ("which = prop24\nn = 5\nm = 2\nk = 3\ntrials = 0\n", "trials"),
        ("which = jacobian\nstates = 0\n", "states"),
    ],
    ids=["trials-negative", "trials-zero", "states-zero"],
)
def test_verify_rejects_counts_below_one(tmp_path, capsys, body, key):
    # a count of 0 would otherwise pass vacuously with no samples
    cfg = write(tmp_path / "v.cfg", body)
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"config error: need {key} >= 1")
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "body, message",
    [
        ("which = prop21\nn = 0\ntrials = 10\n", "need n >= 1, got n=0"),
        ("which = mixed\nn = -2\ntrials = 10\n", "need n >= 1, got n=-2"),
        ("which = prop24\nn = 5\nm = 2\nk = 3\nl = 0\ntrials = 10\n", "1 <= l < k, got l=0"),
        ("which = prop24\nn = 5\nm = 2\nk = 3\nl = 3\ntrials = 10\n", "1 <= l < k, got l=3"),
        ("which = prop26\nn = 4\nm = 2\nk = 2\ndelta = -0.4\ntrials = 10\n", "delta > 0"),
        ("which = prop26\nn = 4\nm = 2\nk = 2\nL = 0\ntrials = 10\n", "L > 0"),
        ("which = prop27\nn = 5\nm = 2\nk = 3\ndelta = nan\ntrials = 10\n", "delta > 0"),
        ("which = prop27\nn = 5\nm = 2\nk = 3\neps = -0.1\ntrials = 10\n", "eps > 0"),
    ],
    ids=["prop21-n-zero", "mixed-n-negative", "prop24-l-zero", "prop24-l-equals-k",
         "prop26-delta-negative", "prop26-L-zero", "prop27-delta-nan", "prop27-eps-negative"],
)
def test_verify_rejects_out_of_range_suite_parameters(tmp_path, capsys, body, message):
    # each used to pass vacuously, end in a traceback, or starve the sampler
    cfg = write(tmp_path / "v.cfg", body)
    out = tmp_path / "out"
    rc = main(["verify", "--config", cfg, "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "body, nodes, boundary",
    [
        ("mode = radial\nmanufactured = radial\nmesh = 16\n", 17, [16]),
        ("mode = box\nmanufactured = box\nmesh = 5,6,7\n", 5 * 6 * 7, None),
    ],
    ids=["radial", "box"],
)
def test_solution_csv_margin_is_nan_exactly_on_boundary(tmp_path, body, nodes, boundary):
    cfg = write(tmp_path / "c.cfg", "n = 3\nm = 2\nk = 2\n" + body)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out-dir", str(out)]) == 0
    table = np.genfromtxt(out / "solution.csv", delimiter=",", names=True)
    assert table.size == nodes
    x = np.stack([table[name] for name in table.dtype.names[:-2]], axis=1)
    if boundary is None:  # box: a node is on the boundary when some x_c is extreme
        lo, hi = x.min(axis=0), x.max(axis=0)
        on_boundary = ((x == lo) | (x == hi)).any(axis=1)
    else:
        on_boundary = np.isin(np.arange(nodes), boundary)
    margin = table["margin"]
    assert np.all(np.isnan(margin[on_boundary]))
    assert np.all(np.isfinite(margin[~on_boundary]) & (margin[~on_boundary] > 0))


def test_barrier_check(tmp_path):
    cfg = write(tmp_path / "b.cfg", """
n = 4
m = 2
k = 2
which = lemma53
points = 100
K3 = 1024
""")
    out = tmp_path / "out"
    rc = main(["barrier-check", "--config", cfg, "--out-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "manifest.json").read_text())["report"]
    assert report["passed"] and report["min_margin"] > 0


@pytest.mark.parametrize(
    "points, K3",
    [(0, "auto"), (0, "4"), (-3, "auto")],
    ids=["zero-auto", "zero-fixed", "negative-auto"],
)
def test_barrier_check_rejects_points_below_one(tmp_path, capsys, points, K3):
    # with no points the check would pass or fail vacuously
    cfg = write(tmp_path / "b.cfg", f"n = 4\nm = 2\nk = 2\npoints = {points}\nK3 = {K3}\n")
    out = tmp_path / "out"
    rc = main(["barrier-check", "--config", cfg, "--out-dir", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"config error: need points >= 1, got points={points}"
    )
    assert not (out / "manifest.json").exists()


def test_barrier_check_searches_k3_on_the_verified_points(tmp_path):
    # K3 = 1 passes on the first 400 collar points but fails at 1000
    # (margin -0.0915); the search now runs on all 1000 and finds K3 = 2
    cfg = write(tmp_path / "b.cfg", """
n = 4
m = 2
k = 2
which = lemma53
field = quadratic
points = 1000
K3 = auto
""")
    out = tmp_path / "out"
    rc = main(["barrier-check", "--config", cfg, "--out-dir", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    report = manifest["report"]
    assert report["K3"] == 2.0 and report["passed"] and report["count"] == 1000
    assert report["search_passes"] >= 2
    assert manifest["profile"]["elapsed_s"] > 0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_barrier_check_quartic_field_rounds_as_one_point(tmp_path, monkeypatch, n):
    # the block quartic field must give the one-point formula's Hessians to
    # the last bit, or the barrier reports would move with the block form
    fields = []
    verify = geometry.verify_barrier_bound

    def capture(u_hess, *args, **kwargs):
        fields.append(u_hess)
        return verify(u_hess, *args, **kwargs)

    monkeypatch.setattr(geometry, "verify_barrier_bound", capture)
    cfg = write(tmp_path / "b.cfg",
                f"n = {n}\nm = 2\nk = 2\nfield = quartic\ncoef = 0.05\npoints = 10\nK3 = 4\n")
    main(["barrier-check", "--config", cfg, "--out-dir", str(tmp_path / "out")])
    pts = np.vstack([geometry.collar_points(geometry.ball(1.0, dim=n), 1000, 0.5),
                     np.random.default_rng(n).normal(size=(1000, n))])
    ref = np.array([quartic_hessian_point(x, 0.05) for x in pts])
    assert np.array_equal(fields[0](pts), ref)


def test_barrier_check_nan_margin_exits_2(tmp_path):
    # a quartic coefficient this large overflows the lifted gradient; the NaN
    # margins must fail the check (they used to drop out and exit 0)
    cfg = write(tmp_path / "b.cfg", """
n = 4
m = 2
k = 2
which = lemma53
field = quartic
coef = 2.5e305
points = 20
K3 = 64
""")
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        rc = main(["barrier-check", "--config", cfg, "--out-dir", str(out)])
    assert rc == 2
    report = json.loads((out / "manifest.json").read_text())["report"]
    assert math.isnan(report["min_margin"]) and not report["passed"]
    assert report["search_passes"] == 0


@pytest.mark.parametrize("which", ["prop21", "mixed"])
def test_verify_default_n_matches_library(tmp_path, which):
    # without an n key the CLI leaves the suite's dimension to run_suite (5)
    cfg = write(tmp_path / "v.cfg", f"which = {which}\ntrials = 40\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--seed", "3", "--out-dir", str(out)]) == 0
    report = json.loads((out / "manifest.json").read_text())["report"]
    library = cones.run_suite(which, trials=40, seed=3).as_dict()
    assert report == json.loads(json.dumps(library))
    assert library == cones.run_suite(which, n=5, trials=40, seed=3).as_dict()


def test_verify_manifest_records_proposals_and_time(tmp_path):
    cfg = write(tmp_path / "v.cfg", "which = prop24\nn = 5\nm = 2\nk = 3\ntrials = 500\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    report = manifest["report"]
    # the 500th degree-3 cone member of the seed-0 gamma_k stream is its
    # 1,359th proposal; the rest of its 4,096-row block is not counted
    assert report["proposals"] == 1359
    assert report["acceptance_rate"] == pytest.approx(500 / report["proposals"])
    assert manifest["profile"]["elapsed_s"] > 0


def test_verify_nan_margin_exits_2(tmp_path, monkeypatch):
    from sumhess import cones

    check = cones.check_maclaurin

    def nan_in_row_3(lam, k, l):
        res = check(lam, k, l)
        res["margins"]["ratio_order"][3] = math.nan
        return res

    monkeypatch.setattr(cones, "check_maclaurin", nan_in_row_3)
    cfg = write(tmp_path / "v.cfg", "which = prop24\nn = 5\nm = 2\nk = 3\ntrials = 50\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 2
    report = json.loads((out / "manifest.json").read_text())["report"]
    assert report["violations"] == 1 and math.isnan(report["worst_margin"])
    assert math.isnan(report["checks"]["ratio_order"])
    assert len(report["witness"]) == 5
