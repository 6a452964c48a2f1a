import json
import math

import numpy as np
import pytest

from sumhess.cli import main
from sumhess.expressions import parse_expression
from sumhess.errors import ConfigError


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
    # 9^3 unknowns are at or below direct_limit: LU, no Krylov iterations
    assert all(s["linear_iters"] == 0 for s in manifest["report"]["steps"])
    lines = (out / "solution.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,x3,u,margin"
    assert len(lines) == 9**3 + 1


def test_solve_nonconvergence_exit_code(tmp_path):
    # an unreachable tolerance forces step-size underflow: exit code 2
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


def test_unknown_key_rejected(tmp_path):
    cfg = write(tmp_path / "run.cfg", "mode = radial\nbogus = 1\n")
    rc = main(["solve", "--config", cfg, "--out-dir", str(tmp_path / "o")])
    assert rc == 1


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
    assert m1["report"] == m2["report"]
    assert (out1 / "solution.csv").read_text() == (out2 / "solution.csv").read_text()


def test_cone_check(tmp_path):
    rows = tmp_path / "rows.csv"
    eye = np.eye(3).ravel()
    lines = [
        ",".join(str(v) for v in eye),
        "1,1,-1",
    ]
    rows.write_text("\n".join(lines) + "\n")
    cfg = write(tmp_path / "c.cfg", f"input = {rows}\nn = 3\nm = 2\nk = 2\n")
    out = tmp_path / "out"
    rc = main(["cone-check", "--config", cfg, "--out-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "manifest.json").read_text())["report"]
    assert report["rows"][0]["largest_admissible_k"] == 3
    assert report["rows"][1]["largest_admissible_k"] == 1

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


@pytest.mark.parametrize("bad_row", ["nan,1,1,1", "1,inf,1,1"])
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


def test_verify_manifest_records_proposals_and_time(tmp_path):
    cfg = write(tmp_path / "v.cfg", "which = prop24\nn = 5\nm = 2\nk = 3\ntrials = 500\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    report = manifest["report"]
    # gamma_k proposals come in blocks of 4096
    assert report["proposals"] % 4096 == 0
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
