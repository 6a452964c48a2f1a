"""Seeded config fuzz through ``cli.main``.

Each case takes a small valid base config and either sets one key the run
reads to a hostile value, drops one key, or adds a key the run does not
read. Whatever the input, ``main`` must return an exit code (0, 1 or 2)
rather than raise; an exit-1 run writes no manifest, an added key the run
does not read is refused, and a solve that exits 0 reports a finite final
residual.

The value list is check data: extend it when a new class of hostile input
turns up, and keep large integers out of it (they make a run ask for large
arrays, not find a bug).
"""

import json
import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

from sumhess.cli import main

HOSTILE_VALUES = (
    "", "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-1",
    "1", "2", "0.5", "-0.5", "0x10", "1_0", "3,3", "2,nan,2", "abc", "r/0",
    "exp(1000)", "x0", "((", "1 2", "é",
)
SOLVER_SETTINGS = ("tol_abs", "margin_floor", "dt0", "dt_min", "dt_max")
CASES = 200
SEED = 20


@dataclass(frozen=True)
class Base:
    """A cheap valid run: the keys it sets, the keys it reads at their
    defaults when unset, and keys it does not read."""

    command: str
    config: tuple
    optional: tuple
    unread: tuple


_SPEC3 = (("n", "3"), ("m", "2"), ("k", "2"))
_FIELDS = (("f", "3 + cos(5*x1)^2"), ("a", "1 + x1^2 / 4"), ("b", "2 - x1"))
BASES = (
    Base("solve", (("mode", "radial"), *_SPEC3, ("manufactured", "radial"), ("mesh", "16")),
         ("coef", "radius", *SOLVER_SETTINGS), ("amp", "extents", "f", "trials")),
    Base("solve", (("mode", "radial"), *_SPEC3, ("mesh", "16"), *_FIELDS),
         ("radius", *SOLVER_SETTINGS), ("coef", "amp", "extents", "manufactured_")),
    Base("solve", (("mode", "box"), *_SPEC3, ("manufactured", "box"), ("mesh", "7,7,7")),
         ("amp", "extents", *SOLVER_SETTINGS), ("coef", "radius", "a", "states")),
    Base("solve", (("mode", "box"), *_SPEC3, ("mesh", "7,7,7"), *_FIELDS),
         ("extents", *SOLVER_SETTINGS), ("coef", "amp", "radius", "points")),
    Base("verify", (("which", "prop23"), ("n", "5"), ("m", "2"), ("k", "3"), ("trials", "20")),
         ("l", "delta", "eps", "L"), ("states", "coef", "mode", "dt0")),
    Base("verify", (("which", "prop26"), ("n", "4"), ("m", "2"), ("k", "2"), ("trials", "20"),
                    ("delta", "0.4")),
         ("l", "eps", "L"), ("states", "field", "input")),
    Base("verify", (("which", "prop21"), ("n", "3"), ("trials", "20")),
         (), ("m", "k", "states", "delta")),
    Base("verify", (("which", "jacobian"), *_SPEC3, ("states", "1")),
         (), ("trials", "delta", "l", "mesh")),
    Base("barrier-check", (("which", "lemma53"), ("n", "4"), ("m", "2"), ("k", "2"),
                           ("points", "20"), ("field", "quartic"), ("coef", "0.05")),
         ("radius", "K3", "k3"), ("mode", "trials", "amp")),
    Base("barrier-check", (("which", "lemma55"), ("n", "4"), ("m", "2"), ("k", "4"),
                           ("points", "20"), ("K3", "8"), ("field", "quadratic")),
         ("radius", "k3"), ("coef", "states", "mesh")),
    Base("cone-check", (("input", "{rows}"), *_SPEC3),
         (), ("trials", "which", "radius")),
)


def _cases():
    cases = []
    for index, base in enumerate(BASES):
        keys = [key for key, _ in base.config]
        for key in keys + list(base.optional):
            cases += [(index, "set", key, value) for value in HOSTILE_VALUES]
        cases += [(index, "drop", key, None) for key in keys]
        cases += [(index, "add", key, "1") for key in base.unread]
    return random.Random(SEED).sample(cases, CASES)


def _body(base, action, key, value, rows):
    config = {k: v.replace("{rows}", str(rows)) for k, v in base.config}
    if action == "drop":
        del config[key]
    else:
        config[key] = value
    return "".join(f"{k} = {v}\n" for k, v in config.items())


def test_every_fuzzed_config_ends_in_an_exit_code(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    rows.write_text("1,2,3\n3,-1,0.5\n1,0,0,0,2,0,0,0,3\n")
    codes = []
    for case, (index, action, key, value) in enumerate(_cases()):
        base = BASES[index]
        cfg = tmp_path / f"{case}.cfg"
        cfg.write_text(_body(base, action, key, value, rows))
        out = tmp_path / f"out{case}"
        with np.errstate(all="ignore"):
            try:
                rc = main([base.command, "--config", str(cfg), "--out-dir", str(out)])
            except Exception as exc:
                pytest.fail(f"{base.command} {action} {key}={value!r} raised {exc!r}")
        err = capsys.readouterr().err
        where = f"{base.command} {action} {key}={value!r}: exit {rc}, {err!r}"
        assert rc in (0, 1, 2), where
        if rc == 1:
            assert err.startswith(("config error: ", "error: ")), where
            assert not (out / "manifest.json").exists(), where
        if action == "add":
            assert rc == 1 and f"does not read: [{key!r}]" in err, where
        if rc == 0 and base.command == "solve":
            report = json.loads((out / "manifest.json").read_text())["report"]
            assert math.isfinite(report["diagnostics"]["final_residual_norm"]), where
        codes.append(rc)
    # the fuzz reaches runs that pass, runs refused and runs that fail
    assert {0, 1, 2} <= set(codes)
