"""Set-up probe: a fresh interpreter imports ``sumhess.cli`` and writes the
config files of one workload. ``run.py`` takes this as the benchmark's set-up.
The script times it from its first statement after ``speed`` is loaded, in
reference seconds (``speed.py``, with the pure-Python probe work, so that
nothing but the standard library is loaded before the program). It prints one
JSON object: ``setup_s`` (import and config files) and ``import_s`` (the
``sumhess.cli`` import alone), each also in wall seconds as ``*_wall_s``.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <config-dir>
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import speed  # noqa: E402


def main(workload, seed, directory):
    with speed.SpeedProbe() as probe:
        start = probe.mark()
        import sumhess.cli  # noqa: F401  (the import is what is being timed)

        imported = probe.mark()
        import workloads

        workloads.write_configs(workloads.build(workload, seed), directory)
        end = probe.mark()
    print(json.dumps({
        "setup_s": probe.reference_seconds(start, end),
        "import_s": probe.reference_seconds(start, imported),
        "setup_wall_s": probe.wall_seconds(start, end),
        "import_wall_s": probe.wall_seconds(start, imported),
    }))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
