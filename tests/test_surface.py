"""Guards on the package's structure. Every public module-level function and
class in ``src/sumhess`` must be reached from the package itself or from the
benchmark harness (``perfbench``), not only from the tests: one only tests use
belongs in ``tests/oracles.py``. The m-subset table is read only where
the m-sum lift is built. And no module evaluates text as Python."""

import ast
import inspect
import re
from pathlib import Path

from sumhess import solver

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sumhess"


def _sources():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return {path: path.read_text().splitlines() for path in files}


def _unreached(kinds):
    """Public module-level definitions of the ``kinds`` of ast node in
    ``src/sumhess`` whose name appears on no line of the package or the
    harness outside the definition itself."""
    sources = _sources()
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse("\n".join(sources[path])).body:
            if not isinstance(node, kinds) or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            # every line of every file except the definition's own
            own = range(node.lineno - 1, node.end_lineno)
            if not any(
                word.search(line)
                for other, lines in sources.items()
                for i, line in enumerate(lines)
                if not (other == path and i in own)
            ):
                unreached.append(f"{path.stem}.{node.name}")
    return unreached


def test_every_public_function_has_a_caller_outside_the_tests():
    assert _unreached(ast.FunctionDef) == []


def test_every_public_class_has_a_user_outside_the_tests():
    # a class only the tests construct belongs in tests/oracles.py too
    assert _unreached(ast.ClassDef) == []


def test_no_system_subclass_overrides_the_traced_methods():
    # perfbench's tracer wraps every class in sumhess.solver that defines
    # these methods; an override that calls super() would be counted twice
    subclasses = [
        cls for cls in vars(solver).values()
        if inspect.isclass(cls) and issubclass(cls, solver.DiscreteSystem)
        and cls is not solver.DiscreteSystem
    ]
    assert {cls.__name__ for cls in subclasses} >= {"RadialSystem", "BoxSystem"}
    overrides = [
        f"{cls.__name__}.{name}" for cls in subclasses
        for name in ("jacobian", "residual_and_margin") if name in vars(cls)
    ]
    assert overrides == []


def test_only_the_lift_reads_the_subset_table():
    # the other modules take m-sums, their S table and its gradient from the
    # lift.msum* helpers, never from the tuple table and its kernels
    table_names = {"subset_sums", "fold_tuple_gradient", "tuples"}
    owners = {"lift.py", "_kernels.py"}
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in owners:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in table_names:
                uses.append(f"{path.stem}:{node.lineno}:{name}")
    assert uses == []


def test_no_module_calls_eval_exec_or_compile():
    # field expressions are compiled node by node from ``ast``; a call of
    # these builtins would run config text as Python (``re.compile`` is an
    # attribute call and does not count)
    calls = [
        f"{path.stem}:{node.lineno}:{node.func.id}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in {"eval", "exec", "compile"}
    ]
    assert calls == []
