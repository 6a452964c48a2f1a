"""Outside-in tracer: wraps sumhess layer boundaries for one traced run.

``Tracer.install()`` replaces each boundary function with a wrapper that
records a span (name, start, end, parent span, op id, whether it raised, and up
to two counts such as rows or matvecs). The program itself is not changed:
the wrappers are set on the module, class or ``numpy.linalg`` /
``scipy.sparse.linalg`` attribute, and on every ``sumhess`` module global that
holds the same function object. ``uninstall()`` puts every original back.

A boundary that no longer exists raises ``BoundaryMissing`` at install time,
so a refactor that renames or deletes one fails the traced run instead of
reporting a zero.
"""

import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "solver", "grids", "lift", "kernels", "symfun", "cones",
          "geometry", "expressions", "linalg")
KERNELS = ("elem_sym_all", "deleted_sym", "subset_sums", "fold_tuple_gradient")


class BoundaryMissing(RuntimeError):
    """A layer boundary the tracer must wrap is not in the program."""


def _leading_rows(arr, core_ndim):
    shape = np.shape(arr)
    if len(shape) <= core_ndim:
        return 1
    return int(np.prod(shape[: len(shape) - core_ndim]))


class Tracer:
    """Span recorder plus the patch list that installs it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op = array("i")
        self.raised = array("b")
        self.a = array("q")
        self.b = array("q")
        self._stack = [-1]
        self.current_op = -1
        self._patches = []

    def __len__(self):
        return len(self.name)

    def wrap(self, span_name, fn, measure=None):
        """Return ``fn`` wrapped to record a span named ``span_name``.

        ``measure(args, kwargs, result)`` may return (a, b) counts, taken
        after the span's end time.
        """
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._name_ids[span_name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        ops, raised, va, vb = self.op, self.raised, self.a, self.b
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            raised.append(0)
            va.append(-1)
            vb.append(-1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if measure is not None:
                va[idx], vb[idx] = measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr, span_name, measure=None, wrapper=None):
        """Wrap ``owner.attr`` and every sumhess global bound to the same object."""
        try:
            original = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
        except (KeyError, AttributeError):
            raise BoundaryMissing(f"{getattr(owner, '__name__', owner)}.{attr}") from None
        if not callable(original):
            raise BoundaryMissing(f"{getattr(owner, '__name__', owner)}.{attr} is not callable")
        replacement = wrapper(original) if wrapper else original
        traced = self.wrap(span_name, replacement, measure)
        self._set(owner, attr, traced)
        for mod_name, module in list(sys.modules.items()):
            if module is owner or not mod_name.startswith("sumhess"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, traced)
        return traced

    def install(self):
        """Wrap every layer boundary; see ``_install_boundaries``."""
        try:
            _install_boundaries(self)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def arrays(self):
        """Recorded spans as numpy arrays keyed by field."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
            "a": np.frombuffer(self.a, dtype=np.int64).copy(),
            "b": np.frombuffer(self.b, dtype=np.int64).copy(),
        }

    def dump(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# -- boundary list ----------------------------------------------------------


def _one_row(args, kwargs, result):
    return 1, -1


def _kernel_rows(args, kwargs, result):
    return _leading_rows(args[0], 1), -1


def _matrix_rows(args, kwargs, result):
    return _leading_rows(args[0], 2), -1


def _sample_counts(args, kwargs, result):
    samples, rate = result
    accepted = int(np.shape(samples)[0])
    return accepted, (int(round(accepted / rate)) if rate else 0)


def _barrier_points(args, kwargs, result):
    return result.count + len(result.skips), -1


def _counting_lgmres(lgmres):
    """lgmres with the operator wrapped to count matvecs into ``counter``."""
    from scipy.sparse.linalg import LinearOperator

    counter = [0]

    def run(A, b, *args, **kwargs):
        counter[0] = 0

        def matvec(x):
            counter[0] += 1
            return A @ x

        op = LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
        return lgmres(op, b, *args, **kwargs)

    return run, counter


def _module_functions(module):
    return [
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


def _system_classes(solver):
    """Classes in ``solver`` that define jacobian or residual_and_margin."""
    found = {"jacobian": [], "residual_and_margin": []}
    for obj in vars(solver).values():
        if inspect.isclass(obj) and obj.__module__ == solver.__name__:
            for method in found:
                if method in obj.__dict__:
                    found[method].append(obj)
    for method, classes in found.items():
        if not classes:
            raise BoundaryMissing(f"no system class in sumhess.solver defines {method}")
    return found


def _install_boundaries(tracer):
    import scipy.sparse.linalg as spla

    from sumhess import _kernels, cli, cones, expressions, geometry, grids, lift, solver, symfun

    tracer.patch(cli, "main", "cli.main")

    for name in ("radial_solve", "box_solve", "continuation_solve", "newton_solve",
                 "_linear_solve"):
        tracer.patch(solver, name, f"solver.{name}")
    for method, classes in _system_classes(solver).items():
        for cls in classes:
            tracer.patch(cls, method, f"solver.{method}")
    tracer.patch(solver.ProblemSpec, "eval_f", "solver.eval_f")
    tracer.patch(spla, "spsolve", "solver.spsolve")
    run, counter = _counting_lgmres(spla.lgmres)
    tracer.patch(spla, "lgmres", "solver.lgmres",
                 measure=lambda args, kwargs, result: (counter[0], -1),
                 wrapper=lambda original: run)

    tracer.patch(grids, "box_hessians", "grids.box_hessians")

    tracer.patch(lift, "gradient", "lift.gradient", _one_row)
    tracer.patch(lift, "gradient_batch", "lift.gradient_batch", _matrix_rows)
    tracer.patch(lift, "admissible", "lift.admissible", _one_row)

    for name in KERNELS:
        tracer.patch(_kernels, name, f"kernels.{name}", _kernel_rows)

    symfun_names = _module_functions(symfun)
    if not symfun_names:
        raise BoundaryMissing("sumhess.symfun has no public functions")
    for name in symfun_names:
        tracer.patch(symfun, name, f"symfun.{name}")

    tracer.patch(cones, "run_suite", "cones.run_suite")
    tracer.patch(cones, "sample_cone", "cones.sample_cone", _sample_counts)
    checks = [name for name in _module_functions(cones) if name.startswith("check_")]
    if not checks:
        raise BoundaryMissing("sumhess.cones has no check_* functions")
    for name in checks:
        tracer.patch(cones, name, "cones.check")

    tracer.patch(geometry, "verify_barrier_bound", "geometry.verify_barrier_bound",
                 _barrier_points)
    tracer.patch(geometry, "search_barrier_constant", "geometry.search_barrier_constant")
    tracer.patch(geometry, "barrier_hessian", "geometry.barrier_hessian")

    def traced_parse(parse_expression):
        def parse(text):
            return tracer.wrap("expressions.eval", parse_expression(text))
        return parse

    tracer.patch(expressions, "parse_expression", "expressions.parse",
                 wrapper=traced_parse)

    for name in ("eigh", "eigvalsh"):
        tracer.patch(np.linalg, name, f"linalg.{name}", _matrix_rows)
