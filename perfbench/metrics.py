"""Summary statistics and the per-layer metrics computed from trace spans.

Every per-layer value is the median of its samples over the traced passes,
reported together with the sample count. Span times are inclusive unless a metric says ``self``:
a span's self time is its duration minus the durations of its direct child
spans, and a layer's self time is the sum over its spans.
"""

import statistics

import numpy as np

from tracer import KERNELS, LAYERS


def summarize(samples):
    """Median, sample count and quartiles of a non-empty list of numbers."""
    values = [float(v) for v in samples]
    if not values:
        raise ValueError("no samples to summarize")
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "samples": len(values), "q1": q1, "q3": q3}


class SpanTable:
    """Span arrays (as from ``Tracer.arrays``) with derived durations."""

    def __init__(self, names, arrays):
        self.names = list(names)
        self.name = arrays["name"]
        self.parent = arrays["parent"]
        self.op = arrays["op"]
        self.raised = arrays["raised"].astype(bool)
        self.a = arrays["a"]
        self.b = arrays["b"]
        self.duration = arrays["end"] - arrays["start"]
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent],
            minlength=self.name.size,
        )
        self.self_time = self.duration - child_time
        layer_of_name = np.array([n.split(".", 1)[0] for n in self.names] or [""])
        self.layer = layer_of_name[self.name] if self.name.size else np.array([], dtype=str)

    def named(self, *span_names):
        """Boolean mask of spans whose name is one of ``span_names``."""
        wanted = np.array([n in span_names for n in self.names] or [False])
        return wanted[self.name] if self.name.size else np.zeros(0, dtype=bool)

    def in_layer(self, layer):
        return self.layer == layer

    def under(self, mask):
        """Mask of spans with an ancestor in ``mask``."""
        flag = np.zeros(self.name.size, dtype=bool)
        anc = self.parent.copy()
        live = anc >= 0
        while live.any():
            idx = np.nonzero(live)[0]
            flag[idx] |= mask[anc[idx]]
            anc[idx] = self.parent[anc[idx]]
            live = anc >= 0
        return flag

    def outermost(self, mask):
        """Spans in ``mask`` with no ancestor in ``mask`` (no double counting)."""
        return mask & ~self.under(mask)

    def layer_entries(self, layer):
        """Spans of ``layer`` whose caller is outside the layer."""
        mine = self.in_layer(layer)
        parent_layer = np.where(self.parent >= 0, self.layer[np.maximum(self.parent, 0)], "")
        return mine & (parent_layer != layer)


def layer_metrics(table, ops):
    """Per-layer metrics over the spans whose op id is in ``ops``."""
    sel = np.isin(table.op, list(ops))
    dur, a, b = table.duration, table.a, table.b

    def total(values, mask):
        return float(values[mask & sel].sum())

    def count(mask):
        return int((mask & sel).sum())

    def incl(*names):
        return total(dur, table.outermost(table.named(*names)))

    out = {}
    jac = table.named("solver.jacobian")
    res = table.named("solver.residual_and_margin")
    lgmres = table.named("solver.lgmres")
    out["solver.linear_solve_s"] = incl("solver._linear_solve")
    out["solver.direct_solve_s"] = incl("solver.spsolve")
    out["solver.krylov_solve_s"] = incl("solver.lgmres")
    out["solver.direct_solves"] = count(table.named("solver.spsolve"))
    out["solver.krylov_solves"] = count(lgmres)
    out["solver.krylov_matvecs"] = int(total(a, lgmres))
    out["solver.jacobian_s"] = incl("solver.jacobian")
    out["solver.residual_s"] = incl("solver.residual_and_margin")
    out["solver.field_evals"] = count(table.named("solver.eval_f"))
    out["solver.field_s"] = incl("solver.eval_f")
    out["solver.newton_iters"] = count(jac)
    out["solver.residual_evals"] = count(res)
    out["solver.rejected_steps"] = count(table.named("solver.newton_solve") & table.raised)
    out["grids.box_hessians_s"] = incl("grids.box_hessians")
    eig = table.named("linalg.eigh", "linalg.eigvalsh")
    out["linalg.eig_s"] = total(dur, table.outermost(eig))
    out["linalg.eig_rows"] = int(total(a, eig))
    for kernel in KERNELS:
        mask = table.named(f"kernels.{kernel}")
        out[f"kernels.{kernel}_s"] = total(dur, mask)
        out[f"kernels.{kernel}.calls"] = count(mask)
        out[f"kernels.{kernel}.rows"] = int(total(a, mask))
    symfun_entries = table.layer_entries("symfun")
    out["symfun.calls"] = count(symfun_entries)
    out["symfun.s"] = total(dur, symfun_entries)
    checks = table.named("cones.check")
    samplers = table.named("cones.sample_cone")
    out["cones.check_s"] = incl("cones.check")
    out["cones.checks"] = count(checks)
    out["cones.sample_s"] = incl("cones.sample_cone")
    accepted = total(a, samplers)
    proposals = total(b, samplers)
    out["cones.proposals"] = int(proposals)
    out["cones.acceptance"] = accepted / proposals if proposals else 0.0
    out["lift.gradient_s"] = incl("lift.gradient", "lift.gradient_batch")
    out["lift.admissible_s"] = incl("lift.admissible")
    lift_entries = table.layer_entries("lift")
    out["lift.calls"] = count(lift_entries)
    out["lift.rows"] = int(total(a, lift_entries))
    search = table.named("geometry.search_barrier_constant")
    verify = table.named("geometry.verify_barrier_bound")
    in_search = table.under(search)
    out["geometry.verify_s"] = total(dur, verify & ~in_search)
    out["geometry.search_s"] = incl("geometry.search_barrier_constant")
    out["geometry.search_passes"] = count(verify & in_search)
    out["geometry.points"] = int(total(a, verify))
    out["expressions.eval_s"] = incl("expressions.eval")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = total(table.self_time, table.in_layer(layer))
    return out
