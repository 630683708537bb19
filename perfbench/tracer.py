"""In-memory spans around the public functions of each confvol layer.

A Tracer replaces every binding of a traced function with a wrapper that
records a span (name, parent span, task, start, end) and, for a few
functions, work counts taken from the arguments or the result.  Bindings
are found by identity on every loaded ``confvol`` module, so a function
imported into another module by ``from .x import f`` is wrapped there too;
methods are wrapped on their classes.  ``uninstall`` restores every
original binding.

Self time of a span is its duration minus the time covered by its direct
child spans.  Totals per span name are kept as the spans close; the raw
spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, span name): functions wrapped on every binding
FUNCTIONS = [
    ("curvature", "curvature_pack", "curvature.pack"),
    ("curvature", "laplacian", "curvature.laplacian"),
    ("curvature", "sigma_k", "curvature.sigma_k"),
    ("series", "v_direct", "series.v_direct"),
    ("series", "einstein_series", "series.einstein_series"),
    ("series", "vk_from_series", "series.vk_from_series"),
    ("spectral", "basis_for", "spectral.basis"),
    ("spectral", "sphere_basis", "spectral.basis"),
    ("spectral", "torus_basis", "spectral.basis"),
    ("spectral", "product_basis", "spectral.basis"),
    ("spectral", "sphere_pair_matrices", "spectral.pair_matrices"),
    ("spectral", "field_values", "spectral.field_eval"),
    ("spectral", "field_gradients", "spectral.field_eval"),
    ("quadrature", "grid_with_weights", "quadrature.grid"),
    ("quadrature", "integrate", "quadrature.integrate"),
    ("quadrature", "_integrate_once", "quadrature.level"),
    ("variation", "delta_vk", "variation.delta_vk"),
    ("variation", "first_variation_Fk", "variation.first_variation"),
    ("variation", "functional_Fk", "variation.functional"),
    ("variation", "hessian_Fk", "variation.hessian"),
    ("variation", "hessian_V", "variation.hessian"),
    ("renorm", "extract_expansion", "renorm.expansion"),
    ("renorm", "truncated_volume", "renorm.truncated_volume"),
    ("renorm", "renorm_volume_geodcomp", "renorm.geodcomp"),
    ("flow", "run_flow", "flow.run"),
    ("flow", "make_state", "flow.make_state"),
    ("flow", "flow_step", "flow.step"),
    ("cli", "cli_dispatch", "cli.dispatch"),
]

# (module, class, method, span name): methods wrapped on the class
METHODS = [
    ("jets", "JetSpace", "__init__", "jets.jet_space"),
    ("jets", "JetSpace", "mul", "jets.mul"),
    ("jets", "JetSpace", "diff", "jets.diff"),
    ("models", "RoundSphere", "chart", "models.chart"),
    ("models", "HyperbolicSpace", "chart", "models.chart"),
    ("models", "FlatTorus", "chart", "models.chart"),
    ("models", "ProductOfSpheres", "chart", "models.chart"),
    ("models", "WarpedRadial", "chart", "models.chart"),
    ("models", "ConformalDeformation", "chart", "models.chart"),
    ("flow", "TorusGrid", "vk", "flow.vk"),
    ("flow", "SphereZonal", "vk", "flow.vk"),
]


@functools.lru_cache(maxsize=None)
def _pairs_used(space, nout: int) -> int:
    return sum(len(space._pairs[k][0]) for k in range(nout))


def _mul_counts(counts, args, kwargs, result, raised):
    """Work of one JetSpace.mul: pairs used times broadcast elements, and
    the bytes of the two operands and the product."""
    if raised:
        return
    space, a, b = args[:3]
    out_order = args[3] if len(args) > 3 else kwargs.get("out_order")
    nout = space.ncoef_at(space.order if out_order is None else out_order)
    elements = result.size // result.shape[-1]
    counts["jets.mul.pair_flops"] += _pairs_used(space, nout) * elements
    counts["jets.mul.bytes_computed"] += a.nbytes + b.nbytes + result.nbytes


def _pack_counts(counts, args, kwargs, result, raised):
    if raised:
        return
    counts["curvature.pack.points"] += result.points.shape[0]
    if result.bach is not None:
        counts["curvature.pack.order4_calls"] += 1


def _grid_counts(counts, args, kwargs, result, raised):
    if raised:
        return
    counts["quadrature.grid.nodes"] += len(result[1])


def _step_counts(counts, args, kwargs, result, raised):
    counts["flow.rejected" if raised else "flow.accepted"] += 1


COUNTERS = {
    "jets.mul": _mul_counts,
    "curvature.pack": _pack_counts,
    "quadrature.grid": _grid_counts,
    "flow.step": _step_counts,
}

COUNT_NAMES = (
    "jets.mul.pair_flops", "jets.mul.bytes_computed",
    "curvature.pack.points", "curvature.pack.order4_calls",
    "quadrature.grid.nodes", "flow.accepted", "flow.rejected",
)


def _confvol_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "confvol" or name.startswith("confvol.")]


class Tracer:
    """Spans and counts for one process; install, run, uninstall."""

    def __init__(self):
        self._names = []
        self._name_ids = {}
        self._stack = []           # [span id, child seconds]
        self.spans = []            # (id, parent, task, name id, t0, t1)
        self.calls = {}
        self.self_s = {}
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.task = -1
        self._restore = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        return self._name_ids[name]

    def wrap(self, fn, name):
        nid = self._name_id(name)
        counter = COUNTERS.get(name)
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            spans.append(None)
            stack.append(frame)
            result, raised = None, True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                calls[name] += 1
                self_s[name] += dt - frame[1]
                spans[sid] = (sid, parent, self.task, nid, t0, t1)
                if counter is not None:
                    counter(counts, args, kwargs, result, raised)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every binding of the traced functions and methods."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for home, attr, name in FUNCTIONS:
            fn = getattr(importlib.import_module(f"confvol.{home}"), attr)
            wrappers[id(fn)] = (fn, self.wrap(fn, name))
        for mod in _confvol_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for home, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"confvol.{home}"), cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name))

    def uninstall(self):
        """Put every original binding back and check none is left wrapped."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        for mod in _confvol_modules():
            owners = [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type)
                              and v.__module__.startswith("confvol")]
            for owner in owners:
                for value in vars(owner).values():
                    if getattr(value, "__wrapped_by_tracer__", False):
                        raise RuntimeError(f"wrapper left on {mod.__name__}")

    # -- results -------------------------------------------------------------

    def snapshot(self):
        """Copy of the per-name totals, for differencing two phases."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts)}

    @staticmethod
    def delta(after, before):
        out = {}
        for part in ("calls", "self_s", "counts"):
            out[part] = {k: v - before[part].get(k, 0)
                         for k, v in after[part].items()}
        return out

    def dump(self, path, meta):
        """Write every span kept in memory, with the span-name table."""
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": self._names,
                       "columns": ["id", "parent", "task", "name", "t0", "t1"],
                       "spans": self.spans}, fh, separators=(",", ":"))

