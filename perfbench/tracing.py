"""Spans recorded around fracvar's public functions, and their arithmetic.

The child process (child.py) installs wrappers from this file around the
public functions of fracvar's layers; each call becomes a span with a name,
start, end and parent, kept in memory and written out when the command
returns. The parent (run.py) turns the written spans into per-layer numbers
with the pure functions at the bottom of this file.

Nothing inside fracvar is edited: a wrapper replaces every module-level
binding of the wrapped function in the fracvar package, so that calls made
through `from .energy import energy` style imports are caught as well.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

# the layers whose public functions (their __all__) are wrapped; grid and
# coeffs run only inside energy calls, so their time counts there
LAYERS = ("fracops", "spectral", "energy", "solvers", "experiments", "cli")
# modules whose module-level cho_factor / cho_solve names are wrapped
LINALG_CALLERS = ("solvers", "experiments", "spectral")
# spans recorded with tracing off too: they time set-up and carry the
# classification of every solver call, which the correctness checks need
UNTRACED_SPANS = ("experiments.prepare", "solvers.minimize_cone", "solvers.mountain_pass")
IMPORT_SPAN = "child.import"


def _solve_attrs(report) -> dict:
    attrs = {"classification": report.classification, "iterations": int(report.iterations)}
    if "merit_mode_used" in report.diagnostics:
        attrs["merit_mode"] = bool(report.diagnostics["merit_mode_used"])
    return attrs


# attributes read off a return value and kept with the span
RESULT_ATTRS = {
    "solvers.minimize_cone": _solve_attrs,
    "solvers.mountain_pass": _solve_attrs,
    "spectral.first_eigenpair": lambda pair: {"iterations": int(pair.iterations)},
}


class Tracer:
    """In-memory span recorder for one command run.

    A span is [id, parent id (-1 for a root), name index, start, end]; ids
    are handed out in start order, so a parent's id is below its children's.
    """

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self._index: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished span that no wrapper timed (a root)."""
        self.spans.append([next(self._ids), -1, self._name(name), start, end])

    def wrap(self, name: str, fn, on_result=None):
        """Return fn wrapped so that each call records a span."""
        idx = self._name(name)
        spans, attrs, ids, local, clock = self.spans, self.attrs, self._ids, self._local, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            rec = [sid, stack[-1] if stack else -1, idx, clock(), 0.0]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
            if on_result is not None:
                attrs[sid] = on_result(result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "names": self.names, "spans": self.spans,
                       "attrs": {str(k): v for k, v in self.attrs.items()}}, fh)


def install(tracer: Tracer, full: bool) -> None:
    """Wrap fracvar's public functions (full) or only UNTRACED_SPANS.

    fracvar must already be imported. Every module-level binding of a
    wrapped function inside the package is replaced, so callers that
    imported the name directly go through the wrapper too.
    """
    namespaces = [mod for key, mod in sys.modules.items()
                  if key == "fracvar" or key.startswith("fracvar.")]
    for layer in LAYERS:
        mod = sys.modules[f"fracvar.{layer}"]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if not full and name not in UNTRACED_SPANS:
                continue
            wrapped = tracer.wrap(name, fn, RESULT_ATTRS.get(name))
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        setattr(ns, key, wrapped)
    if full:
        for layer in LINALG_CALLERS:
            mod = sys.modules[f"fracvar.{layer}"]
            for attr in ("cho_factor", "cho_solve"):
                setattr(mod, attr, tracer.wrap(f"{layer}.{attr}", getattr(mod, attr)))


# ---------------------------------------------------------------------------
# span arithmetic (parent side)
# ---------------------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list] = {}
    for sid, parent, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - covered(children.get(sid, ()), start, end)
            for sid, _, _, start, end in spans}


def inside(spans, names, target: str) -> set[int]:
    """Ids of the spans that have an ancestor named target."""
    by_id = {sp[0]: sp for sp in spans}
    out: set[int] = set()
    for sid, parent, _, _, _ in sorted(spans):
        if parent in out or (parent in by_id and names[by_id[parent][2]] == target):
            out.add(sid)
    return out


def aggregate(spans, names) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a function
    that re-enters itself is not counted twice.
    """
    selfs = self_times(spans)
    by_id = {sp[0]: sp for sp in spans}
    out: dict[str, dict] = {}
    for sid, parent, idx, start, end in spans:
        rec = out.setdefault(names[idx], {"calls": 0, "s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += selfs[sid]
        anc = parent
        while anc in by_id and by_id[anc][2] != idx:
            anc = by_id[anc][1]
        if anc not in by_id:
            rec["s"] += end - start
    return out


def gradient_table(dimension: int, nodes: int) -> dict:
    """Computed sizes of the dense gradient table and of one apply of it.

    A forward apply (grad_s u) and a transposed apply (inside
    energy_gradient, or div_s) each stream the whole table once and do one
    multiply-add per entry. These are computed from array sizes, not
    measured, and ignore caches.
    """
    entries = dimension * nodes * nodes
    return {"table_bytes": 8 * entries, "bytes_per_apply": 8 * entries,
            "flops_per_apply": 2 * entries}


def layer_metrics(runs, dimension: int, nodes: int) -> dict[str, float]:
    """Per-layer numbers of one round from the spans of its commands.

    runs: one dict per command with the spans file content ("names",
    "spans", "attrs") and "wall", the traced wall time of the command.
    """
    agg: dict[str, dict] = {}
    fwd = tr = 0
    in_min_fwd = in_min_tr = in_min_energy = 0
    mc_calls = mc_iters = mc_merit = mp_iters = eig_iters = probes = 0
    wall = 0.0
    for run in runs:
        names, spans = run["names"], run["spans"]
        attrs = {int(k): v for k, v in run["attrs"].items()}
        wall += run["wall"]
        for name, rec in aggregate(spans, names).items():
            tot = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in tot:
                tot[key] += rec[key]
        in_min = inside(spans, names, "solvers.minimize_cone")
        in_thr = inside(spans, names, "experiments.find_nu_threshold")
        for sid, _, idx, _, _ in spans:
            name = names[idx]
            if name == "fracops.apply_gradient":
                fwd += 1
                in_min_fwd += sid in in_min
            elif name in ("energy.energy_gradient", "fracops.apply_divergence"):
                tr += 1
                in_min_tr += sid in in_min
            elif name == "energy.energy":
                in_min_energy += sid in in_min
            elif name == "solvers.minimize_cone":
                mc_calls += 1
                mc_iters += attrs[sid]["iterations"]
                mc_merit += attrs[sid].get("merit_mode", False)
                probes += sid in in_thr
            elif name == "solvers.mountain_pass":
                mp_iters += attrs[sid]["iterations"]
            elif name == "spectral.first_eigenpair":
                eig_iters += attrs[sid]["iterations"]

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    table = gradient_table(dimension, nodes)
    out: dict[str, float] = {
        "fracops.assemble_s": get("fracops.assemble_gradient", "s") + get("fracops.assemble_laplacian", "s"),
        "fracops.assemble_self_s": (get("fracops.assemble_gradient", "self_s")
                                    + get("fracops.assemble_laplacian", "self_s")),
        "spectral.iterations": eig_iters,
        "fracops.table_mb": table["table_bytes"] / 1e6,
        "fracops.gb_moved": (fwd + tr) * table["bytes_per_apply"] / 1e9,
        "fracops.gflop": (fwd + tr) * table["flops_per_apply"] / 1e9,
        "experiments.cho_factor.calls": get("experiments.cho_factor", "calls"),
        "energy.grad_apps_per_iter": (in_min_fwd + in_min_tr) / mc_iters if mc_iters else 0.0,
        "solvers.minimize_cone.iterations": mc_iters,
        "solvers.merit_mode_frac": mc_merit / mc_calls if mc_calls else 0.0,
        "solvers.step_accept_ratio": mc_iters / in_min_energy if in_min_energy else 0.0,
        "solvers.mountain_pass.iterations": mp_iters,
        "experiments.find_nu_threshold.probes": probes,
    }
    for name in ("fracops.apply_gradient", "fracops.composition_matrix", "solvers.cho_factor",
                 "solvers.cho_solve", "energy.energy", "energy.hs_norm", "energy.energy_gradient",
                 "solvers.minimize_cone", "solvers.kkt_residual"):
        out[f"{name}.calls"] = get(name, "calls")
    for name in ("spectral.first_eigenpair", "fracops.apply_gradient", "fracops.composition_matrix",
                 "solvers.cho_factor", "solvers.cho_solve", "energy.energy", "energy.hs_norm",
                 "energy.energy_gradient", "solvers.minimize_cone", "solvers.kkt_residual",
                 "solvers.mountain_pass", "solvers.ray_search", "experiments.prepare",
                 "cli.parse_config"):
        out[f"{name}.s"] = get(name, "s")
        out[f"{name}.self_s"] = get(name, "self_s")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, rec in agg.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += rec["self_s"]
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = value
    out["child.import_s"] = get(IMPORT_SPAN, "s")
    out["untraced_s"] = wall - sum(rec["self_s"] for rec in agg.values())
    return out
