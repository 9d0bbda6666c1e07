"""Per-module spans for the traced benchmark run.

The tracer replaces every public function of the ``gmebound`` modules, as
bound in each module namespace, with a wrapper that records a span (name,
start, end, parent span, op id).  Wrappers are installed only for the traced
passes and removed afterwards; spans stay in memory until the run writes them
out.  ``indices.permute_pair`` is left alone: it runs about a million times
per pass, and its cost shows as the self time of the compiler that calls it.
``MultiIndex`` and the other classes are not wrapped for the same reason,
except ``PureState.density``, the dense build the state layer is judged by.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
import types
from dataclasses import dataclass, field

PACKAGE = "gmebound"
SKIP = {"gmebound.indices.permute_pair"}
METHODS = [("gmebound.states", "PureState", "density")]
# cli is the front end: its internals (argparse, presets, JSON writing) count
# as the self time of cli.main rather than as spans of their own
CLI_ENTRY = {"gmebound.cli.main"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    sid: int
    counts: dict[str, float] = field(default_factory=dict)


def _size(obj) -> int:
    matrix = getattr(obj, "matrix", None)
    return int(matrix.nbytes) if matrix is not None and hasattr(matrix, "nbytes") else 0


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _compile_counts(args, kwargs, w):
    cuts = len(w.uncounted_profile)
    pairs = len(w.r)
    return {
        "cuts": cuts,
        "pairs": pairs,
        "pair_cuts": pairs * cuts,
        "noise_images": sum(len(v) for v in w.noise_images.values()),
    }


def _evaluate_counts(args, kwargs, value):
    w = args[0] if args else kwargs["w"]
    images = sum(len(v) for v in w.noise_images.values())
    return {"elements_read": len(w.r) + 2 * images + len(w.index_set)}


def _q_counts(args, kwargs, value):
    spec = args[0] if args else kwargs["spec"]
    return {"sigma_terms": (spec.d - 1) ** 2 * len(spec.sigma())}


def _plan_counts(args, kwargs, plan):
    return {
        "elements": len(plan.elements),
        "terms": sum(len(el.terms) for el in plan.elements),
        "settings": len(plan.settings),
    }


def _state_load_counts(args, kwargs, state):
    path = args[0] if args else kwargs.get("path")
    return {"input_bytes": _file_size(path), "dense_bytes": _size(state)}


def _dense_counts(args, kwargs, rho):
    return {"dense_bytes": _size(rho)}


def _entropy_counts(args, kwargs, report):
    return {"cuts": len(report.entropies)}


# counters derived from arguments and returned objects, keyed by span name
COUNTERS = {
    "witness.compile_witness": _compile_counts,
    "witness.evaluate": _evaluate_counts,
    "dicke_witness.q_witness": _q_counts,
    "observables.plan_settings": _plan_counts,
    "states.load_state_json": _state_load_counts,
    "states.white_noise_mix": _dense_counts,
    "states.density": _dense_counts,
    "entropy.gme_measure_pure": _entropy_counts,
}


def _short(module: str) -> str:
    return module[len(PACKAGE) + 1:] if module.startswith(PACKAGE + ".") else module


def _traceable(value) -> bool:
    if not isinstance(value, types.FunctionType):
        return False
    module = value.__module__ or ""
    if not module.startswith(PACKAGE + ".") or "." in value.__qualname__:
        return False
    full = f"{module}.{value.__name__}"
    if full in SKIP or value.__name__.startswith("_"):
        return False
    return module != f"{PACKAGE}.cli" or full in CLI_ENTRY


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = ""
        self.count_errors = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_root: int | None = None
        self._wrappers: dict[types.FunctionType, types.FunctionType] = {}
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def _wrapper(self, fn, name: str):
        wrapper = self._wrappers.get(fn)
        if wrapper is None:
            tracer = self
            counter = COUNTERS.get(name)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._call(name, fn, counter, args, kwargs)

            self._wrappers[fn] = wrapper
        return wrapper

    def install(self) -> None:
        """Wrap every traceable name in every loaded gmebound module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for module in modules:
            for key, value in list(vars(module).items()):
                if not key.startswith("_") and _traceable(value):
                    name = f"{_short(value.__module__)}.{value.__name__}"
                    self._restore.append(("attr", module, key, value))
                    setattr(module, key, self._wrapper(value, name))
        for modname, clsname, meth in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if isinstance(fn, types.FunctionType):
                self._restore.append(("attr", cls, meth, fn))
                setattr(cls, meth, self._wrapper(fn, f"{_short(modname)}.{meth}"))
        # module-level lists and sets of functions (the battery's check table
        # and its seeded subset) must hold the same wrappers, or membership
        # tests between them break
        for module in modules:
            for value in list(vars(module).values()):
                if isinstance(value, list):
                    for i, item in enumerate(value):
                        if isinstance(item, types.FunctionType) and item in self._wrappers:
                            self._restore.append(("item", value, i, item))
                            value[i] = self._wrappers[item]
                elif isinstance(value, set):
                    hits = [item for item in value
                            if isinstance(item, types.FunctionType) and item in self._wrappers]
                    for item in hits:
                        self._restore.append(("member", value, item, self._wrappers[item]))
                        value.discard(item)
                        value.add(self._wrappers[item])

    def uninstall(self) -> None:
        """Put back every original binding, in reverse order of installation."""
        for kind, target, key, original in reversed(self._restore):
            if kind == "attr":
                setattr(target, key, original)
            elif kind == "item":
                target[key] = original
            else:  # member: key is the original function, original the wrapper
                target.discard(original)
                target.add(key)
        self._restore.clear()

    # -- recording ---------------------------------------------------------

    def begin_op(self, op: str) -> None:
        self.op = op
        self._op_root = None

    def _call(self, name, fn, counter, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # a span opened on a worker thread belongs to the op that started it
        parent = stack[-1] if stack else self._op_root
        sid = next(self._ids)
        if parent is None:
            self._op_root = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stack.pop()
            self.spans.append(Span(name, start, time.perf_counter(), parent, self.op, sid))
            raise
        end = time.perf_counter()
        stack.pop()
        span = Span(name, start, end, parent, self.op, sid)
        if counter is not None:
            try:
                span.counts = counter(args, kwargs, result)
            except (AttributeError, TypeError, KeyError, IndexError):
                self.count_errors += 1
        self.spans.append(span)
        return result

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {"name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "op": s.op, "id": s.sid}
                if s.counts:
                    rec["counts"] = s.counts
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


# per-layer metric -> (span name, aggregate); aggregates: calls, self_s,
# evals:<child span>, or a counter name summed over the span's records
LAYER_METRICS = {
    "states.white_noise_mix.calls": ("states.white_noise_mix", "calls"),
    "states.white_noise_mix.self_s": ("states.white_noise_mix", "self_s"),
    "states.density.calls": ("states.density", "calls"),
    "states.density.self_s": ("states.density", "self_s"),
    "states.load_state_json.self_s": ("states.load_state_json", "self_s"),
    "states.input_bytes": ("states.load_state_json", "input_bytes"),
    "indices.enumerate_bipartitions.calls": ("indices.enumerate_bipartitions", "calls"),
    "indices.enumerate_bipartitions.self_s": ("indices.enumerate_bipartitions", "self_s"),
    "witness.auto_select_R.self_s": ("witness.auto_select_R", "self_s"),
    "witness.compile_witness.calls": ("witness.compile_witness", "calls"),
    "witness.compile_witness.self_s": ("witness.compile_witness", "self_s"),
    "witness.cuts": ("witness.compile_witness", "cuts"),
    "witness.pairs": ("witness.compile_witness", "pairs"),
    "witness.pair_cuts": ("witness.compile_witness", "pair_cuts"),
    "witness.noise_images": ("witness.compile_witness", "noise_images"),
    "witness.evaluate.calls": ("witness.evaluate", "calls"),
    "witness.evaluate.self_s": ("witness.evaluate", "self_s"),
    "witness.elements_read": ("witness.evaluate", "elements_read"),
    "witness.noise_threshold.self_s": ("witness.noise_threshold", "self_s"),
    "witness.noise_threshold.evals": ("witness.noise_threshold", "evals:witness.evaluate"),
    "dicke_witness.q_witness.calls": ("dicke_witness.q_witness", "calls"),
    "dicke_witness.q_witness.self_s": ("dicke_witness.q_witness", "self_s"),
    "dicke_witness.noise_threshold_q.self_s": ("dicke_witness.noise_threshold_q", "self_s"),
    "dicke_witness.noise_threshold_q.evals": (
        "dicke_witness.noise_threshold_q", "evals:dicke_witness.q_witness"),
    "dicke_witness.em_bound_from_q.self_s": ("dicke_witness.em_bound_from_q", "self_s"),
    "dicke_witness.sigma_terms": ("dicke_witness.q_witness", "sigma_terms"),
    "entropy.coeff.calls": ("entropy.linear_entropy_coeff", "calls"),
    "entropy.coeff.self_s": ("entropy.linear_entropy_coeff", "self_s"),
    "entropy.trace.calls": ("entropy.linear_entropy_trace", "calls"),
    "entropy.trace.self_s": ("entropy.linear_entropy_trace", "self_s"),
    "entropy.cuts": ("entropy.gme_measure_pure", "cuts"),
    "ppt.compare_with_witness_bracket.calls": ("ppt.compare_with_witness_bracket", "calls"),
    "ppt.compare_with_witness_bracket.self_s": ("ppt.compare_with_witness_bracket", "self_s"),
    "ppt.build_ppt_witness.self_s": ("ppt.build_ppt_witness", "self_s"),
    "observables.plan_settings.calls": ("observables.plan_settings", "calls"),
    "observables.plan_settings.self_s": ("observables.plan_settings", "self_s"),
    "observables.plan.elements": ("observables.plan_settings", "elements"),
    "observables.plan.terms": ("observables.plan_settings", "terms"),
    "observables.plan.settings": ("observables.plan_settings", "settings"),
    "observables.reconstruct.self_s": ("observables.reconstruct", "self_s"),
    "cli.main.calls": ("cli.main", "calls"),
    "cli.main.self_s": ("cli.main", "self_s"),
}
# states.dense_bytes sums over every span that returns a dense matrix
DENSE_SPANS = ("states.white_noise_mix", "states.density", "states.load_state_json")
def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics (totals over all spans given)."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    child_names: dict[int, list[str]] = {}
    for s in spans:
        if s.parent is not None:
            child_names.setdefault(s.parent, []).append(s.name)

    def agg(name: str, how: str) -> float:
        group = by_name.get(name, [])
        if how == "calls":
            return float(len(group))
        if how == "self_s":
            return sum(selfs[s.sid] for s in group)
        if how.startswith("evals:"):
            child = how.split(":", 1)[1]
            return float(sum(child_names.get(s.sid, []).count(child) for s in group))
        return float(sum(s.counts.get(how, 0) for s in group))

    out = {metric: agg(name, how) for metric, (name, how) in LAYER_METRICS.items()}
    out["states.dense_bytes"] = sum(agg(name, "dense_bytes") for name in DENSE_SPANS)
    checks = getattr(sys.modules.get(f"{PACKAGE}.reproduce"), "ALL_CHECKS", ())
    for k in range(1, 10):
        name = checks[k - 1].__name__ if k <= len(checks) else ""
        out[f"reproduce.check_{k}.self_s"] = agg(f"reproduce.{name}", "self_s")
    return out
