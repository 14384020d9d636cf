"""Spans around calls into the public functions of every spinlind module.

A span is ``(name, start, end, parent, calc, tag)``: the qualified function
name, ``perf_counter`` times, the index of the enclosing span (-1 at the
top), the benchmark calculation id and a small per-call tag (the order of
``acp.y_nested``, the kind of distribution passed to ``lineshape.hilbert``).
Spans stay in memory and are summarised, or written out, when the run ends.

The wrapper replaces the function in every spinlind namespace that binds
it, because modules bind each other's functions through ``from`` imports
(``mastereq`` binds ``lineshape.characteristic`` and
``eigenops.decompose``).  Self time is a span's duration minus the time
covered by its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("spincore", "eigenops", "lineshape", "mastereq", "numutil", "acp",
           "qubit", "response", "spectrum", "config", "cli")

# lineshape.density is evaluated once per quadrature node inside
# lineshape.hilbert and qubit's integrands; a span per node would cost more
# than the work it measures, so its time stays in the caller's self time.
UNWRAPPED = {"lineshape.density"}

CALC_SPAN = "bench.calc"


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with '_'."""
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.calc = -1
        self.active = False
        self._stack = []

    # -- recording -------------------------------------------------------
    def _wrap(self, name, fn, tag=None, pre=None, post=None):
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                args, kwargs = pre(tracer, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.calc,
                              tag(args, kwargs) if tag else None)
            if post is not None:
                post(tracer, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def run_calc(self, cid, fn):
        """Run one benchmark calculation under a root span."""
        self.calc = cid
        return self._wrap(CALC_SPAN, fn)()

    def install(self):
        """Wrap every public spinlind function in every namespace binding it."""
        import spinlind

        modules = {m: importlib.import_module(f"spinlind.{m}") for m in MODULES}
        replacement = {}
        for short, mod in modules.items():
            for name, fn in public_functions(mod):
                qual = f"{short}.{name}"
                if qual in UNWRAPPED:
                    continue
                hooks = _HOOKS.get(qual, {})
                replacement[id(fn)] = self._wrap(qual, fn, **hooks)
        for mod in [spinlind, *modules.values()]:
            for name, obj in list(vars(mod).items()):
                new = replacement.get(id(obj))
                if new is not None:
                    setattr(mod, name, new)
        self.active = True

    def dump(self, path, **extra):
        import json

        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters),
                       **extra}, fh)


# -- hooks: counts recorded at the same boundaries as the spans -----------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _count_nodes(tracer, args, kwargs):
    f = args[0]

    def counted(x):
        tracer.counters["numutil.simpson_doubling.nodes"] += len(x)
        return f(x)

    return (counted,) + tuple(args[1:]), kwargs


def _decomposition_fill(tracer, dec, args, kwargs):
    import numpy as np

    blocks = dec.blocks
    tracer.counters["eigenops.blocks"] += len(blocks)
    for b in blocks:
        tracer.counters["eigenops.nnz"] += int(np.count_nonzero(b.matrix))
        tracer.counters["eigenops.cells"] += b.matrix.size


def _terms(tracer, poly, args, kwargs):
    tracer.counters["spectrum.terms"] += poly.n_terms


def _lines(tracer, spec, args, kwargs):
    tracer.counters["spectrum.lines"] += len(spec.lines)


def _bytes(tracer, result, args, kwargs):
    tracer.counters["spectrum.bytes_written"] += os.path.getsize(
        _arg(args, kwargs, 1, "path"))


_HOOKS = {
    "numutil.simpson_doubling": {"pre": _count_nodes},
    "eigenops.decompose": {"post": _decomposition_fill},
    "spectrum.generating_polynomial": {"post": _terms},
    "spectrum.stick_spectrum": {"post": _lines},
    "spectrum.export_csv": {"post": _bytes},
    "spectrum.export_svg": {"post": _bytes},
    "acp.y_nested": {"tag": lambda a, k: int(_arg(a, k, 2, "n"))},
    "lineshape.hilbert": {"tag": lambda a, k: _arg(a, k, 0, "dist").kind},
}


# -- summary -----------------------------------------------------------------

CLI_MODES = ("spectrum", "propagate", "qubit", "acp")
SIZES = (4, 8, 16)
# spectra profiles: g<neighbour groups>
SPECTRUM_PROFILES = ("g4", "g5", "g6", "g7")


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    s, n, r = "s", "count", "ratio"
    return {
        "spincore.calls": n, "spincore.self_s": s,
        "eigenops.decompose.self_s": s, "eigenops.blocks": n,
        "eigenops.block_fill": r,
        "lineshape.hilbert.calls": n, "lineshape.hilbert.self_s": s,
        "lineshape.hilbert.s_per_call.gaussian": s,
        "lineshape.pv_integral.self_s": s,
        "lineshape.characteristic.calls": n, "lineshape.characteristic.self_s": s,
        "mastereq.build_model.self_s": s,
        "mastereq.dissipator.calls": n, "mastereq.dissipator.self_s": s,
        **{f"mastereq.dissipator.s_per_call.D{d}": s for d in SIZES},
        "mastereq.propagate.self_s": s, "mastereq.rk4_steps": n,
        **{f"mastereq.s_per_step.D{d}": s for d in SIZES},
        "mastereq.linear_response_hamiltonian.self_s": s,
        "mastereq.lambda_map.calls": n, "mastereq.lambda_map.self_s": s,
        "mastereq.kraus_audit.self_s": s, "mastereq.liouvillian_matrix.self_s": s,
        "numutil.expm.calls": n, "numutil.expm.self_s": s,
        "numutil.choi_matrix.self_s": s, "numutil.kraus_from_choi.self_s": s,
        "numutil.simpson_doubling.calls": n, "numutil.simpson_doubling.self_s": s,
        "numutil.simpson_doubling.nodes": n,
        "acp.y_nested.calls": n,
        **{f"acp.y_nested.self_s.order{k}": s for k in (1, 2, 3, 4)},
        **{f"acp.y_nested.s_per_call.D8.order{k}": s for k in (1, 2, 3, 4)},
        "acp.initial_correction.self_s": s, "acp.zeta_determinant.self_s": s,
        "acp.propagate_order_n.self_s": s,
        "qubit.trajectory.calls": n, "qubit.trajectory.self_s": s,
        "qubit.sigma_plus_expectation.self_s": s,
        "response.absorbed_power.self_s": s, "response.steady_magnetization.self_s": s,
        "spectrum.generating_polynomial.self_s": s, "spectrum.terms": n,
        "spectrum.stick_spectrum.self_s": s,
        **{f"spectrum.stick_spectrum.s_per_call.{g}": s for g in SPECTRUM_PROFILES},
        "spectrum.lines": n, "spectrum.lines_per_term": r,
        "spectrum.export_csv.self_s": s, "spectrum.export_svg.self_s": s,
        "spectrum.bytes_written": "B",
        "cli.import_s": s, "config.load_config.self_s": s, "cli.main.self_s": s,
        **{f"cli.run.{m}.self_s": s for m in CLI_MODES},
        "trace.overhead_frac": r,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(spans, counters, calc_props, passes, extra=None):
    """Per-layer metrics per traced pass, plus the summed self time.

    ``spans`` may hold spans from several processes; parents index into the
    same list.  ``calc_props`` maps a calc id to its properties (``D``,
    ``groups``).  Returns ``(metrics, self_sum_s)``.
    """
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, calc, tag in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls = Counter()
    self_sum = 0.0
    by_size = defaultdict(float)      # (key, size) -> summed duration
    size_calls = Counter()
    steps = Counter()                 # D -> dissipator calls under propagate
    prop_time = defaultdict(float)    # D -> propagate duration
    order_self = defaultdict(float)   # y_nested order -> self time
    for i, (name, start, end, parent, calc, tag) in enumerate(spans):
        dur = end - start
        own = dur - child[i]
        self_s[name] += own
        calls[name] += 1
        if name != CALC_SPAN:
            self_sum += own
        props = calc_props.get(calc, {})
        dim = props.get("D")
        if name == "mastereq.dissipator":
            by_size[("dissipator", dim)] += dur
            size_calls[("dissipator", dim)] += 1
            if parent >= 0 and spans[parent][0] == "mastereq.propagate":
                steps[dim] += 1
        elif name == "mastereq.propagate":
            prop_time[dim] += dur
        elif name == "acp.y_nested":
            order_self[tag] += own
            key = ("y_nested", dim, tag)
            by_size[key] += dur
            size_calls[key] += 1
        elif name == "lineshape.hilbert":
            by_size[("hilbert", tag)] += dur
            size_calls[("hilbert", tag)] += 1
        elif name == "spectrum.stick_spectrum":
            key = ("stick", props.get("profile"))
            by_size[key] += dur
            size_calls[key] += 1

    spincore = [k for k in self_s if k.startswith("spincore.")]
    per = 1.0 / passes
    m = {
        "spincore.calls": sum(calls[k] for k in spincore) * per,
        "spincore.self_s": sum(self_s[k] for k in spincore) * per,
        "eigenops.blocks": counters.get("eigenops.blocks", 0) * per,
        "eigenops.block_fill": _ratio(counters.get("eigenops.nnz", 0),
                                      counters.get("eigenops.cells", 0)),
        "lineshape.hilbert.s_per_call.gaussian": _ratio(
            by_size[("hilbert", "gaussian")], size_calls[("hilbert", "gaussian")]),
        "mastereq.rk4_steps": sum(steps.values()) / 4 * per,
        "numutil.simpson_doubling.nodes":
            counters.get("numutil.simpson_doubling.nodes", 0) * per,
        "acp.y_nested.calls": calls["acp.y_nested"] * per,
        "spectrum.terms": counters.get("spectrum.terms", 0) * per,
        "spectrum.lines": counters.get("spectrum.lines", 0) * per,
        "spectrum.lines_per_term": _ratio(counters.get("spectrum.lines", 0),
                                          counters.get("spectrum.terms", 0)),
        "spectrum.bytes_written": counters.get("spectrum.bytes_written", 0) * per,
    }
    for d in SIZES:
        key = ("dissipator", d)
        m[f"mastereq.dissipator.s_per_call.D{d}"] = _ratio(by_size[key], size_calls[key])
        m[f"mastereq.s_per_step.D{d}"] = _ratio(prop_time[d], steps[d] / 4)
    for k in (1, 2, 3, 4):
        m[f"acp.y_nested.self_s.order{k}"] = order_self[k] * per
        key = ("y_nested", 8, k)
        m[f"acp.y_nested.s_per_call.D8.order{k}"] = _ratio(by_size[key], size_calls[key])
    for g in SPECTRUM_PROFILES:
        key = ("stick", g)
        m[f"spectrum.stick_spectrum.s_per_call.{g}"] = _ratio(by_size[key], size_calls[key])
    for mode in CLI_MODES:
        m[f"cli.run.{mode}.self_s"] = self_s[f"cli.run_{mode}"] * per
    extra = extra or {}
    out = {}
    for name, unit in layer_metric_units().items():
        if name in m:
            value = m[name]
        elif name in extra:
            value = extra[name]
        elif name.endswith(".calls"):
            value = calls[name[:-len(".calls")]] * per
        elif name.endswith(".self_s"):
            value = self_s[name[:-len(".self_s")]] * per
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
        out[name] = {"value": float(value), "unit": unit}
    return out, self_sum * per
