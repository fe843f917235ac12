"""Span tracer for the traced run; the untraced run never imports it.

``Tracer.install`` wraps every function listed in the ``__all__`` of each
belieflab layer module and binds the wrapper in every belieflab module
namespace that bound the original. That covers ``from .x import y``, the
package ``__init__`` and the function-local imports, which all look the
function up by name at call time.

Spans are kept in memory as parallel arrays (function, start, end, parent
span, job, self time) and written out when the run ends. Self time is a
span's duration minus the durations of its child spans. The wrappers'
own cost lands in the caller's self time; ``overhead_frac`` in the report
measures it.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import sys
import types
from array import array
from time import perf_counter

LAYERS = ("cli", "scenarios", "signals", "chain", "beliefs", "welfare", "oracle")

# Functions whose own metrics the report carries besides the layer totals.
_FUNCTION_METRICS = {
    "beliefs.prior_exceed_prob": ("calls", "self_s"),
    "beliefs.bayes_params": ("calls",),
    "welfare.expected_welfare": ("calls",),
    "welfare.sweep": ("self_s",),
    "chain.stationary": ("calls", "self_s"),
    "chain.finite_n_distribution": ("calls", "self_s"),
    "signals.censored_transitions": ("calls", "self_s"),
    "signals.classify": ("calls",),
    "signals.censor_path": ("self_s",),
    "welfare.grid_argmax": ("self_s",),
    "welfare.find_D_witness": ("self_s",),
    "oracle.simulate_welfare": ("self_s",),
    "oracle.simulate_ladder": ("self_s",),
    "oracle.simulate_chain": ("self_s",),
}

# Underlying states each simulate_* call walks; agent-signal steps per call
# are states x N x trials.
_ORACLE_STEPS = {
    "oracle.simulate_welfare": 1,
    "oracle.simulate_ladder": 3,
    "oracle.simulate_chain": 1,
}


def _model_key(model) -> tuple:
    if hasattr(model, "outcomes"):
        return ("discrete", model.outcomes, model.probs.tobytes())
    return ("continuous", model.name, tuple(sorted(model.params.items())))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fn_id: dict[str, int] = {}
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.span_fn = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_self = array("d")
        self.job = -1
        self._stack: list[list] = []  # [span index, child time]
        self._restore: list[tuple[object, str, object]] = []
        self.stationary_keys: set = set()
        self.transition_keys: set = set()
        self.sweep_cells = 0
        self.sweep_finite = 0
        self.agent_steps = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "belieflab" or name.startswith("belieflab.")
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"belieflab.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap(self, fn, qualname: str):
        nid = len(self.names)
        self.names.append(qualname)
        self.fn_id[qualname] = nid
        self.calls.append(0)
        self.errors.append(0)
        before = after = None
        if qualname == "chain.stationary":
            before = lambda a, k: self.stationary_keys.add(
                (a[0] if a else k["r"], a[1] if len(a) > 1 else k["K"])
            )
        elif qualname == "signals.censored_transitions":
            sig = inspect.signature(fn)

            def before(a, k):
                bound = sig.bind(*a, **k).arguments
                self.transition_keys.add((_model_key(bound["model"]), bound["beta"]))
        elif qualname in _ORACLE_STEPS:
            sig = inspect.signature(fn)
            states = _ORACLE_STEPS[qualname]

            def before(a, k):
                bound = sig.bind(*a, **k).arguments
                self.agent_steps += states * bound["N"] * bound["trials"]
        elif qualname == "welfare.sweep":

            def after(rows):
                self.sweep_cells += len(rows)
                self.sweep_finite += sum(1 for r in rows if math.isfinite(r["value"]))

        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job < 0:
                return fn(*args, **kwargs)
            self.calls[nid] += 1
            if before is not None:
                before(args, kwargs)
            idx = len(self.span_fn)
            self.span_fn.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_job.append(self.job)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_self.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[nid] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.span_start[idx] = t0
                self.span_end[idx] = t1
                self.span_self[idx] = dur - frame[1]
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- report -------------------------------------------------------------

    def report(self, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics; self times plus ``trace.remainder_s`` equal the traced wall."""
        fn_self = [0.0] * len(self.names)
        for nid, s in zip(self.span_fn, self.span_self):
            fn_self[nid] += s
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_calls = dict.fromkeys(LAYERS, 0)
        layer_errors = dict.fromkeys(LAYERS, 0)
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            layer_self[layer] += fn_self[nid]
            layer_calls[layer] += self.calls[nid]
            layer_errors[layer] += self.errors[nid]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (layer_calls[layer], "count")
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
            out[f"{layer}.share"] = (layer_self[layer] / traced_wall, "ratio")
            out[f"{layer}.errors"] = (layer_errors[layer], "count")
        for name, fields in _FUNCTION_METRICS.items():
            nid = self.fn_id[name]
            if "calls" in fields:
                out[f"{name}.calls"] = (self.calls[nid], "count")
            if "self_s" in fields:
                out[f"{name}.self_s"] = (fn_self[nid], "s")

        def ratio(num, den):
            return num / den if den else 0.0

        stationary_calls = self.calls[self.fn_id["chain.stationary"]]
        transition_calls = self.calls[self.fn_id["signals.censored_transitions"]]
        out["chain.stationary.distinct_ratio"] = (
            ratio(len(self.stationary_keys), stationary_calls), "ratio")
        out["signals.censored_transitions.distinct_ratio"] = (
            ratio(len(self.transition_keys), transition_calls), "ratio")
        out["welfare.sweep.useful_ratio"] = (ratio(self.sweep_finite, self.sweep_cells), "ratio")
        oracle_wall = sum(
            self.span_end[i] - self.span_start[i]
            for i, nid in enumerate(self.span_fn)
            if self.names[nid] in _ORACLE_STEPS
        )
        out["oracle.agent_steps_per_s"] = (ratio(self.agent_steps, oracle_wall), "1/s")
        out["trace.remainder_s"] = (traced_wall - sum(layer_self.values()), "s")
        out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
        return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}

    def write_spans(self, path) -> None:
        """Spans as gzipped TSV: span, function, start, end, parent span, job, self time."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tfunction\tstart_s\tend_s\tparent\tjob\tself_s\n")
            for i in range(len(self.span_fn)):
                fh.write(
                    f"{i}\t{self.names[self.span_fn[i]]}\t{self.span_start[i]!r}\t"
                    f"{self.span_end[i]!r}\t{self.span_parent[i]}\t{self.span_job[i]}\t"
                    f"{self.span_self[i]!r}\n"
                )
