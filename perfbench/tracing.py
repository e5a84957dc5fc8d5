"""Spans around the public entry points of segrenum's modules, recorded
from outside the package.

`install` replaces every binding of a wrapped function, in every
`segrenum.*` module that imported it, so a call is traced whichever name
it goes through.  A span is [name, start, end, parent, attrs, last]:
`parent` is the index of the enclosing span (-1 for none) and `last` is
one past the index of the span's last descendant, so the subtree of span
i is spans[i + 1:last].  Spans stay in memory; `layer_metrics` reduces
them to the per-layer numbers the benchmark prints.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

MODULES = ("groebner", "multiplicity", "segre", "criteria", "equising",
           "parser", "report", "cli", "surface")

# Private functions that are still layer boundaries: every raw Buchberger
# run goes through `_buchberger_raw`, and the battery's mixed-number
# requests go through the cache method.
EXTRA = {
    "groebner": ("_buchberger_raw",),
    "criteria": ("MixedNumberCache.mixed",),
}

# Layers that only turn input into calls and results into reports.
FRONT_END = ("cli", "parser", "report", "surface")

RAW = "groebner._buchberger_raw"
COMMAND = "bench.command"

NAME, START, END, PARENT, ATTRS, LAST = range(6)


def _coeff_bits(gb):
    bits = 0
    for g in gb.basis:
        for c in g.coeffs.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _raw_attrs(args, kwargs, result):
    truncate = kwargs.get("truncate_deg", args[3] if len(args) > 3 else None)
    return {"truncated": truncate is not None}


def _saturate_attrs(args, kwargs, result):
    I, J = args[0], args[1]
    return {"eliminations": 0 if I.is_zero or J.is_zero else len(J.generators)}


def _tuple_attrs(args, kwargs, result):
    return {"bound": args[2].coefficient_bound}


def _multiplicity_attrs(args, kwargs, result):
    return {"samples": len(result.samples)}


ATTRS_OF = {
    "groebner._buchberger_raw": _raw_attrs,
    "groebner.saturate": _saturate_attrs,
    "segre.generic_tuple": _tuple_attrs,
    "multiplicity.multiplicity_at_origin": _multiplicity_attrs,
}


class Tracer:
    """Span recorder for one process; single-threaded like the engine."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.raw_count = 0

    def reset(self):
        """Forget spans recorded so far (such as those of set-up)."""
        self.spans.clear()
        self.stack.clear()
        self.raw_count = 0

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, None, 0])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[END] = perf_counter()
        span[LAST] = len(self.spans)
        self.stack.pop()

    def wrap(self, name, fn, site):
        attrs_of = ATTRS_OF.get(name)
        is_raw = name == RAW
        is_gb = name == "groebner.buchberger"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            raw_before = tracer.raw_count
            if is_raw:
                tracer.raw_count += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            span = tracer.spans[idx]
            if attrs_of is not None:
                span[ATTRS] = attrs_of(args, kwargs, result)
                if is_raw:
                    span[ATTRS]["site"] = site
            elif is_gb and tracer.raw_count != raw_before:
                span[ATTRS] = {"coeff_bits": _coeff_bits(result)}
            return result

        return traced


def _targets():
    """Functions to wrap: {id: (span name, function)} for module-level
    functions, and (span name, class, attribute) for methods."""
    functions, methods = {}, []
    for mod_name in MODULES:
        mod = importlib.import_module(f"segrenum.{mod_name}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                functions[id(obj)] = (f"{mod_name}.{attr}", obj)
        for extra in EXTRA.get(mod_name, ()):
            if "." in extra:
                cls_name, attr = extra.split(".")
                methods.append((f"{mod_name}.{attr}", getattr(mod, cls_name), attr))
            else:
                obj = getattr(mod, extra)
                functions[id(obj)] = (f"{mod_name}.{extra}", obj)
    return functions, methods


def install(tracer):
    """Wrap every target at every place its name is bound; returns the
    number of bindings replaced."""
    functions, methods = _targets()
    replaced = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "segrenum" or mod_name.startswith("segrenum.")):
            continue
        site = mod_name.rpartition(".")[2]
        for attr, obj in list(vars(mod).items()):
            hit = functions.get(id(obj))
            if hit is not None and hit[1] is obj:
                setattr(mod, attr, tracer.wrap(hit[0], obj, site))
                replaced += 1
    for name, cls, attr in methods:
        setattr(cls, attr, tracer.wrap(name, vars(cls)[attr], cls.__name__))
        replaced += 1
    return replaced


# ---------------------------------------------------------------------------
# reduction to per-layer metrics
# ---------------------------------------------------------------------------

def _layer(name):
    return name.partition(".")[0]


def layer_metrics(spans, pass_s):
    """Per-layer numbers of one traced pass.  `self` time is a span's
    duration minus the durations of its direct children; a layer's
    `total` counts only spans with no ancestor in the same layer, so
    recursion is not counted twice."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    calls, self_s, layer_self = {}, {}, {}
    for i, s in enumerate(spans):
        name = s[NAME]
        own = dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        layer_self[_layer(name)] = layer_self.get(_layer(name), 0.0) + own

    def covered(match):
        """Time covered by matching spans, nested ones counted once."""
        total, until = 0.0, -1
        for i, s in enumerate(spans):
            if i >= until and match(s[NAME]):
                total += dur[i]
                until = s[LAST]
        return total

    def layer_total(layer):
        return covered(lambda name: _layer(name) == layer)

    gb_calls = gb_hits = 0
    coeff_bits = 0
    truncated_runs = 0
    truncated_s = 0.0
    eliminations = samples = 0
    cross_check_s = 0.0
    bounds_by_command = {}
    draws = 0
    mixed_requests = mixed_hits = 0
    raw_prefix = [0] * (n + 1)
    mixed_prefix = [0] * (n + 1)
    for i, s in enumerate(spans):
        raw_prefix[i + 1] = raw_prefix[i] + (s[NAME] == RAW)
        mixed_prefix[i + 1] = mixed_prefix[i] + (s[NAME] == "segre.mixed_segre")
    command = -1
    for i, s in enumerate(spans):
        name, attrs = s[NAME], s[ATTRS] or {}
        if name == COMMAND:
            command = i
        elif name == "groebner.buchberger":
            gb_calls += 1
            if raw_prefix[s[LAST]] == raw_prefix[i + 1]:
                gb_hits += 1
            coeff_bits = max(coeff_bits, attrs.get("coeff_bits", 0))
        elif name == RAW:
            if attrs["site"] == "multiplicity" and attrs["truncated"]:
                truncated_runs += 1
                truncated_s += dur[i]
        elif name == "groebner.saturate":
            eliminations += attrs["eliminations"]
            p = s[PARENT]
            if p >= 0 and spans[p][NAME] == "multiplicity.multiplicity_at_origin":
                cross_check_s += dur[i]
        elif name == "multiplicity.multiplicity_at_origin":
            samples += attrs["samples"]
        elif name == "segre.generic_tuple":
            draws += 1
            bounds_by_command.setdefault(command, []).append(attrs["bound"])
        elif name == "criteria.mixed":
            mixed_requests += 1
            if mixed_prefix[s[LAST]] == mixed_prefix[i + 1]:
                mixed_hits += 1
    escalations = sum(
        sum(1 for b in bounds if b > min(bounds)) for bounds in bounds_by_command.values()
    )

    def ratio(a, b):
        return a / b if b else 0.0

    sat_total = covered("groebner.saturate".__eq__)
    mult_total = layer_total("multiplicity")
    return {
        "groebner.buchberger.calls": gb_calls,
        "groebner.buchberger.self_s": self_s.get("groebner.buchberger", 0.0),
        "groebner.gb_cache_hit_ratio": ratio(gb_hits, gb_calls),
        "groebner.raw_spans": calls.get(RAW, 0),
        "groebner.raw_s": covered(RAW.__eq__),
        "groebner.max_coeff_bits": coeff_bits,
        "groebner.saturate.calls": calls.get("groebner.saturate", 0),
        "groebner.saturate.total_s": sat_total,
        "groebner.saturate.self_s": self_s.get("groebner.saturate", 0.0),
        "groebner.saturate.eliminations": eliminations,
        "groebner.saturate.share": ratio(sat_total, pass_s),
        "groebner.intersect.calls": calls.get("groebner.intersect", 0),
        "groebner.intersect.total_s": covered("groebner.intersect".__eq__),
        "groebner.self_s": layer_self.get("groebner", 0.0),
        "multiplicity.calls": calls.get("multiplicity.multiplicity_at_origin", 0),
        "multiplicity.total_s": mult_total,
        "multiplicity.self_s": layer_self.get("multiplicity", 0.0),
        "multiplicity.samples": samples,
        "multiplicity.truncated_runs": truncated_runs,
        "multiplicity.truncated_s": truncated_s,
        "multiplicity.cross_check_s": cross_check_s,
        "multiplicity.share": ratio(mult_total, pass_s),
        "segre.polar_chain.calls": calls.get("segre.polar_chain", 0),
        "segre.mixed_segre.calls": calls.get("segre.mixed_segre", 0),
        "segre.mixed_segre.total_s": covered("segre.mixed_segre".__eq__),
        "segre.self_s": layer_self.get("segre", 0.0),
        "segre.tuple_draws": draws,
        "segre.bound_escalations": escalations,
        "criteria.total_s": layer_total("criteria"),
        "criteria.mixed_requests": mixed_requests,
        "criteria.mixed_cache_hit_ratio": ratio(mixed_hits, mixed_requests),
        "equising.total_s": layer_total("equising"),
        "cli.self_s": layer_self.get("cli", 0.0),
        "parser.self_s": layer_self.get("parser", 0.0),
        "report.self_s": layer_self.get("report", 0.0),
        "surface.self_s": layer_self.get("surface", 0.0),
        "front_end.share": ratio(sum(layer_self.get(m, 0.0) for m in FRONT_END), pass_s),
        "trace.spans": n,
    }

