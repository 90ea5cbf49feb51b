"""Span tracing for the benchmark's traced runs, installed from outside the program.

A traced repetition replaces functions of the bethestates layers with
wrappers that record one span per call: its name, start, end and parent
span.  Spans stay in memory (one array per column) and are written out
once the repetition ends.  Untraced repetitions never import this module.

What gets wrapped, per layer (module):

* every public module-level function defined in the module, except
  generator functions (a span would cover only the generator's creation)
  and ``SKIP``;
* the private names in ``EXTRA``, which another layer calls;
* the public and arithmetic methods of the classes in ``CLASS_METHODS``.

A wrapper is installed at every place the name is looked up: the defining
module's namespace, which serves both module-attribute calls
(``configs.count_xxz_general``) and calls inside the module, every module
that imported the name with ``from .x import name``, and class attributes
(``__radd__`` shares the ``__add__`` wrapper).
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("tsdata", "spectral", "configs", "qalg", "identities", "oracle", "util", "cli")

# Called from another layer although private.
EXTRA = {"configs": ("_context",)}

# Called more than a million times per run from inside their own module: a
# span there changes no layer's self time and costs more than the call.
SKIP = {"configs.signed_binom", "qalg.as_exp"}

ARITHMETIC = {"__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__neg__", "__pow__"}
# None: every public and arithmetic method; otherwise the listed ones.
CLASS_METHODS = {
    "qalg": {"QPolynomial": None, "QSeries": None},
    "configs": {"_CountContext": ("tops",)},
}


def _add(counts, key, n):
    counts[key] += n


def _max(counts, key, n):
    counts[key] = max(counts[key], n)


def _general_count(counts, result):
    _add(counts, "configs.admissible", result.admissible)
    _add(counts, "configs.skipped_fractional", result.skipped_fractional)


# Work counts, taken from return values only, so they repeat exactly.
PROBES = {
    "configs.enumerate_lambda": lambda c, r: _add(c, "configs.lambda_vectors", len(r)),
    "configs.count_xxz_general_detailed": _general_count,
    "spectral.coupling_inverse": lambda c, r: _max(c, "spectral.dim", r.dim),
    "spectral.coupling_matrix": lambda c, r: _max(c, "spectral.dim", r.dim),
    "spectral.interaction_delta": lambda c, r: _max(c, "spectral.dim", r.dim),
    "identities.fermionic_sum": lambda c, r: _add(c, "identities.series_terms", len(r.terms)),
    "identities.q_count": lambda c, r: _add(c, "identities.qcount_terms", len(r.terms)),
    "util.worker_cap": lambda c, r: _max(c, "util.workers", r),
}
PROBE_KEYS = ("configs.lambda_vectors", "configs.admissible", "configs.skipped_fractional",
              "spectral.dim", "identities.series_terms", "identities.qcount_terms",
              "util.workers")

# (count name, span name, ancestor span name): spans of one name opened
# under another, e.g. fermionic levels = enumerate_lambda under fermionic_sum.
NESTED = (("identities.levels_visited", "configs.enumerate_lambda", "identities.fermionic_sum"),)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []          # span name table
        self.name_col = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        self.counts = Counter({key: 0 for key in PROBE_KEYS})

    def wrap(self, name, fn, probe=None):
        nid = len(self.names)
        self.names.append(name)
        name_col, parent, start, end = self.name_col, self.parent, self.start, self.end
        stack, counts, clock = self.stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            name_col.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if probe is not None:
                probe(counts, result)
            return result

        return traced

    def spans(self):
        """(parent index, name, start ns, end ns) per span, in opening order."""
        names = self.names
        for nid, p, s, e in zip(self.name_col, self.parent, self.start, self.end):
            yield p, names[nid], s, e

    def summary(self) -> dict:
        out = aggregate(self.spans(), self.names)
        out.update(self.counts)
        return out

    def write(self, path, run_id: str) -> None:
        """Write the spans as gzipped CSV, one row per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("run_id,span,parent,name,start_ns,end_ns\n")
            fh.writelines(f"{run_id},{i},{p},{n},{s},{e}\n"
                          for i, (p, n, s, e) in enumerate(self.spans()))


def aggregate(spans, names=()) -> dict:
    """Self time per layer, and total time and calls per span name.

    ``spans`` yields (parent index, name, start, end) in opening order, so a
    parent always precedes its children; times are in nanoseconds, results
    in seconds.  A span's self time is its duration minus the durations of
    its direct children (single-threaded spans nest, so that is the part of
    the interval the children cover).  A layer's self time sums the self
    times of its spans, so the layers sum to the top-level durations.  A
    name's total counts only spans with no ancestor of the same name.
    ``names`` lists names to report even when they have no span.
    """
    self_ns = Counter({layer: 0 for layer in LAYERS})
    total_ns = Counter({name: 0 for name in names})
    calls = Counter({name: 0 for name in names})
    nested = Counter({count: 0 for count, _, _ in NESTED})
    span_name = []
    ancestors = []          # frozenset of ancestor names, shared through memo
    memo = {}
    for parent, name, start, end in spans:
        dur = end - start
        layer = name.split(".", 1)[0]
        self_ns[layer] += dur
        if parent < 0:
            anc = frozenset()
        else:
            self_ns[span_name[parent].split(".", 1)[0]] -= dur
            key = (ancestors[parent], span_name[parent])
            anc = memo.get(key)
            if anc is None:
                anc = memo[key] = key[0] | {key[1]}
        span_name.append(name)
        ancestors.append(anc)
        calls[name] += 1
        if name not in anc:
            total_ns[name] += dur
        for count, inner, outer in NESTED:
            if name == inner and outer in anc:
                nested[count] += 1
    out = {f"{layer}.self_s": ns / 1e9 for layer, ns in self_ns.items()}
    out.update({f"{name}.s": ns / 1e9 for name, ns in total_ns.items()})
    out.update({f"{name}.calls": n for name, n in calls.items()})
    out.update(nested)
    out["trace.spans"] = len(span_name)
    out["trace.self_sum_s"] = sum(self_ns.values()) / 1e9
    return out


def _layer_functions(layer, mod):
    for attr, obj in list(vars(mod).items()):
        if attr.startswith("_") and attr not in EXTRA.get(layer, ()):
            continue
        if isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isgeneratorfunction(inspect.unwrap(obj)):
            continue
        if f"{layer}.{attr}" in SKIP:
            continue
        yield attr, obj


def _class_methods(cls, only):
    for attr, raw in list(vars(cls).items()):
        if only is not None:
            if attr not in only:
                continue
        elif attr.startswith("_") and attr not in ARITHMETIC:
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            yield attr, raw, raw.__func__
        elif inspect.isfunction(raw):
            yield attr, raw, raw


def install(tracer: Tracer) -> None:
    """Wrap every target in the bethestates layers."""
    layers = {layer: importlib.import_module(f"bethestates.{layer}") for layer in LAYERS}
    modules = [m for n, m in list(sys.modules.items())
               if n == "bethestates" or n.startswith("bethestates.")]
    for layer, mod in layers.items():
        for attr, obj in _layer_functions(layer, mod):
            name = f"{layer}.{attr}"
            wrapped = tracer.wrap(name, obj, PROBES.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is obj:
                        setattr(m, key, wrapped)
        for cls_name, only in CLASS_METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            done = {}
            for attr, raw, fn in _class_methods(cls, only):
                if id(raw) not in done:
                    name = f"{layer}.{cls_name}.{fn.__name__}"
                    wrapped = tracer.wrap(name, fn, PROBES.get(name))
                    if not inspect.isfunction(raw):
                        wrapped = type(raw)(wrapped)
                    done[id(raw)] = wrapped
                setattr(cls, attr, done[id(raw)])
