"""Per-layer tracing of ncbinom, applied from outside the package.

``Tracer.install`` replaces the public callables of each module (its
functions, the public methods of its classes, and the arithmetic operators
of its value types) with timing wrappers, patching every name under which
the package looks a function up.  ``uninstall`` puts the originals back.

Two kinds of span are kept in memory:

- calls of the arithmetic value types (everything in ``scalars`` and
  ``freealg``, and ``DiffOp``/``Poly1``) are leaves, aggregated per
  (op, function) as [calls, inclusive s, self s];
- every other call is recorded as one span: name, op, start, end, parent
  span and self time.

Self time is a span's duration minus the time covered by its children.  A
layer's inclusive time counts only its outermost spans, so a layer that
calls itself is not counted twice.  Counters for the per-layer metrics are
taken at the same boundaries.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("scalars", "freealg", "binomial", "rewrite", "diffop", "verify", "cli")
SUITES = ("statements", "theorem1", "theorem2", "hsq", "weyl", "exp", "hermite")
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
              "__mul__", "__rmul__", "__pow__", "__eq__")
LEAF_LAYERS = frozenset({"scalars", "freealg"})
LEAF_CLASSES = frozenset({"DiffOp", "Poly1"})


def inversions(system, word) -> int:
    """Out-of-order letter pairs of a word under the system's alphabet order."""
    pos = [system.position(g) for g in word]
    return sum(1 for i, p in enumerate(pos) for q in pos[i + 1:] if p > q)


def _size(value) -> int:
    """Term count of an algebra element; a scalar operand counts as one term."""
    terms = getattr(value, "terms", None)
    return len(terms) if isinstance(terms, dict) else 1


# Counter hooks, keyed by traced name.  They run with recording paused, so
# the public calls they make are not counted.

def _scalar_op(kind):
    def hook(tracer, args, kwargs, result, dur):
        if result is NotImplemented:
            return
        tracer.counts[kind] += 1
        other = args[1]
        if args[0].is_constant() and (
                not hasattr(other, "is_constant") or other.is_constant()):
            tracer.counts["scalars.const_calls"] += 1
    return hook


def _ncpoly_mul(tracer, args, kwargs, result, dur):
    if result is NotImplemented:
        return
    tracer.counts["freealg.pair_products"] += _size(args[0]) * _size(args[1])
    tracer.counts["freealg.terms_out"] += len(result.terms)


def _render(tracer, args, kwargs, result, dur):
    tracer.times["freealg.render_s"] += dur


def _twisted_power(tracer, args, kwargs, result, dur):
    tracer.counts["binomial.twisted_steps"] += args[2] if len(args) > 2 else kwargs["k"]


def _essential_part(tracer, args, kwargs, result, dur):
    tracer.counts["binomial.twisted_steps"] += args[0] if args else kwargs["k"]


def _normal_form(tracer, args, kwargs, result, dur):
    system, p = args[0], (args[1] if len(args) > 1 else kwargs["p"])
    tracer.counts["rewrite.terms_in"] += len(p.terms)
    tracer.counts["rewrite.inversions_in"] += sum(inversions(system, w) for w in p.terms)
    tracer.counts["rewrite.terms_out"] += len(result.terms)


def _compose(tracer, args, kwargs, result, dur):
    other = args[1] if len(args) > 1 else kwargs["other"]
    tracer.counts["diffop.compose_pairs"] += len(args[0].terms) * len(other.terms)


def _apply(tracer, args, kwargs, result, dur):
    tracer.counts["diffop.apply_calls"] += 1


def _run_suite(tracer, args, kwargs, result, dur):
    suite = args[0] if args else kwargs["suite"]
    tracer.counts["verify.checks"] += len(result)
    tracer.times[f"verify.suite_s.{suite}"] += dur


HOOKS = {
    "ParamPoly.__mul__": _scalar_op("scalars.mul_calls"),
    "ParamPoly.__rmul__": _scalar_op("scalars.mul_calls"),
    "ParamPoly.__add__": _scalar_op("scalars.add_calls"),
    "ParamPoly.__radd__": _scalar_op("scalars.add_calls"),
    # NCPoly.__rmul__ delegates to __mul__, which counts the product.
    "NCPoly.__mul__": _ncpoly_mul,
    "NCPoly.text": _render,
    "NCPoly.to_json": _render,
    "twisted_power": _twisted_power,
    "essential_part": _essential_part,
    "RelationSystem.normal_form": _normal_form,
    "DiffOp.compose": _compose,
    "DiffOp.apply": _apply,
    "run_suite": _run_suite,
}

# (metric, unit) in report order; the layer totals come first.
LAYER_METRICS = [
    (f"{layer}.{kind}", unit)
    for layer in LAYERS
    for kind, unit in (("calls", "count"), ("incl_s", "s"), ("self_s", "s"))
] + [
    ("scalars.mul_calls", "count"),
    ("scalars.add_calls", "count"),
    ("scalars.const_share", "ratio"),
    ("freealg.pair_products", "count"),
    ("freealg.terms_out", "count"),
    ("freealg.merge_ratio", "ratio"),
    ("freealg.render_s", "s"),
    ("binomial.twisted_steps", "count"),
    ("rewrite.terms_in", "count"),
    ("rewrite.terms_out", "count"),
    ("rewrite.inversions_in", "count"),
    ("rewrite.errors", "count"),
    ("diffop.compose_pairs", "count"),
    ("diffop.apply_calls", "count"),
    ("verify.checks", "count"),
] + [(f"verify.suite_s.{suite}", "s") for suite in SUITES] + [
    ("cli.out_bytes", "bytes"),
]


class Tracer:
    """Span recorder for one traced run; set ``op`` before each operation."""

    def __init__(self):
        self.op = None
        self.spans = []              # (name, op, start, end, parent, self_s)
        self.leaves = {}             # (op, name) -> [calls, incl_s, self_s]
        self.counts = Counter()
        self.times = defaultdict(float)
        self._stack = []             # open frames: [child_s]
        self._open = []              # indices of open recorded spans
        self._depth = Counter()      # open spans per layer
        self._paused = False
        self._patched = []           # (owner, attribute, original)

    def _wrap(self, fn, name, layer, leaf):
        hook = HOOKS.get(name)
        clock = time.perf_counter
        stack, open_spans, depth = self._stack, self._open, self._depth
        counts, times, spans, leaves = self.counts, self.times, self.spans, self.leaves
        calls_key, incl_key, self_key = (f"{layer}.calls", f"{layer}.incl_s",
                                         f"{layer}.self_s")
        errors_key = f"{layer}.errors"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if not leaf:
                index = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(index)
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            result = failed = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                dur = end - start
                own = dur - frame[0]
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                depth[layer] -= 1
                if not depth[layer]:
                    times[incl_key] += dur
                    if failed:
                        counts[errors_key] += 1
                times[self_key] += own
                counts[calls_key] += 1
                if leaf:
                    agg = leaves.get((self.op, name))
                    if agg is None:
                        leaves[(self.op, name)] = [1, dur, own]
                    else:
                        agg[0] += 1
                        agg[1] += dur
                        agg[2] += own
                else:
                    open_spans.pop()
                    spans[index] = (name, self.op, start, end, parent, own)
                if hook is not None and not failed:
                    self._paused = True
                    try:
                        hook(self, args, kwargs, result, dur)
                    finally:
                        self._paused = False

        return traced

    def _patch(self, owner, attribute, value):
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _wrap_class(self, cls, layer):
        leaf = layer in LEAF_LAYERS or cls.__name__ in LEAF_CLASSES
        names = [n for n in vars(cls) if not n.startswith("_")]
        if not dataclasses.is_dataclass(cls):
            names += [n for n in ARITHMETIC if n in vars(cls)]
        for attribute in names:
            raw = vars(cls)[attribute]
            name = f"{cls.__name__}.{attribute}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, layer, leaf))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, name, layer, leaf)
            else:
                continue
            self._patch(cls, attribute, wrapped)

    def install(self) -> None:
        package = importlib.import_module("ncbinom")
        modules = {layer: importlib.import_module(f"ncbinom.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, layer)
                elif inspect.isfunction(obj):
                    wrapped = self._wrap(obj, name, layer, layer in LEAF_LAYERS)
                    for namespace in namespaces:
                        for attribute, value in list(vars(namespace).items()):
                            if value is obj:
                                self._patch(namespace, attribute, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def add_output(self, nbytes: int) -> None:
        self.counts["cli.out_bytes"] += nbytes

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        counts, times = self.counts, self.times
        arithmetic = counts["scalars.mul_calls"] + counts["scalars.add_calls"]
        pairs = counts["freealg.pair_products"]
        derived = {
            "scalars.const_share": counts["scalars.const_calls"] / arithmetic if arithmetic else 0.0,
            "freealg.merge_ratio": counts["freealg.terms_out"] / pairs if pairs else 0.0,
        }
        out = {}
        for name, unit in LAYER_METRICS:
            if name in derived:
                value = derived[name]
            elif unit == "s":
                value = times[name]
            else:
                value = counts[name]
            out[name] = (value, unit)
        return out

    def dump(self) -> dict:
        """The recorded spans and leaf aggregates, for the result file."""
        return {
            "span_fields": ["name", "op", "start", "end", "parent", "self_s"],
            "spans": self.spans,
            "leaves": [[op, name, *agg] for (op, name), agg in self.leaves.items()],
        }
