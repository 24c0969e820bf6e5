"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` wraps the public functions of each layer module (and the
spec and operator methods the scans call per sample) in spans, and rebinds
every name that refers to them in every `concavemaps` module, so calls made
through names that `margins`, `operators`, `oracle` and `cli` imported into
their own namespaces go through the spans too. Jet3 arithmetic is only
counted: a span per jet operation would cost more than the operation.

Spans are kept in memory, aggregated per (operation id, parent span, span),
and written out with `write`. A span's self time is its duration minus the
durations of its direct child spans. `uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("catalog", "jets", "operators", "margins", "oracle", "cli")

# Jet3 arithmetic and elementary functions; each call is counted, not spanned.
JET_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "reciprocal", "__truediv__", "__rtruediv__", "log",
           "exp", "pow", "__pow__")

# Errors a jet operation raises: overflow, branch-cut hits, zero divisors.
JET_ERRORS = ("NonFiniteJetError", "BranchCutError", "JetDivisionError")

_MISSING = object()


class Tracer:
    def __init__(self, package: str = "concavemaps"):
        self.package = package
        self.mods = {name: sys.modules[f"{package}.{name}"] for name in LAYERS}
        self._exclusion = sys.modules[f"{package}.errors"].SampleExclusionError
        self._undo: list[tuple[object, str, object]] = []
        self.stack: list[list] = []
        self.op_id = 0
        # span name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = {}
        # (op_id, parent span, span) -> [calls, total_s, self_s]
        self.edges: dict[tuple, list] = {}
        self.jet_ops = [0]
        self.jet_errors = [0]
        self.excluded_by_layer = dict.fromkeys(LAYERS, 0)
        self.samples_used = 0
        self.samples_excluded = 0
        self.curve_samples = 0
        self.curve_excluded = 0
        self.classify_depth = 0
        self.classify_points = 0
        self.evals_under_classify = 0

    # -- spans ----------------------------------------------------------------

    def _span(self, name: str, layer: str, fn, on_result=None):
        stack, edges, clock = self.stack, self.edges, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        exclusion, excluded = self._exclusion, self.excluded_by_layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                # re-entry, such as a catalog function delegating to the
                # spec method of the same name: one span, not two
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except exclusion as exc:
                # an excluded sample is charged to the innermost layer it
                # escapes from
                if not hasattr(exc, "_perfbench_layer"):
                    exc._perfbench_layer = layer
                    excluded[layer] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                stat[0] += 1
                stat[1] += dur
                stat[2] += own
                key = (self.op_id, parent, name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dur
                edge[2] += own
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, fn):
        counter = self.jet_ops

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that reconcile against the program's reports -------------------

    def _on_scan(self, report) -> None:
        self.samples_used += report.samples_used
        self.samples_excluded += report.samples_excluded

    def _on_curve(self, curve) -> None:
        self.curve_samples += len(curve.included)
        self.curve_excluded += curve.n - len(curve.included)

    def _on_classify(self, result) -> None:
        # every grid point is either used or excluded by each scan
        first = result.reports[0]
        self.classify_points += first.samples_used + first.samples_excluded

    def _classify_scope(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.classify_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.classify_depth -= 1

        return wrapper

    def _eval_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.classify_depth:
                self.evals_under_classify += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, value)

    def _public_functions(self, layer: str):
        mod = self.mods[layer]
        # cli gets one span, so that its self time is argument parsing,
        # formatting and the write together
        names = ("main",) if layer == "cli" else sorted(vars(mod))
        for name in names:
            fn = vars(mod)[name]
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                yield name, fn

    def install(self) -> None:
        hooks = {"margins.scan": self._on_scan,
                 "margins.classify": self._on_classify,
                 "oracle.boundary_curve": self._on_curve}
        wrapped = {}
        for layer in LAYERS:
            for name, fn in self._public_functions(layer):
                span = f"{layer}.{name}"
                w = self._span(span, layer, fn, hooks.get(span))
                if span == "margins.classify":
                    w = self._classify_scope(w)
                wrapped[id(fn)] = w
        prefix = self.package + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package
                                   or modname.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                w = wrapped.get(id(value))
                if w is not None:
                    self._set(mod, attr, w)

        catalog = self.mods["catalog"]
        for cls in vars(catalog).values():
            if inspect.isclass(cls) and issubclass(cls, catalog.FamilySpec):
                for meth in ("eval_jet", "reciprocal_jet"):
                    fn = vars(cls).get(meth)
                    if fn is None:
                        continue
                    w = self._span(f"catalog.{meth}", "catalog", fn)
                    if meth == "eval_jet":
                        w = self._eval_counter(w)
                    self._set(cls, meth, w)

        point = self.mods["operators"].OperatorPoint
        at = vars(point)["at"].__func__
        self._set(point, "at", staticmethod(
            self._span("operators.point", "operators", at)))

        jet3 = self.mods["jets"].Jet3
        counted = {}
        for op in JET_OPS:
            fn = vars(jet3)[op]
            if id(fn) not in counted:
                counted[id(fn)] = self._count(fn)
            self._set(jet3, op, counted[id(fn)])

        errors = sys.modules[f"{self.package}.errors"]
        for name in JET_ERRORS:
            cls = getattr(errors, name)
            self._set(cls, "__init__", self._counting_init(cls.__init__))

    def _counting_init(self, init):
        counter = self.jet_errors

        def __init__(exc, *args, **kwargs):
            counter[0] += 1
            init(exc, *args, **kwargs)

        return __init__

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)

    # -- results ------------------------------------------------------------------

    def self_s(self, prefix: str, exclude: tuple[str, ...] = ()) -> float:
        return sum(s[2] for name, s in self.stats.items()
                   if name.startswith(prefix) and name not in exclude)

    def stat(self, name: str) -> list:
        return self.stats.get(name, [0, 0.0, 0.0])

    def write(self, path) -> None:
        rows = [{"op": op, "parent": parent, "span": name, "calls": c,
                 "total_s": total, "self_s": own}
                for (op, parent, name), (c, total, own) in self.edges.items()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)
            fh.write("\n")
