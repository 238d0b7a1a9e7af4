"""In-memory span tracer installed around covertsense from outside.

Every public function of every loaded ``covertsense.<layer>`` module is
wrapped, and the wrapper is bound under each name that any covertsense
module imported (``cli.simulate``, ``montecarlo.qfi_phase``,
``receivers.build_receiver_input``, ...), so calls through imported names
are traced too.  Dataclass ``__post_init__`` validators are wrapped as
``<layer>.<Class>`` spans, which counts state constructions.

A span is (name, start, end, parent); spans stay in plain lists until
``summary()`` reduces them.  Self time is a span's duration minus the
durations of its direct children.  Errors are counted once, in the layer
of the innermost span they escape from.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# Called once per Monte Carlo shot: a span there would cost more than the
# shot, so its time stays in the caller's (montecarlo) self time.
UNTRACED = frozenset({"receivers.cosine_estimator"})

# Private functions that carry a per-layer metric of their own.
EXTRA = frozenset({"cli._write_output"})


def _variant_tag(args, kwargs):
    variant = kwargs.get("variant", args[1] if len(args) > 1 else None)
    return getattr(variant, "value", str(variant))


def _shots_of(fn):
    sig = inspect.signature(fn)

    def shots(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["shots"]

    return shots


def summarize(names, parents, starts, ends):
    """Reduce spans to per-name calls, inclusive and self nanoseconds.

    ``parents[i]`` is the index of span i's parent or -1; children are
    recorded after their parent and never overlap one another."""
    child_ns = [0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_ns[parent] += ends[i] - starts[i]
    out: dict[str, dict[str, int]] = {}
    for i, name in enumerate(names):
        dur = ends[i] - starts[i]
        agg = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        agg["calls"] += 1
        agg["total_ns"] += dur
        agg["self_ns"] += dur - child_ns[i]
    return out


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.tags: dict[int, str] = {}
        self.stack: list[int] = [-1]
        self.errors: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.counters: dict[str, float] = defaultdict(float)
        self._seen_errors: dict[int, Exception] = {}
        self._hooks = {}

    # -- recording ---------------------------------------------------------

    def _record_error(self, layer: str, exc: Exception) -> None:
        if id(exc) in self._seen_errors:
            return
        self._seen_errors[id(exc)] = exc  # kept alive so the id stays unique
        self.errors[layer][type(exc).__name__] += 1

    def wrap(self, layer: str, name: str, fn):
        before, after = self._hooks.get(name) or self._hooks.get(f"{layer}.*", (None, None))
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, tags, clock = self.stack, self.tags, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            if before is not None:
                tags[i] = before(args, kwargs)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._record_error(layer, exc)
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        """Run fn inside a span (the root span of a traced run)."""
        return self.wrap(layer, name, fn)(*args, **kwargs)

    # -- installation ------------------------------------------------------

    def install(self, package: str = "covertsense") -> None:
        """Wrap the public functions of every loaded layer module and
        rebind each wrapped function under every name that refers to it."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        self._define_hooks(modules, package)
        wrapped = {}
        for modname, mod in modules.items():
            if modname == package:
                continue
            layer = modname.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                qual = f"{layer}.{attr}"
                if (attr.startswith("_") and qual not in EXTRA) or qual in UNTRACED:
                    continue
                if getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(layer, qual, obj)
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    obj.__post_init__ = self.wrap(layer, qual, obj.__post_init__)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def _define_hooks(self, modules, package: str) -> None:
        counters = self.counters
        mc = modules.get(package + ".montecarlo")
        if mc is not None:
            shots = _shots_of(mc.simulate)

            def count_shots(args, kwargs):
                counters["montecarlo.shots"] += shots(args, kwargs)

            self._hooks["montecarlo.simulate"] = (count_shots, None)

        def count_method(result):
            counters["adversary.pe_tests"] += 1
            # Once the CLT branch is gone the result has no `method`: all exact.
            if getattr(result, "method", "exact_threshold") == "exact_threshold":
                counters["adversary.pe_tests_exact"] += 1

        def fock_dim(result):
            dim = getattr(result, "total_dim", None)
            if isinstance(dim, int) and dim > counters["fock.max_dim"]:
                counters["fock.max_dim"] = dim

        self._hooks["metrology.qfi_phase"] = (_variant_tag, None)
        self._hooks["adversary.pe_optimal_counting"] = (None, count_method)
        self._hooks["fock.*"] = (None, fock_dim)

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name and per-layer aggregates, JSON-serialisable."""
        spans = summarize(self.names, self.parents, self.starts, self.ends)
        by_tag: dict[str, dict[str, list[int]]] = defaultdict(lambda: defaultdict(lambda: [0, 0]))
        for i, tag in self.tags.items():
            cell = by_tag[self.names[i]][tag]
            cell[0] += 1
            cell[1] += self.ends[i] - self.starts[i]
        layer_self: dict[str, int] = defaultdict(int)
        for name, agg in spans.items():
            layer_self[name.split(".", 1)[0]] += agg["self_ns"]
        return {
            "spans": spans,
            "by_tag": {k: dict(v) for k, v in by_tag.items()},
            "layer_self_ns": dict(layer_self),
            "errors": {k: dict(v) for k, v in self.errors.items()},
            "counters": dict(self.counters),
            "span_count": len(self.names),
        }
