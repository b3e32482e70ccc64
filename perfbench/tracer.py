"""Spans at the boundaries between freelat's modules, recorded from outside
the package.

A boundary call is a call that one layer (a freelat module) or the
benchmark makes into a public function, a public class constructor or a
public method of another layer.  install() puts a wrapper on each such
callable:

* every other module's binding of a foreign function, and the package's
  re-exports, are replaced by the wrapper;
* each layer module is replaced in sys.modules (and as an attribute of
  the package, and wherever another module holds it, such as
  ``from . import verify as V``) by a proxy module whose public functions
  are the wrappers, so lazy ``from .whitman import canonical_form``
  imports see them;
* methods and constructors are wrapped on the class itself.

A module's own global namespace keeps its unwrapped functions, so calls a
layer makes into itself cost nothing extra.  Wrappers that the layer
reaches anyway (methods, the functions in COUNTED) check whether the
innermost open span already belongs to the callee's layer and, if so,
call straight through: such a call is internal, not a boundary.

Each boundary span has a name, a start, an end and a parent span.  Spans
are folded as they close into per-edge totals (parent name, span name)
-> [calls, total seconds, self seconds], where self time is the span's
duration minus the time covered by its child spans.  Storing every span
would cost memory in proportion to the run and change what is measured.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types

PACKAGE = "freelat"
LAYERS = ("terms", "whitman", "finlat", "builders", "bhom", "ideals",
          "latfile", "reporting", "verify", "cli")
ROOT = "bench"

# Functions whose every call is counted, including the calls their own
# layer makes (recursion, d_rank calling minimal_join_covers): these are
# the work counts, not only the boundary counts.
COUNTED = frozenset({
    "whitman.ni_predicate", "whitman.canonical_form",
    "finlat.minimal_join_covers", "finlat.d_rank", "finlat.FiniteLattice",
    "bhom.beta", "bhom.alpha", "bhom.kernel_table", "bhom.Hom.eval",
})

# Single table lookups that finlat calls millions of times from inside
# itself; a wrapper would cost more than the call, so a caller in another
# layer keeps their time as its own.
UNWRAPPED = frozenset({
    "finlat.FinitePoset.leq", "finlat.FiniteLattice.join_of",
    "finlat.FiniteLattice.meet_of",
})


class Tracer:
    """Open-span stack, folded edges and counters of one traced process."""

    def __init__(self) -> None:
        self.on = False
        # frame: [layer, span name, start, seconds covered by child spans]
        self.stack: list[list] = [[ROOT, ROOT, 0.0, 0.0]]
        self.edges: dict[tuple[str, str], list] = {}
        self.counts: dict[str, int] = {}
        self.yields: dict[str, int] = {}
        self.modules: dict[str, types.ModuleType] = {}

    def wrap(self, fn, layer: str, name: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, name)
        tracer, stack, edges, counts = self, self.stack, self.edges, self.counts
        counted = name in COUNTED
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if counted:
                counts[name] = counts.get(name, 0) + 1
            parent = stack[-1]
            if parent[0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[2]
                stack.pop()
                parent[3] += dur
                e = edges.get((parent[1], name))
                if e is None:
                    edges[(parent[1], name)] = [1, dur, dur - frame[3]]
                else:
                    e[0] += 1
                    e[1] += dur
                    e[2] += dur - frame[3]

        return span

    def _wrap_generator(self, fn, layer: str, name: str):
        # The work of a generator runs when its consumer resumes it, so
        # each resumption is a span; the call itself is counted once.
        tracer = self

        @functools.wraps(fn)
        def start(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.on:
                return it
            tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return tracer._resumptions(it, layer, name)

        return start

    def _resumptions(self, it, layer: str, name: str):
        stack, edges, clock = self.stack, self.edges, time.perf_counter
        while True:
            parent = stack[-1]
            if parent[0] == layer or not self.on:
                try:
                    item = next(it)
                except StopIteration:
                    return
            else:
                frame = [layer, name, clock(), 0.0]
                stack.append(frame)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = clock() - frame[2]
                    stack.pop()
                    parent[3] += dur
                    e = edges.setdefault((parent[1], name), [0, 0.0, 0.0])
                    e[0] += 1
                    e[1] += dur
                    e[2] += dur - frame[3]
            self.yields[name] = self.yields.get(name, 0) + 1
            yield item

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for (_, name), (_, _, self_s) in self.edges.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def edge_calls(self, parent: str, name: str) -> int:
        e = self.edges.get((parent, name))
        return e[0] if e else 0


def install(tracer: Tracer) -> None:
    """Wrap every boundary of the freelat modules imported so far."""
    pkg = sys.modules[PACKAGE]
    real = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS
            if f"{PACKAGE}.{layer}" in sys.modules}
    tracer.modules = real
    wrappers: dict[int, object] = {}   # id(original function) -> wrapper
    layer_of: dict[int, str] = {}       # id(original function) -> its layer
    classes: set[int] = set()

    for layer, mod in real.items():
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or id(obj) in wrappers or id(obj) in classes
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            if isinstance(obj, types.FunctionType):
                wrappers[id(obj)] = tracer.wrap(obj, layer, f"{layer}.{attr}")
                layer_of[id(obj)] = layer
            elif isinstance(obj, type) and not issubclass(obj, BaseException):
                _wrap_class(tracer, obj, layer)
                classes.add(id(obj))

    # foreign bindings, and the counted functions in their own layer too
    for owner in [*real.values(), pkg]:
        ns = vars(owner)
        for attr, obj in list(ns.items()):
            layer = layer_of.get(id(obj))
            if layer and (owner is not real[layer] or f"{layer}.{attr}" in COUNTED):
                ns[attr] = wrappers[id(obj)]

    proxies = {}
    for layer, mod in real.items():
        proxy = types.ModuleType(mod.__name__, mod.__doc__)
        proxy.__dict__.update(vars(mod))
        for attr, obj in vars(mod).items():
            if id(obj) in wrappers:
                proxy.__dict__[attr] = wrappers[id(obj)]
        proxies[id(mod)] = proxy

    for owner in [*real.values(), *proxies.values(), pkg]:
        ns = vars(owner)
        for attr, obj in list(ns.items()):
            if isinstance(obj, types.ModuleType) and id(obj) in proxies:
                ns[attr] = proxies[id(obj)]
    for mod in real.values():
        sys.modules[mod.__name__] = proxies[id(mod)]


def _wrap_class(tracer: Tracer, cls: type, layer: str) -> None:
    for attr, obj in list(vars(cls).items()):
        if not isinstance(obj, types.FunctionType):
            continue
        if attr == "__init__":
            name = f"{layer}.{cls.__name__}"
        elif attr.startswith("_"):
            continue
        else:
            name = f"{layer}.{cls.__name__}.{attr}"
        if name not in UNWRAPPED:
            setattr(cls, attr, tracer.wrap(obj, layer, name))
