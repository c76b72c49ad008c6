"""Span tracing of hallkit, installed from outside the package.

``install`` wraps every public function of the layer modules and binds the
wrapper in every ``hallkit.*`` namespace that refers to the original, so calls
between modules (``hallkit.semigroups.compose`` as well as
``hallkit.relations.compose``) are traced too. Nothing in hallkit is edited.

Each benchmark operation is a root span ``op:<name>``. A layer call opens a
span whose parent is the innermost open span; hot leaves (see layers.HOT) are
aggregated per parent span as a call count and a total. Spans stay in memory
until the run writes them out.

Work done inside the worker processes of ``count_hall(n, workers>1)`` is not
traced: those processes run hallkit's private partition kernel only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict

import layers

SPAN, AGG = "span", "agg"
LAYER_MODULES = ("relations", "semigroups", "constructions", "enumeration", "cli")


class Node:
    """One span, or one aggregate of hot-leaf calls under a single parent."""

    __slots__ = ("kind", "name", "parent", "pass_id", "start", "end", "count", "total", "counts")

    def __init__(self, kind, name, parent, pass_id, start=0.0, end=0.0, count=0, total=0.0):
        self.kind = kind
        self.name = name
        self.parent = parent
        self.pass_id = pass_id
        self.start = start
        self.end = end
        self.count = count
        self.total = total
        self.counts = {}

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    def __init__(self):
        self.nodes: list[Node] = []
        self.active = False
        self._stack: list[tuple[int, float]] = []
        self._aggregates: dict[tuple, int] = {}
        self._pass_id = -1

    def begin(self, name, hot=False):
        parent = self._stack[-1][0] if self._stack else None
        if hot:
            key = (parent, name)
            nid = self._aggregates.get(key)
            if nid is None:
                nid = len(self.nodes)
                self.nodes.append(Node(AGG, name, parent, self._pass_id))
                self._aggregates[key] = nid
        else:
            nid = len(self.nodes)
            self.nodes.append(Node(SPAN, name, parent, self._pass_id))
        self._stack.append((nid, time.perf_counter()))

    def end(self, counts=None):
        now = time.perf_counter()
        nid, start = self._stack.pop()
        node = self.nodes[nid]
        node.count += 1
        node.total += now - start
        if node.kind == SPAN:
            node.start, node.end = start, now
        if counts:
            for key, value in counts.items():
                node.counts[key] = node.counts.get(key, 0) + value

    def open_op(self, name, pass_id):
        self._pass_id = pass_id
        self.active = True
        self.begin("op:" + name)

    def close_op(self):
        self.end()
        self.active = False


def _traced_iter(tracer, it, name):
    while True:
        if not tracer.active:
            yield from it
            return
        tracer.begin(name, hot=True)
        try:
            item = next(it)
        except StopIteration:
            tracer.end()
            return
        except BaseException:
            tracer.end()
            raise
        tracer.end()
        yield item


def _wrap(tracer, fn, name, hot, counter):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            return _traced_iter(tracer, it, name) if tracer.active else it
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.begin(name, hot)
        counts = None
        try:
            result = fn(*args, **kwargs)
            if counter is not None:
                counts = counter(args, kwargs, result)
            return result
        finally:
            tracer.end(counts)
    return wrapper


def install(tracer):
    """Wrap hallkit's public functions; returns the bindings uninstall restores."""
    import hallkit

    modules = [importlib.import_module(f"hallkit.{m}") for m in LAYER_MODULES]
    wrappers = {}
    for layer, mod in zip(LAYER_MODULES, modules):
        for attr, obj in vars(mod).items():
            public = not attr.startswith("_") and inspect.isfunction(obj)
            if not public or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            hot = layer in layers.HOT_LAYERS or name in layers.HOT
            wrappers[obj] = _wrap(tracer, obj, name, hot, layers.COUNTERS.get(name))
    rebound = []
    for mod in [hallkit] + modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                rebound.append((mod, attr, obj))
    return rebound


def uninstall(rebound):
    for mod, attr, obj in rebound:
        setattr(mod, attr, obj)


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(nodes):
    """Self time of every node: its duration minus the time its children cover.

    Span children cover the union of their intervals; aggregated children
    cover their total, since calls on one thread never overlap.
    """
    covered = [0.0] * len(nodes)
    intervals = defaultdict(list)
    for node in nodes:
        if node.parent is None:
            continue
        if node.kind == SPAN:
            intervals[node.parent].append((node.start, node.end))
        else:
            covered[node.parent] += node.total
    for parent, ivs in intervals.items():
        covered[parent] += _union_length(ivs)
    return [node.total - covered[i] for i, node in enumerate(nodes)]


def pass_breakdown(nodes):
    """Per traced pass: solve time, per-name self time, calls and counts.

    The solve time of a pass is the sum of its operation spans; the self time
    of those operation spans is the unattributed remainder.
    """
    selfs = self_times(nodes)
    passes = defaultdict(lambda: {"solve_s": 0.0, "unattributed_s": 0.0, "layer_self_s": 0.0,
                                  "self": defaultdict(float), "calls": defaultdict(int),
                                  "counts": defaultdict(int)})
    for node, own in zip(nodes, selfs):
        p = passes[node.pass_id]
        if node.parent is None:
            p["solve_s"] += node.total
            p["unattributed_s"] += own
            continue
        p["layer_self_s"] += own
        p["self"][node.name] += own
        p["calls"][node.name] += node.count
        for key, value in node.counts.items():
            p["counts"][(node.name, key)] += value
    return dict(passes)


def layer_values(nodes, extras, untraced_solve_s):
    """Every per-layer metric: median over traced passes, 0 where unexercised."""
    passes = list(pass_breakdown(nodes).values())
    traced_solve = statistics.median(p["solve_s"] for p in passes) if passes else 0.0
    trace_values = {
        "unattributed_s": statistics.median(p["unattributed_s"] for p in passes) if passes else 0.0,
        "overhead": traced_solve / untraced_solve_s if untraced_solve_s else 0.0,
    }
    out = {}
    for metric in layers.METRICS:
        kind, *args = metric.source
        if kind == "extra":
            value = extras.get(args[0], 0)
        elif kind == "trace":
            value = trace_values[args[0]]
        elif not passes:
            value = 0
        elif kind == "self":
            value = statistics.median(sum(p["self"].get(n, 0.0) for n in args) for p in passes)
        elif kind == "calls":
            value = statistics.median(sum(p["calls"].get(n, 0) for n in args) for p in passes)
        else:
            value = statistics.median(p["counts"].get((args[0], args[1]), 0) for p in passes)
        out[metric.name] = {"value": value, "unit": metric.unit}
    return out
