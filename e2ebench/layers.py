"""Traced-run tooling: layer spans recorded from outside the program.

:func:`instrument` wraps the public entry point of each layer (see
:data:`TARGETS`) with a timing wrapper for the duration of a ``with``
block and restores every original callable on exit.  Spans (layer,
start, duration, parent) are kept in memory by a :class:`Recorder`;
nothing is written while a call runs.

Names that a module imports by value are patched where they are
imported (``repro.core.flow.estimate_energy``, not
``repro.core.energy.estimate_energy``), because that is the name the
caller looks up.
"""

import contextlib
import importlib
import os
import threading
import time

# (module, attribute path, layer).  Several entry points may feed one
# layer; nested spans of one layer are counted once in its inclusive
# time and never double in its self time.
TARGETS = (
    ("repro.core.configs", "DesignConfig.build_circuit", "hdl.elaborate"),
    ("repro.sim", "make_simulator", "sim.build"),
    ("repro.core.flow", "build_asic_flow", "passes.asic_flow"),
    ("repro.gatelevel.glcodegen", "build_kernel", "gatelevel.kernel_build"),
    ("repro.parallel.cache", "ArtifactCache.get", "parallel.cache_get"),
    ("repro.parallel.cache", "ArtifactCache.put", "parallel.cache_put"),
    ("repro.fame.simulator", "Fame1Simulator.run", "fame.run"),
    ("repro.sim.rtl_sim", "RTLSimulator.snapshot", "scan.capture"),
    ("repro.scan.snapshot", "ReplayableSnapshot.seal", "scan.seal"),
    ("repro.scan.snapshot", "ReplayableSnapshot.validate", "scan.validate"),
    ("repro.core.replay", "ReplayEngine.replay_stream", "core.replay"),
    ("repro.gatelevel.formal", "NameMap.load_commands", "core.load"),
    ("repro.gatelevel.gl_sim", "GateLevelSimulator.load_dffs", "core.load"),
    ("repro.gatelevel.gl_sim", "GateLevelSimulator.load_sram", "core.load"),
    ("repro.gatelevel.gl_sim", "BatchedGateLevelSimulator.load_dffs",
     "core.load"),
    ("repro.gatelevel.gl_sim", "BatchedGateLevelSimulator.load_dffs_lanes",
     "core.load"),
    ("repro.gatelevel.gl_sim", "BatchedGateLevelSimulator.load_sram",
     "core.load"),
    # Private, but it is exactly "build one batch's PackedStimulus".
    ("repro.core.replay", "ReplayEngine._batch_stimulus", "core.pack"),
    ("repro.gatelevel.gl_sim", "BatchedGateLevelSimulator.run_cycles",
     "gatelevel.kernel"),
    ("repro.gatelevel.gl_sim", "GateLevelSimulator.eval", "gatelevel.kernel"),
    ("repro.gatelevel.gl_sim", "GateLevelSimulator.step", "gatelevel.kernel"),
    ("repro.core.replay", "analyze_power", "gatelevel.power"),
    ("repro.core.flow", "estimate_energy", "core.energy"),
    ("repro.core.flow", "append_run_record", "obs.history"),
)

# Span record fields (a list per span, appended in open order).
LAYER, START, DUR, CHILD, PARENT, OUTER = range(6)


class Recorder:
    """In-memory spans and counts for the calls of one process.

    Only the process that created the recorder records: a replay worker
    forked while wrappers are installed inherits them, and must run
    the original code untimed.
    """

    def __init__(self):
        self.pid = os.getpid()
        self._local = threading.local()
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = {}
        self._depth = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer):
        stack = self._stack()
        depth = self._depth.get(layer, 0)
        self._depth[layer] = depth + 1
        span = [layer, time.perf_counter(), 0.0, 0.0,
                stack[-1] if stack else -1, depth == 0]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span[DUR] = time.perf_counter() - span[START]
        stack = self._stack()
        stack.pop()
        self._depth[span[LAYER]] -= 1
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[DUR]

    def add(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def layer_table(self):
        """layer -> {"self_s", "incl_s", "count"} over the spans so far."""
        table = {}
        for span in self.spans:
            row = table.setdefault(span[LAYER],
                                   {"self_s": 0.0, "incl_s": 0.0,
                                    "count": 0})
            row["self_s"] += span[DUR] - span[CHILD]
            row["count"] += 1
            if span[OUTER]:
                row["incl_s"] += span[DUR]
        return table

    def root_seconds(self):
        """Summed duration of top-level spans (they never overlap on
        one thread, so the sum is their union)."""
        return sum(s[DUR] for s in self.spans if s[PARENT] < 0)

    def extent(self, layer):
        """Wall from the first start to the last end of a layer."""
        spans = [s for s in self.spans if s[LAYER] == layer]
        if not spans:
            return 0.0
        return (max(s[START] + s[DUR] for s in spans)
                - min(s[START] for s in spans))


def _timed(rec, layer, fn):
    def wrapper(*args, **kwargs):
        if os.getpid() != rec.pid:
            return fn(*args, **kwargs)
        span = rec.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(span)
    return wrapper


def _timed_stream(rec, layer, fn):
    """A generator is consumed after the call returns: time each
    ``next()`` as its own span, so the consumer's work between items
    stays outside the layer."""
    def consume(gen):
        try:
            while True:
                span = rec.open(layer)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    rec.close(span)
                yield item
        finally:
            gen.close()

    def wrapper(*args, **kwargs):
        if os.getpid() != rec.pid:
            return fn(*args, **kwargs)
        span = rec.open(layer)
        try:
            gen = fn(*args, **kwargs)
        finally:
            rec.close(span)
        return consume(gen)
    return wrapper


def _fame_run(rec, layer, fn):
    """:func:`_timed` for ``Fame1Simulator.run``; counts target cycles."""
    def wrapper(self, *args, **kwargs):
        if os.getpid() != rec.pid:
            return fn(self, *args, **kwargs)
        before = self.stats.target_cycles
        span = rec.open(layer)
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.close(span)
            rec.add("fame.target_cycles",
                    self.stats.target_cycles - before)
    return wrapper


def _stepping(rec, layer, fn):
    """:func:`_timed` for a gate-level simulator call that advances
    cycles; counts cycles and lane-cycles (cycles x lanes)."""
    def wrapper(self, *args, **kwargs):
        if os.getpid() != rec.pid:
            return fn(self, *args, **kwargs)
        before = self.cycles
        span = rec.open(layer)
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.close(span)
            cycles = self.cycles - before
            rec.add("gatelevel.cycles", cycles)
            rec.add("gatelevel.lane_cycles",
                    cycles * getattr(self, "lanes", 1))
    return wrapper


def _cache_get(rec, layer, fn):
    def wrapper(*args, **kwargs):
        if os.getpid() != rec.pid:
            return fn(*args, **kwargs)
        span = rec.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        rec.add("cache.gets")
        rec.add("cache.hits", result is not None)
        return result
    return wrapper


def _make_wrapper(rec, attr, layer, fn):
    if attr == "ReplayEngine.replay_stream":
        return _timed_stream(rec, layer, fn)
    if attr == "ArtifactCache.get":
        return _cache_get(rec, layer, fn)
    if attr == "Fame1Simulator.run":
        return _fame_run(rec, layer, fn)
    if attr in ("BatchedGateLevelSimulator.run_cycles",
                "GateLevelSimulator.step"):
        return _stepping(rec, layer, fn)
    return _timed(rec, layer, fn)


def resolve(module, attr):
    """(owner object, attribute name) for a TARGETS entry."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def current_attributes():
    """{(module, attr): the object stored on its owner right now}, read
    from the owner's own ``__dict__`` so class attributes compare by
    identity (plain functions, not bound methods)."""
    out = {}
    for module, attr, _layer in TARGETS:
        owner, name = resolve(module, attr)
        out[(module, attr)] = vars(owner).get(name)
    return out


@contextlib.contextmanager
def instrument(rec):
    """Install every wrapper; restore the originals on exit, even when
    the body raises."""
    saved = []
    try:
        for module, attr, layer in TARGETS:
            owner, name = resolve(module, attr)
            original = vars(owner)[name]
            saved.append((owner, name, original))
            setattr(owner, name, _make_wrapper(rec, attr, layer, original))
        yield rec
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
