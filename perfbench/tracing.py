"""Per-layer spans, installed from outside the program.

A layer is one ``repro.<package>``. :class:`LayerTracer` wraps every public
function and method each layer defines (plus a few private entry points
that count controller ticks), records a span per call, and restores the
originals on :meth:`LayerTracer.remove`. Nothing under ``src/`` changes.

A layer's *self* time is the time inside its outermost spans minus the
spans of other layers nested in them; a call into the same layer from
inside that layer is counted but opens no new span. Work that no wrapped
function encloses (generator bodies that ``sim/process.py`` resumes,
private callbacks the kernel dispatches, the kernel's own loop) is not
attributed to any layer; ``traced.attributed_share`` says how much that
is, and :func:`profile_by_package` is the cross-check that shows it.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import pkgutil
import pstats
import re
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = (
    "sim", "runtime", "net", "services", "frames", "vision", "motion",
    "pipeline", "audit", "trace", "liveops", "slo", "metrics",
)

#: The kernel's drivers: a span around them would enclose every other
#: layer's work and credit the rest to ``sim``.
NOT_WRAPPED = {
    "repro.sim.kernel:Kernel.run",
    "repro.sim.kernel:Kernel.step",
    "repro.sim.kernel:Kernel.run_until_resolved",
}

#: Private entry points wrapped as well, so controller ticks are counted.
PRIVATE_ENTRY_POINTS = {
    "repro.slo.controller:SLOController._tick",
    "repro.pipeline.optimizer:OnlineOptimizer._consider",
}

#: Methods whose receivers are kept, to read their public counters after
#: the run (the RPC clients live inside service stubs).
COLLECT_RECEIVERS = ("repro.net.rpc:RpcClient.call",)

#: Raw spans kept in memory per traced run; aggregates are always exact.
SPAN_CAP = 50_000


class EventCounter:
    """A passive kernel observer counting scheduled and executed events."""

    def __init__(self) -> None:
        self.scheduled = 0
        self.executed = 0

    def on_schedule(self, now, event) -> None:
        self.scheduled += 1

    def on_execute(self, now, event) -> None:
        self.executed += 1


def _public(name: str) -> bool:
    return not name.startswith("_")


def _layer_modules(layer: str):
    package = importlib.import_module(f"repro.{layer}")
    yield package
    for info in pkgutil.walk_packages(package.__path__, prefix=f"repro.{layer}."):
        yield importlib.import_module(info.name)


def wrap_targets():
    """``(layer, key, owner, attribute, raw)`` for every function to wrap.

    *owner* is a class or a module; *raw* is the attribute as stored
    (a function, staticmethod or classmethod)."""
    seen: set[str] = set()
    for layer in LAYERS:
        for module in _layer_modules(layer):
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and _public(name):
                    key = f"{module.__name__}:{name}"
                    if key not in seen:
                        seen.add(key)
                        yield layer, key, module, name, obj
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, raw in list(vars(obj).items()):
                        if attr.startswith("__"):
                            continue
                        key = f"{module.__name__}:{obj.__qualname__}.{attr}"
                        if key in seen or key in NOT_WRAPPED:
                            continue
                        if not (_public(attr) or key in PRIVATE_ENTRY_POINTS):
                            continue
                        if isinstance(raw, (staticmethod, classmethod)):
                            if not inspect.isfunction(raw.__func__):
                                continue
                        elif not inspect.isfunction(raw):
                            continue
                        seen.add(key)
                        yield layer, key, obj, attr, raw


class LayerTracer:
    """Span wrappers over the layers; install, run, remove, then read."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        #: outermost spans per layer: calls into the layer from outside it.
        self.entries: Counter = Counter()
        #: bytes carried by ``Transport.send`` messages.
        self.wire_bytes = 0
        #: time inside each function's outermost spans, children included.
        self.inclusive_ns: Counter = Counter()
        #: receivers of the methods in ``COLLECT_RECEIVERS``, by id.
        self._receivers: dict[str, dict[int, object]] = {
            key: {} for key in COLLECT_RECEIVERS}
        self.layer_of: dict[str, str] = {}
        #: (span id, parent id, key, start ns, end ns), first SPAN_CAP only.
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []
        self._ids = 0
        self._restore: list[tuple] = []

    # -- install / remove -------------------------------------------------------
    def install(self) -> None:
        originals: dict[int, object] = {}
        for layer, key, owner, attr, raw in wrap_targets():
            self.layer_of[key] = layer
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(layer, key, raw.__func__))
            else:
                wrapped = self._wrap(layer, key, raw)
                if inspect.ismodule(owner):
                    originals[id(raw)] = (raw, wrapped)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        # module-level functions are also bound by name in the modules that
        # imported them; rebind those copies too
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                pair = originals.get(id(value))
                if pair is not None and pair[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, pair[1])

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap(self, layer: str, key: str, fn):
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        entries = self.entries
        spans = self.spans
        inclusive_ns = self.inclusive_ns
        tracer = self
        is_send = key == "repro.net.transport:Transport.send"
        receivers = self._receivers.get(key)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[key] += 1
            if is_send:
                message = args[1] if len(args) > 1 else kwargs["message"]
                tracer.wire_bytes += message.size_bytes
            if receivers is not None:
                receivers[id(args[0])] = args[0]
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            entries[layer] += 1
            tracer._ids += 1
            frame = [layer, perf_counter_ns(), 0, tracer._ids]
            parent = stack[-1][3] if stack else 0
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[1]
                self_ns[key] += duration - frame[2]
                inclusive_ns[key] += duration
                if stack:
                    stack[-1][2] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((frame[3], parent, key, frame[1], end))
                else:
                    tracer.spans_dropped += 1

        return span

    # -- reading ------------------------------------------------------------------
    def instances(self, key: str) -> list:
        return list(self._receivers[key].values())

    def snapshot(self) -> dict:
        """Copies of the counters, to subtract the set-up phase later."""
        return {
            "calls": Counter(self.calls), "self_ns": Counter(self.self_ns),
            "entries": Counter(self.entries), "wire_bytes": self.wire_bytes,
        }

    def since(self, snap: dict) -> dict:
        return {
            "calls": self.calls - snap["calls"],
            "self_ns": self.self_ns - snap["self_ns"],
            "entries": self.entries - snap["entries"],
            "wire_bytes": self.wire_bytes - snap["wire_bytes"],
        }

    def layer_self_ns(self, self_ns: Counter) -> Counter:
        out: Counter = Counter()
        for key, ns in self_ns.items():
            out[self.layer_of[key]] += ns
        return out


def count_calls(calls: Counter, pattern: str) -> int:
    """Sum the call counts of every wrapped function whose key matches."""
    regex = re.compile(pattern)
    return sum(n for key, n in calls.items() if regex.search(key))


def package_of(filename: str) -> str:
    """``repro.<package>`` for a source file, else ``other``/``builtins``."""
    _, found, rest = filename.replace("\\", "/").rpartition("/repro/")
    if not found:
        return "builtins" if filename == "~" or filename.startswith("<") else "other"
    package, slash, _ = rest.partition("/")
    return f"repro.{package}" if slash else "repro"


def profile_by_package(run) -> tuple[dict, float]:
    """Run *run()* under cProfile; return self seconds per package and the
    profiled total."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    by_package: Counter = Counter()
    for (filename, _line, _name), row in stats.stats.items():
        by_package[package_of(filename)] += row[2]  # tottime
    return dict(by_package), sum(by_package.values())
