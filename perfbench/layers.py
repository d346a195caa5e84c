"""Per-layer attribution of process CPU, from outside the program.

:func:`install` wraps the public entry points of every layer module of the
``repro`` package — module functions and class methods whose names do not
start with ``_`` — plus the few private methods that the event loop or a
coroutine calls directly.  Each wrapped call opens a *span*: it records the
layer, its start and end, its parent span and the id of the kernel event
that caused it.  A layer's *self time* is the duration of its spans minus
the time their child spans of other layers cover; a nested call into the
same layer is counted but not timed separately.  Whatever process CPU no
span covers is reported as ``other`` (asyncio, sockets, the interpreter).

Scheduled kernel callbacks are spans too: the wrappers on
``Simulator.schedule_at``/``schedule_call`` (``schedule`` delegates to
``schedule_at``; network deliveries take ``schedule_call``) and on the live
kernel's ``_push`` wrap each callback in a span of the layer that defines it
and give it a fresh event id.  Worker-pool completion callbacks get the
same treatment.  Names imported into other modules with
``from ... import name`` (``digest``, ``canonical_bytes`` and friends) are
patched in every importing module as well.

The wrappers cost CPU inside the spans.  :func:`calibrate` measures that
cost per kind of wrapped call and :func:`corrected_self` takes it out of
each layer's self time again.

:func:`profile_shares` is the cross-check: it groups a ``cProfile`` run's
self time by the same module-to-layer map.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import time
from functools import partial
from typing import Callable, Optional

#: span clock: this thread's CPU time, so that self times are CPU and a
#: preempted span does not charge its layer for the time it waited.
_clock = time.thread_time

#: the layers, named after the package's modules.
LAYERS = ("sim", "realtime", "net.network", "net.wire", "net.tcp", "crypto",
          "protocols", "trusted", "execution", "workload", "sharding",
          "recovery", "runtime")
OTHER = "other"
ALL_LAYERS = LAYERS + (OTHER,)

#: module prefix -> layer; the longest matching prefix wins.  Modules with
#: no layer (``repro.common``, ``repro.obsv``, ...) are not wrapped: their
#: time counts towards the layer that called them.
_MODULE_LAYERS = {
    "repro.sim": "sim",
    "repro.kernel": "sim",
    "repro.realtime": "realtime",
    "repro.net.network": "net.network",
    "repro.net.topology": "net.network",
    "repro.net.wire": "net.wire",
    "repro.net.tcp": "net.tcp",
    "repro.crypto": "crypto",
    "repro.protocols": "protocols",
    "repro.trusted": "trusted",
    "repro.execution": "execution",
    "repro.workload": "workload",
    "repro.sharding": "sharding",
    "repro.recovery": "recovery",
    "repro.runtime": "runtime",
    "repro.backends": "runtime",
}

#: private methods entered from outside the package (the asyncio loop, a
#: transport coroutine), so they are entry points of their layer.
_PRIVATE_ENTRY_POINTS = {
    ("repro.realtime.kernel", "AsyncioKernel", "_run_due"),
    ("repro.net.tcp", "TcpTransport", "_on_frame"),
}

#: calls that run the event loop until it stops: never spans, so that
#: asyncio and socket time under them stays ``other`` instead of landing
#: in the caller.
_LOOP_RUNNERS = {
    ("repro.realtime.kernel", "AsyncioKernel", "run_until"),
    ("repro.realtime.kernel", "AsyncioKernel", "run_for"),
    ("repro.realtime.kernel", "AsyncioKernel", "run_until_idle"),
    ("repro.backends", "_AsyncioBackend", "run"),
    ("repro.backends", "_AsyncioBackend", "run_for"),
    ("repro.backends", "_AsyncioBackend", "teardown"),
    ("repro.runtime.deployment", "Deployment", "run_until_target"),
    ("repro.runtime.deployment", "Deployment", "run_for"),
    ("repro.runtime.deployment", "Deployment", "close"),
    ("repro.sharding.deployment", "ShardedDeployment", "run_until_target"),
    ("repro.sharding.deployment", "ShardedDeployment", "run_for"),
    ("repro.sharding.deployment", "ShardedDeployment", "close"),
    ("repro.workload.openloop", None, "run_open_loop"),
}

#: counted per call: signature creation and signature/MAC verification.
SIGN_FUNCTIONS = ("SigningKey.sign", "SigningKey.sign_bytes")
VERIFY_FUNCTIONS = ("KeyStore.verify", "KeyStore.verify_encoded",
                    "KeyStore.is_valid", "KeyStore.is_valid_encoded",
                    "KeyStore.verify_mac")
KV_APPLY = "KeyValueStore.apply"
ENCODE_FRAME = "WireCodec.encode_frame"
DECODE_FRAME = "WireCodec.decode_payload_traced"


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer a module belongs to, or None."""
    if not module:
        return None
    best, best_len = None, -1
    for prefix, layer in _MODULE_LAYERS.items():
        if ((module == prefix or module.startswith(prefix + "."))
                and len(prefix) > best_len):
            best, best_len = layer, len(prefix)
    return best


class SpanTracer:
    """Span stack, per-layer totals and a bounded in-memory span record."""

    def __init__(self, span_capacity: int = 200_000) -> None:
        self.index = {layer: i for i, layer in enumerate(LAYERS)}
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        #: spans opened per layer; ``calls - spans`` were same-layer calls.
        self.span_count = [0] * len(LAYERS)
        #: spans opened under a span of each layer, and kernel events among
        #: them; spans opened with no parent.  The wrapper cost they imply
        #: is taken out again by :func:`corrected_self`.
        self.child_spans = [0] * len(LAYERS)
        self.event_spans = [0] * len(LAYERS)
        self.child_events = [0] * len(LAYERS)
        self.root_spans = 0
        #: per-call wrapper costs measured by :func:`calibrate` (seconds).
        self.cost = {}
        #: open spans: [layer index, start, child time, span id].
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.span_capacity = span_capacity
        self.spans_dropped = 0
        self.next_span = 0
        self.event_id = 0
        self.next_event = 0
        self.sim_scheduled = 0
        self.sim_fired = 0
        self.live_scheduled = 0
        #: worker-pool completion callbacks wrapped (see _wrap_schedulers).
        self.jobs_wrapped = 0
        self.function_calls: dict[str, list[int]] = {}
        #: inclusive seconds and count of the timed functions (wire codec).
        self.function_time: dict[str, list[float]] = {}
        self.wire_bytes = 0
        self.lags_us: list[float] = []
        self.batches = 0
        self.batch_requests = 0
        self._module_layer: dict[Optional[str], Optional[int]] = {}
        self._undo: list[tuple] = []
        #: kernel scheduling call -> (original, callback-wrapping version).
        self.schedulers: dict[str, tuple] = {}

    def reset(self) -> None:
        """Zero every counter in place (wrappers hold the lists)."""
        for counts in (self.self_s, self.calls, self.span_count,
                       self.child_spans, self.event_spans, self.child_events):
            counts[:] = [0] * len(LAYERS)
        self.root_spans = 0
        for counter in self.function_calls.values():
            counter[0] = 0
        for timing in self.function_time.values():
            timing[0] = timing[1] = 0.0
        self.spans.clear()
        self.spans_dropped = 0
        self.sim_scheduled = self.sim_fired = self.live_scheduled = 0
        self.jobs_wrapped = 0
        self.wire_bytes = 0
        self.lags_us.clear()
        self.batches = self.batch_requests = 0

    def calls_of(self, *names: str) -> int:
        return sum(self.function_calls.get(name, [0])[0] for name in names)

    # ---------------------------------------------------------------- spans
    def run_span(self, layer: int, name: str, fn: Callable, args, kwargs):
        """Call ``fn`` inside a span of ``layer``."""
        stack = self.stack
        parent = stack[-1] if stack else None
        self.next_span += 1
        frame = [layer, _clock(), 0.0, self.next_span]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            duration = end - frame[1]
            self.self_s[layer] += duration - frame[2]
            self.span_count[layer] += 1
            if parent is not None:
                parent[2] += duration
                self.child_spans[parent[0]] += 1
            else:
                self.root_spans += 1
            if len(self.spans) < self.span_capacity:
                self.spans.append((frame[3], parent[3] if parent else 0,
                                   LAYERS[layer], name, frame[1], end,
                                   self.event_id))
            else:
                self.spans_dropped += 1

    def callback_layer(self, callback) -> Optional[int]:
        """Layer index of the module that defines a scheduled callback."""
        target = callback
        while isinstance(target, partial):
            target = target.func
        target = getattr(target, "__func__", target)
        module = getattr(target, "__module__", None)
        try:
            return self._module_layer[module]
        except KeyError:
            layer = layer_of_module(module)
            index = None if layer is None else self.index[layer]
            self._module_layer[module] = index
            return index

    def fire(self, layer: Optional[int], event: int, callback) -> None:
        """Run one kernel callback as an event span."""
        self.event_id = event
        self.run_callback(layer, callback, "event")

    def run_callback(self, layer: Optional[int], callback,
                     name: str = "callback") -> None:
        """Run a callback another layer invokes, as a span of its own layer."""
        if layer is None:
            callback()
        else:
            self.calls[layer] += 1
            self.event_spans[layer] += 1
            if self.stack:
                self.child_events[self.stack[-1][0]] += 1
            self.run_span(layer, name, callback, (), {})

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as out:
            for span_id, parent, layer, name, start, end, event in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "name": name, "start_s": start, "end_s": end,
                    "event": event}) + "\n")

    # ------------------------------------------------------------- patching
    def _set(self, owner, name: str, value) -> None:
        original = (owner.__dict__[name] if isinstance(owner, type)
                    else getattr(owner, name))
        self._undo.append((owner, name, original))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _make_wrapper(tracer: SpanTracer, fn: Callable, layer: int, name: str):
    counter = tracer.function_calls.setdefault(name, [0])
    calls = tracer.calls
    stack = tracer.stack
    run_span = tracer.run_span

    def traced(*args, **kwargs):
        counter[0] += 1
        calls[layer] += 1
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        return run_span(layer, name, fn, args, kwargs)

    traced.__wrapped__ = fn
    traced.__module__ = fn.__module__
    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    traced.__doc__ = fn.__doc__
    return traced


def _make_timed_wrapper(tracer: SpanTracer, fn: Callable, layer: int,
                        name: str, measure_bytes: bool):
    """Like :func:`_make_wrapper`, but always a span, with its own timing."""
    counter = tracer.function_calls.setdefault(name, [0])
    timing = tracer.function_time.setdefault(name, [0.0, 0.0])

    def traced(*args, **kwargs):
        counter[0] += 1
        tracer.calls[layer] += 1
        start = _clock()
        result = tracer.run_span(layer, name, fn, args, kwargs)
        timing[0] += _clock() - start
        timing[1] += 1
        if measure_bytes:
            tracer.wire_bytes += len(result)
        return result

    traced.__wrapped__ = fn
    traced.__module__ = fn.__module__
    return traced


def _layer_modules() -> list:
    """Import every module of every layer package."""
    import repro

    names = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if layer_of_module(info.name) is not None:
            names.add(info.name)
    return [importlib.import_module(name) for name in sorted(names)]


def _plain_function(value) -> bool:
    return (inspect.isfunction(value)
            and not inspect.isgeneratorfunction(value)
            and not inspect.iscoroutinefunction(value))


def install(tracer: SpanTracer) -> None:
    """Wrap every layer's entry points and the kernels' scheduling calls."""
    # First, so that the kernel's own spans (schedule_at, schedule_call,
    # schedule) enclose the callback wrapping and its cost lands in them.
    _wrap_schedulers(tracer)
    replaced: dict[int, Callable] = {}
    for module in _layer_modules():
        layer = tracer.index[layer_of_module(module.__name__)]
        for name, value in list(vars(module).items()):
            if (_plain_function(value) and value.__module__ == module.__name__
                    and not name.startswith("_")
                    and (module.__name__, None, name) not in _LOOP_RUNNERS):
                wrapper = _make_wrapper(tracer, value, layer, name)
                replaced[id(value)] = wrapper
                tracer._set(module, name, wrapper)
            elif (inspect.isclass(value)
                  and value.__module__ == module.__name__):
                _wrap_class(tracer, module.__name__, value, layer)
    # ``from module import name`` copies: patch every importer's global.
    originals = {id(getattr(w, "__wrapped__")): w for w in replaced.values()}
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for name, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and getattr(module, name) is not wrapper:
                tracer._set(module, name, wrapper)


def _wrap_class(tracer: SpanTracer, module: str, cls: type,
                layer: int) -> None:
    for name, value in list(vars(cls).items()):
        key = (module, cls.__name__, name)
        if key in _LOOP_RUNNERS or (name.startswith("_")
                               and key not in _PRIVATE_ENTRY_POINTS):
            continue
        qualname = f"{cls.__name__}.{name}"
        if isinstance(value, (staticmethod, classmethod)):
            inner = value.__func__
            if _plain_function(inner):
                tracer._set(cls, name, type(value)(
                    _make_wrapper(tracer, inner, layer, qualname)))
        elif _plain_function(value):
            if qualname in (ENCODE_FRAME, DECODE_FRAME):
                wrapper = _make_timed_wrapper(tracer, value, layer, qualname,
                                              qualname == ENCODE_FRAME)
            elif name == "propose_batch":
                wrapper = _batch_wrapper(
                    tracer, _make_wrapper(tracer, value, layer, qualname))
            else:
                wrapper = _make_wrapper(tracer, value, layer, qualname)
            tracer._set(cls, name, wrapper)


def _batch_wrapper(tracer: SpanTracer, wrapper: Callable) -> Callable:
    def propose_batch(self, batch, *args, **kwargs):
        tracer.batches += 1
        tracer.batch_requests += len(batch.requests)
        return wrapper(self, batch, *args, **kwargs)

    propose_batch.__wrapped__ = wrapper.__wrapped__
    propose_batch.__module__ = wrapper.__module__
    return propose_batch


def _wrap_schedulers(tracer: SpanTracer) -> None:
    """Turn every scheduled kernel callback into an event span."""
    from repro.realtime.kernel import AsyncioKernel
    from repro.sim.kernel import Simulator
    from repro.sim.resources import WorkerPool

    def sim_scheduler(schedule):
        def wrapped(self, when, callback):
            tracer.sim_scheduled += 1
            tracer.next_event += 1
            return schedule(self, when, partial(
                _fire_sim, tracer, tracer.callback_layer(callback),
                tracer.next_event, callback))
        wrapped.__module__ = schedule.__module__
        return wrapped

    for name in ("schedule_at", "schedule_call"):
        raw = vars(Simulator)[name]
        tracer.schedulers[name] = (raw, sim_scheduler(raw))
        tracer._set(Simulator, name, tracer.schedulers[name][1])

    push = vars(AsyncioKernel)["_push"]

    def live_push(self, when, callback):
        tracer.live_scheduled += 1
        tracer.next_event += 1
        return push(self, when, partial(
            _fire_live, tracer, self, when, tracer.callback_layer(callback),
            tracer.next_event, callback))

    tracer.schedulers["_push"] = (push, live_push)
    tracer._set(AsyncioKernel, "_push", live_push)

    # A worker pool runs its jobs' completion callbacks (replica handlers
    # such as ``_process``) from its own kernel event: give them their
    # layer's span too.
    submit = vars(WorkerPool)["submit"]

    def pool_submit(self, service_time, on_complete=None):
        if on_complete is not None:
            tracer.jobs_wrapped += 1
            on_complete = partial(tracer.run_callback,
                                  tracer.callback_layer(on_complete),
                                  on_complete)
        return submit(self, service_time, on_complete)

    pool_submit.__module__ = submit.__module__
    tracer._set(WorkerPool, "submit", pool_submit)


def _fire_sim(tracer: SpanTracer, layer, event: int, callback) -> None:
    tracer.sim_fired += 1
    tracer.fire(layer, event, callback)


def _fire_live(tracer: SpanTracer, kernel, due: float, layer, event: int,
               callback) -> None:
    tracer.lags_us.append(kernel.now - due)
    tracer.fire(layer, event, callback)
    tracer.event_id = 0


# ---------------------------------------------------------------------------
# wrapper cost
# ---------------------------------------------------------------------------
def calibrate(tracer: SpanTracer, calls: int = 50_000,
              repeat: int = 5) -> None:
    """Measure what each kind of wrapped call adds, and to which layer.

    Runs loops of calls shaped like the program's (a method with two
    arguments; a bound-method kernel callback) inside a span of layer 0 and
    reads how much self time layer 0 (the caller) and layer 1 (the callee)
    gain per call over the same loop of unwrapped calls.  The scheduling
    wrappers are timed against the kernels' own scheduling calls.  The
    fastest of ``repeat`` runs is kept.
    """
    from repro.realtime.kernel import AsyncioKernel
    from repro.sim.kernel import Simulator

    class Plain:
        def call(self, a, b):
            pass

        def callback(self):
            pass

    class Same(Plain):
        call = _make_wrapper(tracer, Plain.call, 0, "calibration.same")

    class Span(Plain):
        call = _make_wrapper(tracer, Plain.call, 1, "calibration.span")

    plain = Plain()
    kernel = AsyncioKernel()
    loop = range(calls)

    def timed(body) -> tuple[float, float]:
        best = None
        for _ in range(repeat):
            before = list(tracer.self_s)
            tracer.run_span(0, "calibration", body, (), {})
            caller = (tracer.self_s[0] - before[0]) / calls
            callee = (tracer.self_s[1] - before[1]) / calls
            if best is None or caller + callee < sum(best):
                best = (caller, callee)
        return best

    def method_loop(obj):
        def body():
            for _ in loop:
                obj.call(1, 2)
        return timed(body)

    def callback_loop(fn):
        def body():
            for _ in loop:
                fn()
        return timed(body)

    def schedule_loop(schedule, make_kernel):
        def body():
            target = make_kernel()
            for _ in loop:
                schedule(target, 0.0, plain.callback)
            if hasattr(target, "cancel_pending"):
                target.cancel_pending()
        return timed(body)[0]

    try:
        base, _ = method_loop(plain)
        cost = {"same": method_loop(Same())[0] - base}
        caller, callee = method_loop(Span())
        cost["span_caller"], cost["span_callee"] = caller - base, callee
        plain_callback = callback_loop(plain.callback)[0]
        for kind, fire in (
                ("sim_event", partial(_fire_sim, tracer, 1, 0,
                                      plain.callback)),
                ("live_event", partial(_fire_live, tracer, kernel, 0.0, 1, 0,
                                       plain.callback))):
            caller, callee = callback_loop(fire)
            cost[kind + "_caller"] = caller - plain_callback
            cost[kind + "_callee"] = callee
        raw, wrapped = tracer.schedulers["schedule_call"]
        cost["sim_schedule"] = (schedule_loop(wrapped, Simulator)
                                - schedule_loop(raw, Simulator))
        raw, wrapped = tracer.schedulers["_push"]
        cost["live_schedule"] = (schedule_loop(wrapped, lambda: kernel)
                                 - schedule_loop(raw, lambda: kernel))
    finally:
        kernel.close()
    tracer.reset()
    tracer.cost = {kind: max(0.0, value) for kind, value in cost.items()}


def corrected_self(tracer: SpanTracer, live: bool) -> tuple[list, float]:
    """Per-layer self seconds with the calibrated wrapper cost taken out.

    Each layer is charged the calibrated cost of the wrapped calls it made
    and received.  Returns the corrected self times and the total cost taken
    out, which includes the cost that spans without a parent leave outside
    every span.
    """
    cost = tracer.cost
    event = "live_event" if live else "sim_event"
    corrected = []
    total = tracer.root_spans * cost["span_caller"]
    for i in range(len(LAYERS)):
        spans = tracer.span_count[i]
        events = tracer.event_spans[i]
        charge = (
            (spans - events) * cost["span_callee"]
            + events * cost[event + "_callee"]
            + (tracer.calls[i] - spans) * cost["same"]
            + (tracer.child_spans[i] - tracer.child_events[i])
            * cost["span_caller"]
            + tracer.child_events[i] * cost[event + "_caller"])
        if LAYERS[i] == "sim":
            charge += ((tracer.sim_scheduled + tracer.jobs_wrapped)
                       * cost["sim_schedule"])
        elif LAYERS[i] == "realtime":
            charge += tracer.live_scheduled * cost["live_schedule"]
        charge = min(charge, tracer.self_s[i])
        corrected.append(tracer.self_s[i] - charge)
        total += charge
    return corrected, total


# ---------------------------------------------------------------------------
# cProfile cross-check
# ---------------------------------------------------------------------------
def profile_shares(stats) -> dict[str, float]:
    """Share of profiled self time per layer, from ``pstats.Stats.stats``.

    A function of a layer module keeps its own self time, unless it is a
    generator or coroutine (their frames run outside the caller's span).
    Everything else — the standard library, builtins, unlayered ``repro``
    modules — is handed up to its callers in proportion to the time each
    caller spent in it, until a layer function takes it; time that reaches
    the event loop or a coroutine without meeting one is ``other``.
    """
    generators, coroutines = _resumable_functions()
    modules: dict[str, Optional[str]] = {}
    memo: dict = {}

    def layer_of(func) -> Optional[str]:
        filename, _, name = func
        if filename not in modules:
            modules[filename] = _module_of_file(filename)
        layer = layer_of_module(modules[filename])
        if layer is None or name.startswith("<") or func in generators:
            return None
        return layer

    def distribution(func, depth=0) -> dict[str, float]:
        if func in memo:
            return memo[func]
        layer = layer_of(func)
        if layer is not None:
            result = {layer: 1.0}
        elif (depth > 60 or func in coroutines
              or "/asyncio/" in func[0].replace("\\", "/")):
            result = {OTHER: 1.0}
        else:
            memo[func] = {OTHER: 1.0}  # cycle guard
            weights = {caller: edge[3]
                       for caller, edge in stats[func][4].items()
                       if caller in stats}
            weight_sum = sum(weights.values())
            result = {} if weight_sum > 0 else {OTHER: 1.0}
            for caller, weight in weights.items():
                for name, part in distribution(caller, depth + 1).items():
                    result[name] = (result.get(name, 0.0)
                                    + part * weight / weight_sum)
        memo[func] = result
        return result

    shares = {layer: 0.0 for layer in ALL_LAYERS}
    total = 0.0
    for func, (_, _, self_time, _, _) in stats.items():
        total += self_time
        for layer, part in distribution(func).items():
            shares[layer] += self_time * part
    return {layer: 100.0 * value / total if total else 0.0
            for layer, value in shares.items()}


def _module_of_file(filename: str) -> Optional[str]:
    """Dotted ``repro`` module name of a source file, or None."""
    normalized = filename.replace("\\", "/")
    marker = "/repro/"
    if not normalized.endswith(".py") or marker not in normalized:
        return None
    module = normalized[normalized.rindex(marker) + 1:-3].replace("/", ".")
    return module[:-len(".__init__")] if module.endswith(".__init__") \
        else module


def _resumable_functions() -> tuple[set, set]:
    """``cProfile`` keys of every loaded ``repro`` generator and coroutine."""
    generators, coroutines = set(), set()
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for value in vars(module).values():
            members = vars(value).values() if inspect.isclass(value) \
                else (value,)
            for member in members:
                member = getattr(member, "__func__", member)
                member = inspect.unwrap(member)
                code = getattr(member, "__code__", None)
                if code is None:
                    continue
                key = (code.co_filename, code.co_firstlineno, code.co_name)
                if code.co_flags & inspect.CO_COROUTINE:
                    coroutines.add(key)
                elif code.co_flags & (inspect.CO_GENERATOR
                                      | inspect.CO_ASYNC_GENERATOR):
                    generators.add(key)
    return generators, coroutines
