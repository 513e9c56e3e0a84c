"""Per-layer spans, recorded from outside the program.

:class:`LayerTracer` replaces each layer's entry points -- its public
methods and the callbacks it registers with another layer -- with
class-level wrappers that record one span per call.  It must be
installed before a workload is built, because several layers cache
bound methods at construction (``LamsSender._burst_send``, the endpoint's
``accept``, the channel's idle callbacks).

Spans live in flat in-memory arrays (function id, parent span, start,
end) and are written out once, after the run.  A span's self time is
its duration minus the durations of its direct children, so a layer's
self time excludes every wrapped layer it calls into.
"""

from __future__ import annotations

import asyncio
import os
import time
from array import array
from typing import Any, Callable, Optional

import numpy as np

import repro.netlayer.forwarding as forwarding
import repro.topology.builder as builder
import repro.topology.spec as topology_spec
from repro.core.receiver import LamsReceiver
from repro.core.sender import LamsSender
from repro.netlayer.datagram import DatagramService, DeliveryLog
from repro.netlayer.forwarding import ForwardingNetworkLayer
from repro.netlayer.resequencer import Resequencer
from repro.simulator import channels, errormodel
from repro.simulator.engine import Simulator, Timer
from repro.simulator.link import SimplexChannel
from repro.topology.flows import FlowDriver
from repro.transport.clock import AsyncioClock
from repro.transport.udp import UdpChannel, UdpEndpointSocket
from repro.workloads.generators import SaturatedSource
from repro.workloads.scenarios import DeliveredList

__all__ = ["LAYERS", "LayerTracer"]

ENGINE, ERRORS, LINK, SENDER, RECEIVER, NETLAYER, TOPOLOGY, TRANSPORT, WORKLOADS = range(9)
LAYERS = ("simulator.engine", "simulator.errormodel", "simulator.link",
          "core.sender", "core.receiver", "netlayer", "topology",
          "transport", "workloads")

# (layer, class, method names).  Private names are callbacks the class
# hands to the engine, a channel or a timer.
_METHODS: list[tuple[int, type, tuple[str, ...]]] = [
    (ENGINE, Simulator, ("run", "schedule", "schedule_at", "_schedule_timer",
                         "_compact")),
    (ENGINE, Timer, ("start", "restart", "cancel")),
    (LINK, SimplexChannel, ("send", "send_burst", "down", "up", "_start_next",
                            "_finish_transmit", "_deliver", "_deliver_burst",
                            "_burst_complete", "_rescalarize_burst")),
    (SENDER, LamsSender, ("start", "stop", "accept", "on_checkpoint",
                          "note_piggyback_stop_go", "held_payloads",
                          "_maybe_send", "_pacing_expired",
                          "_on_checkpoint_timeout", "_on_failure_timeout")),
    (RECEIVER, LamsReceiver, ("start", "stop", "on_iframe", "on_request_nak",
                              "stop_indicated", "queued_payloads", "flush",
                              "_emit_periodic_checkpoint", "_drain_one")),
    (NETLAYER, ForwardingNetworkLayer, ("on_packet", "on_link_failure", "send",
                                        "_retry")),
    (NETLAYER, DatagramService, ("send",)),
    (NETLAYER, DeliveryLog, ("__call__",)),
    (TOPOLOGY, builder.ConstellationBuilder, ("build",)),
    (TRANSPORT, AsyncioClock, ("kick", "_on_alarm")),
    (TRANSPORT, UdpChannel, ("send", "down", "up", "_start_next",
                             "_finish_transmit", "_emit_datagram")),
    (TRANSPORT, UdpEndpointSocket, ("sendto", "_on_datagram")),
    # Traffic sources and sinks.  The benchmark's own resequencing sink
    # runs inside DeliveredList.append, so its cost lands here too, apart
    # from the protocol layers.
    (WORKLOADS, SaturatedSource, ("start", "_tick")),
    (WORKLOADS, FlowDriver, ("_send_next",)),
    (WORKLOADS, DeliveredList, ("append",)),
]
_ERROR_MODELS = (errormodel.PerfectChannel, errormodel.BernoulliChannel,
                 errormodel.GilbertElliottChannel, channels.TraceReplayChannel,
                 channels.RecordingChannel, channels.OrbitCoupledChannel)
# Module-level functions, patched in every module that imported them.
_FUNCTIONS: list[tuple[int, str, tuple[Any, ...]]] = [
    (TOPOLOGY, "shortest_path_routes", (forwarding, builder)),
    (TOPOLOGY, "build_link", (topology_spec,)),
    (TOPOLOGY, "instantiate_pair", (topology_spec,)),
]


class LayerTracer:
    """Records spans for every wrapped entry point while installed."""

    def __init__(self) -> None:
        self.fn_names: list[str] = []
        self.fn_layers = array("B")
        self.fn = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self.sim: Optional[Simulator] = None
        self.peak_heap = 0
        self._probing = False
        self._probe_top = False
        self._run_fid = -1
        self.run_first_span = 0
        self.run_end_span = 0
        self.run_wall = 0.0
        # Counters only a wrapper can see.
        self.draw_calls = 0
        self.frames_drawn = 0
        self.frames_corrupted = 0
        self.send_calls = 0
        self.reseq_hold: dict[tuple, float] = {}
        self.reseq_waits: list[float] = []
        self.loop_lags: list[float] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for layer, cls, names in _METHODS:
            for name in names:
                self._patch(cls, name, self._wrap(layer, f"{cls.__name__}.{name}",
                                                  cls.__dict__[name]))
        for cls in _ERROR_MODELS:
            for name in ("frame_error", "draw_window"):
                self._patch(cls, name, self._wrap_draw(
                    f"{cls.__name__}.{name}", cls.__dict__[name], name == "draw_window"))
        self._patch(Resequencer, "push", self._wrap_resequencer(Resequencer.__dict__["push"]))
        for layer, name, modules in _FUNCTIONS:
            wrapped = self._wrap(layer, name, getattr(modules[0], name))
            for module in modules:
                self._patch(module, name, wrapped)
        self._run_fid = self.fn_names.index("Simulator.run")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _register(self, layer: int, name: str) -> int:
        self.fn_names.append(name)
        self.fn_layers.append(layer)
        return len(self.fn_names) - 1

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer: int, name: str, fn: Callable) -> Callable:
        fid = self._register(layer, name)
        stack, fns, parents, starts, ends = (self._stack, self.fn, self.parent,
                                             self.start, self.end)
        clock = time.perf_counter
        tracer = self
        send_fid = name in ("SimplexChannel.send", "SimplexChannel.send_burst")

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(fns)
            parent = stack[-1] if stack else -1
            fns.append(fid)
            parents.append(parent)
            ends.append(0.0)
            stack.append(index)
            if send_fid and (parent < 0 or tracer.fn_layers[fns[parent]] != LINK):
                tracer.send_calls += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if tracer._probing and (fns[parent] == tracer._run_fid if parent >= 0
                                        else tracer._probe_top):
                    # The heap only grows inside an event, so its peak is
                    # seen at the end of each dispatched callback.
                    width = len(tracer.sim._heap)
                    if width > tracer.peak_heap:
                        tracer.peak_heap = width

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_draw(self, name: str, fn: Callable, window: bool) -> Callable:
        timed = self._wrap(ERRORS, name, fn)
        tracer = self
        fns, stack = self.fn, self._stack

        def wrapper(model: Any, *args: Any) -> Any:
            outer = not stack or tracer.fn_layers[fns[stack[-1]]] != ERRORS
            verdict = timed(model, *args)
            if outer:
                tracer.draw_calls += 1
                if window:
                    tracer.frames_drawn += len(verdict)
                    tracer.frames_corrupted += sum(1 for v in verdict if v)
                else:
                    tracer.frames_drawn += 1
                    tracer.frames_corrupted += bool(verdict)
            return verdict

        return wrapper

    def _wrap_resequencer(self, fn: Callable) -> Callable:
        timed = self._wrap(NETLAYER, "Resequencer.push", fn)
        tracer = self

        def push(reseq: Resequencer, datagram: Any) -> Any:
            now = tracer.sim.now if tracer.sim is not None else 0.0
            flow = reseq.flows.get(datagram.source)
            next_expected = flow.next_expected if flow is not None else 0
            if (datagram.sequence > next_expected
                    and (flow is None or datagram.sequence not in flow.held)):
                tracer.reseq_hold[(id(reseq), datagram.source, datagram.sequence)] = now
            released = timed(reseq, datagram)
            for out in released:
                held_at = tracer.reseq_hold.pop((id(reseq), out.source, out.sequence), now)
                tracer.reseq_waits.append(now - held_at)
            return released

        return push

    def wrap_driver(self, fn: Callable) -> Callable:
        """Wrap a traffic-driver function of the benchmark's own."""
        return self._wrap(WORKLOADS, fn.__name__, fn)

    # -- run phase -----------------------------------------------------------

    def begin_run(self, sim: Simulator) -> None:
        self.sim = sim
        self.run_first_span = len(self.fn)
        # DES events are dispatched by Simulator.run spans; live events
        # are top-level spans on the asyncio loop.
        self._probing = True
        self._probe_top = isinstance(sim, AsyncioClock)

    def end_run(self, run_wall: float) -> None:
        """Close the run phase; *run_wall* excludes calibration pauses."""
        self.run_wall = run_wall
        self.run_end_span = len(self.fn)
        self._probing = False

    async def loop_lag_probe(self, done: asyncio.Event, period: float = 0.005) -> None:
        """Sample how late the asyncio loop wakes a periodic sleeper."""
        loop = asyncio.get_running_loop()
        while not done.is_set():
            due = loop.time() + period
            await asyncio.sleep(period)
            self.loop_lags.append(loop.time() - due)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.fn)
        return {
            "fn": np.frombuffer(self.fn, dtype=np.uint16, count=n),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n),
            "start": np.frombuffer(self.start, dtype=np.float64, count=n),
            "end": np.frombuffer(self.end, dtype=np.float64, count=n),
        }

    def layer_times(self) -> dict[str, Any]:
        """Self time per layer over the run phase, plus build and coverage."""
        spans = self.arrays()
        layer = np.frombuffer(self.fn_layers, dtype=np.uint8)[spans["fn"]]
        duration = spans["end"] - spans["start"]
        children = np.zeros(len(duration))
        nested = spans["parent"] >= 0
        np.add.at(children, spans["parent"][nested], duration[nested])
        self_time = duration - children
        index = np.arange(len(duration))
        run = (index >= self.run_first_span) & (index < self.run_end_span)
        per_layer = np.bincount(layer[run], weights=self_time[run], minlength=len(LAYERS))
        setup = (index < self.run_first_span) & (layer == TOPOLOGY) & ~nested
        top = run & ~nested
        covered = float(duration[top].sum())
        return {
            "self_s": {LAYERS[i]: float(per_layer[i]) for i in range(len(LAYERS))},
            "topology_build_s": float(duration[setup].sum()),
            "unattributed_share": max(0.0, 1.0 - covered / self.run_wall)
            if self.run_wall > 0 else 0.0,
            "spans": int(run.sum()),
        }

    def calls(self, name: str) -> int:
        """Spans recorded for one wrapped function, set-up included."""
        fid = self.fn_names.index(name)
        return int(np.count_nonzero(self.arrays()["fn"] == fid))

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.fn_names),
                 layers=np.frombuffer(self.fn_layers, dtype=np.uint8),
                 run_first_span=self.run_first_span, **self.arrays())
