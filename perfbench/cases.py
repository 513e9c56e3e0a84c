"""The four ledger workloads: how each is built, run, accounted and checked.

Every workload is a sequence of identical *units*.  A unit builds the
workload from its seed (timed as set-up, spec to first event), runs a
fixed amount of protocol work (timed as the run phase), and returns a
:class:`Unit` holding the timings and the protocol outcome.  The
outcome is what the paper's Section 4 talks about -- delivered
payloads, retransmissions by cause, delivery delay -- plus the
bookkeeping the correctness check needs.

The DES workloads are deterministic per seed, so every unit of a run
yields the same outcome; :func:`outcome_fingerprint` is what the
measurement loop compares across units and between traced and
untraced runs.  The live workload runs in real time, so only its
delivered count and digest are part of its fingerprint.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from hostspeed import REF_US_PER_ITER, Timing, run_chunked, spin, spin_large, timed
from repro.core.config import LamsDlcConfig
from repro.netlayer import Datagram, Resequencer
from repro.simulator.engine import engine_backend
from repro.topology import FlowSpec, build_constellation, ring_topology
from repro.transport import golden_scenario, make_payload, payload_digest, payload_index
from repro.transport.session import open_loopback
from repro.workloads.generators import SaturatedSource
from repro.workloads.scenarios import build_simulation, preset

__all__ = ["CASES", "Unit", "outcome_fingerprint", "stamp"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of *values* (q in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@dataclass
class Unit:
    """One built-and-run instance of a workload.

    ``host_*`` fields are the host-time figures the metrics use:
    normalized by :mod:`hostspeed`, except the live run phase, which
    the emulated line rate paces.
    """

    setup_s: float
    host_setup_s: float
    timing: Timing
    host_run_s: float
    offered: int
    delivered: int
    failed: int
    held: int
    digest: str
    retx_by_cause: dict[str, int]
    delays_s: list[float]
    delivered_bits: float
    capacity_bits: float
    """Line rate times run-phase duration (simulated on the DES
    workloads, real on the live one), times the number of flows."""
    problems: list[str] = field(default_factory=list)
    layer_counts: dict[str, float] = field(default_factory=dict)
    """Program counters the traced run turns into per-layer ratios."""

    def __post_init__(self) -> None:
        # Keep two percentiles, not every sample: a run holds many units.
        self.delay_samples = len(self.delays_s)
        self.delay_p50_s = percentile(self.delays_s, 50) if self.delays_s else 0.0
        self.delay_p99_s = percentile(self.delays_s, 99) if self.delays_s else 0.0
        self.delays_s = []


def outcome_fingerprint(unit: Unit, exact: bool) -> tuple:
    """What must repeat between units and between traced/untraced runs."""
    if not exact:
        return (unit.offered, unit.delivered, unit.digest)
    return (unit.offered, unit.delivered, unit.failed, unit.held, unit.digest,
            tuple(sorted(unit.retx_by_cause.items())))


class InOrderSink:
    """Destination-side resequencing of payload indices.

    Releases indices ``0, 1, 2, ...`` in order, records each released
    payload's offer-to-release delay and folds it into a digest.  A
    payload that is not the object offered under its index is a problem.
    """

    def __init__(self, now: Callable[[], float], offered: list,
                 offer_times: Optional[list[float]] = None) -> None:
        self.now = now
        self.offered = offered
        self.offer_times = offer_times
        self.next_index = 0
        self.held: dict[int, Any] = {}
        self.delays: list[float] = []
        self.digest = hashlib.sha256()
        self.problems: list[str] = []

    def push(self, index: Optional[int], payload: Any) -> None:
        if index is None or not 0 <= index < len(self.offered):
            self.problems.append(f"delivered a payload never offered: {payload!r:.60}")
            return
        if self.offered[index] != payload:
            self.problems.append(f"payload {index} delivered with other content")
            return
        if index < self.next_index or index in self.held:
            return  # a duplicate; the destination drops it
        self.held[index] = payload
        now = self.now()
        while self.next_index in self.held:
            released = self.held.pop(self.next_index)
            offered_at = (self.offer_times[self.next_index]
                          if self.offer_times is not None else released[2])
            self.delays.append(now - offered_at)
            self.digest.update(repr(released).encode())
            self.next_index += 1


def _failed_and_held(offered: int, delivered: int,
                     held_indices: set[int]) -> tuple[int, int]:
    """``(failed, held)``: offered indices neither delivered nor held."""
    held = {i for i in held_indices if delivered <= i < offered}
    return offered - delivered - len(held), len(held)


# -- single-link DES workloads -------------------------------------------

class LinkCase:
    """One LAMS-DLC link fed by a saturated, closed-loop source."""

    exact = True
    extra_setups = 30

    def __init__(self, name: str, horizon: float, burst: bool) -> None:
        self.name = name
        self.horizon = horizon
        self.burst = burst
        self.scenario = preset("nominal")

    def _build(self, seed: int):
        errors: dict[str, Any] = {}
        if self.burst:
            # Frequent short bursts on the data channel and a lossy
            # feedback channel.  Rare, long bursts with heavier feedback
            # loss (bad_ber 1e-4 for 2 ms, C-frame BER 1e-3) make recovery
            # a handful of Enforced-NAK episodes of a thousand frames
            # each, and their count alone moved p99 delay by 27-40%
            # between seeds; here recovery is thousands of NAK rounds
            # plus an occasional enforced one, and the IQR of p99 over
            # ten seeds is 5-12% of its median.
            errors = dict(
                iframe_errors=("gilbert-elliott", {
                    "good_ber": self.scenario.iframe_ber, "bad_ber": 1e-4,
                    "mean_good": 0.01, "mean_bad": 0.0005,
                }),
                reverse_cframe_errors=("bernoulli", {"ber": 1e-4}),
            )
        setup = build_simulation(self.scenario, "lams", seed=seed, **errors)
        sender = setup.endpoint_a.sender
        offered: list = []

        def make_packet(index: int, now: float) -> tuple:
            packet = ("pkt", index, now)
            offered.append(packet)
            return packet

        source = SaturatedSource(
            setup.sim, setup.endpoint_a,
            backlog_fn=lambda: sender.pending_count,
            low_water=256, chunk=512,
            poll_interval=self.scenario.iframe_time * 64,
            make_packet=make_packet,
        )
        sim = setup.sim
        sink = InOrderSink(lambda: sim.now, offered)
        delivered = setup.delivered

        def on_append() -> None:
            payload = delivered[-1]
            sink.push(payload[1] if isinstance(payload, tuple) else None, payload)

        delivered.on_append = on_append
        source.start()
        return setup, source, sink, offered

    def setup_only(self, seed: int) -> tuple[float, float]:
        _, raw, norm = timed(lambda: self._build(seed))
        return raw, norm

    def warm_up(self, seed: int) -> None:
        setup, *_ = self._build(seed)
        setup.sim.run(until=0.02)

    def unit(self, seed: int, recorder: Any = None, scale: float = 1.0) -> Unit:
        (setup, source, sink, offered), setup_s, host_setup_s = timed(
            lambda: self._build(seed))
        horizon = self.horizon * scale
        if recorder is not None:
            recorder.begin_run(setup.sim)
        timing = run_chunked(lambda until: setup.sim.run(until=until), horizon)
        if recorder is not None:
            recorder.end_run(timing.wall_s)
        sender = setup.endpoint_a.sender
        receiver = setup.endpoint_b.receiver
        problems = list(sink.problems)
        if source.refused:
            problems.append(f"sender refused {source.refused} payloads")
        if sender.failures_declared:
            problems.append(f"sender declared {sender.failures_declared} link failures")
        held_indices = {p[1] for p in sender.held_payloads()}
        held_indices.update(p[1] for p in receiver.queued_payloads())
        held_indices.update(sink.held)
        failed, held = _failed_and_held(len(offered), sink.next_index, held_indices)
        link = setup.link
        channels = (link.forward, link.reverse)
        bits = self.scenario.iframe_payload_bits
        return Unit(
            setup_s=setup_s, host_setup_s=host_setup_s, timing=timing,
            host_run_s=timing.norm_wall_s,
            offered=len(offered), delivered=sink.next_index,
            failed=failed, held=held, digest=sink.digest.hexdigest(),
            retx_by_cause=dict(sender.retransmissions_by_cause),
            delays_s=sink.delays,
            delivered_bits=sink.next_index * bits,
            capacity_bits=self.scenario.bit_rate * horizon,
            problems=problems,
            layer_counts={
                "events": setup.sim.event_count,
                "frames_sent": sum(c.frames_sent for c in channels),
                "holding_time_sum": sender.buffer.holding_time_sum,
                "holding_samples": sender.buffer.holding_samples,
                "request_naks": sender.request_naks_sent,
                "checkpoints": receiver.checkpoints_sent,
                "flows": 0,
            },
        )


# -- constellation DES workload -------------------------------------------

class ConstellationCase:
    """A ring of LAMS-DLC links carrying multi-hop Poisson flows.

    The flow layout is fixed (evenly spaced sources, 2 to 6 hops), so
    the seed changes arrival times and channel errors but not the work
    per datagram.
    """

    exact = True
    extra_setups = 4
    HOPS = (2, 3, 4, 5, 6)

    DRAIN = 0.12
    """Simulated seconds after the last send: six hops of propagation
    plus a checkpoint round, so most datagrams arrive in the run."""

    def __init__(self, name: str, links: int, flows: int, messages: int,
                 send_window: float) -> None:
        self.name = name
        self.links = links
        self.flows = flows
        self.messages = messages
        self.send_window = send_window

    def _flows(self, scale: float) -> list[FlowSpec]:
        messages = max(2, int(self.messages * scale))
        window = self.send_window * scale
        spacing = self.links // self.flows
        return [
            FlowSpec(
                source=f"n{i * spacing}",
                destination=f"n{(i * spacing + self.HOPS[i % len(self.HOPS)]) % self.links}",
                messages=messages, interval=window / messages, poisson=True,
            )
            for i in range(self.flows)
        ]

    def _horizon(self, scale: float) -> float:
        return self.send_window * scale + self.DRAIN

    def _build(self, seed: int, scale: float = 1.0):
        topology = ring_topology(self.links, name="perfbench-ring")
        return build_constellation(
            topology, master_seed=seed, flows=self._flows(scale),
            horizon=self._horizon(scale),
        )

    def setup_only(self, seed: int) -> tuple[float, float]:
        _, raw, norm = timed(lambda: self._build(seed), spin_large)
        return raw, norm

    def warm_up(self, seed: int) -> None:
        self._build(seed).run(until=0.005)

    def unit(self, seed: int, recorder: Any = None, scale: float = 1.0) -> Unit:
        constellation, setup_s, host_setup_s = timed(
            lambda: self._build(seed, scale), spin_large)
        horizon = self._horizon(scale)
        if recorder is not None:
            recorder.begin_run(constellation.sim)
        timing = run_chunked(constellation.run, horizon, spin_large)
        if recorder is not None:
            recorder.end_run(timing.wall_s)
        return self._account(constellation, horizon, setup_s, host_setup_s, timing)

    def _account(self, constellation: Any, horizon: float, setup_s: float,
                 host_setup_s: float, timing: Timing) -> Unit:
        problems: list[str] = []
        held_keys: set[tuple] = set()
        retx = {"nak": 0, "trailing": 0, "enforced": 0}
        counts = dict.fromkeys(("frames_sent", "holding_time_sum", "holding_samples",
                                "request_naks", "checkpoints", "forwards",
                                "held_peak"), 0)
        counts["events"] = constellation.sim.event_count
        counts["flows"] = len(constellation.flows)
        for runtime in constellation.links.values():
            counts["frames_sent"] += (runtime.link.forward.frames_sent
                                      + runtime.link.reverse.frames_sent)
            for endpoint in (runtime.endpoint_a, runtime.endpoint_b):
                sender, receiver = endpoint.sender, endpoint.receiver
                if sender.failures_declared:
                    problems.append(f"{sender.name} declared a link failure")
                for cause, n in sender.retransmissions_by_cause.items():
                    retx[cause] += n
                counts["holding_time_sum"] += sender.buffer.holding_time_sum
                counts["holding_samples"] += sender.buffer.holding_samples
                counts["request_naks"] += sender.request_naks_sent
                counts["checkpoints"] += receiver.checkpoints_sent
                held_keys.update(_dg_key(p) for p in sender.held_payloads())
                held_keys.update(_dg_key(p) for p in receiver.queued_payloads())
        for layer in constellation.layers.values():
            counts["forwards"] += layer.forwarded
            held_keys.update(_dg_key(p) for p in layer._retry_queue)
            for source, flow in layer.resequencer.flows.items():
                counts["held_peak"] = max(counts["held_peak"], flow.peak_held)
                held_keys.update((source, layer.address, seq) for seq in flow.held)
        digest = hashlib.sha256()
        delays: list[float] = []
        offered = delivered = failed = held = delivered_bits = 0
        for driver in constellation.flows:
            spec = driver.spec
            log = constellation.logs[spec.destination]
            got = [(dg, when) for dg, when in zip(log.datagrams, log.delivery_times)
                   if dg.source == spec.source]
            sequences = [dg.sequence for dg, _ in got]
            if sequences != list(range(len(sequences))):
                problems.append(f"{spec.name}: not exactly-once in order")
            for dg, when in got:
                if dg.data != (spec.name, dg.sequence):
                    problems.append(f"{spec.name}: datagram {dg.sequence} has other data")
                    break
                delays.append(when - dg.created_at)
                delivered_bits += dg.size_bits
                digest.update(repr((dg.data, dg.created_at)).encode())
            flow_held = {key[2] for key in held_keys
                         if key[0] == spec.source and key[1] == spec.destination}
            flow_failed, flow_held_n = _failed_and_held(driver.sent, len(got), flow_held)
            offered += driver.sent
            delivered += len(got)
            failed += flow_failed
            held += flow_held_n
        bit_rate = next(iter(constellation.links.values())).link.forward.bit_rate
        return Unit(
            setup_s=setup_s, host_setup_s=host_setup_s, timing=timing,
            host_run_s=timing.norm_wall_s,
            offered=offered, delivered=delivered, failed=failed, held=held,
            digest=digest.hexdigest(), retx_by_cause=retx, delays_s=delays,
            delivered_bits=delivered_bits,
            capacity_bits=bit_rate * horizon * len(constellation.flows),
            problems=problems, layer_counts=counts,
        )


def _dg_key(datagram: Any) -> tuple:
    return (datagram.source, datagram.destination, datagram.sequence)


# -- live asyncio-UDP workload ---------------------------------------------

class LiveCase:
    """A fixed payload count over asyncio-UDP loopback at 2 Mb/s.

    Closed loop: each offer waits until the sender accepts it.  The
    emulated line rate paces the transfer, so the run phase is real
    time and only CPU time measures the host's cost.
    """

    exact = False
    extra_setups = 40
    PAYLOAD_BYTES = 256
    POLL = 0.005

    def __init__(self, name: str, payloads: int, watchdog: float) -> None:
        self.name = name
        self.payloads = payloads
        self.watchdog = watchdog
        self.scenario = golden_scenario("clean")

    def _payloads(self, seed: int, count: int) -> list[bytes]:
        # The seed picks which index range (and so which payload bytes)
        # is carried; payload_index parses eight decimal digits.
        first = (seed * count) % (10**8 - count)
        return [make_payload(first + i, self.PAYLOAD_BYTES) for i in range(count)]

    async def _open(self, seed: int):
        gc.collect()
        loop_us = spin()
        start = time.perf_counter()
        setup = await open_loopback(self.scenario, "lams", seed,
                                    run_with_invariants=False)
        took = time.perf_counter() - start
        return setup, took, took * REF_US_PER_ITER / loop_us

    def setup_only(self, seed: int) -> tuple[float, float]:
        async def once() -> tuple[float, float]:
            setup, raw, norm = await self._open(seed)
            await setup.close()
            return raw, norm
        return asyncio.run(once())

    def warm_up(self, seed: int) -> None:
        self.unit(seed, scale=0.02)

    def unit(self, seed: int, recorder: Any = None, scale: float = 1.0) -> Unit:
        gc.collect()
        return asyncio.run(self._unit(seed, recorder, max(2, int(self.payloads * scale))))

    async def _unit(self, seed: int, recorder: Any, count: int) -> Unit:
        payloads = self._payloads(seed, count)
        first = payload_index(payloads[0])
        loop = asyncio.get_running_loop()
        setup, setup_s, host_setup_s = await self._open(seed)
        offer_times = [0.0] * count
        sink = InOrderSink(loop.time, payloads, offer_times)
        done = asyncio.Event()
        delivered = setup.delivered
        finished = [0.0]

        def on_append() -> None:
            payload = delivered[-1]
            index = payload_index(payload)
            sink.push(None if index is None else index - first, payload)
            if sink.next_index >= count and not done.is_set():
                finished[0] = loop.time()
                done.set()

        delivered.on_append = on_append
        probe = None
        if recorder is not None:
            recorder.begin_run(setup.sim)
            probe = asyncio.ensure_future(recorder.loop_lag_probe(done))
        clock = setup.sim
        accept = setup.endpoint_a.accept
        offer = recorder.wrap_driver(_offer) if recorder is not None else _offer
        cpu0 = time.process_time()
        start = loop.time()
        deadline = start + self.watchdog
        accepted = 0
        while accepted < count and loop.time() < deadline:
            if offer(clock, accept, payloads[accepted]):
                offer_times[accepted] = loop.time()
                accepted += 1
            else:
                await asyncio.sleep(self.POLL)
        try:
            await asyncio.wait_for(done.wait(), max(0.0, deadline - loop.time()))
        except asyncio.TimeoutError:
            finished[0] = loop.time()
        # Not normalized: this CPU time tracks the calibration loop only
        # weakly (log-log slope 0.26), so scaling it would add noise.
        wall, cpu = finished[0] - start, time.process_time() - cpu0
        timing = Timing(wall_s=wall, cpu_s=cpu, norm_wall_s=wall, norm_cpu_s=cpu)
        done.set()
        if probe is not None:
            await probe
            recorder.end_run(timing.wall_s)
        # Quiesce (untimed): let the final checkpoints release the
        # sender's copies, so its retransmission counters are final.
        sender = setup.endpoint_a.sender
        settle = loop.time() + 2.0
        while sender.held_payloads() and loop.time() < settle:
            clock.kick()
            await asyncio.sleep(self.POLL)
        delivered.on_append = None
        await setup.close()
        problems = list(sink.problems)
        if sink.next_index < count:
            problems.append(f"transfer incomplete: {sink.next_index}/{count} delivered")
        digest = delivered_digest(list(delivered), first)
        if digest != payload_digest(payloads):
            problems.append("delivered digest differs from the expected digest")
        sockets = (setup.link.socket_a, setup.link.socket_b)
        bits = self.scenario.iframe_payload_bits
        return Unit(
            setup_s=setup_s, host_setup_s=host_setup_s, timing=timing,
            host_run_s=timing.wall_s,
            offered=count, delivered=sink.next_index,
            failed=count - sink.next_index, held=0, digest=digest,
            retx_by_cause=dict(sender.retransmissions_by_cause),
            delays_s=sink.delays,
            delivered_bits=sink.next_index * bits,
            capacity_bits=self.scenario.bit_rate * timing.wall_s,
            problems=problems,
            layer_counts={
                "events": clock.event_count,
                "frames_sent": 0,
                "holding_time_sum": sender.buffer.holding_time_sum,
                "holding_samples": sender.buffer.holding_samples,
                "request_naks": sender.request_naks_sent,
                "checkpoints": setup.endpoint_b.receiver.checkpoints_sent,
                "send_errors": sum(s.send_errors for s in sockets),
                "flows": 0,
            },
        )


def delivered_digest(delivered: list[bytes], first: int) -> str:
    """Digest of what the destination releases from *delivered*.

    The program's own resequencer orders and deduplicates the payloads
    exactly as delivered (indices counted from *first*); the digest is
    over the released stream, so it equals the expected digest only if
    every offered payload arrived intact.
    """
    resequencer = Resequencer()
    released: list[bytes] = []
    for data in delivered:
        index = payload_index(data)
        if index is None:
            continue
        datagram = Datagram(source="flow", destination="dest", sequence=index - first,
                            created_at=0.0, data=bytes(data))
        released.extend(out.data for out in resequencer.push(datagram))
    return payload_digest(released)


def _offer(clock: Any, accept: Callable[[Any], bool], payload: bytes) -> bool:
    """One closed-loop offer, bracketed by clock pumps like the session runner."""
    clock.kick()
    ok = accept(payload)
    clock.kick()
    return ok


CASES = {
    case.name: case
    for case in (
        LinkCase("link_saturated", horizon=4.0, burst=False),
        LinkCase("link_burst_recovery", horizon=4.0, burst=True),
        ConstellationCase("constellation_relay", links=300, flows=30,
                          messages=600, send_window=0.15),
        LiveCase("live_loopback", payloads=2000, watchdog=60.0),
    )
}


def stamp() -> dict[str, Any]:
    """Which engine backend and batch window the program runs with."""
    return {
        "engine_backend": engine_backend(),
        "batch_window": LamsDlcConfig().batch_window,
    }
