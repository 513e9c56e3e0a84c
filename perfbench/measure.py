"""Measure one workload in this process and print its record.

Run by ``run.py`` in a child process, from the root of a checkout,
with ``src`` on ``PYTHONPATH``::

    python3 perfbench/measure.py --workload link_saturated --seed 1 \
        --seconds 20 --trace 0

Set-up is timed on its own: one untimed warm-up build and run, then
several builds whose median is ``setup_s``.  The run phase repeats
whole units until ``--seconds`` have elapsed, and every host-time
metric is the median over units.  With ``--trace 1``, untraced and
traced units alternate instead; the traced units give the per-layer
split and the pair gives the tracing overhead.

The last line printed is the full record as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from statistics import median
from typing import Any

from cases import CASES, Unit, outcome_fingerprint, percentile, stamp
from layertrace import LAYERS, LayerTracer

SPAN_DIR = os.path.join(".perfbench", "spans")
MIN_DELAY_TAIL = 10
"""Fewer samples than this beyond p99 are flagged in the record."""


def end_to_end(units: list[Unit], setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics (medians over units) and their sample counts."""
    delays = units[0].delay_samples
    tail = delays * 0.01
    metrics = {
        "payloads_per_s": (median([u.delivered / u.host_run_s for u in units]), "1/s"),
        "cpu_us_per_payload": (median([u.timing.norm_cpu_s / u.delivered * 1e6
                                        for u in units]), "us"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "goodput_efficiency": (median([u.delivered_bits / u.capacity_bits for u in units]),
                               "ratio"),
        "tx_per_payload": (median([1.0 + sum(u.retx_by_cause.values()) / u.delivered
                                    for u in units]), "ratio"),
        "delay_ms_p50": (median([u.delay_p50_s * 1e3 for u in units]), "ms"),
        "delay_ms_p99": (median([u.delay_p99_s * 1e3 for u in units]), "ms"),
        "accounted_share": (median([1.0 - u.failed / u.offered for u in units]), "ratio"),
    }
    samples = {
        "units": len(units),
        "setup_s": len(setups),
        "delay_ms_p50": delays,
        "delay_ms_p99": delays,
        "delay_ms_p99_tail": tail,
    }
    if tail < MIN_DELAY_TAIL:
        samples["delay_ms_p99_note"] = "fewer than ten samples beyond p99"
    return metrics, samples


def per_layer(unit: Unit, tracer: LayerTracer, overhead: float) -> dict:
    """The per-layer metrics of one traced unit."""
    times = tracer.layer_times()
    n = unit.delivered
    counts = unit.layer_counts
    flows = counts.get("flows", 0)
    lags = tracer.loop_lags or [0.0]
    waits = tracer.reseq_waits or [0.0]
    metrics: dict[str, tuple[float, str]] = {
        f"{layer}.self_us_per_payload": (times["self_s"][layer] / n * 1e6, "us")
        for layer in LAYERS if layer != "topology"
    }
    metrics.update({
        "simulator.engine.events_per_payload": (counts["events"] / n, "count"),
        "simulator.engine.peak_heap": (tracer.peak_heap, "count"),
        "simulator.errormodel.frames_per_draw_call": (
            tracer.frames_drawn / max(1, tracer.draw_calls), "count"),
        "simulator.errormodel.corrupted_share": (
            tracer.frames_corrupted / max(1, tracer.frames_drawn), "ratio"),
        "simulator.link.frames_per_send_call": (
            counts["frames_sent"] / max(1, tracer.send_calls), "count"),
        "simulator.link.frames_sent_per_payload": (counts["frames_sent"] / n, "count"),
        "core.sender.retx_per_payload.nak": (unit.retx_by_cause["nak"] / n, "ratio"),
        "core.sender.retx_per_payload.enforced": (unit.retx_by_cause["enforced"] / n, "ratio"),
        "core.sender.retx_per_payload.trailing": (unit.retx_by_cause["trailing"] / n, "ratio"),
        "core.sender.holding_ms_mean": (
            counts["holding_time_sum"] / max(1, counts["holding_samples"]) * 1e3, "ms"),
        "core.sender.request_naks": (counts["request_naks"], "count"),
        "core.receiver.checkpoints_per_payload": (counts["checkpoints"] / n, "count"),
        "netlayer.forwards_per_payload": (counts.get("forwards", 0) / n, "count"),
        "netlayer.resequencer_held_peak": (counts.get("held_peak", 0), "count"),
        "netlayer.resequencer_wait_ms_p99": (percentile(waits, 99) * 1e3, "ms"),
        "topology.build_s": (times["topology_build_s"], "s"),
        "topology.route_searches_per_flow": (
            tracer.calls("shortest_path_routes") / flows if flows else 0.0, "count"),
        "transport.datagrams_per_payload": (tracer.calls("UdpEndpointSocket.sendto") / n,
                                            "count"),
        "transport.send_errors": (counts.get("send_errors", 0), "count"),
        "transport.loop_lag_ms_p50": (percentile(lags, 50) * 1e3, "ms"),
        "transport.loop_lag_ms_p99": (percentile(lags, 99) * 1e3, "ms"),
        "tracing.overhead_ratio": (overhead, "ratio"),
        "tracing.unattributed_share": (times["unattributed_share"], "ratio"),
    })
    return metrics


def _git_commit() -> Any:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    """Digest of the program's source and any built extension."""
    digest = hashlib.sha256()
    for root, dirs, files in sorted(os.walk("src")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".c", ".so")):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0) -> dict[str, Any]:
    case = CASES[workload]
    case.warm_up(seed)
    setups = [case.setup_only(seed) for _ in range(case.extra_setups)]
    units: list[Unit] = []
    traced: list[Unit] = []
    first_tracer = None
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        units.append(case.unit(seed, scale=scale))
        setups.append((units[-1].setup_s, units[-1].host_setup_s))
        if trace:
            tracer = LayerTracer()
            tracer.install()
            try:
                traced.append(case.unit(seed, recorder=tracer, scale=scale))
            finally:
                tracer.uninstall()
            first_tracer = first_tracer or tracer
    problems = [p for u in units + traced for p in u.problems]
    prints = {outcome_fingerprint(u, case.exact) for u in units + traced}
    if len(prints) != 1:
        problems.append(f"outcome differs between units of one seed: {len(prints)} variants")
    metrics, samples = end_to_end(units, [norm for _, norm in setups])
    record: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "stamp": {
            **stamp(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "git_commit": _git_commit(),
            "source_digest": _source_digest(),
        },
        "correct": not problems,
        "problems": problems[:20],
        "attempted": sum(u.offered for u in units),
        "failed": sum(u.failed for u in units),
        "outcome": {
            "offered": units[0].offered,
            "delivered": units[0].delivered,
            "held_at_end": units[0].held,
            "digest": units[0].digest,
            "retx_by_cause": units[0].retx_by_cause,
        },
        "samples": samples,
        "raw": {
            "run_walls_s": [u.timing.wall_s for u in units],
            "payloads_per_wall_s": median([u.delivered / u.timing.wall_s for u in units]),
            "cpu_us_per_payload": median([u.timing.cpu_s / u.delivered * 1e6
                                           for u in units]),
            "setup_s": median([raw for raw, _ in setups]),
        },
        "end_to_end": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    if trace:
        tracer = first_tracer
        overhead = (median([u.timing.wall_s for u in traced])
                    / median([u.timing.wall_s for u in units]) - 1.0)
        layers = per_layer(traced[0], tracer, overhead)
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["raw"]["traced_run_walls_s"] = [u.timing.wall_s for u in traced]
        record["spans"] = tracer.layer_times()["spans"]
        path = os.path.join(SPAN_DIR, f"{workload}.npz")
        tracer.write(path)
        record["span_file"] = path
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
