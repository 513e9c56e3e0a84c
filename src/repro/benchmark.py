"""Sweep-scaling benchmark: the Monte-Carlo replication plane.

:func:`bench_sweep_scale` times a replicated sweep through
:func:`repro.experiments.parallel.run_sweep` in points/sec, serial vs.
a warm worker pool, plus the latency of a fully cache-hot re-run.  This
is the regime the paper's Monte-Carlo evaluation lives in, and the one
part of the program the ``perfbench/`` ledger does not measure (the
ledger times single runs end to end and layer by layer; see
``perfbench/README.md``).
"""

from __future__ import annotations

import os
import time
from typing import Any

__all__ = ["bench_sweep_scale"]


def bench_sweep_scale(
    seeds: int = 16,
    duration: float = 0.05,
    scenario: str = "short_hop",
    protocol: str = "lams",
    jobs: tuple[int, ...] = (2, 4),
    chunksize: int = 0,
    force_parallel: bool = False,
) -> dict[str, Any]:
    """Macro-benchmark the replication plane: points/sec through
    :func:`~repro.experiments.parallel.run_sweep`.

    Runs the same *seeds*-point replicated sweep serially and over warm
    :class:`~repro.experiments.parallel.SweepPool` workers at each job
    count, asserting bit-identical results along the way, then measures
    a fully cache-hot re-run against a freshly opened sharded cache
    (the "1000 opens vs one index read" number, scaled down).

    On a single-core host the pool cells only measure oversubscription
    — workers time-slice one CPU, so "parallel" numbers look like
    regressions that aren't there.  The parallel cells are therefore
    skipped when ``os.cpu_count() <= 1`` (recorded under
    ``parallel_skipped``) unless *force_parallel* is set, in which case
    every cell is stamped ``forced_parallel: true`` so history readers
    can discount them.
    """
    import shutil
    import tempfile

    from .experiments.parallel import (
        MeasurePoint,
        MeasureSpec,
        ResultCache,
        SweepPool,
        replication_seeds,
        run_sweep,
    )
    from .workloads.scenarios import preset

    if seeds < 2:
        raise ValueError("at least two sweep points are required")
    spec = MeasureSpec.create(
        "measure_saturated", preset(scenario), protocol, duration=duration
    )
    points = [MeasurePoint(spec, s)
              for s in replication_seeds(0, seeds, name="bench_sweep")]

    def timed(fn) -> tuple[Any, float]:
        start = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - start

    serial, serial_wall = timed(lambda: run_sweep(points, jobs=1))
    result: dict[str, Any] = {
        "kind": "sweep_scale",
        "scenario": scenario,
        "protocol": protocol,
        "sim_duration": duration,
        "points": len(points),
        "chunksize": chunksize,
        "serial": {
            "jobs": 1,
            "wall_seconds": serial_wall,
            "points_per_sec": len(points) / serial_wall if serial_wall > 0 else float("inf"),
        },
        "parallel": [],
    }
    single_core = (os.cpu_count() or 1) <= 1
    if single_core and not force_parallel:
        jobs = ()
        result["parallel_skipped"] = (
            "single-core host: pool cells would only measure oversubscription"
        )
    for job_count in jobs:
        with SweepPool(job_count) as pool:
            # Warm the workers first so the measurement sees the steady
            # state a long sweep runs in, not pool start-up.
            run_sweep(points[:job_count], pool=pool, chunksize=1)
            parallel, wall = timed(
                lambda: run_sweep(points, pool=pool, chunksize=chunksize)
            )
        cell = {
            "jobs": job_count,
            "start_method": pool.start_method,
            "wall_seconds": wall,
            "points_per_sec": len(points) / wall if wall > 0 else float("inf"),
            "bit_identical_to_serial": parallel == serial,
        }
        if single_core:
            cell["forced_parallel"] = True
        result["parallel"].append(cell)
    tmpdir = tempfile.mkdtemp(prefix="bench-sweep-cache-")
    try:
        with ResultCache(tmpdir) as cache:
            run_sweep(points, jobs=1, cache=cache)
        with ResultCache(tmpdir) as warm_cache:
            hot, hot_wall = timed(lambda: run_sweep(points, jobs=1, cache=warm_cache))
            result["cache_hot"] = {
                "wall_seconds": hot_wall,
                "points_per_sec": len(points) / hot_wall if hot_wall > 0 else float("inf"),
                "hits": warm_cache.hits,
                "bit_identical_to_serial": hot == serial,
            }
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return result
