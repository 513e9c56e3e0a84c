"""E23 — sweep-scaling performance (the Monte-Carlo replication plane).

This regenerates no paper figure: it benchmarks the machinery
every replicated experiment rides — :func:`repro.experiments.parallel
.run_sweep` over a persistent warm :class:`~repro.experiments.parallel
.SweepPool`, the sharded :class:`~repro.experiments.parallel
.ResultCache`, and streaming aggregation.  Three contracts:

- **Correctness under parallelism**: a jobs=2 sweep over warm workers
  is *bit-identical* to the serial sweep on the same seeds, and a
  streamed aggregation is bit-identical to the batch one.
- **Free re-runs**: a fully cache-hot sweep executes zero simulations
  and answers from one shard-index read.
- **Sanity floors**: points/sec is orders of magnitude above
  catastrophic-regression territory.  Real speed comparisons come from
  running :func:`repro.benchmark.bench_sweep_scale` for two commits
  interleaved on the same machine.

Print the measured tables with ``pytest -s``.
"""

from __future__ import annotations

from repro.benchmark import bench_sweep_scale
from repro.experiments.parallel import (
    MeasurePoint,
    MeasureSpec,
    ResultCache,
    SweepPool,
    parallel_replicate_all,
    replication_seeds,
    run_sweep,
)
from repro.simulator.trace import Tracer
from repro.workloads.scenarios import preset

SEEDS = 8
DURATION = 0.05
METRICS = ["efficiency", "eta", "delivered"]

# Loose floors only: CI containers are slow, noisy, and possibly
# single-core.  These catch accidental quadratic work per point, not
# percent-level drift.
MIN_POINTS_PER_SEC = 0.5
MIN_CACHE_HOT_POINTS_PER_SEC = 50.0


def _spec() -> MeasureSpec:
    return MeasureSpec.create(
        "measure_saturated", preset("short_hop"), "lams", duration=DURATION
    )


def _points() -> list[MeasurePoint]:
    seeds = replication_seeds(0, SEEDS, name="bench_sweep")
    return [MeasurePoint(_spec(), seed) for seed in seeds]


def test_sweep_scale_section(run_once):
    result = run_once(bench_sweep_scale, seeds=SEEDS, duration=DURATION,
                      jobs=(2,))
    serial = result["serial"]
    print(f"\n[E23] sweep serial: {serial['points_per_sec']:,.2f} points/s "
          f"({result['points']} points)")
    for run in result["parallel"]:
        print(f"[E23] sweep jobs={run['jobs']} ({run['start_method']}): "
              f"{run['points_per_sec']:,.2f} points/s, "
              f"bit-identical={run['bit_identical_to_serial']}")
    hot = result["cache_hot"]
    print(f"[E23] cache-hot re-run: {hot['wall_seconds'] * 1e3:,.1f} ms, "
          f"{hot['points_per_sec']:,.0f} points/s, {hot['hits']} hits")
    assert serial["points_per_sec"] > MIN_POINTS_PER_SEC
    for run in result["parallel"]:
        assert run["bit_identical_to_serial"]
        assert run["points_per_sec"] > MIN_POINTS_PER_SEC
    assert hot["bit_identical_to_serial"]
    assert hot["hits"] == result["points"]
    assert hot["points_per_sec"] > MIN_CACHE_HOT_POINTS_PER_SEC


def test_parallel_sweep_bit_identical_to_serial():
    points = _points()
    serial = run_sweep(points, jobs=1)
    with SweepPool(2) as pool:
        parallel = run_sweep(points, pool=pool)
    assert parallel == serial


def test_cache_hot_rerun_executes_nothing(tmp_path):
    points = _points()
    with ResultCache(str(tmp_path)) as cache:
        cold = run_sweep(points, jobs=1, cache=cache)
    stats = Tracer()
    with ResultCache(str(tmp_path)) as cache:
        warm = run_sweep(points, jobs=1, cache=cache, stats=stats)
    assert warm == cold
    assert stats.counter("sweep.executed").value == 0
    assert stats.counter("sweep.cache_hits").value == len(points)


def test_streaming_aggregation_bit_identical():
    spec = _spec()
    seeds = replication_seeds(0, SEEDS, name="bench_sweep")
    batch = parallel_replicate_all(spec, METRICS, seeds, jobs=2)
    stream = parallel_replicate_all(spec, METRICS, seeds, jobs=2,
                                    streaming=True)
    for metric in METRICS:
        assert stream[metric].count == batch[metric].count
        assert stream[metric].mean == batch[metric].mean
        assert stream[metric].stdev == batch[metric].stdev
        assert stream[metric].half_width == batch[metric].half_width
