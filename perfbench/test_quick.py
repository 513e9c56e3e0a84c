"""Quick check of the benchmark itself: every workload at a tiny size.

Each workload runs once untraced and once traced, in a child process
exactly as the ledger runs it, and must pass its correctness check and
emit every metric ``BENCHMARK.json`` names, with its unit::

    python3 -m pytest perfbench/test_quick.py -q
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import load_benchmark, run_one, summary, workload_names  # noqa: E402

TINY = 0.05


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workload_names())
def test_workload_at_tiny_size(workload: str, trace: int) -> None:
    record = run_one(workload, seed=7, seconds=0, trace=trace, scale=TINY)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] > 0
    declared = load_benchmark()["per_layer" if trace else "end_to_end"]
    line = summary(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in line["metrics"].items()}
    stamp = record["stamp"]
    assert stamp["engine_backend"] in ("pure", "compiled")
    assert stamp["batch_window"] >= 0 and stamp["source_digest"]


def test_des_outcome_repeats_exactly() -> None:
    first = run_one("link_burst_recovery", seed=3, seconds=0, trace=0, scale=TINY)
    second = run_one("link_burst_recovery", seed=3, seconds=0, trace=1, scale=TINY)
    assert first["outcome"] == second["outcome"]
    for name in ("tx_per_payload", "delay_ms_p50", "delay_ms_p99", "goodput_efficiency"):
        assert first["end_to_end"][name] == second["end_to_end"][name]
