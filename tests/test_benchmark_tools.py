"""Unit tests for the sweep-scaling benchmark's plumbing: single-core
skew handling of the pool cells.

The actual throughput numbers are covered by ``benchmarks/`` and the
``perfbench/`` ledger; here we pin the plumbing those numbers travel
through.
"""

from __future__ import annotations

import os

from repro.benchmark import bench_sweep_scale
from repro.simulator.engine import engine_backend


class TestSingleCoreSweepSkew:
    def test_parallel_cells_skipped_on_single_core(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        result = bench_sweep_scale(seeds=2, duration=0.005, jobs=(2,))
        assert result["parallel"] == []
        assert "oversubscription" in result["parallel_skipped"]

    def test_force_parallel_stamps_cells(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        result = bench_sweep_scale(seeds=2, duration=0.005, jobs=(2,),
                                   force_parallel=True)
        assert "parallel_skipped" not in result
        (cell,) = result["parallel"]
        assert cell["forced_parallel"] is True
        assert cell["bit_identical_to_serial"] is True

    def test_multi_core_hosts_unaffected(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        result = bench_sweep_scale(seeds=2, duration=0.005, jobs=(2,))
        assert "parallel_skipped" not in result
        (cell,) = result["parallel"]
        assert "forced_parallel" not in cell


def test_engine_backend_is_stamped_somewhere_real():
    """The stamp the ledger records carry names the one dispatch loop."""
    assert engine_backend() == "pure"
