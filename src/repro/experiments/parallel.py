"""Parallel experiment execution: process pools, seed streams, caching.

The paper's evaluation is Monte-Carlo replication — the same
measurement across many independent seeds, BERs, and window settings —
and every replication is an isolated discrete-event simulation with no
shared state.  This module fans that work out over a
``multiprocessing`` pool while keeping three properties the serial
path guarantees:

**Determinism.**  Each replication derives its RNG streams from its own
seed (:mod:`repro.simulator.rng`), so a simulation's result depends
only on ``(spec, seed)`` — never on which process ran it or in what
order.  Parallel sweeps therefore produce *bit-identical* summaries to
serial execution on the same seeds.  :func:`replication_seeds` derives
the per-replication seeds from one master seed via
:func:`~repro.simulator.rng.derive_seed`, so a sweep's seed list is
itself stable across runs and machines.

**Free re-runs.**  Results land in a sharded on-disk cache
(:class:`ResultCache`), keyed by ``(experiment_id, scenario, seed,
code_version)``: append-only JSON-lines shard files with an in-memory
index, so a fully warm 1000-point re-run costs one sequential index
read instead of 1000 file opens.  JSON floats round-trip exactly
(shortest-repr encoding), so cached summaries are byte-identical to
freshly computed ones.  ``python -m repro cache migrate`` compacts the
shards into one.

**Observability.**  :func:`run_sweep` reports per-worker progress and
timing through :mod:`repro.simulator.trace`-style counters and sample
statistics on a :class:`~repro.simulator.trace.Tracer`.

The sweep plane itself is engineered for throughput:

- :class:`SweepPool` is a *persistent warm pool* — workers are created
  once (with the registry, runner, and scenario modules pre-imported)
  and reused across any number of :func:`run_sweep` calls, so a
  multi-protocol sweep or a chaos soak pays pool start-up exactly once.
- Points are dispatched with ``imap_unordered`` under an adaptive
  chunk size (``chunksize=0``), amortising one IPC round-trip over
  many points instead of paying it per point.
- Workers ship results back as compact slots-tuples ``(index, pid,
  seconds, json)`` — one pre-encoded JSON string per result instead of
  a pickled dict tree; the parent reuses the encoding verbatim for the
  cache append.
- With ``keep_results=False`` (used by ``parallel_replicate_all(...,
  streaming=True)``), results are folded into
  :class:`~repro.experiments.sweeps.StreamingSummary` accumulators as
  they arrive, in seed order, so sweep memory is O(points in flight)
  rather than O(total points) — and still bit-identical to batch
  aggregation (see :func:`repro.experiments.sweeps.welford`).

Entry points:

- :func:`parallel_replicate` / :func:`parallel_replicate_all` — the
  parallel counterparts of :func:`repro.experiments.sweeps.replicate`
  and :func:`~repro.experiments.sweeps.replicate_all`, taking a
  picklable :class:`MeasureSpec` instead of a closure.
- :func:`run_experiments_parallel` — fan registry experiments (E1–E20)
  out across processes.
- :func:`run_sweep` — the generic engine over any sequence of points.

CLI: ``python -m repro sweep`` (``--jobs N``, ``--chunksize``,
``--cache-dir``, ``--no-cache``) and ``python -m repro cache``
(``migrate`` / ``info``).  Benchmarks opt in via the
``REPRO_SWEEP_JOBS`` environment variable (see
``benchmarks/conftest.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import itertools
import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from .. import __version__ as CODE_VERSION
from ..simulator.rng import derive_seed
from ..simulator.trace import Tracer
from ..workloads.scenarios import LinkScenario
from . import runner as _runner_module
from .registry import REGISTRY, ExperimentResult, default_seed, run_experiment
from .sweeps import ReplicationSummary, StreamingSummary

__all__ = [
    "ExperimentPoint",
    "MeasurePoint",
    "MeasureSpec",
    "ResultCache",
    "SweepPool",
    "SweepStop",
    "parallel_replicate",
    "parallel_replicate_all",
    "replication_seeds",
    "resolve_jobs",
    "run_experiments_parallel",
    "run_sweep",
]


def resolve_jobs(jobs: int) -> int:
    """Adapt a requested worker count to the host.

    On a single-core host a worker pool is pure overhead — fork/spawn
    plus IPC with no parallelism to buy — and spawn-method pools have
    been observed to regress badly there, so any request resolves to
    serial execution when ``os.cpu_count() == 1`` (or is unknown).
    Multi-core hosts get the request back unchanged (the caller may
    deliberately oversubscribe).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    cpus = os.cpu_count()
    if cpus is None or cpus <= 1:
        return 1
    return jobs


class SweepStop(Exception):
    """Raised by a ``progress`` callback to end a sweep early.

    :func:`run_sweep` catches it, stops dispatching further points, and
    returns the partial result list (unexecuted points stay ``None``).
    The chaos soak runner's ``--fail-fast`` uses this to abort on the
    first invariant violation without losing completed episodes.
    """


# ---------------------------------------------------------------------------
# Deterministic seed streams
# ---------------------------------------------------------------------------


def replication_seeds(
    master_seed: int, count: int, name: str = "replication"
) -> list[int]:
    """*count* independent replication seeds under one master seed.

    Derived with :func:`repro.simulator.rng.derive_seed` from the
    stable stream names ``"{name}[i]"``, so the list is identical
    across runs, platforms, and serial/parallel execution — the
    property that makes cached and parallel sweeps comparable.
    """
    if count < 1:
        raise ValueError("at least one replication is required")
    return [derive_seed(master_seed, f"{name}[{i}]") for i in range(count)]


# ---------------------------------------------------------------------------
# Work specifications (picklable, cache-keyable)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureSpec:
    """A picklable description of one runner measurement.

    The serial :func:`~repro.experiments.sweeps.replicate` takes an
    arbitrary ``measure(seed)`` closure; closures do not cross process
    boundaries, so the parallel path names the runner function instead:
    *runner* is an attribute of :mod:`repro.experiments.runner`
    (``"measure_saturated"``, ``"measure_batch_transfer"``, ...),
    called as ``fn(scenario, protocol, seed=seed, **kwargs)`` (or
    without *protocol* for runners that fix it, like
    ``measure_failure_recovery``).
    """

    runner: str
    scenario: LinkScenario
    protocol: Optional[str] = None
    kwargs: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def create(
        cls,
        runner: str,
        scenario: LinkScenario,
        protocol: Optional[str] = None,
        **kwargs: Any,
    ) -> "MeasureSpec":
        """Build a spec; keyword arguments are canonicalised (sorted)."""
        if not hasattr(_runner_module, runner):
            raise ValueError(
                f"unknown runner {runner!r}; not in repro.experiments.runner"
            )
        return cls(runner, scenario, protocol, tuple(sorted(kwargs.items())))

    @property
    def experiment_id(self) -> str:
        """The cache-key identity of this measurement family."""
        if self.protocol is None:
            return self.runner
        return f"{self.runner}:{self.protocol}"

    def run(self, seed: int) -> Mapping[str, Any]:
        """Execute the measurement at *seed* (in any process)."""
        fn = getattr(_runner_module, self.runner)
        kwargs = dict(self.kwargs)
        if self.protocol is None:
            return fn(self.scenario, seed=seed, **kwargs)
        return fn(self.scenario, self.protocol, seed=seed, **kwargs)

    def measure(self) -> Callable[[int], Mapping[str, Any]]:
        """A serial-``replicate``-compatible ``measure(seed)`` callable."""
        return self.run


@dataclass(frozen=True)
class MeasurePoint:
    """One cacheable unit of work: a :class:`MeasureSpec` at one seed."""

    spec: MeasureSpec
    seed: int

    @property
    def label(self) -> str:
        return f"{self.spec.experiment_id}@{self.spec.scenario.name} seed={self.seed}"

    def cache_key(self) -> dict[str, Any]:
        return {
            "experiment_id": self.spec.experiment_id,
            "scenario": dataclasses.asdict(self.spec.scenario),
            "kwargs": dict(self.spec.kwargs),
            "seed": self.seed,
            "code_version": CODE_VERSION,
        }

    def execute(self) -> Any:
        return _jsonable(self.spec.run(self.seed))


@dataclass(frozen=True)
class ExperimentPoint:
    """One registry experiment (E1–E20) as a cacheable work unit."""

    experiment_id: str
    seed: int
    kwargs: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def create(
        cls,
        experiment_id: str,
        seed: Optional[int] = None,
        **kwargs: Any,
    ) -> "ExperimentPoint":
        """Build a point, resolving the experiment's default seed.

        Every registry function accepts an explicit ``seed`` kwarg; when
        *seed* is ``None`` the function's own default is used (memoised
        by :func:`repro.experiments.registry.default_seed`), so the
        cache key is well-defined either way.
        """
        if experiment_id not in REGISTRY:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; known: {sorted(REGISTRY)}"
            )
        if seed is None:
            seed = default_seed(experiment_id)
        return cls(experiment_id, int(seed), tuple(sorted(kwargs.items())))

    @property
    def label(self) -> str:
        return f"{self.experiment_id} seed={self.seed}"

    def cache_key(self) -> dict[str, Any]:
        kwargs = dict(self.kwargs)
        scenario = kwargs.pop("scenario", None)
        return {
            "experiment_id": self.experiment_id,
            "scenario": dataclasses.asdict(scenario) if scenario is not None else None,
            "kwargs": kwargs,
            "seed": self.seed,
            "code_version": CODE_VERSION,
        }

    def execute(self) -> Any:
        result = run_experiment(
            self.experiment_id, seed=self.seed, **dict(self.kwargs)
        )
        return {
            "experiment_id": result.experiment_id,
            "title": result.title,
            "rows": _jsonable(result.rows),
            "notes": result.notes,
        }


def _jsonable(value: Any) -> Any:
    """Coerce a result to plain JSON types (numpy scalars included)."""
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item") and not isinstance(value, (bytes, bytearray)):
        # numpy scalar (np.float64, np.int64, np.bool_, ...)
        return _jsonable(value.item())
    return str(value)


# ---------------------------------------------------------------------------
# On-disk result cache (v2: sharded append-only JSON-lines)
# ---------------------------------------------------------------------------


class ResultCache:
    """Sharded result cache keyed by (experiment_id, scenario, seed, version).

    **Layout (v2).**  Results live in append-only shard files
    (``shard-<pid>-<uniq>.jsonl``), one line per entry::

        <sha256-hex>\\t{"key": {...}, "result": ...}\\n

    Opening a cache reads every shard *sequentially once* and builds an
    in-memory index ``digest -> (shard, offset, length)`` — indexing
    needs only the digest prefix, no JSON parsing — so a fully warm
    1000-point sweep costs one index build plus 1000 seek-reads from a
    handful of open files, instead of 1000 ``open()`` calls.  The full
    key is stored alongside each result, so a (vanishingly unlikely)
    digest collision is detected, not served.

    **Durability.**  Each cache instance appends to its own private
    shard (``O_EXCL``-created), so concurrent writers never interleave.
    Every ``put`` is flushed; ``fsync`` is *batched* (every
    ``fsync_interval`` puts, and on :meth:`flush`/:meth:`close`).  A
    crash can therefore lose at most the last unsynced batch — and a
    torn final line is detected and skipped on the next open, never
    served as data.

    **Compaction.**  :meth:`migrate` (``python -m repro cache migrate``)
    rewrites every live entry into a single fresh shard.
    """

    #: Default number of puts between fsyncs.
    FSYNC_INTERVAL = 64

    _shard_ids = itertools.count()

    def __init__(self, root: str, code_version: str = CODE_VERSION,
                 fsync_interval: int = FSYNC_INTERVAL) -> None:
        self.root = str(root)
        self.code_version = code_version
        self.fsync_interval = max(1, int(fsync_interval))
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: digest -> (shard path, byte offset, line length)
        self._index: dict[str, tuple[str, int, int]] = {}
        self._readers: dict[str, Any] = {}
        self._writer: Optional[Any] = None
        self._writer_path: Optional[str] = None
        self._writer_offset = 0
        self._unsynced = 0
        self._load_shards()

    # -- maintenance -----------------------------------------------------

    def _shard_paths(self) -> list[str]:
        paths = [
            os.path.join(self.root, name)
            for name in os.listdir(self.root)
            if name.startswith("shard-") and name.endswith(".jsonl")
        ]
        # Later shards win on duplicate digests; mtime then name gives a
        # stable "last writer wins" order.
        def order(path: str) -> tuple[float, str]:
            try:
                return (os.path.getmtime(path), path)
            except OSError:
                return (0.0, path)
        return sorted(paths, key=order)

    def _load_shards(self) -> None:
        """One sequential pass over every shard builds the index.

        Only the 64-hex digest prefix of each line is inspected — the
        JSON payload is parsed lazily at :meth:`get` time.  A final
        line with no newline is a torn write from a killed process and
        is skipped.
        """
        for path in self._shard_paths():
            try:
                with open(path, "rb") as handle:
                    offset = 0
                    for line in handle:
                        if not line.endswith(b"\n"):
                            break  # torn tail: ignore, never served
                        length = len(line)
                        if length > 65 and line[64:65] == b"\t":
                            digest = line[:64].decode("ascii", "replace")
                            self._index[digest] = (path, offset, length)
                        offset += length
            except OSError:
                continue

    # -- keying ----------------------------------------------------------

    @staticmethod
    def _canonical(key: Mapping[str, Any]) -> str:
        return json.dumps(key, sort_keys=True, default=str)

    def digest_for(self, point: Any) -> str:
        """The SHA-256 hex digest of *point*'s canonical cache key."""
        return hashlib.sha256(
            self._canonical(point.cache_key()).encode("utf-8")
        ).hexdigest()

    # -- access ----------------------------------------------------------

    def contains(self, point: Any) -> bool:
        """Whether *point* is (probably) cached — no read, no stats.

        An index membership test, used by the sweep engine to partition points before dispatch.  A
        ``True`` here can still turn into a :meth:`get` miss if the
        entry is torn or its stored key mismatches; callers must handle
        that by recomputing.
        """
        return self.digest_for(point) in self._index

    def _read_entry(self, entry: tuple[str, int, int]) -> Optional[dict]:
        path, offset, length = entry
        reader = self._readers.get(path)
        if reader is None:
            try:
                reader = open(path, "rb")
            except OSError:
                return None
            self._readers[path] = reader
        try:
            reader.seek(offset)
            line = reader.read(length)
        except OSError:
            return None
        tab = line.find(b"\t")
        if tab < 0:
            return None
        try:
            return json.loads(line[tab + 1:])
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError):
            return None

    def get(self, point: Any) -> Optional[Any]:
        """The cached result for *point*, or None on a miss."""
        key = json.loads(self._canonical(point.cache_key()))
        entry = self._index.get(self.digest_for(point))
        if entry is not None:
            stored = self._read_entry(entry)
            if stored is not None and stored.get("key") == key:
                self.hits += 1
                return stored["result"]
        self.misses += 1
        return None

    def put(self, point: Any, result: Any) -> None:
        """Store *result* for *point* (appended to this cache's shard)."""
        self._append(point, json.dumps(result))

    def put_raw(self, point: Any, result_json: str) -> None:
        """Store a pre-encoded JSON result verbatim.

        The pool workers ship results as JSON strings; appending that
        encoding directly skips a decode/re-encode round trip per point.
        """
        self._append(point, result_json)

    def _append(self, point: Any, result_json: str) -> None:
        digest = self.digest_for(point)
        line = (
            digest + '\t{"key": ' + self._canonical(point.cache_key())
            + ', "result": ' + result_json + "}\n"
        ).encode("utf-8")
        writer = self._writer if self._writer is not None else self._open_writer()
        offset = self._writer_offset
        writer.write(line)
        # Flush per put (visible to readers immediately); fsync batched.
        writer.flush()
        self._index[digest] = (self._writer_path, offset, len(line))
        self._writer_offset = offset + len(line)
        self._unsynced += 1
        if self._unsynced >= self.fsync_interval:
            os.fsync(writer.fileno())
            self._unsynced = 0

    def _open_writer(self) -> Any:
        pid = os.getpid()
        while True:
            name = (f"shard-{pid}-{next(self._shard_ids)}-"
                    f"{time.time_ns() & 0xFFFFFF:06x}.jsonl")
            path = os.path.join(self.root, name)
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                continue
            self._writer = os.fdopen(fd, "wb")
            self._writer_path = path
            self._writer_offset = 0
            return self._writer

    def flush(self) -> None:
        """Force any batched fsync out to disk."""
        if self._writer is not None:
            self._writer.flush()
            if self._unsynced:
                os.fsync(self._writer.fileno())
                self._unsynced = 0

    def close(self) -> None:
        """Flush and release every file handle (the cache stays usable)."""
        self.flush()
        if self._writer is not None:
            self._writer.close()
            self._writer = None
            self._writer_path = None
        for reader in self._readers.values():
            try:
                reader.close()
            except OSError:
                pass
        self._readers.clear()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- bulk operations -------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def clear(self) -> int:
        """Delete every entry; returns how many distinct keys went."""
        removed = len(self)
        self.close()
        for path in self._shard_paths():
            try:
                os.unlink(path)
            except OSError:
                pass
        self._index.clear()
        return removed

    def migrate(self) -> dict[str, int]:
        """Compact every shard into one, in place.

        Every live entry (index-reachable only, so superseded duplicates
        drop out) is rewritten into a single fresh shard; the old shards
        are then deleted.  Returns counts for reporting.
        """
        lines: dict[str, bytes] = {}
        for digest, entry in list(self._index.items()):
            stored = self._read_entry(entry)
            if stored is not None:
                lines[digest] = (
                    digest + "\t" + json.dumps(stored) + "\n"
                ).encode("utf-8")
        old_shards = self._shard_paths()
        self.close()
        writer = self._open_writer()
        new_index: dict[str, tuple[str, int, int]] = {}
        offset = 0
        for digest, line in lines.items():
            writer.write(line)
            new_index[digest] = (self._writer_path, offset, len(line))
            offset += len(line)
        writer.flush()
        os.fsync(writer.fileno())
        self._writer_offset = offset
        for path in old_shards:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._index = new_index
        return {
            "entries": len(new_index),
            "shards_compacted": len(old_shards),
        }

    def info(self) -> dict[str, int]:
        """Shape of the on-disk cache (entries and shards)."""
        return {
            "entries": len(self),
            "shards": len(self._shard_paths()),
        }


# ---------------------------------------------------------------------------
# The worker pool
# ---------------------------------------------------------------------------


def _warm_worker() -> None:
    """Pool initializer: pre-import the heavy modules once per worker.

    Under ``fork`` the child inherits the parent's warm interpreter and
    this is nearly free; under ``spawn`` it front-loads the registry /
    runner / scenario (and transitively numpy) imports at pool start-up
    instead of paying them inside the first task.
    """
    from ..workloads import scenarios  # noqa: F401
    from . import registry, runner  # noqa: F401


def _resolve_start_method(method: Optional[str] = None) -> str:
    """The explicit multiprocessing start method for sweep pools.

    Preference order: the *method* argument, the ``REPRO_MP_START``
    environment variable, then ``fork`` where the platform offers it
    (cheapest — workers inherit the warm interpreter) with ``spawn`` as
    the explicit fallback.  Never the interpreter default, so sweeps
    behave identically on platforms where the default differs.
    """
    if method is None:
        method = os.environ.get("REPRO_MP_START") or None
    available = multiprocessing.get_all_start_methods()
    if method is None:
        method = "fork" if "fork" in available else "spawn"
    if method not in available:
        raise ValueError(
            f"unknown start method {method!r}; available: {available}"
        )
    return method


def _pool_context(method: Optional[str] = None):
    """An explicitly chosen multiprocessing context (spawn-safe)."""
    return multiprocessing.get_context(_resolve_start_method(method))


class SweepPool:
    """A persistent, warm worker pool reused across sweeps.

    Workers are created lazily on first use — initialised once with
    :func:`_warm_worker` — and then serve every subsequent
    :func:`run_sweep` call handed this pool, so a multi-protocol sweep
    session (or a chaos soak riding the same pool) pays pool start-up
    exactly once instead of once per sweep.

    :meth:`cancel` tears the workers down immediately (used on
    :class:`SweepStop` so abandoned tasks stop burning CPU); the next
    use transparently builds a fresh pool.  Context-manager exit closes
    the pool (or cancels it if exiting on an exception).
    """

    def __init__(self, jobs: int, start_method: Optional[str] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.start_method = _resolve_start_method(start_method)
        self._context = multiprocessing.get_context(self.start_method)
        self._pool: Optional[Any] = None
        #: How many times the pool was torn down and lazily rebuilt.
        self.recycled = 0

    def pool(self) -> Any:
        """The live ``multiprocessing.Pool`` (created on first use)."""
        if self._pool is None:
            self._pool = self._context.Pool(
                processes=self.jobs, initializer=_warm_worker
            )
        return self._pool

    def cancel(self) -> None:
        """Terminate workers now; the next use rebuilds the pool."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self.recycled += 1

    def close(self) -> None:
        """Finish outstanding tasks and shut the workers down."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, exc_type: Any, *exc: Any) -> None:
        if exc_type is None:
            self.close()
        else:
            self.cancel()


# ---------------------------------------------------------------------------
# The sweep engine
# ---------------------------------------------------------------------------


def _progress_adapter(
    progress: Optional[Callable[..., None]],
) -> Callable[[Any, bool, Any], None]:
    """Normalise a progress callback to the (point, from_cache, result)
    calling convention, keeping 2-parameter callbacks working."""
    if progress is None:
        return lambda point, from_cache, result: None
    try:
        takes_result = len(inspect.signature(progress).parameters) >= 3
    except (TypeError, ValueError):
        takes_result = False
    if takes_result:
        return progress
    return lambda point, from_cache, result: progress(point, from_cache)


def _execute_point(point: Any) -> tuple[Any, int, float]:
    """Run one point in-process, reporting (result, pid, seconds)."""
    start = time.perf_counter()
    result = point.execute()
    return result, os.getpid(), time.perf_counter() - start


def _execute_task(task: tuple[int, Any]) -> tuple[int, int, float, str]:
    """Worker entry: run one indexed point; ship a compact slots-tuple.

    The result crosses the process boundary as one JSON string (floats
    round-trip exactly under shortest-repr encoding) instead of a
    pickled dict tree — cheaper to serialise, and the parent reuses the
    encoding verbatim for the cache append.
    """
    index, point = task
    start = time.perf_counter()
    result = point.execute()
    return index, os.getpid(), time.perf_counter() - start, json.dumps(result)


def _resolve_chunksize(chunksize: int, pending: int, jobs: int) -> int:
    """Adaptive chunking: amortise IPC without starving the tail.

    ``chunksize=0`` targets ~4 chunks per worker (capped at 32 points a
    chunk), so dispatch overhead is paid once per chunk while the last
    worker never sits on more than a quarter of its share.
    """
    if chunksize > 0:
        return chunksize
    return max(1, min(32, -(-pending // (jobs * 4))))


def run_sweep(
    points: Sequence[Any],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    stats: Optional[Tracer] = None,
    progress: Optional[Callable[[Any, bool], None]] = None,
    *,
    pool: Optional[SweepPool] = None,
    chunksize: int = 0,
    keep_results: bool = True,
) -> Optional[list[Any]]:
    """Execute *points*, in order, over up to *jobs* worker processes.

    Cached points are answered from *cache* without touching the pool
    (a fully warm sweep executes **zero** simulations); fresh results
    are written back.  *pool* reuses a persistent :class:`SweepPool`
    across calls (its worker count then overrides *jobs*); otherwise a
    transient pool is created for this sweep.  *chunksize* controls how
    many points travel per worker dispatch (0 = adaptive, see
    :func:`_resolve_chunksize`).

    Counters on *stats* (a :class:`~repro.simulator.trace.Tracer`):

    - ``sweep.points`` / ``sweep.executed`` / ``sweep.cache_hits``
    - ``sweep.worker.<pid>.tasks`` — per-worker task counts
    - samples ``sweep.task_seconds`` and ``sweep.worker.<pid>.seconds``

    *progress*, if given, is called as ``progress(point, from_cache)``
    after each point resolves — or ``progress(point, from_cache,
    result)`` when the callback accepts a third parameter — always in
    input order, whatever order workers complete in; raising
    :class:`SweepStop` from it ends the sweep early with the partial
    results.

    With ``keep_results=False`` the engine returns ``None`` and holds
    only the out-of-order arrival buffer (O(points in flight)) instead
    of the full result list — results are observed solely through
    *progress*, which is how streaming aggregation keeps thousand-point
    sweeps in constant memory.
    """
    jobs = resolve_jobs(jobs)
    points = list(points)
    stats = stats if stats is not None else Tracer()
    results: Optional[list[Any]] = [None] * len(points) if keep_results else None
    notify = _progress_adapter(progress)

    hit_flags = (
        [cache.contains(point) for point in points]
        if cache is not None
        else [False] * len(points)
    )
    pending = [(i, p) for i, (p, hit) in enumerate(zip(points, hit_flags)) if not hit]

    def _account(worker: int, elapsed: float) -> None:
        stats.count("sweep.executed")
        stats.count(f"sweep.worker.{worker}.tasks")
        stats.sample("sweep.task_seconds", elapsed)
        stats.sample(f"sweep.worker.{worker}.seconds", elapsed)

    def _resolve_hit(index: int, point: Any) -> None:
        cached = cache.get(point)
        if cached is None:
            # Torn or key-mismatched entry discovered after the probe:
            # recompute inline so the sweep still completes.
            _run_inline(index, point)
            return
        stats.count("sweep.cache_hits")
        if results is not None:
            results[index] = cached
        notify(point, True, cached)

    def _run_inline(index: int, point: Any) -> None:
        result, worker, elapsed = _execute_point(point)
        _account(worker, elapsed)
        if cache is not None:
            cache.put(point, result)
        if results is not None:
            results[index] = result
        notify(point, False, result)

    use_pool = len(pending) > 1 and (pool is not None or jobs > 1)
    try:
        if use_pool:
            owned = pool is None
            active = pool if pool is not None else SweepPool(min(jobs, len(pending)))
            completed = False
            try:
                chunk = _resolve_chunksize(chunksize, len(pending), active.jobs)
                arrivals = active.pool().imap_unordered(
                    _execute_task, pending, chunksize=chunk
                )
                # Out-of-order arrivals wait here until their turn; the
                # in-order chunk assignment bounds this buffer to
                # O(jobs * chunksize) under normal skew.
                ready: dict[int, tuple[int, float, str]] = {}
                for index, point in enumerate(points):
                    stats.count("sweep.points")
                    if hit_flags[index]:
                        _resolve_hit(index, point)
                        continue
                    while index not in ready:
                        got_index, worker, elapsed, encoded = next(arrivals)
                        ready[got_index] = (worker, elapsed, encoded)
                    worker, elapsed, encoded = ready.pop(index)
                    _account(worker, elapsed)
                    if cache is not None:
                        cache.put_raw(point, encoded)
                    if results is not None:
                        results[index] = json.loads(encoded)
                        notify(point, False, results[index])
                    else:
                        notify(point, False, json.loads(encoded))
                completed = True
            finally:
                if not completed:
                    # SweepStop or an error mid-sweep: abandoned chunks
                    # must not keep burning CPU (a persistent pool
                    # rebuilds lazily on its next use).
                    active.cancel()
                if owned:
                    active.close()
        else:
            for index, point in enumerate(points):
                stats.count("sweep.points")
                if hit_flags[index]:
                    _resolve_hit(index, point)
                else:
                    _run_inline(index, point)
    except SweepStop:
        pass
    if cache is not None:
        cache.flush()
    return results


# ---------------------------------------------------------------------------
# Replication over a pool (the parallel replicate / replicate_all)
# ---------------------------------------------------------------------------


def parallel_replicate(
    spec: MeasureSpec,
    metric: str,
    seeds: Iterable[int],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    stats: Optional[Tracer] = None,
    progress: Optional[Callable[[Any, bool], None]] = None,
    *,
    pool: Optional[SweepPool] = None,
    chunksize: int = 0,
    streaming: bool = False,
):
    """Parallel :func:`~repro.experiments.sweeps.replicate`.

    Bit-identical to the serial version on the same seeds: sample order
    follows seed order, values are the same per-seed simulations, and
    NaN measurements raise the same ``ValueError``.  With
    ``streaming=True`` the return type is a
    :class:`~repro.experiments.sweeps.StreamingSummary` (same
    statistics, bit-identically, without retaining the samples).
    """
    summaries = parallel_replicate_all(
        spec, [metric], seeds, jobs=jobs, cache=cache, stats=stats,
        progress=progress, _nan_guard=True,
        pool=pool, chunksize=chunksize, streaming=streaming,
    )
    return summaries[metric]


def parallel_replicate_all(
    spec: MeasureSpec,
    metrics: Sequence[str],
    seeds: Iterable[int],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    stats: Optional[Tracer] = None,
    progress: Optional[Callable[[Any, bool], None]] = None,
    _nan_guard: bool = False,
    *,
    pool: Optional[SweepPool] = None,
    chunksize: int = 0,
    streaming: bool = False,
):
    """Parallel :func:`~repro.experiments.sweeps.replicate_all`.

    One simulation per seed feeds every metric, exactly like the serial
    version; summaries are bit-identical to serial execution.

    ``streaming=True`` folds each metric into a
    :class:`~repro.experiments.sweeps.StreamingSummary` as results
    arrive (in seed order — the engine reorders worker completions), so
    memory stays O(points in flight) instead of O(seeds); the folded
    statistics are bit-identical to the batch
    :class:`~repro.experiments.sweeps.ReplicationSummary` because both
    run the same :func:`~repro.experiments.sweeps.welford` recurrence.
    """
    seed_list = list(seeds)
    if not seed_list:
        raise ValueError("at least one seed is required")
    points = [MeasurePoint(spec, seed) for seed in seed_list]

    if streaming:
        accumulators = {metric: StreamingSummary(metric) for metric in metrics}
        outer_notify = _progress_adapter(progress)

        def consume(point: MeasurePoint, from_cache: bool, result: Any) -> None:
            for metric in metrics:
                value = result[metric]
                if _nan_guard and value != value:
                    raise ValueError(
                        f"measurement returned NaN for seed {point.seed}"
                    )
                accumulators[metric].push(float(value))
            outer_notify(point, from_cache, result)

        run_sweep(points, jobs=jobs, cache=cache, stats=stats,
                  progress=consume, pool=pool, chunksize=chunksize,
                  keep_results=False)
        return accumulators

    results = run_sweep(points, jobs=jobs, cache=cache, stats=stats,
                        progress=progress, pool=pool, chunksize=chunksize)
    collected: dict[str, list[float]] = {metric: [] for metric in metrics}
    for seed, result in zip(seed_list, results):
        for metric in metrics:
            value = result[metric]
            if _nan_guard and value != value:
                raise ValueError(f"measurement returned NaN for seed {seed}")
            collected[metric].append(float(value))
    return {
        metric: ReplicationSummary(metric=metric, samples=tuple(values))
        for metric, values in collected.items()
    }


# ---------------------------------------------------------------------------
# Registry fan-out
# ---------------------------------------------------------------------------


def run_experiments_parallel(
    experiment_ids: Sequence[str],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    stats: Optional[Tracer] = None,
    seed: Optional[int] = None,
    progress: Optional[Callable[[Any, bool], None]] = None,
    *,
    pool: Optional[SweepPool] = None,
    chunksize: int = 0,
) -> dict[str, ExperimentResult]:
    """Run registry experiments across a process pool.

    Each experiment is one work unit (the E-series functions are
    internally serial); *seed* overrides every experiment's seed, or
    each keeps its registered default.  Results preserve the requested
    order and reconstruct as :class:`ExperimentResult`.
    """
    points = [ExperimentPoint.create(eid, seed=seed) for eid in experiment_ids]
    payloads = run_sweep(points, jobs=jobs, cache=cache, stats=stats,
                         progress=progress, pool=pool, chunksize=chunksize)
    out: dict[str, ExperimentResult] = {}
    for point, payload in zip(points, payloads):
        out[point.experiment_id] = ExperimentResult(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            rows=payload["rows"],
            notes=payload["notes"],
        )
    return out
