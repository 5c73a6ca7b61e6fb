"""Parallel sweep engine with a content-addressed result cache.

The paper's headline artifact is a full measurement matrix — 11
benchmarks x 4 problem sizes x 15 devices, 50 samples each (§4.3).
:func:`repro.harness.runner.run_matrix` used to walk that matrix
serially in one process and recompute it from scratch on every
invocation; this module gives the harness the two properties GEMMbench
(Lokhmotov 2015) and the HPCChallenge OpenCL suite (Meyer et al. 2020)
argue reproducible benchmarking needs:

* **parallelism** — :func:`run_sweep` fans cells out over a
  :class:`concurrent.futures.ProcessPoolExecutor` (``jobs`` workers,
  default ``os.cpu_count()``).  Because each cell seeds its RNG with
  the process-stable :func:`~repro.harness.runner.cell_seed`, a
  parallel sweep produces samples **bit-identical** to a serial one;
* **memoisation** — a :class:`SweepCache` persists each cell's
  :class:`~repro.harness.runner.RunResult` keyed on a SHA-256 of the
  :class:`~repro.harness.runner.RunConfig`, the full device spec and a
  model-version stamp, so re-running a sweep only computes
  missing/invalidated cells and an interrupted matrix resumes where it
  stopped.

Observability rides along: every cell gets a ``sweep_cell`` span, the
``sweep_cells_cached_total`` / ``sweep_cells_computed_total`` counter
pair tracks cache effectiveness, and each worker's JSONL records are
merged back into the parent run log (tagged with the worker PID).

The on-disk cache-entry layout is documented in ``docs/formats.md``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import io
import json
import logging
import os
import time
import zipfile
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..devices.catalog import get_device
from ..perfmodel.roofline import TimeBreakdown
from ..scibench.recorder import Recorder
from ..service.store import (
    CacheBackend,
    CacheBackendError,
    LocalCacheBackend,
    parse_backend_spec,
)
from ..telemetry.metrics import default_registry
from ..telemetry.runlog import RunLog, get_default_runlog, memory_runlog
from ..telemetry.tracer import get_tracer
from .runner import RunConfig, RunResult, run_benchmark

_log = logging.getLogger(__name__)

#: Stamp mixed into every cache key.  Bump whenever the performance,
#: noise or energy models change in a way that invalidates previously
#: cached samples — every existing entry then misses and is recomputed.
#: "2": RunResult payloads gained the per-cell ``counters`` dict.
MODEL_VERSION = "2"

#: On-disk cache entry format: the sharded npz envelope (sample arrays
#: as real numpy arrays, everything else in a JSON ``meta`` string).
#: Entries stamped with any other format are read as misses.
CACHE_FORMAT = 2


def cell_key(config: RunConfig, model_version: str | None = None) -> str:
    """Content hash (SHA-256 hex) addressing one sweep cell.

    The digest folds in the full :class:`RunConfig`, the resolved
    device spec and the :data:`MODEL_VERSION` stamp, so any change to
    those inputs — different sample count, a re-parameterised device, a
    model bump — yields a different key.  Shared by :class:`SweepCache`
    and the :mod:`repro.regress` baseline store: a baseline cell whose
    key no longer matches a freshly computed one was recorded under a
    different model and is flagged stale.

    Parameters
    ----------
    config : RunConfig
        The cell to address.  The device name is canonicalised through
        the catalog first.
    model_version : str, optional
        Override of the global :data:`MODEL_VERSION` stamp (tests use
        this to exercise invalidation).
    """
    spec = get_device(config.device)
    fields = dataclasses.asdict(config)
    fields["device"] = spec.name
    material = {
        "model_version": (MODEL_VERSION if model_version is None
                          else model_version),
        "config": fields,
        "device_spec": dataclasses.asdict(spec),
    }
    blob = json.dumps(material, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def default_cache_dir() -> Path:
    """The sweep cache location used when none is given explicitly.

    ``$REPRO_CACHE_DIR`` wins, then ``$XDG_CACHE_HOME/repro``, then
    ``~/.cache/repro``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg).expanduser() / "repro"
    return Path("~/.cache/repro").expanduser()


# ----------------------------------------------------------------------
# RunResult (de)serialisation — shared by the cache and the worker IPC
# ----------------------------------------------------------------------
def result_to_payload(result: RunResult) -> dict:
    """Serialise a :class:`RunResult` to a JSON-safe dict.

    The same payload shape is used for cache entries and for shipping
    results back from worker processes, so both paths are exercised by
    the same round-trip tests.
    """
    recorder = None
    if result.recorder is not None:
        recorder = {
            "name": result.recorder.name,
            "measurements": [
                {"region": m.region, "time_s": m.time_s,
                 "energy_j": m.energy_j, "tags": dict(m.tags)}
                for m in result.recorder._measurements
            ],
        }
    return {
        "benchmark": result.benchmark,
        "size": result.size,
        "device": result.device,
        "device_class": result.device_class,
        "nominal_s": result.nominal_s,
        "times_s": [float(t) for t in result.times_s],
        "energies_j": [float(e) for e in result.energies_j],
        "loop_iterations": result.loop_iterations,
        "breakdown": dataclasses.asdict(result.breakdown),
        "footprint_bytes": result.footprint_bytes,
        "validated": result.validated,
        "counters": result.counters,
        "recorder": recorder,
    }


def result_from_payload(payload: dict) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_payload` output."""
    recorder = None
    if payload.get("recorder") is not None:
        recorder = Recorder(payload["recorder"].get("name", ""))
        for m in payload["recorder"]["measurements"]:
            recorder.record(m["region"], m["time_s"],
                            energy_j=m.get("energy_j"), **m.get("tags", {}))
    return RunResult(
        benchmark=payload["benchmark"],
        size=payload["size"],
        device=payload["device"],
        device_class=payload["device_class"],
        nominal_s=payload["nominal_s"],
        times_s=np.asarray(payload["times_s"], dtype=float),
        energies_j=np.asarray(payload["energies_j"], dtype=float),
        loop_iterations=payload["loop_iterations"],
        breakdown=TimeBreakdown(**payload["breakdown"]),
        footprint_bytes=payload["footprint_bytes"],
        validated=payload["validated"],
        counters=payload.get("counters"),
        recorder=recorder,
    )


# ----------------------------------------------------------------------
# Content-addressed result cache
# ----------------------------------------------------------------------
def _encode_result_entry(entry: dict) -> bytes:
    """Serialise a cache envelope to the npz blob (CACHE_FORMAT 2).

    The timing/energy sample arrays — the bulk of every entry — are
    stored as real numpy arrays; the rest of the envelope rides in a
    single JSON ``meta`` string, mirroring the analysis-artifact layer.
    """
    payload = dict(entry["result"])
    times = np.asarray(payload.pop("times_s"), dtype=float)
    energies = np.asarray(payload.pop("energies_j"), dtype=float)
    meta = dict(entry)
    meta["result"] = payload
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        meta=np.asarray(json.dumps(meta, default=str)),
        times_s=times,
        energies_j=energies,
    )
    return buffer.getvalue()


def _decode_result_entry(blob: bytes) -> dict:
    """Rebuild a cache envelope from its npz blob.

    Raises ``ValueError`` (or an ``OSError``/``KeyError`` subclass) on
    torn, alien or non-npz bytes — the caller maps that to a logged
    miss.
    """
    if blob[:2] != b"PK":  # zip magic: the npz envelope
        raise ValueError("cache entry is not an npz file")
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as data:
            entry = json.loads(str(data["meta"]))
            if entry.get("format") != CACHE_FORMAT:
                raise ValueError(
                    f"cache entry format {entry.get('format')!r} != "
                    f"{CACHE_FORMAT}")
            entry["result"]["times_s"] = [
                float(t) for t in data["times_s"]]
            entry["result"]["energies_j"] = [
                float(e) for e in data["energies_j"]]
            return entry
    except zipfile.BadZipFile as exc:  # torn write / truncation
        raise ValueError(f"torn npz cache entry: {exc}") from exc


class SweepCache:
    """Content-addressed store of per-cell :class:`RunResult` entries.

    Each entry lives under ``<key[:2]>/<key>.npz`` where ``key`` is
    :meth:`key`'s SHA-256 over the cell's full configuration, the
    resolved device spec and the :data:`MODEL_VERSION` stamp.  Any
    change to those inputs — different sample count, a re-parameterised
    device, a model bump — yields a different key, so invalidation is
    simply a miss; stale entries are never served.

    Storage is pluggable (:class:`~repro.service.store.CacheBackend`):
    the default :class:`~repro.service.store.LocalCacheBackend` keeps
    the sharded directory layout, while a
    :class:`~repro.service.store.RemoteCacheBackend`
    (``remote://host:port``) lets many worker hosts share the store of
    one ``repro serve --cache-only`` instance.  Encoding lives here, so
    every backend serves byte-identical entries.

    Local writes are atomic (temp file + ``os.replace``) and parent
    shard directories are created race-tolerantly, so concurrent
    processes sharing a store never observe torn entries; torn
    *content* (a truncated npz, a corrupt remote blob, a blob that is
    not an npz file) is read as a miss with a logged warning, never a
    crash.
    """

    def __init__(self, root: str | Path | CacheBackend):
        self.backend = parse_backend_spec(root)
        if isinstance(self.backend, LocalCacheBackend):
            self.root: Path | str = self.backend.root
        else:
            self.root = self.backend.describe()

    # ------------------------------------------------------------------
    def key(self, config: RunConfig, model_version: str | None = None) -> str:
        """The cache key (SHA-256 hex digest) for one sweep cell.

        Parameters
        ----------
        config : RunConfig
            The cell to address.  The device name is canonicalised
            through the catalog and the *entire* device spec is folded
            into the digest, so retuning a device's model parameters
            invalidates its entries.
        model_version : str, optional
            Override of the global :data:`MODEL_VERSION` stamp
            (tests use this to exercise invalidation).
        """
        return cell_key(config, model_version)

    def path_for(self, key: str) -> Path:
        """Where a local backend stores ``key`` (whether or not it exists).

        Only meaningful for :class:`LocalCacheBackend` storage; remote
        stores have no client-visible paths.
        """
        if not isinstance(self.backend, LocalCacheBackend):
            raise TypeError(
                f"{self.backend.describe()} has no local entry paths")
        return self.backend.path_for("result", key)

    # ------------------------------------------------------------------
    def get(self, key: str) -> RunResult | None:
        """Load a cached result, or ``None`` on miss/corruption.

        A corrupt, torn or format-incompatible entry is treated as a
        miss with a logged warning (the sweep recomputes and overwrites
        it) rather than an error — a half-written file from a killed
        run must not wedge resumes.  Backend failures (an unreachable
        remote store) degrade the same way.
        """
        with get_tracer().span("sweep_cache_get", phase="cache_io",
                               key=key) as sp:
            try:
                blob = self.backend.read("result", key)
                if blob is None:
                    sp.set_attribute("hit", False)
                    return None
                entry = _decode_result_entry(blob)
                result = result_from_payload(entry["result"])
                sp.set_attribute("hit", True)
                return result
            except CacheBackendError as exc:
                _log.warning("sweep cache backend failed for %s: %s",
                             key, exc)
                sp.set_attribute("hit", False)
                return None
            except (OSError, ValueError, KeyError, TypeError) as exc:
                _log.warning(
                    "treating corrupt sweep-cache entry %s as a miss: %s",
                    key, exc)
                sp.set_attribute("hit", False)
                return None

    def put(self, key: str, config: RunConfig,
            result: RunResult) -> Path | str:
        """Persist one cell's result under ``key``.

        Returns the entry path for local backends (the historical
        contract), the key for path-less remote backends.  A backend
        write failure (an unreachable remote store) is logged and
        swallowed — losing a cache entry must not take the run down.
        """
        with get_tracer().span("sweep_cache_put", phase="cache_io", key=key):
            entry = {
                "format": CACHE_FORMAT,
                "model_version": MODEL_VERSION,
                "key": key,
                "config": dataclasses.asdict(config),
                "created_unix": time.time(),
                "result": result_to_payload(result),
            }
            try:
                self.backend.write("result", key, _encode_result_entry(entry))
            except CacheBackendError as exc:
                _log.warning("sweep cache backend failed to store %s: %s",
                             key, exc)
                return key
            if isinstance(self.backend, LocalCacheBackend):
                return self.path_for(key)
            return key

    # ------------------------------------------------------------------
    # Analysis artifacts (repro.harness.artifacts), stored alongside
    # the results under <root>/analysis/<key[:2]>/<key>.npz.
    # ------------------------------------------------------------------
    def artifact_path_for(self, key: str) -> Path:
        """Where a local backend stores the artifact for ``key``."""
        if not isinstance(self.backend, LocalCacheBackend):
            raise TypeError(
                f"{self.backend.describe()} has no local entry paths")
        return self.backend.path_for("artifact", key)

    def get_artifact(self, key: str):
        """Load cached :class:`~repro.harness.artifacts.CellArtifacts`.

        Corruption or layout drift is a miss, exactly like :meth:`get`.
        Only :func:`~repro.harness.artifacts.get_cell_artifacts` calls
        this, on an in-process memo miss, and times it on its own
        ``cell_artifacts`` span.
        """
        from .artifacts import CellArtifacts

        try:
            blob = self.backend.read("artifact", key)
            if blob is None:
                return None
            with np.load(io.BytesIO(blob), allow_pickle=False) as data:
                meta = json.loads(str(data["meta"]))
                return CellArtifacts(
                    benchmark=meta["benchmark"],
                    size=meta["size"],
                    trace_len=int(meta["trace_len"]),
                    trace_source=meta["trace_source"],
                    footprint_bytes=int(meta["footprint_bytes"]),
                    static_bytes=meta["static_bytes"],
                    strides=meta["strides"],
                    trace=data["trace"].astype(np.int64, copy=False),
                    branch_pcs=data["branch_pcs"].astype(
                        np.int64, copy=False),
                    branch_outcomes=data["branch_outcomes"].astype(
                        bool, copy=False),
                )
        except (CacheBackendError, OSError, ValueError, KeyError,
                TypeError) as exc:
            _log.warning(
                "treating corrupt artifact entry %s as a miss: %s", key, exc)
            return None

    def put_artifact(self, key: str, artifacts) -> Path | str:
        """Persist one shape's artifacts under ``key``.

        Returns the entry path for local backends, the key otherwise.
        Backend write failures degrade like :meth:`put`.
        """
        meta = json.dumps({
            "benchmark": artifacts.benchmark,
            "size": artifacts.size,
            "trace_len": artifacts.trace_len,
            "trace_source": artifacts.trace_source,
            "footprint_bytes": artifacts.footprint_bytes,
            "static_bytes": artifacts.static_bytes,
            "strides": artifacts.strides,
        })
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer, meta=np.asarray(meta),
            trace=artifacts.trace,
            branch_pcs=artifacts.branch_pcs,
            branch_outcomes=artifacts.branch_outcomes)
        try:
            self.backend.write("artifact", key, buffer.getvalue())
        except CacheBackendError as exc:
            _log.warning(
                "sweep cache backend failed to store artifact %s: %s",
                key, exc)
            return key
        if isinstance(self.backend, LocalCacheBackend):
            return self.artifact_path_for(key)
        return key

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.backend.keys("result"))

    def clear(self) -> int:
        """Delete every result entry; returns how many were removed."""
        removed = 0
        for key in self.backend.keys("result"):
            if self.backend.delete("result", key):
                removed += 1
        return removed

    def __repr__(self) -> str:
        return f"<SweepCache {self.backend.describe()}: {len(self)} entries>"


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class SweepOutcome:
    """What a sweep did: the results plus compute/cache accounting."""

    results: list[RunResult]
    computed: int
    cached: int
    wall_s: float
    jobs: int

    @property
    def cells(self) -> int:
        """Total number of cells covered by the sweep."""
        return len(self.results)


def _compute_cell(
    config: RunConfig, trace_ctx: dict | None = None,
) -> tuple[dict, list[dict], dict, list[dict]]:
    """Worker entry point: measure one cell in a child process.

    Returns the serialised result, the cell's JSONL records (captured
    in memory, each tagged with this worker's PID), a metrics snapshot
    and the worker's finished spans, so the parent can merge all three
    into its own run log, registry and trace.  The worker's registry is
    reset first: under ``fork`` it inherits the parent's accumulated
    series, and the snapshot must be a per-cell delta, not a cumulative
    copy.  ``trace_ctx`` is the parent tracer's
    :meth:`~repro.telemetry.tracer.Tracer.propagation_context` —
    ``None`` (tracing off) keeps the worker on the no-op path and ships
    no spans.  Module-level and argument-picklable so it works under
    both ``fork`` and ``spawn`` start methods.
    """
    from ..telemetry.runlog import set_default_runlog
    from ..telemetry.tracer import Tracer, set_tracer
    set_default_runlog(None)  # never write to a handle inherited from the parent
    default_registry().reset()
    tracer = Tracer.from_context(trace_ctx)
    set_tracer(tracer)  # fresh per cell: fork may inherit parent state
    runlog, buffer = memory_runlog()
    result = run_benchmark(config, runlog=runlog)
    pid = os.getpid()
    records = []
    for line in buffer.getvalue().splitlines():
        if line.strip():
            record = json.loads(line)
            record["worker_pid"] = pid
            records.append(record)
    spans = tracer.to_dicts()
    for span in spans:
        span["attributes"]["worker_pid"] = pid
    return result_to_payload(result), records, default_registry().snapshot(), spans


def run_sweep(
    configs: list[RunConfig],
    jobs: int | None = None,
    cache: SweepCache | None = None,
    refresh: bool = False,
    runlog: RunLog | None = None,
) -> SweepOutcome:
    """Measure many (benchmark, size, device) cells, in parallel, cached.

    Parameters
    ----------
    configs : list of RunConfig
        The cells to cover.  Results come back in the same order.
    jobs : int, optional
        Worker processes.  ``None`` means ``os.cpu_count()``; ``1``
        runs every cell in this process (no pool, no pickling).
        Either way the samples are bit-identical, because each cell's
        RNG seed is derived process-stably by
        :func:`~repro.harness.runner.cell_seed`.
    cache : SweepCache, optional
        When given, cells already present are restored without
        computation and newly computed cells are persisted — which is
        also how ``--resume`` continues an interrupted matrix.
    refresh : bool
        Ignore existing entries (recompute everything) but still write
        the fresh results back to the cache.
    runlog : RunLog, optional
        Parent JSONL log; defaults to the process-global one.  Child
        processes log to memory and their records are merged here,
        tagged ``worker_pid``.

    Returns
    -------
    SweepOutcome
        Results in input order plus computed/cached cell counts and
        the wall-clock duration.

    Notes
    -----
    Pending (non-cached) cells are submitted longest-modeled-first via
    :func:`repro.scheduling.sweep_execution_order` — the LPT heuristic
    the scheduler already uses for heterogeneous task placement —
    which minimises pool makespan when cell costs are skewed.
    In parallel mode the per-cell ``sweep_cell`` spans are recorded at
    completion on the parent (the tracer's span stack is per-process),
    so they mark ordering and cache state, not child-side duration.
    """
    from ..scheduling import sweep_execution_order

    tracer = get_tracer()
    registry = default_registry()
    runlog = runlog if runlog is not None else get_default_runlog()
    jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
    cached_counter = registry.counter(
        "sweep_cells_cached_total",
        "Sweep cells restored from the result cache")
    computed_counter = registry.counter(
        "sweep_cells_computed_total",
        "Sweep cells actually measured")

    start = time.perf_counter()
    if runlog is not None:
        runlog.write("sweep_start", cells=len(configs), jobs=jobs,
                     cache_dir=str(cache.root) if cache else None,
                     refresh=refresh)

    results: dict[int, RunResult] = {}
    pending: list[tuple[int, RunConfig]] = []
    keys: dict[int, str] = {}

    def _finish(i: int, config: RunConfig, result: RunResult) -> None:
        computed_counter.inc()
        if cache is not None:
            cache.put(keys[i], config, result)
        if runlog is not None:
            runlog.write("cell_computed", benchmark=config.benchmark,
                         size=config.size, device=config.device,
                         key=keys.get(i))
        results[i] = result

    with tracer.span("run_sweep", phase="sweep",
                     cells=len(configs), jobs=jobs):
        for i, config in enumerate(configs):
            hit = None
            if cache is not None:
                keys[i] = cache.key(config)
                if not refresh:
                    hit = cache.get(keys[i])
            if hit is not None:
                with tracer.span("sweep_cell", benchmark=config.benchmark,
                                 size=config.size, device=config.device,
                                 cached=True, key=keys[i]):
                    pass
                cached_counter.inc()
                if runlog is not None:
                    runlog.write("cell_cached", benchmark=config.benchmark,
                                 size=config.size, device=config.device,
                                 key=keys[i])
                results[i] = hit
            else:
                pending.append((i, config))

        if pending:
            order = sweep_execution_order([c for _, c in pending])
            if jobs == 1:
                for pos in order:
                    i, config = pending[pos]
                    with tracer.span("sweep_cell", benchmark=config.benchmark,
                                     size=config.size, device=config.device,
                                     cached=False, key=keys.get(i)):
                        result = run_benchmark(config, runlog=runlog,
                                               artifact_cache=cache)
                    _finish(i, config, result)
            else:
                trace_ctx = tracer.propagation_context()
                # forked workers freeze the heap they inherit, so their
                # full collections skip the parent's objects
                with ProcessPoolExecutor(max_workers=jobs,
                                         initializer=gc.freeze) as pool:
                    futures = {
                        pool.submit(_compute_cell, pending[pos][1],
                                    trace_ctx): pending[pos]
                        for pos in order
                    }
                    for future in as_completed(futures):
                        i, config = futures[future]
                        payload, records, metrics, spans = future.result()
                        if runlog is not None:
                            for record in records:
                                runlog.write_record(record)
                        registry.merge_snapshot(metrics)
                        with tracer.span("sweep_cell",
                                         benchmark=config.benchmark,
                                         size=config.size,
                                         device=config.device,
                                         cached=False, key=keys.get(i)):
                            # adopt the worker's spans under this cell,
                            # same topology as the serial path
                            tracer.graft(spans)
                        _finish(i, config, result_from_payload(payload))

    wall_s = time.perf_counter() - start
    outcome = SweepOutcome(
        results=[results[i] for i in range(len(configs))],
        computed=len(pending),
        cached=len(configs) - len(pending),
        wall_s=wall_s,
        jobs=jobs,
    )
    if runlog is not None:
        runlog.write("sweep_complete", cells=outcome.cells,
                     computed=outcome.computed, cached=outcome.cached,
                     wall_s=wall_s)
    return outcome
