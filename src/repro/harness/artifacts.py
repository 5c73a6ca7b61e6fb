"""Memoized per-(benchmark, size) analysis artifacts.

Every sweep cell used to regenerate its access trace and re-run the
abstract interpreter from scratch, even though those artifacts depend
only on the (benchmark, size, trace-length) shape — not on the device
or the measurement protocol.  This module computes them once per
shape and shares them at two levels:

* an **in-process LRU memo** (a handful of entries; a full matrix
  sweeps every device of one (benchmark, size) back to back), which
  also serves pool workers, each of which touches few shapes;
* the **content-addressed persistent layer** of the
  :class:`~repro.harness.sweep.SweepCache`
  (``<root>/analysis/<key[:2]>/<key>.npz``), written only by the
  parent sweep process, so repeated sweeps pay the ``absint`` phase
  zero times.

The artifact key is a SHA-256 over (artifact version, benchmark,
size, trace length) — the same invalidation-by-addressing discipline
as the result cache.

:func:`simulate_cell_counters` replays the memoized traces through
the PAPI counter simulator (scaled-hierarchy technique shared with
:mod:`repro.sizing.verify`), producing the per-cell counter dict the
runner attaches to each :class:`~repro.harness.runner.RunResult`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from ..devices.specs import DeviceSpec
from ..dwarfs.registry import get_benchmark
from ..telemetry.metrics import count_memo_lookup
from ..telemetry.tracer import get_tracer

#: Stamp mixed into every artifact key; bump when the artifact layout
#: or the synthetic branch-trace model changes.  v2 adds the trace
#: provenance (``hand`` vs ``ir``) to the key material and the npz
#: layout, so artifacts from different trace sources never collide.
ARTIFACT_VERSION = "2"

#: Trace length replayed per cell (matches repro.sizing.verify).
DEFAULT_TRACE_LEN = 120_000

#: In-process memo capacity (insertion-ordered LRU).
_MEMO_MAX = 16

#: Synthetic branch-trace model: one loop branch, taken 63 of every
#: 64 iterations — the classic inner-loop pattern the bimodal
#: predictor is built for.
_BRANCH_PC = 0x400000
_BRANCH_PERIOD = 64


@dataclass(frozen=True)
class CellArtifacts:
    """Analysis artifacts shared by every device cell of one shape."""

    benchmark: str
    size: str
    trace_len: int
    #: Where the access trace came from: ``hand`` (the benchmark's
    #: declarative trace spec) or ``ir`` (synthesised from the static
    #: launch model by :mod:`repro.analysis.accessmodel`).
    trace_source: str
    #: Runtime footprint formula (``Benchmark.footprint_bytes``).
    footprint_bytes: int
    #: Abstract-interpretation working set; ``None`` when the
    #: benchmark has no static launch model.
    static_bytes: int | None
    #: Per-kernel, per-parameter stride classes from the IR pipeline.
    strides: dict = field(repr=False)
    #: Representative memory-access trace (int64 byte addresses).
    trace: np.ndarray = field(repr=False)
    #: Synthetic branch trace (parallel pc/outcome arrays).
    branch_pcs: np.ndarray = field(repr=False)
    branch_outcomes: np.ndarray = field(repr=False)


def _current_trace_source() -> str:
    """The ``REPRO_TRACE_SOURCE``-selected provenance (lazy import)."""
    from ..analysis.accessmodel import trace_source

    return trace_source()


def artifact_key(benchmark: str, size: str,
                 trace_len: int = DEFAULT_TRACE_LEN,
                 trace_source: str | None = None) -> str:
    """Content hash (SHA-256 hex) addressing one artifact shape.

    ``trace_source`` defaults to the ``REPRO_TRACE_SOURCE``-selected
    provenance; it is part of the key material, so hand-authored and
    IR-synthesised artifacts address distinct cache entries.
    """
    if trace_source is None:
        trace_source = _current_trace_source()
    material = json.dumps(
        {"artifact_version": ARTIFACT_VERSION, "benchmark": benchmark,
         "size": size, "trace_len": trace_len,
         "trace_source": trace_source},
        sort_keys=True)
    return hashlib.sha256(material.encode()).hexdigest()


def _compute(benchmark: str, size: str, trace_len: int,
             trace_source: str) -> CellArtifacts:
    """Generate the artifacts for one shape (the ``absint`` cost)."""
    from ..analysis.absint import static_footprint
    from ..analysis.accessmodel import resolve_access_trace

    cls = get_benchmark(benchmark)
    bench = cls.from_size(size)
    trace = np.asarray(
        resolve_access_trace(bench, max_len=trace_len, source=trace_source),
        dtype=np.int64)
    model = bench.static_launches()
    static_bytes: int | None = None
    strides: dict = {}
    if model is not None:
        footprint = static_footprint(model)
        static_bytes = int(footprint.total_bytes)
        strides = footprint.strides
    n = int(trace.size)
    branch_pcs = np.full(n, _BRANCH_PC, dtype=np.int64)
    branch_outcomes = (
        (np.arange(n, dtype=np.int64) % _BRANCH_PERIOD)
        != _BRANCH_PERIOD - 1)
    return CellArtifacts(
        benchmark=benchmark, size=size, trace_len=trace_len,
        trace_source=trace_source,
        footprint_bytes=int(bench.footprint_bytes()),
        static_bytes=static_bytes, strides=strides, trace=trace,
        branch_pcs=branch_pcs, branch_outcomes=branch_outcomes,
    )


_memo: dict[str, CellArtifacts] = {}


def clear_memo() -> None:
    """Drop the in-process artifact memo (tests)."""
    _memo.clear()


def get_cell_artifacts(benchmark: str, size: str,
                       trace_len: int = DEFAULT_TRACE_LEN,
                       cache=None,
                       trace_source: str | None = None) -> CellArtifacts:
    """Fetch (or compute) the artifacts for one shape.

    Lookup order: in-process memo, then the persistent ``cache``
    (any object with ``get_artifact``/``put_artifact``, i.e. a
    :class:`~repro.harness.sweep.SweepCache`), then a fresh
    computation — which is written back to both layers.
    ``trace_source`` defaults to the ``REPRO_TRACE_SOURCE`` selection.
    """
    if trace_source is None:
        trace_source = _current_trace_source()
    key = artifact_key(benchmark, size, trace_len, trace_source)
    tracer = get_tracer()
    with tracer.span("cell_artifacts", phase="absint", benchmark=benchmark,
                     size=size) as span:
        artifacts = _memo.pop(key, None)
        span.set_attribute("hit", artifacts is not None)
        count_memo_lookup("artifacts", artifacts is not None)
        if artifacts is None:
            with tracer.muted():
                artifacts = _load_or_compute(key, benchmark, size, trace_len,
                                             trace_source, cache, span)
        _memo[key] = artifacts  # (re)insert at the most recent LRU position
        while len(_memo) > _MEMO_MAX:
            _memo.pop(next(iter(_memo)))
    return artifacts


def _load_or_compute(key: str, benchmark: str, size: str, trace_len: int,
                     trace_source: str, cache, span) -> CellArtifacts:
    """A memo miss: the persistent layer, else a fresh computation.

    Each step's wall time goes on ``span`` as an attribute.
    """
    artifacts = None
    if cache is not None:
        start = time.perf_counter()
        artifacts = cache.get_artifact(key)
        span.set_attribute("store_get_s", time.perf_counter() - start)
        span.set_attribute("store_hit", artifacts is not None)
    if artifacts is None:
        start = time.perf_counter()
        artifacts = _compute(benchmark, size, trace_len, trace_source)
        span.set_attribute("compute_s", time.perf_counter() - start)
        if cache is not None:
            start = time.perf_counter()
            cache.put_artifact(key, artifacts)
            span.set_attribute("store_put_s", time.perf_counter() - start)
    return artifacts


def simulate_cell_counters(spec: DeviceSpec,
                           artifacts: CellArtifacts) -> dict[str, int]:
    """Replay one shape's traces through the counter simulator.

    Uses the scaled-hierarchy technique of
    :func:`repro.sizing.verify.verify_benchmark_sizes` so subsampled
    traces keep the capacity relationship honest.  Deterministic (no
    RNG), and every value is a Python ``int``.
    """
    from ..counters.papi import PapiEventSet
    from ..sizing.verify import scaled_spec, touched_bytes

    factor = min(1.0, touched_bytes(artifacts.trace)
                 / max(artifacts.footprint_bytes, 1))
    events = PapiEventSet(scaled_spec(spec, factor))
    events.start()
    if artifacts.trace.size:
        events.record_memory_trace(artifacts.trace)
    if artifacts.branch_pcs.size:
        events.record_branch_trace(artifacts.branch_pcs,
                                   artifacts.branch_outcomes)
    report = events.stop()
    return {name: int(value) for name, value in report.counts.items()}
