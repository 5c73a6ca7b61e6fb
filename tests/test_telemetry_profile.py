"""Self-profiling layer: phase attribution, propagation, histograms.

Pins the PR 6 acceptance criteria: cross-process span propagation
(parent/child ids survive worker IPC, parallel == serial topology),
the profiler's no-op path (zero spans, <5% overhead), deterministic
folded-stack output, bucketed histograms, cache-key tagging and the
BENCH phase-timing trajectory field.
"""

import json
import time

import pytest

from repro.harness import artifacts, runner
from repro.harness.cli import main
from repro.harness.runner import RunConfig, run_benchmark
from repro.harness.sweep import SweepCache, run_sweep
from repro.telemetry import (
    BucketHistogram,
    ChromeTraceExporter,
    MetricsRegistry,
    ProfileSession,
    Span,
    Tracer,
    default_registry,
    folded_stacks,
    get_tracer,
    memory_runlog,
    phase_summary,
    set_default_runlog,
    set_tracer,
    summarize_trace_events,
    tracing,
)
from repro.telemetry.profile import PHASE_MEASURE, PHASE_OTHER, PHASE_SWEEP
from repro.telemetry.tracer import NOOP_SPAN


def _configs(benchmarks=("fft", "crc"), samples=6):
    return [RunConfig(b, size, "i7-6700K", samples=samples,
                      execute=False, validate=False)
            for b in benchmarks for size in ("tiny", "small")]


def _paths(spans) -> list[str]:
    """Name paths (root;...;leaf) of a span set, sorted."""
    dicts = [s.to_dict() if isinstance(s, Span) else s for s in spans]
    by_id = {d["span_id"]: d for d in dicts}
    out = []
    for d in dicts:
        names = [d["name"]]
        parent = d.get("parent_id")
        while parent in by_id:
            names.append(by_id[parent]["name"])
            parent = by_id[parent].get("parent_id")
        out.append(";".join(reversed(names)))
    return sorted(out)


# ----------------------------------------------------------------------
# Cross-process trace propagation
# ----------------------------------------------------------------------
class TestPropagation:
    def test_context_roundtrip_and_disabled_passthrough(self):
        parent = Tracer(enabled=True)
        worker = Tracer.from_context(parent.propagation_context())
        assert worker.enabled
        assert worker.trace_id == parent.trace_id
        off = Tracer.from_context(Tracer(enabled=False).propagation_context())
        assert not off.enabled

    def test_graft_remaps_ids_and_reparents(self):
        worker = Tracer(enabled=True)
        with worker.span("outer"):
            with worker.span("inner"):
                pass
        parent = Tracer(enabled=True)
        with parent.span("cell") as cell:
            grafted = parent.graft(worker.to_dicts())
        inner = next(s for s in grafted if s.name == "inner")
        outer = next(s for s in grafted if s.name == "outer")
        # relative link preserved, root reparented under the open span
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == cell.span_id
        assert outer.depth == cell.depth + 1
        # remapped into the parent tracer's id space: no collisions
        ids = [s.span_id for s in parent.finished]
        assert len(ids) == len(set(ids))
        assert all(s.trace_id == parent.trace_id or s.trace_id is not None
                   for s in grafted)

    def test_parallel_sweep_ships_worker_spans(self):
        configs = _configs()
        with tracing() as tracer:
            run_sweep(configs, jobs=2)
        names = [s.name for s in tracer.finished]
        assert names.count("run_benchmark") == len(configs)
        bench_spans = [s for s in tracer.finished
                       if s.name == "run_benchmark"]
        cell_ids = {s.span_id for s in tracer.finished
                    if s.name == "sweep_cell"}
        for span in bench_spans:
            assert span.attributes["worker_pid"] > 0
            assert span.trace_id == tracer.trace_id
            assert span.parent_id in cell_ids  # nested under its cell

    def test_parallel_topology_equals_serial(self):
        configs = _configs()
        with tracing() as serial:
            serial_results = run_sweep(configs, jobs=1).results
        with tracing() as parallel:
            parallel_results = run_sweep(configs, jobs=2).results
        assert _paths(serial.finished) == _paths(parallel.finished)
        # and the engine's headline guarantee still holds alongside
        for a, b in zip(serial_results, parallel_results):
            assert (a.times_s == b.times_s).all()

    @pytest.mark.parametrize("memo", ["warm", "cold"])
    def test_topology_does_not_depend_on_memo_state(self, memo):
        """Memo layers always emit their span; misses add no children."""
        configs = [*_configs(),
                   RunConfig("fft", "tiny", "i7-6700K", samples=6)]
        run_sweep(configs, jobs=1)
        if memo == "cold":
            artifacts.clear_memo()
            runner.clear_memo()
        with tracing() as first:
            run_sweep(configs, jobs=1)
        with tracing() as serial:
            run_sweep(configs, jobs=1)  # always warm
        with tracing() as parallel:
            run_sweep(configs, jobs=2)
        assert _paths(first.finished) == _paths(serial.finished)
        assert _paths(serial.finished) == _paths(parallel.finished)
        names = [s.name for s in first.finished]
        assert names.count("cell_artifacts") == len(configs)
        assert names.count("functional_exec") == 1
        hits = {s.attributes["hit"] for s in first.finished
                if s.name in ("cell_artifacts", "functional_exec")}
        assert hits == ({False, True} if memo == "cold" else {True})

    def test_disabled_tracer_ships_nothing(self):
        prev = set_tracer(Tracer(enabled=False))
        try:
            run_sweep(_configs(benchmarks=("fft",)), jobs=2)
            assert len(get_tracer().finished) == 0
        finally:
            set_tracer(prev)


# ----------------------------------------------------------------------
# Phase attribution + folded stacks
# ----------------------------------------------------------------------
def _fake_clock_tracer(ticks):
    it = iter(ticks)
    return Tracer(enabled=True, clock=lambda: next(it))


class TestPhaseSummary:
    def test_self_time_and_inheritance(self):
        # sweep [0..100us]; measure child [10..90us]; unphased
        # grandchild [20..40us] inherits "measure"
        t = _fake_clock_tracer([0, 10_000, 20_000, 40_000, 90_000, 100_000])
        with t.span("run_sweep", phase=PHASE_SWEEP):
            with t.span("run_benchmark", phase=PHASE_MEASURE):
                with t.span("sample_timings"):
                    pass
        summary = phase_summary(t.finished)
        sweep = summary.stat(PHASE_SWEEP)
        measure = summary.stat(PHASE_MEASURE)
        assert sweep.self_s == pytest.approx(20e-6)
        assert measure.self_s == pytest.approx(80e-6)  # child included
        assert measure.count == 1  # sample_timings inherits, not introduces
        assert summary.wall_s == pytest.approx(100e-6)
        assert summary.attributed_fraction == pytest.approx(1.0)
        assert summary.stat(PHASE_OTHER) is None

    def test_unphased_root_is_other(self):
        t = _fake_clock_tracer([0, 1000])
        with t.span("loose"):
            pass
        summary = phase_summary(t.finished)
        assert summary.stat(PHASE_OTHER).self_s == pytest.approx(1e-6)
        assert summary.attributed_fraction == 0.0

    def test_folded_stacks_golden(self):
        t = _fake_clock_tracer([0, 10_000, 30_000, 40_000, 80_000, 100_000])
        with t.span("root"):
            with t.span("child"):
                with t.span("leaf"):
                    pass
        # root: 100us total - 70us child = 30us self; child: 70 - 10 = 60
        assert folded_stacks(t.finished) == (
            "root 30\n"
            "root;child 60\n"
            "root;child;leaf 10"
        )

    def test_folded_stacks_aggregate_repeated_paths(self):
        t = _fake_clock_tracer([0, 1_000, 5_000, 6_000, 9_000, 10_000])
        with t.span("root"):
            with t.span("work"):
                pass
            with t.span("work"):
                pass
        assert folded_stacks(t.finished) == (
            "root 3\n"
            "root;work 7"
        )


# ----------------------------------------------------------------------
# Profiler sessions + the no-op path
# ----------------------------------------------------------------------
class TestProfileSession:
    def test_report_attributes_and_hotspots(self):
        with ProfileSession(memory=True) as session:
            run_sweep(_configs(benchmarks=("fft",)), jobs=1)
        report = session.report(top=5)
        assert report.span_count > 0
        assert report.phases.attributed_fraction >= 0.9
        assert report.trace_id == session.tracer.trace_id
        assert len(report.hotspots) == 5
        assert "run_sweep" in report.to_folded()
        assert report.memory.peak_bytes > 0
        assert any("fft" in cell for cell, _ in report.memory.cells)
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["phase"]["attributed_fraction"] >= 0.9
        table = report.to_table()
        assert "Phases" in table and "Hotspots" in table

    def test_reuses_enabled_global_tracer(self):
        with tracing() as tracer:
            with ProfileSession() as session:
                assert session.tracer is tracer
                with get_tracer().span("inside"):
                    pass
            assert get_tracer() is tracer
        assert "inside" in [s.name for s in tracer.finished]

    def test_disabled_session_is_strict_noop(self):
        before = get_tracer()
        with ProfileSession(enabled=False) as session:
            assert get_tracer() is before
            assert get_tracer().span("x") is NOOP_SPAN
        report = session.report()
        assert report.span_count == 0
        assert report.folded == ""
        assert report.hotspots == []

    def test_disabled_instrumentation_overhead_under_5_percent(self):
        """Acceptance: the no-op path costs <5% of a tiny run."""
        config = RunConfig("fft", "tiny", "i7-6700K", samples=6,
                           execute=False, validate=False)
        # spans a traced tiny run produces
        with tracing() as tracer:
            run_benchmark(config)
        span_count = len(tracer.finished)
        assert span_count > 0
        # per-call cost of the disabled fast path
        off = Tracer(enabled=False)
        reps = 10_000
        t0 = time.perf_counter()
        for _ in range(reps):
            with off.span("x", benchmark="fft"):
                pass
        per_span = (time.perf_counter() - t0) / reps
        assert len(off.finished) == 0
        # untraced run wall time
        t0 = time.perf_counter()
        run_benchmark(config)
        wall = time.perf_counter() - t0
        assert span_count * per_span < 0.05 * wall


# ----------------------------------------------------------------------
# Bucketed histograms
# ----------------------------------------------------------------------
class TestBucketHistogram:
    def test_observe_buckets_cumulatively(self):
        reg = MetricsRegistry()
        h = reg.bucket_histogram("d_seconds", "Durations",
                                 buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        counts = h.bucket_counts()
        assert counts[0.1] == 1
        assert counts[1.0] == 3
        assert counts[10.0] == 4
        assert counts[float("inf")] == 5
        assert h.count() == 5
        assert h.sum() == pytest.approx(56.05)

    def test_validation(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.bucket_histogram("bad", buckets=())
        with pytest.raises(ValueError):
            reg.bucket_histogram("bad", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            reg.bucket_histogram("bad", buckets=(1.0, float("inf")))

    def test_exposition_is_prometheus_histogram(self):
        from tests.test_telemetry import parse_prometheus
        reg = MetricsRegistry()
        h = reg.bucket_histogram("lat_seconds", "Latency",
                                 buckets=(0.1, 1.0))
        h.observe(0.05, op="get")
        h.observe(0.5, op="get")
        families = parse_prometheus(reg.expose())
        assert families["lat_seconds"]["type"] == "histogram"
        samples = families["lat_seconds"]["samples"]
        assert samples['lat_seconds_bucket{op="get",le="0.1"}'] == 1.0
        assert samples['lat_seconds_bucket{op="get",le="1.0"}'] == 2.0
        assert samples['lat_seconds_bucket{op="get",le="+Inf"}'] == 2.0
        assert samples['lat_seconds_count{op="get"}'] == 2.0
        assert samples['lat_seconds_sum{op="get"}'] == pytest.approx(0.55)

    def test_snapshot_merge_adds_counts(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.bucket_histogram("x_seconds", buckets=(1.0,)).observe(0.5)
        b.bucket_histogram("x_seconds", buckets=(1.0,)).observe(2.0)
        a.merge_snapshot(b.snapshot())
        h = a.bucket_histogram("x_seconds", buckets=(1.0,))
        assert h.count() == 2
        assert h.bucket_counts()[1.0] == 1

    def test_merge_rejects_mismatched_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.bucket_histogram("x_seconds", buckets=(1.0,)).observe(0.5)
        b.bucket_histogram("x_seconds", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge_snapshot(b.snapshot())

    def test_runner_records_cell_durations(self):
        reg = default_registry()
        h = reg.bucket_histogram("harness_cell_duration_seconds")
        before = h.total_count
        run_benchmark(RunConfig("fft", "tiny", "i7-6700K", samples=3,
                                execute=False, validate=False))
        assert h.total_count == before + 1
        assert h.count(benchmark="fft", size="tiny") >= 1

    def test_parallel_sweep_merges_cell_durations(self):
        reg = default_registry()
        h = reg.bucket_histogram("harness_cell_duration_seconds")
        before = h.total_count
        configs = _configs(benchmarks=("fft",))
        run_sweep(configs, jobs=2)
        assert h.total_count == before + len(configs)


# ----------------------------------------------------------------------
# Cache key tagging (spans + JSONL)
# ----------------------------------------------------------------------
class TestCacheKeyTagging:
    def test_spans_and_runlog_carry_cell_key(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        configs = _configs(benchmarks=("fft",))
        runlog, buffer = memory_runlog()
        prev = set_default_runlog(runlog)
        try:
            with tracing() as tracer:
                run_sweep(configs, jobs=1, cache=cache)     # cold: compute
                run_sweep(configs, jobs=1, cache=cache)     # warm: cached
        finally:
            set_default_runlog(prev)
        records = [json.loads(l) for l in buffer.getvalue().splitlines()]
        computed = [r for r in records if r["event"] == "cell_computed"]
        cached = [r for r in records if r["event"] == "cell_cached"]
        assert len(computed) == len(configs)
        assert len(cached) == len(configs)
        keys = {r["key"] for r in computed}
        assert keys == {r["key"] for r in cached}
        assert all(len(k) == 64 for k in keys)  # SHA-256 hex
        cells = [s for s in tracer.finished if s.name == "sweep_cell"]
        assert {s.attributes["key"] for s in cells} == keys
        gets = [s for s in tracer.finished if s.name == "sweep_cache_get"]
        assert {s.attributes["phase"] for s in gets} == {"cache_io"}
        assert {s.attributes["hit"] for s in gets} == {True, False}
        puts = [s for s in tracer.finished if s.name == "sweep_cache_put"]
        assert len(puts) == len(configs)
        assert set(s.attributes["key"] for s in puts) == keys


# ----------------------------------------------------------------------
# Instrumented cost centers
# ----------------------------------------------------------------------
class TestCostCenterSpans:
    def test_cache_simulator_spans(self):
        from repro.cache.hierarchy import CacheHierarchy
        from repro.cache.tlb import TLB
        from repro.devices.catalog import get_device
        with tracing() as tracer:
            CacheHierarchy.for_device(get_device("i7-6700K")).access_many(
                range(0, 4096, 64))
            TLB().access_many(range(0, 8192, 4096))
        by_name = {s.name: s for s in tracer.finished}
        assert by_name["cache_sim_trace"].attributes["phase"] == "cache_sim"
        assert by_name["cache_sim_trace"].attributes["accesses"] == 64
        assert by_name["tlb_trace"].attributes["accesses"] == 2

    def test_absint_spans(self):
        from repro.analysis.absint import interpret_kernel
        from repro.analysis.frontend import parse_source
        src = "__kernel void k(__global float* a) { a[get_global_id(0)] = 1.0f; }"
        kernel = parse_source(src).kernels[0]
        with tracing() as tracer:
            interpret_kernel(kernel)
        span, = [s for s in tracer.finished if s.name == "absint_interpret"]
        assert span.attributes == {"phase": "absint", "kernel": "k"}


# ----------------------------------------------------------------------
# Trace summaries
# ----------------------------------------------------------------------
class TestTraceSummary:
    def test_exact_self_time_from_span_ids(self):
        t = _fake_clock_tracer([0, 10_000, 90_000, 100_000])
        with t.span("outer"):
            with t.span("inner"):
                pass
        exporter = ChromeTraceExporter()
        exporter.add_tracer(t)
        summary = summarize_trace_events(exporter.to_dict()["traceEvents"])
        assert summary.span_count == 2
        by_name = {n.name: n for n in summary.names}
        assert by_name["outer"].total_s == pytest.approx(100e-6)
        assert by_name["outer"].self_s == pytest.approx(20e-6)
        assert by_name["inner"].self_s == pytest.approx(80e-6)
        assert "2 spans" in summary.render()

    def test_x_slices_containment(self):
        events = [
            {"name": "a", "ph": "X", "ts": 0.0, "dur": 100.0,
             "pid": 1, "tid": 1},
            {"name": "b", "ph": "X", "ts": 10.0, "dur": 50.0,
             "pid": 1, "tid": 1},
        ]
        summary = summarize_trace_events(events)
        by_name = {n.name: n for n in summary.names}
        assert by_name["a"].self_s == pytest.approx(50e-6)
        assert by_name["b"].self_s == pytest.approx(50e-6)

    def test_cli_trace_summary_on_chrome_json(self, tmp_path, capsys):
        with tracing() as t:
            with t.span("run_benchmark"):
                with t.span("sample_timings"):
                    pass
        exporter = ChromeTraceExporter()
        exporter.add_tracer(t)
        path = tmp_path / "run.trace.json"
        exporter.write(path)
        assert main(["trace", str(path), "--summary", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "run_benchmark" in out
        assert "sample_timings" in out
        assert "spans/slices" in out


# ----------------------------------------------------------------------
# CLI: repro profile run|all, run --profile
# ----------------------------------------------------------------------
class TestProfileCli:
    def test_profile_all_tiny(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["profile", "all", "--size", "tiny",
                   "--device", "i7-6700K", "--samples", "6",
                   "--no-execute", "--jobs", "2", "--format", "json",
                   "-o", "profile.json"])
        assert rc == 0
        report = json.loads((tmp_path / "profile.json").read_text())
        # acceptance: >=90% of wall time attributed to named phases
        assert report["phase"]["attributed_fraction"] >= 0.9
        assert report["span_count"] > 0
        folded = (tmp_path / "profile.folded").read_text()
        assert "run_sweep" in folded
        trace = json.loads((tmp_path / "profile.trace.json").read_text())
        events = trace["traceEvents"]
        begins = [e for e in events if e.get("ph") == "b"]
        # one coherent trace: worker run_benchmark spans nest under the
        # parent sweep via parent_id args
        ids = {e["args"]["span_id"]: e for e in begins}
        bench = [e for e in begins if e["name"] == "run_benchmark"]
        assert bench, "no worker spans in merged trace"
        for e in bench:
            parent = ids[e["args"]["parent_id"]]
            assert parent["name"] == "sweep_cell"
        assert len({e["args"].get("trace_id") for e in begins}) == 1

    def test_profile_run_table(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["profile", "run", "fft", "--size", "tiny",
                   "--device", "i7-6700K", "--samples", "6",
                   "--no-execute", "--jobs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Phases" in out and "Hotspots" in out
        assert "measure" in out

    def test_run_profile_flag(self, capsys):
        rc = main(["run", "fft", "--size", "tiny", "--device", "i7-6700K",
                   "--samples", "6", "--no-execute", "--no-cache",
                   "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Phases" in out and "Hotspots" in out


# ----------------------------------------------------------------------
# Trajectory phase seeding
# ----------------------------------------------------------------------
class TestTrajectoryPhases:
    def test_point_roundtrips_phases(self):
        from repro.regress import TrajectoryPoint
        phases = {"measure": {"total_s": 1.0, "self_s": 0.9, "count": 4}}
        point = TrajectoryPoint(index=0, label="seed", phases=phases)
        again = TrajectoryPoint.from_json(point.to_json())
        assert again.phases == phases

    def test_missing_phases_load_as_none(self):
        from repro.regress import TrajectoryPoint
        point = TrajectoryPoint(index=0, label="old")
        payload = json.loads(point.to_json())
        del payload["phases"]
        again = TrajectoryPoint.from_json(json.dumps(payload))
        assert again.phases is None

    def test_regress_record_writes_phase_summary(self, tmp_path):
        rc = main(["regress", "record", "--name", "seed",
                   "--benchmark", "fft", "--size", "tiny",
                   "--device", "i7-6700K", "--samples", "6",
                   "--no-execute", "--no-cache", "--jobs", "1",
                   "--baseline-dir", str(tmp_path / "baselines"),
                   "--trajectory-dir", str(tmp_path / "trajectory"),
                   "--bench-index", "0"])
        assert rc == 0
        entry = json.loads(
            (tmp_path / "trajectory" / "BENCH_0.json").read_text())
        assert entry["phases"], "BENCH entry is missing phase timings"
        assert "measure" in entry["phases"]
        assert entry["phases"]["measure"]["self_s"] > 0
        assert entry["phases"]["measure"]["count"] == 1
