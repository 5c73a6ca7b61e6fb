"""Functional execution per shape, timing per device.

``run_benchmark`` executes and validates each (benchmark, size) once,
memoizes the resulting command log, and prices that log on every
device.  These tests pin that the memo is invisible in the outputs: the
same payloads cold or warm, serial or pooled, the same events and
``ocl_*`` counts as a live run on one device, the same allocation
failures, and validation failures that still raise on every cell.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.devices import get_device
from repro.dwarfs import registry
from repro.dwarfs.base import ValidationError
from repro.harness import artifacts, runner
from repro.harness.runner import RunConfig, cell_seed, run_benchmark
from repro.harness.sweep import result_to_payload, run_sweep
from repro.ocl import (
    CommandQueue,
    Context,
    Device,
    MemObjectAllocationFailure,
    OutOfResources,
    find_device,
)
from repro.perfmodel import iteration_time
from repro.scibench.recorder import REGION_KERNEL, REGION_TRANSFER, Recorder
from repro.telemetry import Span, default_registry, tracing

DEVICES = ("i5-3550", "GTX 1080", "R9 Fury X")
TINY = sorted(name for name, cls in registry.BENCHMARKS.items()
              if "tiny" in cls.available_sizes())


@pytest.fixture(autouse=True)
def cold_memos():
    runner.clear_memo()
    artifacts.clear_memo()
    yield
    runner.clear_memo()


def _configs(names=TINY, devices=DEVICES, samples=5):
    return [RunConfig(name, "tiny", device, samples=samples)
            for name in names for device in devices]


def _payloads(results) -> list[str]:
    return [json.dumps(result_to_payload(r), sort_keys=True)
            for r in results]


def _live(benchmark: str, size: str, device: str, seed: int = 12345):
    """One cell's life cycle on a real device queue, the pre-memo way.

    Returns the recorder and the executed (torn-down) instance.
    """
    spec = get_device(device)
    bench = registry.get_benchmark(benchmark).from_size(size)
    rng = np.random.default_rng(cell_seed(seed, benchmark, size, spec.name))
    queue = CommandQueue(Context(find_device(spec.name)), rng=rng)
    recorder = Recorder()
    bench.host_setup(queue.context)
    for region, phase in ((REGION_TRANSFER, bench.transfer_inputs),
                          (REGION_KERNEL, bench.run_iteration),
                          (REGION_TRANSFER, bench.collect_results)):
        for event in phase(queue):
            recorder.record_event(region, event)
    bench.validate()
    bench.teardown()
    return recorder, bench


def _measurements(recorder: Recorder) -> list:
    return [(m.region, m.time_s, m.energy_j, m.tags)
            for m in recorder._measurements if not m.tags.get("sampled")]


def _ocl_counts() -> dict:
    family = default_registry().counter("ocl_commands_enqueued_total")
    return dict(family._values)


class TestPayloadIdentity:
    def test_cold_and_warm_memo_agree(self):
        configs = _configs()
        cold = _payloads(run_benchmark(c) for c in configs)
        warm = _payloads(run_benchmark(c) for c in configs)
        assert cold == warm

    def test_serial_and_pooled_agree(self):
        configs = _configs()
        serial = _payloads(run_sweep(configs, jobs=1).results)
        runner.clear_memo()
        pooled = _payloads(run_sweep(configs, jobs=2).results)
        assert serial == pooled

    @pytest.mark.parametrize("name", TINY)
    def test_events_and_model_match_a_live_run(self, name):
        for device in DEVICES:
            result = run_benchmark(RunConfig(name, "tiny", device, samples=3))
            recorder, bench = _live(name, "tiny", device)
            assert result.validated
            assert (_measurements(result.recorder)
                    == _measurements(recorder))
            # profiles of the executed instance (csr's depend on its
            # generated matrix), not of a fresh one
            assert result.breakdown == iteration_time(get_device(device),
                                                      bench.profiles())
            assert result.footprint_bytes == bench.footprint_bytes()


class TestExecutesOncePerShape:
    def test_host_setup_runs_once_per_benchmark_and_size(self, monkeypatch):
        cls = registry.get_benchmark("fft")
        calls = []
        original = cls.host_setup

        def counting(self, context):
            calls.append(self.n)
            return original(self, context)

        monkeypatch.setattr(cls, "host_setup", counting)
        for size in ("tiny", "small"):
            for device in DEVICES:
                run_benchmark(RunConfig("fft", size, device, samples=3))
        assert len(calls) == 2

    def test_ocl_counts_match_a_live_run(self):
        config = RunConfig("kmeans", "tiny", "GTX 1080", samples=3)
        run_benchmark(RunConfig("kmeans", "tiny", "i5-3550", samples=3))
        default_registry().reset()
        run_benchmark(config)  # a memo hit, replayed on the GTX 1080
        replayed = _ocl_counts()
        default_registry().reset()
        _live("kmeans", "tiny", "GTX 1080")
        assert replayed == _ocl_counts()
        assert replayed  # commands were counted at all

    def test_functional_pass_enqueues_no_phantom_commands(self):
        default_registry().reset()
        run_benchmark(RunConfig("crc", "tiny", "GTX 1080", samples=3))
        cold = _ocl_counts()
        default_registry().reset()
        run_benchmark(RunConfig("crc", "tiny", "GTX 1080", samples=3))
        assert cold == _ocl_counts()

    def test_memo_counters_and_span_shape(self):
        config = RunConfig("fft", "tiny", "GTX 1080", samples=3)
        registry_ = default_registry()
        registry_.reset()
        with tracing() as cold:
            run_benchmark(config)
        with tracing() as warm:
            run_benchmark(config)
        hits = registry_.counter("harness_memo_hits_total")
        misses = registry_.counter("harness_memo_misses_total")
        assert misses.value(memo="functional") == 1
        assert hits.value(memo="functional") == 1
        assert misses.value(memo="artifacts") == 1
        assert hits.value(memo="artifacts") == 1

        def shape(spans: list[Span]) -> list[str]:
            return sorted(s.name for s in spans)

        assert shape(cold.finished) == shape(warm.finished)
        exec_cold, = [s for s in cold.finished if s.name == "functional_exec"]
        exec_warm, = [s for s in warm.finished if s.name == "functional_exec"]
        assert exec_cold.attributes["hit"] is False
        assert exec_warm.attributes["hit"] is True
        assert {"host_setup_s", "run_iteration_s",
                "validate_s"} <= set(exec_cold.attributes)


@dataclasses.dataclass(frozen=True)
class _LimitedDevice(Device):
    """A catalog device with a different global-memory size."""

    limit: int = 0

    @property
    def global_mem_size(self) -> int:
        return self.limit


class TestReplayAppliesDeviceLimits:
    def _allocations(self) -> list[int]:
        run_benchmark(RunConfig("srad", "tiny", "GTX 1080", samples=3))
        record, = runner._memo.values()
        return [step[1] for step in record.steps if step[0] == "alloc"]

    def _limited(self, limit: int) -> Device:
        return _LimitedDevice(spec=get_device("GTX 1080"), limit=limit)

    @pytest.mark.parametrize("kind", ["single", "total"])
    def test_undersized_device_fails_like_a_live_run(self, kind, monkeypatch):
        sizes = self._allocations()
        assert len(sizes) > 1
        if kind == "single":
            limit, error = max(sizes) - 1, MemObjectAllocationFailure
        else:
            limit, error = sum(sizes) - 1, OutOfResources
        device = self._limited(limit)
        # live: host setup on the undersized device
        bench = registry.get_benchmark("srad").from_size("tiny")
        with pytest.raises(error):
            bench.host_setup(Context(device))
        monkeypatch.setattr(runner, "find_device", lambda name: device)
        config = RunConfig("srad", "tiny", "GTX 1080", samples=3)
        with pytest.raises(error):
            run_benchmark(config)  # warm memo: the replay fails
        runner.clear_memo()
        with pytest.raises(error):
            run_benchmark(config)  # cold memo: the functional pass fails
        assert not runner._memo  # failures are not memoized


class TestValidationFailures:
    def test_raises_and_counts_on_every_cell(self, monkeypatch):
        base = registry.get_benchmark("fft")
        run_benchmark(RunConfig("fft", "tiny", DEVICES[0], samples=3))

        class BrokenFFT(base):
            def validate(self):
                raise ValidationError("forced failure")

        monkeypatch.setitem(registry.BENCHMARKS, "fft", BrokenFFT)
        failures = default_registry().counter(
            "harness_validation_failures_total")
        before = failures.value(benchmark="fft")
        for device in DEVICES:
            with pytest.raises(ValidationError, match="forced failure"):
                run_benchmark(RunConfig("fft", "tiny", device, samples=3))
        assert failures.value(benchmark="fft") - before == len(DEVICES)

    def test_failed_cell_still_counts_its_commands(self, monkeypatch):
        base = registry.get_benchmark("crc")

        class BrokenCRC(base):
            def validate(self):
                raise ValidationError("forced failure")

        default_registry().reset()
        _live("crc", "tiny", "GTX 1080")
        live = _ocl_counts()
        monkeypatch.setitem(registry.BENCHMARKS, "crc", BrokenCRC)
        default_registry().reset()
        with pytest.raises(ValidationError):
            run_benchmark(RunConfig("crc", "tiny", "GTX 1080", samples=3))
        assert _ocl_counts() == live
