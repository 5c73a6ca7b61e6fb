"""Per-layer attribution for a traced benchmark pass, installed from outside.

:func:`install` wraps public functions of ``repro``'s modules at their
layer boundaries, so no file under ``src/`` changes.  Where a layer is
reached through a name another module imported (``from .absint import
sym_eval``), the name is replaced in the *caller's* namespace: calls
that cross the boundary are counted, while recursion inside the callee
still binds to the unwrapped original.

Every wrapper records inclusive time and call count.  A thread-local
stack of child time gives self time (``runner.cell_self_s``), and a
per-group depth counter gives each layer group's wall time counted at
its outermost entry, which is what the ``share.*`` metrics divide by
the traced pass's run time.

Statistics live in one :class:`Layers` object per process.  A process
pool forked after :func:`install` gets its own copy in each worker,
which :func:`install` arranges to dump as JSON when the worker exits;
:func:`merge` adds the dumps together.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import Counter
from pathlib import Path


class Layers:
    """Counters for one process: time, self time, calls, group time."""

    def __init__(self) -> None:
        self.tls = threading.local()
        self.lock = threading.Lock()
        self.totals: Counter = Counter()
        self.keys: dict[str, set] = {}

    def add(self, name: str, value: float) -> None:
        with self.lock:
            self.totals[name] += value

    def mark(self, name: str, key) -> None:
        """Remember a distinct input key (for the ``*_unique_ratio``s)."""
        with self.lock:
            self.keys.setdefault(name, set()).add(key)

    def wrap(self, fn, name: str, group: str | None = None, on_result=None):
        """Time ``fn`` as ``<name>_s`` / ``<name>_self_s`` / ``<name>_calls``."""
        tls = self.tls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
                tls.depth = Counter()
            outer = group is not None and tls.depth[group] == 0
            if group is not None:
                tls.depth[group] += 1
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                if group is not None:
                    tls.depth[group] -= 1
                with self.lock:
                    self.totals[name + "_s"] += elapsed
                    self.totals[name + "_self_s"] += elapsed - child
                    self.totals[name + "_calls"] += 1
                    if outer:
                        self.totals["group." + group + "_s"] += elapsed
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def to_dict(self) -> dict:
        with self.lock:
            return {"totals": dict(self.totals),
                    "keys": {k: sorted(map(repr, v))
                             for k, v in self.keys.items()}}


def _patch(owner, attr: str, layers: Layers, name: str,
           group: str | None = None, on_result=None) -> None:
    original = getattr(owner, attr)
    if getattr(original, "__wrapped_by_perfbench__", False):
        return
    setattr(owner, attr, layers.wrap(original, name, group, on_result))


def install(layers: Layers, dump_dir: Path | None = None) -> None:
    """Wrap every layer boundary of ``repro``; optionally dump on exit.

    With ``dump_dir``, each process forked from this one after the call
    (the service's worker pool) writes its own statistics to
    ``dump_dir/<pid>.json`` when it exits.
    """
    from importlib import import_module

    from repro.cache.branch import BranchPredictor
    from repro.cache.hierarchy import CacheHierarchy
    from repro.cache.tlb import TLB
    from repro.dwarfs import registry
    from repro.dwarfs.base import Benchmark

    # by module path: some package attributes shadow their submodules
    (analysis_pkg, frontend, cfg, absint_mod, accessmodel, staticaiwc, deep,
     artifacts, runner, sweep) = (import_module(f"repro.{name}") for name in (
         "analysis", "analysis.frontend", "analysis.cfg", "analysis.absint",
         "analysis.accessmodel", "analysis.staticaiwc", "analysis.deep",
         "harness.artifacts", "harness.runner", "harness.sweep"))

    # dwarfs + ocl: the benchmark life cycle, on every class defining it
    classes = {Benchmark}
    for cls in [*registry.BENCHMARKS.values(), *registry.EXTENSIONS.values()]:
        classes.update(c for c in cls.__mro__ if issubclass(c, Benchmark))
    lifecycle = {"host_setup": ("dwarfs.exec", "dwarfs"),
                 "run_iteration": ("dwarfs.run", "dwarfs"),
                 "validate": ("dwarfs.validate", "dwarfs"),
                 "transfer_inputs": ("ocl.transfer", "ocl"),
                 "collect_results": ("ocl.transfer", "ocl")}

    def shape(args, _kwargs, _result):
        bench = args[0]
        layers.mark("dwarfs.shapes",
                    getattr(bench, "_perfbench_shape", type(bench).__name__))

    for cls in classes:
        for attr, (name, group) in lifecycle.items():
            if attr in cls.__dict__:
                _patch(cls, attr, layers, name, group,
                       shape if attr == "run_iteration" else None)

    from_size = Benchmark.from_size.__func__

    def tagged_from_size(cls, size, **overrides):
        bench = from_size(cls, size, **overrides)
        bench._perfbench_shape = (cls.name, size)
        return bench

    Benchmark.from_size = classmethod(tagged_from_size)

    # perfmodel, as the runner calls it
    _patch(runner, "iteration_time", layers, "perfmodel.model", "perfmodel")
    _patch(runner, "noisy_samples", layers, "perfmodel.model", "perfmodel")

    # cache simulators
    def addresses(args, _kwargs, _result):
        layers.add("cache.addresses", len(args[1]))

    _patch(CacheHierarchy, "access_many", layers, "cache.hierarchy", "cache",
           addresses)
    _patch(TLB, "access_many", layers, "cache.tlb", "cache")
    _patch(BranchPredictor, "run_trace", layers, "cache.branch", "cache")

    # harness: artifact memo, sweep cache, the per-cell runner
    _patch(artifacts, "get_cell_artifacts", layers, "artifacts.get")
    _patch(artifacts, "_compute", layers, "artifacts.compute")

    def cache_get(_args, _kwargs, result):
        layers.add("sweep.cache_hits", result is not None)

    _patch(sweep.SweepCache, "get", layers, "sweep.cache_get", None, cache_get)
    _patch(sweep.SweepCache, "put", layers, "sweep.cache_put")
    _patch(sweep, "run_benchmark", layers, "runner.cell")

    # analysis: frontend, cfg, absint (entered from the IR stages above
    # it), access model, static AIWC, the shallow suite
    def source(args, kwargs, _result):
        text = args[0] if args else kwargs.get("source", "")
        layers.mark("frontend.sources", hash(text))

    for module in (frontend, absint_mod, staticaiwc, accessmodel, deep,
                   analysis_pkg):
        _patch(module, "parse_source", layers, "frontend.parse", None, source)
    _patch(cfg, "build_cfg", layers, "cfg.build")
    for module in (staticaiwc, accessmodel):
        _patch(module, "interpret_kernel", layers, "absint.interpret",
               "analysis")
        _patch(module, "sym_eval", layers, "absint.symeval", "analysis")
    _patch(accessmodel, "synthesize_trace", layers, "accessmodel.synth",
           "analysis")
    _patch(deep, "compare_benchmark_traces", layers, "accessmodel.compare",
           "analysis")
    _patch(staticaiwc, "characterize_model", layers,
           "staticaiwc.characterize", "analysis")
    _patch(deep, "run_suite", layers, "suite.shallow")

    if dump_dir is not None:
        import multiprocessing.util as mputil

        def in_child(_obj) -> None:
            # the fork copied the parent's counts: start the child at zero
            layers.totals.clear()
            layers.keys.clear()
            mputil.Finalize(layers, dump, args=(layers, dump_dir),
                            exitpriority=100)

        mputil.register_after_fork(layers, in_child)


def dump(layers: Layers, dump_dir: Path) -> None:
    """Write this process's statistics to ``dump_dir/<pid>.json``."""
    path = Path(dump_dir) / f"{os.getpid()}.json"
    path.write_text(json.dumps(layers.to_dict()))


def merge(dumps: list[dict]) -> dict:
    """Sum several processes' :meth:`Layers.to_dict` outputs."""
    totals: Counter = Counter()
    keys: dict[str, set] = {}
    for item in dumps:
        totals.update(item["totals"])
        for name, values in item["keys"].items():
            keys.setdefault(name, set()).update(values)
    return {"totals": dict(totals),
            "keys": {k: sorted(v) for k, v in keys.items()}}


def per_layer_metrics(stats: dict, traced: dict,
                      untraced: dict) -> dict[str, float]:
    """The ``per_layer`` metric values from merged layer statistics.

    ``traced`` and ``untraced`` are the two passes' timings: ``wall_s``
    raw (what the layer times, also raw, are shares of) and ``run_s``
    scaled to the reference host speed.
    """
    t = Counter(stats["totals"])
    keys = stats["keys"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    run_calls = t["dwarfs.run_calls"]
    cache_s = t["cache.hierarchy_s"]
    return {
        "dwarfs.exec_s": t["dwarfs.exec_s"] + t["dwarfs.run_s"],
        "dwarfs.validate_s": t["dwarfs.validate_s"],
        "dwarfs.exec_calls": run_calls,
        "dwarfs.exec_unique_ratio": ratio(
            len(keys.get("dwarfs.shapes", ())), run_calls),
        "ocl.transfer_s": t["ocl.transfer_s"],
        "perfmodel.model_s": t["perfmodel.model_s"],
        "perfmodel.calls": t["perfmodel.model_calls"],
        "cache.hierarchy_s": cache_s,
        "cache.tlb_s": t["cache.tlb_s"],
        "cache.branch_s": t["cache.branch_s"],
        "cache.addresses": t["cache.addresses"],
        "cache.maddr_per_s": ratio(t["cache.addresses"] / 1e6, cache_s),
        "artifacts.get_s": t["artifacts.get_s"],
        "artifacts.calls": t["artifacts.get_calls"],
        "artifacts.hit_ratio": ratio(
            t["artifacts.get_calls"] - t["artifacts.compute_calls"],
            t["artifacts.get_calls"]),
        "sweep.cache_get_s": t["sweep.cache_get_s"],
        "sweep.cache_put_s": t["sweep.cache_put_s"],
        "sweep.cache_hit_ratio": ratio(t["sweep.cache_hits"],
                                       t["sweep.cache_get_calls"]),
        "runner.cell_self_s": t["runner.cell_self_s"],
        "runner.cells": t["runner.cell_calls"],
        "frontend.parse_s": t["frontend.parse_s"],
        "frontend.parse_calls": t["frontend.parse_calls"],
        "frontend.parse_unique_ratio": ratio(
            len(keys.get("frontend.sources", ())), t["frontend.parse_calls"]),
        "cfg.build_s": t["cfg.build_s"],
        "absint.interpret_s": t["absint.interpret_s"],
        "absint.interpret_calls": t["absint.interpret_calls"],
        "absint.symeval_s": t["absint.symeval_s"],
        "absint.symeval_calls": t["absint.symeval_calls"],
        "accessmodel.synth_s": t["accessmodel.synth_s"],
        "accessmodel.compare_s": t["accessmodel.compare_s"],
        "staticaiwc.characterize_s": t["staticaiwc.characterize_s"],
        "suite.shallow_s": t["suite.shallow_s"],
        "share.dwarfs": ratio(t["group.dwarfs_s"], traced["wall_s"]),
        "share.cache": ratio(t["group.cache_s"], traced["wall_s"]),
        "share.analysis": ratio(t["group.analysis_s"], traced["wall_s"]),
        "telemetry.traced_run_s": traced["run_s"],
        "telemetry.trace_overhead_s": traced["run_s"] - untraced["run_s"],
    }
