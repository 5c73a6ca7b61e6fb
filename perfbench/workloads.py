"""What each workload asks of ``repro``: the cells and benchmarks it covers.

Imported by the per-sample worker and by the reference recorder, both
of which run with ``repro`` importable.  The workload seed only orders
these lists (and draws the serve mix); the model seed stays at the
CLI default, so the stored reference digests keep applying.
"""

from __future__ import annotations

import random

from repro.devices.catalog import device_names
from repro.dwarfs import registry

from reference import MODEL_SEED, SAMPLES

#: (size, functional execution) of each sweep workload.
SWEEPS = {"sweep-exec": ("tiny", True), "sweep-model": ("medium", False)}

#: The devices a sweep pass covers: one per vendor class, with the
#: i5-3550 whose L3 the medium working sets spill (paper §5).  A pass
#: over the whole 15-device catalog would not fit the run time.
SWEEP_DEVICES = ("i5-3550", "GTX 1080", "R9 Fury X")

#: Cells of a ``--quick`` sweep pass (the self-test's minimal length).
QUICK_CELLS = 4
#: Sources of a ``--quick`` lint pass: the two cheapest.
QUICK_LINT = ("crc", "csr")

#: Sizes of the model-only cells the serve mix requests.
SERVE_SIZES = ("tiny", "small")


def matrix(size: str, devices=None) -> list[tuple[str, str, str]]:
    """The (benchmark, size, device) cells of ``run all --size SIZE``,
    on every catalog device unless ``devices`` names some."""
    return [(name, size, device)
            for name in sorted(registry.BENCHMARKS)
            if size in registry.get_benchmark(name).available_sizes()
            for device in (devices or device_names())]


def sweep_cells(workload: str, seed: int,
                quick: bool = False) -> list[tuple[str, str, str]]:
    """One sweep pass's cells in the order ``seed`` gives them."""
    size, _execute = SWEEPS[workload]
    cells = matrix(size, SWEEP_DEVICES)
    random.Random(seed).shuffle(cells)
    return cells[:QUICK_CELLS] if quick else cells


def run_config(cell: tuple[str, str, str], execute: bool):
    """The :class:`RunConfig` ``run all`` would build for ``cell``."""
    from repro.harness.runner import RunConfig

    benchmark, size, device = cell
    return RunConfig(benchmark=benchmark, size=size, device=device,
                     samples=SAMPLES, execute=execute, validate=execute,
                     seed=MODEL_SEED)


def serve_cells() -> list[tuple[str, str, str]]:
    """The pool of model-only cells the serve mix draws from."""
    return [cell for size in SERVE_SIZES for cell in matrix(size)]


def lint_benchmarks() -> list[str]:
    """The 15 sources ``run_deep_suite`` covers: paper set + extensions."""
    return [*registry.BENCHMARKS, *registry.EXTENSIONS]
