"""Wall-clock benchmark of the ``repro`` harness.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-exec --seed 1 --seconds 10 --trace 0

Workloads (why each exists: ``BENCHMARK.json``):

``sweep-exec``   ``run all --size tiny`` on three devices, executing, serial
``sweep-model``  ``run all --size medium --no-execute`` on three devices
``lint-gates``   ``lint --deep --traces --aiwc``, one source at a time
``serve-mix``    two closed-loop clients against a ``repro serve`` subprocess

Every pass runs in a fresh interpreter (or server) started from this
checkout's ``src/``, and passes repeat until ``--seconds`` have elapsed,
at least ``MIN_PASSES`` (``SERVE_SESSIONS``) times.  With ``--trace 0``
the end-to-end metrics are printed; with ``--trace 1`` one untraced and
one traced pass give the per-layer metrics (``layers.py``) and a
``python -X importtime`` probe gives the import costs.  Metric names and
units are the ones ``BENCHMARK.json`` declares.  Times other than
set-up are scaled to a reference host speed (``speed.py``).  Every
output is checked against ``perfbench/reference/``; a mismatch counts
as a failed operation and makes ``correct`` false.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it describes the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-exec", "sweep-model", "lint-gates", "serve-mix")

#: Set-up samples per end-to-end run (extra import-only probes top up).
SETUP_SAMPLES = 3
#: Fresh-process passes per end-to-end run, at least.
MIN_PASSES = {"sweep-exec": 3, "sweep-model": 3, "lint-gates": 2}
#: Server lifetimes per ``serve-mix`` run, at least.
SERVE_SESSIONS = 3
#: Closed-loop rounds per server lifetime (two submits each).
SERVE_ROUNDS = 40
#: A sample process is killed after this long.
SAMPLE_TIMEOUT_S = 150.0
#: Modules whose import cost ``import.*`` reports (``-X importtime``).
IMPORTS = {"import.repro_s": "repro", "import.scipy_stats_s": "scipy.stats",
           "import.networkx_s": "networkx", "import.numpy_s": "numpy"}
#: Per-layer metrics only ``serve-mix`` measures (zero elsewhere).
SERVICE_METRICS = ("service.p90_ms", "service.hit_p50_ms",
                   "service.miss_p50_ms", "service.wire_ms", "service.computed",
                   "service.cache_hits", "service.dedup_hits",
                   "service.refused")


def host_fingerprint() -> dict:
    """Platform, CPU model, core count and toolchain versions."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": cpu,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Sampler:
    """Starts worker processes and clocks their set-up from outside."""

    def __init__(self, env: dict, work: Path, reference: Path):
        self.env = env
        self.work = work
        self.reference = reference
        self.setups: list[float] = []
        self._count = 0

    def run(self, *args: str) -> dict | None:
        """One ``worker.py`` process; its result, or ``None`` for a probe."""
        self._count += 1
        command = [sys.executable, str(HERE / "worker.py"), *args,
                   "--reference", str(self.reference),
                   "--work-dir", str(self.work / f"sample{self._count}")]
        started = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - started
            output = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        if ready.strip() != "READY" or code != 0:
            raise RuntimeError(f"sample {' '.join(args)} failed "
                               f"(exit status {code})")
        self.setups.append(setup_s)
        if "--probe" in args:
            return None
        return json.loads(output.strip().splitlines()[-1])

    def top_up_setups(self, *args: str) -> None:
        while len(self.setups) < SETUP_SAMPLES:
            self.run(*args, "--probe")


def _end_to_end(setups: list[float], runs: list[float],
                latencies: list[float], passes: int) -> dict:
    """The end-to-end metrics; ``latencies`` cover ``passes`` passes."""
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(runs),
        "req_per_s": len(latencies) * passes / sum(runs),
        "req_p50_ms": _percentile(latencies, 50) * 1e3,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def import_costs(env: dict) -> dict:
    """What ``import repro`` spends, from ``python -X importtime``.

    ``import.repro_s`` is the whole import; the others are the self
    time of a package's own modules (the package and its submodules),
    wherever in the import tree they were first loaded.
    """
    probe = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=SAMPLE_TIMEOUT_S, check=True)
    costs = dict.fromkeys(IMPORTS, 0.0)
    for line in probe.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        self_us, cumulative_us, module = fields
        module = module.strip()
        for metric, package in IMPORTS.items():
            if package == "repro":
                if module == "repro":
                    costs[metric] = int(cumulative_us) / 1e6
            elif module == package or module.startswith(package + "."):
                costs[metric] += int(self_us) / 1e6
    return costs


def measure_worker_workload(args, sampler: Sampler) -> tuple[dict, int, list]:
    """``sweep-*`` and ``lint-gates``: fresh-process passes."""
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        base.append("--quick")
    outcomes = []
    if args.trace:
        untraced = sampler.run(*base)
        trace_dir = sampler.work / "trace"
        trace_dir.mkdir()
        traced = sampler.run(*base, "--trace-dir", str(trace_dir))
        outcomes = [untraced, traced]
        import layers

        stats = layers.merge([json.loads(p.read_text())
                              for p in trace_dir.glob("*.json")])
        metrics = layers.per_layer_metrics(stats, traced, untraced)
        metrics.update(import_costs(sampler.env))
        metrics.update(dict.fromkeys(SERVICE_METRICS, 0.0))
    else:
        started = time.perf_counter()
        minimum = 1 if args.quick else MIN_PASSES[args.workload]
        while (len(outcomes) < minimum
               or time.perf_counter() - started < args.seconds):
            outcomes.append(sampler.run(*base))
        sampler.top_up_setups(*base)
        metrics = None
        print(json.dumps({"setups_s": sampler.setups,
                          "passes": [{k: o[k] for k in
                                      ("run_s", "wall_s", "noisy_probes",
                                       "latencies_s")}
                                     for o in outcomes]}), file=sys.stderr)
    attempted = sum(o["attempted"] for o in outcomes)
    failures = [f for o in outcomes for f in o["failures"]]
    if metrics is None:
        # every pass runs the same units in the same order: each unit's
        # latency is its median over the passes
        per_unit = [statistics.median(unit) for unit in
                    zip(*(o["latencies_s"] for o in outcomes))]
        return (_end_to_end(sampler.setups, [o["run_s"] for o in outcomes],
                            per_unit, len(outcomes)),
                attempted, failures)
    return metrics, attempted, failures


def service_metrics(sessions: list[dict]) -> dict:
    """Client-side split of raw latency, plus the service's counters."""
    hits = [raw for s in sessions
            for _, raw, cached in s["samples"].values() if cached]
    misses = [raw for s in sessions
              for _, raw, cached in s["samples"].values() if not cached]
    latencies = hits + misses
    counters = {k: sum(s["counters"][k] for s in sessions)
                for k in sessions[0]["counters"]}
    server_mean = (counters["server_latency_sum_s"]
                   / max(counters["server_latency_count"], 1))
    return {
        "service.p90_ms": (_percentile(latencies, 90) * 1e3
                           if latencies else 0.0),
        "service.hit_p50_ms": _percentile(hits, 50) * 1e3 if hits else 0.0,
        "service.miss_p50_ms": (_percentile(misses, 50) * 1e3
                                if misses else 0.0),
        "service.wire_ms": ((statistics.fmean(latencies) - server_mean) * 1e3
                            if latencies else 0.0),
        "service.computed": counters["computed"],
        "service.cache_hits": counters["cache_hits"],
        "service.dedup_hits": counters["dedup_hits"],
        "service.refused": sum(
            1 for s in sessions for f in s["failures"] if "refused" in f),
    }


def measure_serve_mix(args, env: dict, work: Path,
                      cells_ref: dict) -> tuple[dict, int, list]:
    """``serve-mix``: server lifetimes driven by the closed loop."""
    import layers
    import serve_mix

    rounds = 6 if args.quick else SERVE_ROUNDS
    sessions = []

    def session(trace_dir=None) -> dict:
        index = len(sessions)
        outcome = serve_mix.run_session(
            ROOT, env, work / f"session{index}", args.seed,
            rounds, cells_ref, trace_dir)
        sessions.append(outcome)
        return outcome

    if args.trace:
        untraced = session()
        trace_dir = work / "trace"
        trace_dir.mkdir()
        traced = session(trace_dir)
        stats = layers.merge([json.loads(p.read_text())
                              for p in trace_dir.glob("*.json")])
        metrics = layers.per_layer_metrics(stats, traced, untraced)
        metrics.update(service_metrics(sessions))
        metrics.update(import_costs(env))
    else:
        started = time.perf_counter()
        minimum = 1 if args.quick else SERVE_SESSIONS
        while (len(sessions) < minimum
               or time.perf_counter() - started < args.seconds):
            session()
        # every session replays the seed's plan: each request's latency
        # is its median over the sessions
        requests = {key for s in sessions for key in s["samples"]}
        per_request = [statistics.median(s["samples"][key][0]
                                         for s in sessions
                                         if key in s["samples"])
                       for key in sorted(requests)]
        metrics = _end_to_end(
            [s["setup_s"] for s in sessions], [s["run_s"] for s in sessions],
            per_request, len(sessions))
        print(json.dumps({"sessions": [{k: s[k] for k in
                                        ("setup_s", "run_s", "wall_s",
                                         "noisy_probes")}
                                       for s in sessions]}), file=sys.stderr)
    attempted = sum(s["attempted"] for s in sessions)
    failures = [f for s in sessions for f in s["failures"]]
    return metrics, attempted, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock benchmark of the repro harness.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a minimal pass over a few cells (self-test)")
    parser.add_argument("--reference", type=Path,
                        default=HERE / "reference",
                        help="directory of reference digests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {src}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [env.get("PYTHONPATH")])])

    cells_ref, _ = reference.load(args.reference)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "serve-mix":
            metrics, attempted, failures = measure_serve_mix(
                args, env, work, cells_ref)
        else:
            metrics, attempted, failures = measure_worker_workload(
                args, Sampler(env, work, args.reference))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(metrics[m["name"]]),
                           "unit": m["unit"]} for m in section}
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"host": host_fingerprint()}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
