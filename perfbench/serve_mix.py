"""The ``serve-mix`` load: a closed loop of two clients against ``repro serve``.

Each session starts a real server subprocess with a fresh cache
directory and at most ``nproc`` pool workers, clocks its set-up from
spawn until the port file holds the bound port, then drives it from
two client threads, one connection each.  The threads move in rounds
(a barrier at the start of each): in a round each client submits one
model-only cell and waits for its result before the next round.  The
seeded plan mixes three kinds of submit:

* **fresh** — a cell not yet requested in this session: computed by a
  pool worker and written to the cache;
* **repeat** — a cell finished in an earlier round: a cache read;
* **pair** — both clients submit the same fresh cell at once: one
  computation, the second submit joins it (in-flight dedup).

Latency is clocked on the client, from sending ``submit`` to receiving
``result``.  The round barrier's action takes a speed probe while both
clients wait and the server is idle (``speed.py``); a round's latencies
are scaled by the probes on either side of it, and the probes are left
out of the session's ``run_s``.  A refused, failed or mismatching
request is a failure and has no latency.  The session ends with a
``metrics`` request (the service counters) and a ``shutdown``; a server
that does not then exit with status 0 is a failure too.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

# The mix is synthetic: there is no recorded ``repro serve`` traffic to
# copy, so the shares serve the measurement, not realism.  At 40 rounds
# they give a session 46 computed cells, 26 cache reads and 8 dedup
# joins among its 80 submits, so every path has at least 24 samples over
# a run's three sessions.  Cache reads stay under half of the submits,
# which keeps the median latency inside the computed cells' latencies
# instead of on the step between fast hits and slow misses.

#: Share of rounds in which both clients submit the same fresh cell.
PAIR_SHARE = 0.2
#: Share of the other rounds' submits that repeat a finished cell.
REPEAT_SHARE = 0.4

CLIENTS = 2
#: Longest a client waits for the other at a round's start.
BARRIER_TIMEOUT_S = 60.0


def plan_session(seed: int, rounds: int, pool: list) -> list[list]:
    """Per round, the cell each client submits.

    The shares of pairs and repeats are exact, not drawn, so every seed
    puts the same mix to the server; the seed picks the cells and the
    rounds each kind falls in.  The first round is a pair, so a repeat
    always has a finished cell to repeat.  Fresh cells are dealt round
    robin over the pool's (benchmark, size) groups, so every seed
    computes nearly the same kinds of cell and the session's cost does
    not hang on which ones it drew.
    """
    rng = random.Random(seed)
    groups: dict[tuple, list] = {}
    for cell in pool:
        groups.setdefault(cell[:2], []).append(cell)
    decks = list(groups.values())
    for deck in decks:
        rng.shuffle(deck)
    rng.shuffle(decks)
    dealt = [deck[i] for i in range(max(map(len, decks)))
             for deck in decks if i < len(deck)]
    fresh = dealt[::-1]  # popped from the end
    pairs = round(rounds * PAIR_SHARE)
    kinds = ["pair"] * (pairs - 1) + ["solo"] * (rounds - pairs)
    rng.shuffle(kinds)
    solo_picks = (rounds - pairs) * CLIENTS
    repeats = round(solo_picks * REPEAT_SHARE)
    repeat = [True] * repeats + [False] * (solo_picks - repeats)
    rng.shuffle(repeat)
    finished: list = []
    plan = []
    for kind in ["pair", *kinds]:
        if kind == "pair":
            picks = [fresh.pop()] * CLIENTS
        else:
            picks = [rng.choice(finished) if repeat.pop() else fresh.pop()
                     for _ in range(CLIENTS)]
        plan.append(picks)
        for cell in picks:
            if cell not in finished:
                finished.append(cell)
    return plan


def _metric(text: str, name: str) -> float:
    """Sum of every sample of one metric family in a Prometheus page."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and line[len(name):len(name) + 1] in " {":
            total += float(line.rsplit(" ", 1)[1])
    return total


def _wait_for_port(path: Path, proc: subprocess.Popen,
                   timeout_s: float) -> int:
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited early ({proc.returncode})")
        try:
            return int(path.read_text())
        except (FileNotFoundError, ValueError):
            time.sleep(0.002)
    raise RuntimeError("server did not publish its port in time")


def run_session(root: Path, env: dict, work: Path, seed: int, rounds: int,
                cells_ref: dict, trace_dir: Path | None = None) -> dict:
    """One server lifetime under the mix; returns its measurements."""
    from workloads import serve_cells

    work.mkdir(parents=True)
    port_file = work / "port"
    serve_args = ["--port", "0", "--port-file", str(port_file),
                  "--cache-dir", str(work / "cache"),
                  "--jobs", str(min(CLIENTS, os.cpu_count() or 1))]
    if trace_dir is None:
        command = [sys.executable, "-m", "repro", "serve", *serve_args]
    else:
        command = [sys.executable, str(root / "perfbench" / "worker.py"),
                   "--trace-dir", str(trace_dir), "--serve", *serve_args]
    plan = plan_session(seed, rounds, serve_cells())

    with open(work / "server.log", "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(command, cwd=root, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            port = _wait_for_port(port_file, proc, timeout_s=60.0)
            setup_s = time.perf_counter() - started
            outcome = _drive(port, proc.pid, plan, cells_ref)
            outcome["setup_s"] = setup_s
            try:
                outcome["exit_code"] = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                outcome["exit_code"] = "none: still running 60 s later"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if outcome["exit_code"] != 0:
        outcome["failures"].append(
            f"server exit status {outcome['exit_code']} after shutdown: "
            + (work / "server.log").read_text(errors="replace")[-2000:])
    outcome["attempted"] += 1  # the shutdown itself
    return outcome


def _drive(port: int, server_pid: int, plan: list, cells_ref: dict) -> dict:
    """Run the rounds from two threads; then metrics and shutdown."""
    from repro.service.client import ServiceClient, ServiceError

    from reference import cell_digest

    clock = speed.ScaledClock(server_pid)
    stretches: list[tuple[float, float]] = []
    barrier = threading.Barrier(
        CLIENTS, action=lambda: stretches.append(clock.split()))
    lock = threading.Lock()
    timed: list[tuple[int, int, float, bool]] = []
    failures: list[str] = []
    clients = [ServiceClient("127.0.0.1", port) for _ in range(CLIENTS)]

    def client_loop(index: int) -> None:
        client = clients[index]
        for round_index, picks in enumerate(plan):
            benchmark, size, device = picks[index]
            try:
                barrier.wait(timeout=BARRIER_TIMEOUT_S)
            except threading.BrokenBarrierError:
                with lock:
                    failures.append("the other client stopped")
                return
            began = time.perf_counter()
            try:
                ack = client.submit(benchmark, size, device)
                if ack["type"] == "rejected":
                    raise ServiceError(f"refused: {ack.get('error')}")
                record = client.results(1)[0]
            except (ServiceError, OSError) as exc:
                with lock:
                    failures.append(f"{benchmark}/{size}/{device}: {exc}")
                continue
            latency = time.perf_counter() - began
            ok = (record["status"] == "done"
                  and cell_digest(record["result"])
                  == cells_ref.get(record["key"]))
            with lock:
                if ok:
                    timed.append((round_index, index, latency,
                                  bool(record["cached"])))
                else:
                    failures.append(f"{benchmark}/{size}/{device}: "
                                    "served output differs")

    threads = [threading.Thread(target=client_loop, args=(i,))
               for i in range(CLIENTS)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stretches.append(clock.split())
        text = clients[0].metrics_text()
        clients[0].shutdown()
    finally:
        barrier.abort()
        for client in clients:
            client.close()
    # stretch 0 ends at the first barrier; stretch r + 1 is round r
    return {
        "run_s": sum(raw * factor for raw, factor in stretches),
        "wall_s": sum(raw for raw, _ in stretches),
        "noisy_probes": clock.noisy_probes,
        # (round, client) -> (scaled latency, raw latency, cached)
        "samples": {(r, c): (latency * stretches[r + 1][1], latency, cached)
                    for r, c, latency, cached in timed},
        "failures": failures,
        "attempted": sum(len(picks) for picks in plan),
        "counters": {
            "computed": _metric(text, "sweep_cells_computed_total"),
            "cache_hits": _metric(text, "service_cache_hits_total"),
            "dedup_hits": _metric(text, "service_dedup_hits_total"),
            "server_latency_sum_s": _metric(
                text, "service_cell_latency_seconds_sum"),
            "server_latency_count": _metric(
                text, "service_cell_latency_seconds_count"),
        },
    }
