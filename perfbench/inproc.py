"""The ``service-unique`` and ``service-hot`` workloads: the server's
per-request path, driven in one process.

Each request is what ``repro serve`` does with one solve line, minus the
socket and the worker pool: ``parse_request``, ``decode_hypergraph`` of
both sides, ``EngineService.submit`` on a store-backed service, and
``response_to_json`` plus the JSON encoding of the answer line.  The
service runs with ``n_jobs=1``, so a miss is solved inline.  One caller,
closed loop: every request is timed from the call that parses its line
to the encoded answer.

The requests are the serve mix of :mod:`serve`, pre-encoded as wire
lines before each batch, and every answer is checked after its batch
exactly as the TCP answers are (:func:`serve.check_phase`).

Why not over TCP: on a 2-vCPU host every served request crosses four to
six process wake-ups (load generator, server, pool worker, and back),
and on a shared host each wake-up waits for the hypervisor.  Sets of
runs of the TCP workloads spread (IQR over median) 0.2-0.5 on latency
and throughput, and more than 1 on p50 and p99, while the host's steal
time moved between 4 % and 19 %, so they could not hold a 0.25 bound;
these in-process workloads spread 0.03-0.09 in the same hours.  The
socket, the event loop and the pool hop are measured in the traced run
instead (``net.*``, ``service.pool.*``).
"""

from __future__ import annotations

import glob
import json
import os
import random
import sys
import time

from common import (
    MIN_P99_SAMPLES,
    Labeller,
    median,
    p99_checked,
    percentile,
    timed_launch,
    tree_peak_rss_mb,
)
from serve import (
    HOT_CACHE_MAX,
    HOT_SET,
    Traffic,
    cache_delta,
    lru_share,
    origins,
    check_phase,
    encode_body,
    identity_problems,
    request_line,
)

#: The engine ``repro serve`` uses when a request names none.
METHOD = "fk-b"
SETUP_LAUNCHES = 9
#: Timed requests one service-unique store takes before a fresh store
#: replaces it.  Every store miss replays the whole verdict journal
#: (``VerdictStore.get_entry``), so a miss costs time linear in the puts
#: since the store was opened; fixed-size store lives make every run
#: measure the same growth, whatever the host's speed.
UNIQUE_PER_STORE = 130
#: Untimed requests before the timed ones of each store.
UNIQUE_WARM = 20
#: Timed requests per service-hot batch (one throughput and CPU sample).
HOT_BATCH = 1000
#: A run that cannot collect its p99 sample in this time fails.
GIVE_UP_S = 150.0

#: A fresh interpreter: imports, store open, one trivial request.
SETUP_SNIPPET = (
    "import json, sys\n"
    "from repro.net.protocol import decode_hypergraph, parse_request\n"
    "from repro.service import EngineService, response_to_json\n"
    "request = parse_request(sys.argv[1].encode())\n"
    f"with EngineService(method={METHOD!r}, n_jobs=1, store=sys.argv[2]) as service:\n"
    "    ticket = service.submit(\n"
    "        (decode_hypergraph(request['g']), decode_hypergraph(request['h'])),\n"
    "        collect=False,\n"
    "    )\n"
    "    assert json.dumps(response_to_json(ticket.result()))\n"
    "    assert ticket.result().is_dual\n"
)


def _remove_store(path: str) -> None:
    for name in glob.glob(path + "*"):
        os.remove(name)


def measure_setup(workdir: str, labeller: Labeller) -> float:
    """Median seconds from launching a fresh interpreter until it has
    imported the service, opened a fresh store and answered one trivial
    request line."""
    from repro.hypergraph.generators import matching_dual_pair

    times = []
    for index in range(SETUP_LAUNCHES):
        g, h = labeller.fresh(*matching_dual_pair(1))
        line = request_line(0, encode_body(g, h)).decode().strip()
        path = os.path.join(workdir, f"setup{index}.db")
        times.append(timed_launch([sys.executable, "-c", SETUP_SNIPPET, line, path]))
        _remove_store(path)
    return median(times)


def serve_line(service, line: bytes) -> bytes:
    """One solve line through the server's path; the answer line."""
    from repro.net.protocol import decode_hypergraph, parse_request
    from repro.service import response_to_json

    request = parse_request(line)
    ticket = service.submit(
        (decode_hypergraph(request["g"]), decode_hypergraph(request["h"])),
        collect=False,
    )
    payload = {"ok": True}
    payload.update(response_to_json(ticket.result()))
    payload["id"] = request["id"]
    return json.dumps(payload).encode("utf-8") + b"\n"


def serve_phase(service, phase, walls=None, cpus=None) -> None:
    """Answer every line of ``phase`` in order, recording the answers on
    it; with ``walls``/``cpus``, append each request's seconds."""
    for i, line in enumerate(phase.lines):
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            answer = serve_line(service, line)
        except Exception as error:  # an error line on the wire
            answer = json.dumps({"ok": False, "error": repr(error)}).encode()
        end = time.perf_counter()
        if walls is not None:
            walls.append(end - start)
            cpus.append(time.process_time() - cpu)
        phase.mark_sent(i, start, start)
        phase.arrived[i] = end
        phase.answers[i] = json.loads(answer)
        phase.received += 1


def _warm(service, phases) -> None:
    for phase, instances in phases:
        serve_phase(service, phase)
        failed, _wrong, reasons = check_phase(phase, instances)
        if failed:
            raise RuntimeError(f"warm-up failed: {reasons[:3]}")


def _batches(workload: str, traffic: Traffic, workdir: str, seconds: float):
    """Yield ``(service, phase, instances)`` batches until ``seconds``
    have passed and the p99 has its sample; the caller times each one."""
    from repro.service import EngineService

    hot = workload == "service-hot"
    size = HOT_BATCH if hot else UNIQUE_PER_STORE
    min_batches = -(-MIN_P99_SAMPLES // size)
    started = time.perf_counter()
    batch = 0

    def more() -> bool:
        if time.perf_counter() - started > GIVE_UP_S:
            raise RuntimeError(f"{workload} too slow for a p99 sample")
        return time.perf_counter() - started < seconds or batch < min_batches

    if hot:
        path = os.path.join(workdir, "hot.db")
        with EngineService(
            method=METHOD, n_jobs=1, store=path, cache_max_entries=HOT_CACHE_MAX
        ) as service:
            _warm(service, [traffic.all_popular(), traffic.phase(2 * HOT_SET)])
            while more():
                yield service, *traffic.phase(size)
                batch += 1
        _remove_store(path)
        return
    while more():
        path = os.path.join(workdir, f"store{batch}.db")
        with EngineService(method=METHOD, n_jobs=1, store=path) as service:
            _warm(service, [traffic.phase(UNIQUE_WARM)])
            yield service, *traffic.phase(size)
        _remove_store(path)
        batch += 1


def run(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    """The untraced run: every end-to-end metric.

    Throughput and CPU per solve are medians over batches (a store's
    life for service-unique, ``HOT_BATCH`` requests for service-hot), so
    a few batches slowed by a neighbour on the host do not move them.
    """
    hot = workload == "service-hot"
    rng = random.Random(seed)
    labeller = Labeller(rng)
    setup_s = measure_setup(workdir, labeller)
    traffic = Traffic(hot, rng, labeller)
    walls, rates, cpu_per_call, problems = [], [], [], []
    attempted = failed = wrong = 0
    peak_rss = None
    for service, phase, instances in _batches(workload, traffic, workdir, seconds):
        before = service.stats()
        batch_walls, batch_cpus = [], []
        serve_phase(service, phase, batch_walls, batch_cpus)
        delta = cache_delta(before, service.stats())
        problems += identity_problems(hot, phase.attempted, origins(phase), delta)
        batch_failed, batch_wrong, reasons = check_phase(phase, instances)
        problems += reasons[:3]
        attempted += phase.attempted
        failed += batch_failed
        wrong += batch_wrong
        walls += batch_walls
        rates.append(len(batch_walls) / sum(batch_walls))
        cpu_per_call.append(sum(batch_cpus) / len(batch_cpus))
        if len(rates) == 1:
            # After a fixed amount of work, so a faster host does not
            # report more memory.
            peak_rss = tree_peak_rss_mb(os.getpid())
        if hot and len(rates) == 1:
            print(
                f"perfbench: service-hot: LRU share {lru_share(phase.attempted, delta):.3f}, "
                f"store share {delta['store_hits'] / phase.attempted:.3f}",
                file=sys.stderr,
            )
    for problem in problems[:10]:
        print(f"perfbench: {workload}: {problem}", file=sys.stderr)
    return {
        "correct": wrong == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "samples": len(walls),
        "metrics": {
            "setup_s": (setup_s, "s"),
            "solve_p50_ms": (percentile(walls, 0.5) * 1000, "ms"),
            "solve_p99_ms": (p99_checked(walls) * 1000, "ms"),
            "solves_per_s": (median(rates), "1/s"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
            "cpu_ms_per_solve": (median(cpu_per_call) * 1000, "ms"),
            "peak_rss_mb": (peak_rss, "MB"),
        },
    }
