"""The serve traffic (unique and hot) and the TCP phases of the traced run.

The traffic is shared with the in-process ``service-*`` workloads
(:mod:`inproc`).  Over TCP, one single-threaded load process (asyncio,
two connections — one per core) drives a ``repro serve --listen
127.0.0.1:0 --jobs 2 --store ...`` server.  Requests are pre-encoded
before each phase, so the generator only writes lines and reads answers
while a phase runs.  Open loop: request ``i`` is due at ``t0 + i /
rate`` and alternates between the connections; its latency is counted
from when it was due, so a stall also charges the requests queued
behind it.

Every answer is checked after the phase: the verdict must match the
instance's construction and a NOT_DUAL witness, decoded off the wire,
must be a valid certificate.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time

from common import (
    Labeller,
    build_family,
    child_env,
    median,
    percentile,
    process_tree,
)

#: ``(family, requests per cycle)``: small duals, threshold-9-5 (21 KB on
#: the wire with nine-digit labels), and dropped-edge non-duals (a
#: quarter of the mix).
SERVE_MIX = (
    ("m3", 4),
    ("m4", 3),
    ("t6-3", 3),
    ("t7-4", 3),
    ("t9-5", 2),
    ("m4~", 2),
    ("t6-3~", 1),
    ("t7-4~", 2),
)

CONNECTIONS = 2
#: An answer later than this after its due time is a timeout.
TIMEOUT_S = 10.0
STREAM_LIMIT = 1 << 22

#: Open-loop rate and requests per phase of the traced run's unique
#: traffic: a third of what the two-worker server sustains on this mix
#: with a young store (~120 solves/s on 2 cores).  Every store miss
#: replays the whole verdict journal (``VerdictStore.get_entry``), so
#: the phases are kept short enough for the store to stay young.
UNIQUE_RATE = 40.0
UNIQUE_PHASE = 125
#: serve-hot: the popular set (15 mix cycles), its Zipf exponent, the
#: LRU cap below the set size (the tail reads through from SQLite), and
#: the traced run's open-loop rate: a sixth of the ~750 answers/s the
#: server gives at saturation on 2 cores, so queueing does not amplify
#: a slow spell of the host.
HOT_SET = 300
HOT_ZIPF = 1.0
HOT_CACHE_MAX = 200
HOT_RATE = 120.0
#: Rate of the untimed warm-up traffic.
WARM_RATE = 400.0
#: Identity bounds of serve-hot: shares of window requests answered
#: from the in-memory LRU and read through from the store.
HOT_LRU_SHARE = (0.70, 0.99)
HOT_STORE_SHARE = (0.01, 0.30)


def mix_cycle() -> list[str]:
    return [family for family, count in SERVE_MIX for _ in range(count)]


def encode_body(g, h, trace: bool = False) -> bytes:
    """A solve request without its id: ``{"id":N,`` + body is the line."""
    from repro.net.protocol import encode_hypergraph

    payload = {"g": encode_hypergraph(g), "h": encode_hypergraph(h)}
    if trace:
        payload["trace"] = True
    return json.dumps(payload, separators=(",", ":"))[1:].encode() + b"\n"


def request_line(request_id: int, body: bytes) -> bytes:
    return b'{"id":%d,' % request_id + body


class Instances:
    """Labelled instances of the serve mix, each used for one request."""

    def __init__(self, rng: random.Random, labeller: Labeller) -> None:
        self.rng = rng
        self.labeller = labeller
        self._fixed: dict[str, tuple] = {}
        self._cycle: list[str] = []

    def next(self):
        """``(g, h, dual)`` with fresh labels, families in shuffled cycles."""
        if not self._cycle:
            self._cycle = mix_cycle()
            self.rng.shuffle(self._cycle)
        family = self._cycle.pop()
        if family not in self._fixed:
            self._fixed[family] = build_family(family)
        g, h, dual = self._fixed[family]
        g, h = self.labeller.fresh(g, h)
        return g, h, dual


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------


class Server:
    """A ``repro serve --listen`` child.

    Control requests (trivial solve, stats, ping, shutdown) each open a
    short connection of their own, so only the two load connections are
    open while a phase runs.
    """

    def __init__(self, workdir: str, tag: str, cache_max: int | None = None):
        command = [
            sys.executable, "-m", "repro", "serve",
            "--listen", "127.0.0.1:0",
            "--jobs", "2",
            "--store", os.path.join(workdir, f"{tag}.db"),
        ]
        if cache_max is not None:
            command += ["--cache-max", str(cache_max)]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=child_env()
        )
        self.address = None
        try:
            first = self.proc.stdout.readline()
            if not first:
                raise RuntimeError(f"server {tag} exited before listening")
            address = json.loads(first)["listening"]
            self.address = (address["host"], address["port"])
        except BaseException:
            self.stop()
            raise

    def exchange(self, lines: list[bytes]) -> list[tuple[dict, float]]:
        """Send ``lines`` one at a time on a fresh connection: each answer
        with its round-trip seconds."""
        answers = []
        with socket.create_connection(self.address, timeout=60) as sock:
            with sock.makefile("rwb") as stream:
                for line in lines:
                    start = time.perf_counter()
                    stream.write(line)
                    stream.flush()
                    reply = stream.readline()
                    if not reply:
                        raise RuntimeError("server closed a control connection")
                    answers.append((json.loads(reply), time.perf_counter() - start))
        return answers

    def call(self, request: dict) -> dict:
        return self.exchange([json.dumps(request).encode() + b"\n"])[0][0]

    def stats(self) -> dict:
        return self.call({"op": "stats"})["stats"]

    def stop(self) -> None:
        """Ask for a graceful shutdown; kill if it does not come; reap."""
        if self.address is not None:
            try:
                self.call({"op": "shutdown"})
            except (OSError, RuntimeError, ValueError):
                pass
            self.address = None
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            stuck = process_tree(self.proc.pid)
            for pid in stuck:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.proc.wait()
            # The pool workers are not our children: wait until they are gone.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and any(
                os.path.exists(f"/proc/{pid}") for pid in stuck[1:]
            ):
                time.sleep(0.05)
        self.proc.stdout.close()


def launch(workdir: str, labeller: Labeller, tag: str, cache_max=None) -> Server:
    """A server that has answered one trivial solve."""
    from repro.hypergraph.generators import matching_dual_pair

    server = Server(workdir, tag, cache_max)
    try:
        g, h = labeller.fresh(*matching_dual_pair(1))
        answer = server.exchange([request_line(0, encode_body(g, h))])[0][0]
        if not (answer.get("ok") and answer.get("dual")):
            raise RuntimeError(f"trivial solve failed: {answer}")
    except BaseException:
        server.stop()
        raise
    return server


# ---------------------------------------------------------------------------
# Load generation (asyncio, one thread)
# ---------------------------------------------------------------------------


class Phase:
    """Requests of one phase and what became of them."""

    def __init__(self, first_id: int, lines: list[bytes]) -> None:
        self.first_id = first_id
        self.lines = lines
        n = len(lines)
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.arrived: list[float | None] = [None] * n
        self.answers: list[dict | None] = [None] * n
        self.attempted = 0
        self.received = 0

    def mark_sent(self, index: int, due: float, now: float) -> None:
        self.due[index] = due
        self.sent[index] = now
        self.attempted += 1

    def on_line(self, now: float, line: bytes) -> int | None:
        """Record one answer; the index of the request it answers."""
        answer = json.loads(line)
        index = answer.get("id", -1) - self.first_id
        if 0 <= index < len(self.lines) and self.arrived[index] is None:
            self.arrived[index] = now
            self.answers[index] = answer
            self.received += 1
            return index
        return None

    def latencies_ms(self, since_due: bool = True) -> list[float]:
        """One sample per sent request; unanswered ones count as timeouts."""
        out = []
        for i, sent in enumerate(self.sent):
            if not sent:
                continue
            start = self.due[i] if since_due else sent
            arrived = self.arrived[i]
            late = TIMEOUT_S if arrived is None else min(arrived - start, TIMEOUT_S)
            out.append(late * 1000)
        return out


def _ack_now(writer: asyncio.StreamWriter) -> None:
    """Acknowledge the next answer at once (``TCP_QUICKACK``; Linux
    clears it again after a while, so it is re-armed before every read).

    Requests arrive on a connection every 20 ms.  When the client
    delays its ACKs instead, the kernel (BBR, autocorking) held each
    small answer back until the next request carried the ACK: every
    serve-hot answer then took ~20 ms instead of ~2 ms, for whole runs,
    at random.  That measures the two TCP stacks, not the server.
    """
    writer.get_extra_info("socket").setsockopt(
        socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1
    )


async def _reader(reader: asyncio.StreamReader, writer, phase: Phase, waiting=None) -> None:
    """Record answers as they arrive; wake the caller waiting on each
    (``waiting``: request index -> future, closed loop only)."""
    loop = asyncio.get_running_loop()
    while True:
        _ack_now(writer)
        line = await reader.readline()
        if not line:
            return
        index = phase.on_line(loop.time(), line)
        if waiting is not None and index in waiting:
            waiting.pop(index).set_result(None)


async def _connect(address, count: int):
    return [
        await asyncio.open_connection(*address, limit=STREAM_LIMIT) for _ in range(count)
    ]


async def _close(connections, readers) -> None:
    for task in readers:
        task.cancel()
    for _reader_stream, writer in connections:
        writer.close()
    for _reader_stream, writer in connections:
        try:
            await writer.wait_closed()
        except OSError:
            pass
    await asyncio.gather(*readers, return_exceptions=True)


async def _open_loop(address, phase: Phase, rate: float) -> float:
    """Send on schedule; returns the p99 of how late the sends ran (ms)."""
    loop = asyncio.get_running_loop()
    connections = await _connect(address, CONNECTIONS)
    readers = [asyncio.create_task(_reader(r, w, phase)) for r, w in connections]
    lateness = []
    try:
        start = loop.time() + 0.05
        for i, line in enumerate(phase.lines):
            due = start + i / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            now = loop.time()
            phase.mark_sent(i, due, now)
            lateness.append((now - due) * 1000)
            writer = connections[i % CONNECTIONS][1]
            writer.write(line)
            await writer.drain()
        deadline = loop.time() + TIMEOUT_S
        while phase.received < phase.attempted and loop.time() < deadline:
            await asyncio.sleep(0.005)
    finally:
        await _close(connections, readers)
    return percentile(lateness, 0.99)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def check_phase(phase: Phase, instances) -> tuple[int, int, list[str]]:
    """``(failed, wrong, reasons)`` over the sent requests of a phase.

    ``instances[i]`` is ``(g, h, dual)`` of request ``i``.  Timeouts
    count as failed; error lines, wrong verdicts and invalid witnesses
    count as failed *and* wrong.
    """
    from repro.duality import WitnessRole, classify_witness
    from repro.parallel.codec import decode_vertex_set

    failed = wrong = 0
    reasons = []
    for i, sent in enumerate(phase.sent):
        if not sent:
            continue
        answer = phase.answers[i]
        g, h, dual = instances[i]
        problem = None
        if answer is None:
            failed += 1
            reasons.append("timeout")
            continue
        if not answer.get("ok"):
            problem = f"error line {answer.get('error')}"
        elif answer.get("dual") is not dual:
            problem = f"verdict {answer.get('verdict')} for a {'dual' if dual else 'non-dual'} pair"
        elif not dual:
            witness = decode_vertex_set(answer.get("witness"))
            if witness is None or classify_witness(g, h, witness) is WitnessRole.INVALID:
                problem = "invalid witness"
        if problem is not None:
            failed += 1
            wrong += 1
            reasons.append(problem)
    return failed, wrong, reasons


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Traffic:
    """Request generator of one workload (unique or hot)."""

    def __init__(self, hot: bool, rng: random.Random, labeller: Labeller) -> None:
        self.hot = hot
        self.rng = rng
        self.source = Instances(rng, labeller)
        self.next_id = 1
        if hot:
            # Popularity is Zipf over whole mix cycles (the source hands
            # out one shuffled cycle after another), so every family keeps
            # its mix share of requests whatever the seed.
            self.popular = [self.source.next() for _ in range(HOT_SET)]
            cycle = len(mix_cycle())
            self.weights = [1.0 / (i // cycle + 1) ** HOT_ZIPF for i in range(HOT_SET)]
            self._bodies = {}

    def phase(self, count: int, trace: bool = False):
        """A :class:`Phase` of ``count`` requests and their instances."""
        if self.hot:
            picks = self.rng.choices(range(HOT_SET), weights=self.weights, k=count)
            instances = [self.popular[i] for i in picks]
            bodies = []
            for i in picks:
                if (i, trace) not in self._bodies:
                    g, h, _dual = self.popular[i]
                    self._bodies[(i, trace)] = encode_body(g, h, trace)
                bodies.append(self._bodies[(i, trace)])
        else:
            instances = [self.source.next() for _ in range(count)]
            bodies = [encode_body(g, h, trace) for g, h, _dual in instances]
        first = self.next_id
        self.next_id += count
        lines = [request_line(first + i, body) for i, body in enumerate(bodies)]
        return Phase(first, lines), instances

    def all_popular(self):
        """A phase sending every popular instance once (store + LRU fill)."""
        instances = list(self.popular)
        first = self.next_id
        self.next_id += len(instances)
        lines = [
            request_line(first + i, encode_body(g, h))
            for i, (g, h, _dual) in enumerate(instances)
        ]
        return Phase(first, lines), instances


def origins(phase: Phase) -> dict:
    counts: dict[str, int] = {}
    for answer in phase.answers:
        if answer is not None and answer.get("ok"):
            counts[answer.get("origin")] = counts.get(answer.get("origin"), 0) + 1
    return counts


def cache_delta(before: dict, after: dict) -> dict:
    store_b, store_a = before.get("store", {}), after.get("store", {})
    return {
        "cache_hits": after.get("cache_hits", 0) - before.get("cache_hits", 0),
        "cache_misses": after.get("cache_misses", 0) - before.get("cache_misses", 0),
        "evictions": after.get("cache_evictions", 0) - before.get("cache_evictions", 0),
        "store_hits": store_a.get("hits", 0) - store_b.get("hits", 0),
        "store_misses": store_a.get("misses", 0) - store_b.get("misses", 0),
    }


def lru_share(requests: int, delta: dict) -> float:
    """Share of requests answered from the in-memory LRU (cache hits
    that did not read through to the store)."""
    return (delta["cache_hits"] - delta["store_hits"]) / requests


def identity_problems(hot: bool, requests: int, origins: dict, delta: dict) -> list[str]:
    """Why the measured traffic is not the workload it claims to be."""
    problems = []
    if not hot:
        if set(origins) - {"computed"}:
            problems.append(f"serve-unique answered from {origins}")
        if delta["cache_hits"] or delta["store_hits"]:
            problems.append(f"serve-unique hit a cache: {delta}")
        return problems
    if origins.get("computed") or origins.get("dedup"):
        problems.append(f"serve-hot computed or joined requests: {origins}")
    lru = lru_share(requests, delta)
    store = delta["store_hits"] / requests
    if not HOT_LRU_SHARE[0] <= lru <= HOT_LRU_SHARE[1]:
        problems.append(f"serve-hot LRU share {lru:.3f} outside {HOT_LRU_SHARE}")
    if not HOT_STORE_SHARE[0] <= store <= HOT_STORE_SHARE[1]:
        problems.append(f"serve-hot store share {store:.3f} outside {HOT_STORE_SHARE}")
    return problems


def prepare(hot: bool, seed: int, workdir: str):
    """A warmed-up server and the unique or hot traffic to send it."""
    rng = random.Random(seed)
    labeller = Labeller(rng)
    server = launch(workdir, labeller, "store", HOT_CACHE_MAX if hot else None)
    try:
        traffic = Traffic(hot, rng, labeller)
        _warm_up(server, traffic)
    except BaseException:
        server.stop()
        raise
    return server, traffic


def _warm_up(server: Server, traffic: Traffic) -> None:
    """Untimed: every popular instance once and then a Zipf burst that
    brings the LRU to its steady state (serve-hot), or a short burst of
    unique traffic (serve-unique); every answer must be right."""
    if traffic.hot:
        phases = [traffic.all_popular(), traffic.phase(2 * HOT_SET)]
    else:
        phases = [traffic.phase(20)]
    for phase, instances in phases:
        asyncio.run(_open_loop(server.address, phase, WARM_RATE))
        failed, _wrong, reasons = check_phase(phase, instances)
        if failed:
            raise RuntimeError(f"warm-up failed: {reasons[:3]}")


def traced_phases(server: Server, traffic: Traffic, rate: float, count: int) -> dict:
    """An untraced and a traced open-loop phase of ``count`` requests each
    (the traced one asks the server for spans on every request), then
    server counters through ``stats`` and ping round trips.  Returns the
    net/service/store/obs/loadgen metrics and the check results."""
    plain, plain_instances = traffic.phase(count)
    before = server.stats()
    late_plain = asyncio.run(_open_loop(server.address, plain, rate))
    traced, traced_instances = traffic.phase(count, trace=True)
    late_traced = asyncio.run(_open_loop(server.address, traced, rate))
    after = server.stats()
    rtts = [rtt for _answer, rtt in server.exchange([b'{"op":"ping"}\n'] * 200)]
    failed_p, wrong_p, _ = check_phase(plain, plain_instances)
    failed_t, wrong_t, _ = check_phase(traced, traced_instances)
    delta = cache_delta(before, after)
    elapsed = [a["elapsed_ms"] for a in plain.answers if a and a.get("ok")]
    residual = [
        (plain.arrived[i] - plain.sent[i]) * 1000 - answer["elapsed_ms"]
        for i, answer in enumerate(plain.answers)
        if answer and answer.get("ok")
    ]
    lookups = delta["cache_hits"] + delta["cache_misses"]
    store_lookups = delta["store_hits"] + delta["store_misses"]
    requests = plain.attempted + traced.attempted
    metrics = {
        "service.cache.hit_frac": (delta["cache_hits"] / max(lookups, 1), "ratio"),
        "service.cache.evictions": (delta["evictions"], "count"),
        "service.pool.restarts": (after.get("pool_restarts", 0), "count"),
        "store.hit_frac": (delta["store_hits"] / max(store_lookups, 1), "ratio"),
        "store.read_through_frac": (delta["store_hits"] / requests, "ratio"),
        "net.ping_rtt_ms_p50": (median(rtts) * 1000, "ms"),
        "net.server.elapsed_ms_p50": (median(elapsed), "ms"),
        "net.residual_ms_p50": (median(residual), "ms"),
        "net.server.errors": (after.get("errors", 0), "count"),
        "obs.trace_overhead_frac": (
            median(traced.latencies_ms()) / median(plain.latencies_ms()) - 1,
            "ratio",
        ),
        "loadgen.late_p99_ms": (max(late_plain, late_traced), "ms"),
        "loadgen.sent": (requests, "count"),
        "loadgen.connections": (CONNECTIONS, "count"),
    }
    return {
        "metrics": metrics,
        "attempted": requests,
        "failed": failed_p + failed_t,
        "wrong": wrong_p + wrong_t,
    }
