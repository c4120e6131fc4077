"""Per-layer measurements for the traced run.

Every number here is taken from the benchmark's own files: a
:class:`Tracer` wraps public functions of the program's modules for the
length of one pass (and restores them), and the ``probe_*`` functions
time calls into each layer's public API directly.  No file of the
program is edited.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

from common import Labeller, build_family, median, percentile


class Tracer:
    """Spans around wrapped callables, with self time.

    A span's self time is its duration minus the time of the spans it
    encloses, so nested wrapped calls (``restriction_instance`` calls
    ``project``) are not counted twice.
    """

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        #: name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}

    def wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                row = spans.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[0]

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap ``(owner, attribute, span name)`` targets for the block."""
        saved = []
        try:
            for owner, attribute, name in targets:
                original = getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(name, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]


def kernel_targets():
    """The hypergraph/core functions the decomposition engines spend in."""
    from repro.core.vertex_index import VertexIndex
    from repro.duality import boros_makino, tree
    from repro.hypergraph import operations

    return [
        (operations, "project", "hypergraph.project"),
        (boros_makino, "restriction_instance", "hypergraph.restriction_instance"),
        (tree, "restriction_instance", "hypergraph.restriction_instance"),
        (VertexIndex, "decode", "core.vertex_index.decode"),
    ]


def logspace_memo():
    """``(hits, misses)`` summed over the logspace engine's scope memos."""
    from repro.duality import logspace

    hits = misses = 0
    for memo in (logspace._finalize_scope, logspace._children_scopes):
        info = memo.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


# ---------------------------------------------------------------------------
# hypergraph: hashing and payloads
# ---------------------------------------------------------------------------


def probe_hashing(instances, labeller: Labeller) -> dict:
    """Per-instance cost of the cache key, the mask payload and the
    structural digest, each on its own freshly labelled copy."""
    from repro.hypergraph.canonical import instance_key, mask_payload, pair_digest

    key_s, payload_s, digest_s = [], [], []
    for g, h in instances:
        a, b = labeller.fresh(g, h)
        key_s.append(_timed(instance_key, a, b, "fk-b")[0])
        a, b = labeller.fresh(g, h)
        start = time.perf_counter()
        mask_payload(a)
        mask_payload(b)
        payload_s.append(time.perf_counter() - start)
        a, b = labeller.fresh(g, h)
        digest_s.append(_timed(pair_digest, a, b)[0])
    return {
        "hypergraph.instance_key_ms": (_ms(median(key_s)), "ms"),
        "hypergraph.mask_payload_ms": (_ms(median(payload_s)), "ms"),
        "hypergraph.pair_digest_ms": (_ms(median(digest_s)), "ms"),
    }


# ---------------------------------------------------------------------------
# parallel: planner, shard runners, merge, transient pool
# ---------------------------------------------------------------------------

#: The sharded solves of the parallel layer: the tree engines on their
#: slowest kernel families, fk-b on instances big enough to split well.
SHARD_CASES = (
    ("m7", "bm"),
    ("t10-5", "bm"),
    ("m7", "logspace"),
    ("t10-5", "logspace"),
    ("t11-6", "fk-b"),
    ("t12-6", "fk-b"),
)


def probe_parallel(labeller: Labeller) -> dict:
    """Plan each shard case for two workers, run every shard in-process
    through its runner, merge, and time a transient two-worker pool."""
    from repro import parallel
    from repro.parallel import executor, planner

    plan_s, shard_counts, imbalance, merge_s = [], [], [], []
    for family, method in SHARD_CASES:
        g, h, dual = build_family(family)
        g, h = labeller.fresh(g, h)
        if method == "fk-b":
            plan_call = lambda: planner.plan_fk(  # noqa: E731
                g, h, use_b=True, target_shards=2 * parallel.FK_SHARDS_PER_JOB
            )
        elif method == "bm":
            plan_call = lambda: planner.plan_bm(  # noqa: E731
                g, h, target_shards=2 * parallel.TREE_SHARDS_PER_JOB
            )
        else:
            plan_call = lambda: planner.plan_logspace(  # noqa: E731
                g, h, target_shards=2 * parallel.TREE_SHARDS_PER_JOB
            )
        elapsed, plan = _timed(plan_call)
        plan_s.append(elapsed)
        shard_counts.append(len(plan.shards))
        runner = executor.SHARD_RUNNERS[executor.shard_kind(plan)]
        outcomes, shard_s = [], []
        for item in executor.shard_worker_items(plan):
            elapsed, outcome = _timed(runner, item)
            shard_s.append(elapsed)
            outcomes.append(outcome)
        if shard_s:
            imbalance.append(max(shard_s) / (sum(shard_s) / len(shard_s)))
        if plan.resolved is not None:
            raise RuntimeError(f"{method} on {family} resolved while planning")
        elapsed, result = _timed(executor.merge_shard_outcomes, plan, outcomes)
        merge_s.append(elapsed)
        if result.is_dual != dual:
            raise RuntimeError(f"sharded {method} on {family}: wrong verdict")
    spawn_s = []
    for _ in range(5):
        pool = executor.WorkerPool(2)
        spawn_s.append(_timed(pool.map, abs, [1, 2])[0])
    return {
        "parallel.planner.plan_ms": (_ms(median(plan_s)), "ms"),
        "parallel.planner.shards": (median(shard_counts), "count"),
        "parallel.shard.imbalance": (median(imbalance), "ratio"),
        "parallel.executor.pool_spawn_ms": (_ms(median(spawn_s)), "ms"),
        "parallel.executor.merge_ms": (_ms(median(merge_s)), "ms"),
    }


# ---------------------------------------------------------------------------
# service: inline scheduler overhead, warm pool hop
# ---------------------------------------------------------------------------


def probe_service(instances, labeller: Labeller) -> dict:
    """``EngineService(n_jobs=1)`` submit→result minus the bare kernel on
    the same instances, and the round trip of a no-op through a warm
    two-worker :class:`EnginePool`."""
    from repro.duality import decide_duality
    from repro.service import EngineService
    from repro.service.pool import EnginePool

    service_s, kernel_s = [], []
    with EngineService(method="fk-b", n_jobs=1) as service:
        for g, h in instances:
            a, b = labeller.fresh(g, h)
            start = time.perf_counter()
            service.submit((a, b), collect=False).result()
            service_s.append(time.perf_counter() - start)
            a, b = labeller.fresh(g, h)
            kernel_s.append(_timed(decide_duality, a, b, "fk-b")[0])
    hops = []
    with EnginePool(2) as pool:
        for _ in range(20):
            pool.submit(abs, -1, collect=False).result()
        for _ in range(1000):
            start = time.perf_counter()
            pool.submit(abs, -1, collect=False).result()
            hops.append(time.perf_counter() - start)
    return {
        "service.inline_overhead_ms": (
            _ms(median(service_s) - median(kernel_s)),
            "ms",
        ),
        "service.pool.hop_ms_p50": (_ms(percentile(hops, 0.5)), "ms"),
        "service.pool.hop_ms_p99": (_ms(percentile(hops, 0.99)), "ms"),
    }


# ---------------------------------------------------------------------------
# store: durable put / get
# ---------------------------------------------------------------------------


def probe_store(instances, labeller: Labeller, workdir: str, puts: int = 1000) -> dict:
    """``puts`` fsync'd puts, then as many SQLite gets, on a fresh store.

    Each instance is solved once; its verdict is stored under the keys of
    fresh relabellings, so entries have the real wire shape and ``puts``
    is large enough for a p99 with ten samples beyond it.
    """
    from repro.duality import decide_duality
    from repro.hypergraph.canonical import instance_key, pair_digest
    from repro.store import VerdictStore

    solved = [(g, h, decide_duality(g, h, "fk-b")) for g, h in instances]
    rows = []
    for i in range(puts):
        g, h, result = solved[i % len(solved)]
        a, b = labeller.fresh(g, h)
        rows.append((instance_key(a, b, "fk-b"), pair_digest(a, b), result))
    store = VerdictStore(os.path.join(workdir, "probe-store.db"))
    try:
        put_s = [_timed(store.put, key, result, digest)[0] for key, digest, result in rows]
        journal = store.journal_bytes()
        get_s = [_timed(store.get, key)[0] for key, _digest, _result in rows]
    finally:
        store.close()
    return {
        "store.put_ms_p50": (_ms(percentile(put_s, 0.5)), "ms"),
        "store.put_ms_p99": (_ms(percentile(put_s, 0.99)), "ms"),
        "store.get_ms_p50": (_ms(percentile(get_s, 0.5)), "ms"),
        "store.journal_bytes_per_put": (journal / puts, "bytes"),
    }


# ---------------------------------------------------------------------------
# net: the wire codec
# ---------------------------------------------------------------------------


def probe_codec(instances, labeller: Labeller) -> dict:
    """Client-side encode and server-side parse+decode of solve lines."""
    from repro.net.protocol import decode_hypergraph, encode_hypergraph, parse_request

    encode_s, decode_s, sizes = [], [], []
    for index, (g, h) in enumerate(instances):
        a, b = labeller.fresh(g, h)
        start = time.perf_counter()
        line = json.dumps(
            {"id": index, "g": encode_hypergraph(a), "h": encode_hypergraph(b)}
        ).encode()
        encode_s.append(time.perf_counter() - start)
        sizes.append(len(line) + 1)
        start = time.perf_counter()
        request = parse_request(line)
        decode_hypergraph(request["g"])
        decode_hypergraph(request["h"])
        decode_s.append(time.perf_counter() - start)
    return {
        "net.protocol.request_bytes": (sum(sizes) / len(sizes), "bytes"),
        "net.protocol.encode_ms": (_ms(median(encode_s)), "ms"),
        "net.protocol.decode_ms": (_ms(median(decode_s)), "ms"),
    }
