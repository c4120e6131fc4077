"""Batch front end: stream many duality instances through the pool.

``solve_many`` is the library face of the ``repro batch`` CLI: it takes
a heterogeneous stream of instances — ``(G, H)`` pairs or paths to
``.hg`` instance files (two hypergraphs separated by a ``==`` line, the
:func:`repro.hypergraph.io.load_many` convention) — and solves them with
a serial engine per worker.  Parallelism here is *across* instances
(each worker runs the ordinary serial decider on a whole instance), so
every verdict and certificate is identical to a serial
:func:`repro.duality.decide_duality` call by construction; sharding
*within* one instance is :mod:`repro.parallel.executor`'s job.

Results are memoised in a :class:`ResultCache` keyed by
:func:`repro.hypergraph.canonical.instance_key` — the canonical-edge-
order hash of both sides plus the engine name.  The key binds vertex
labels (certificates are labelled sets) and the method (each engine has
its own deterministic certificate), so a hit can replay the cached
result verbatim.  ``method="portfolio"`` is the one exception — its
winner is timing-dependent, so caching it is refused.  The cache itself
is memory-only; persistence across processes and CLI runs is a
:class:`repro.store.VerdictStore` plugged in as its ``backend``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.duality.result import DualityResult
from repro.hypergraph import (
    Hypergraph,
    from_mask_payload,
    instance_key,
    mask_payload,
    pair_digest,
)
from repro.hypergraph import io as hgio
from repro.obs.timings import TimingLog, structural_features
from repro.obs.trace import span
from repro.parallel.executor import WorkerPool, resolve_n_jobs


class ResultCache:
    """A thread-safe LRU of verdicts keyed by canonical instance hash.

    The cache stores :class:`DualityResult` objects directly; a long-
    lived service multiplexes many connection handlers onto one
    instance, so every read and write takes an internal lock.

    ``max_entries`` bounds the cache with LRU eviction: both
    :meth:`get` (a hit) and :meth:`put` refresh an entry's recency, and
    once the cap is exceeded the least-recently-used entries are
    dropped (counted in ``evictions``).  The default ``None`` keeps the
    cache unbounded.

    ``backend`` plugs in a durable store behind the LRU — anything with
    the :class:`repro.store.VerdictStore` ``get(key)`` /
    ``put(key, result, digest=...)`` surface.  Reads fall through to
    the backend on a memory miss (a backend hit is promoted into the
    LRU and counted as a hit); writes go **through** immediately, so a
    backend-held verdict is durable the moment :meth:`put` returns.
    Without a backend the cache lives and dies with its process.
    """

    def __init__(
        self, max_entries: int | None = None, backend=None
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be a positive cap or None, got {max_entries}"
            )
        self._entries: OrderedDict[str, DualityResult] = OrderedDict()
        self._lock = threading.RLock()
        self.backend = backend
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def backed(self) -> bool:
        """True when a durable backend receives every put."""
        return self.backend is not None

    def get(self, key: str) -> DualityResult | None:
        """The cached result for ``key``, counting the hit/miss.

        A hit refreshes the entry's recency (it becomes the last one an
        LRU eviction would drop).  On a memory miss a backend (when
        plugged in) is consulted; its hit is promoted into the LRU and
        counted as a hit.
        """
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return result
            if self.backend is None:
                self.misses += 1
                return None
        # Backend I/O happens outside the entry lock so other readers
        # never wait on the disk.
        result = self.backend.get(key)
        with self._lock:
            if result is None:
                self.misses += 1
                return None
            self._entries[key] = result
            self._entries.move_to_end(key)
            self.hits += 1
            self._evict_over_cap()
            return result

    def put(self, key: str, result: DualityResult, digest: str | None = None) -> None:
        """Insert one verdict (``digest`` — the optional
        :func:`~repro.hypergraph.pair_digest` — travels to a durable
        backend's structural index; the in-memory layer ignores it)."""
        if self.backend is not None:
            # Write-through *before* the entry becomes visible: any
            # reader that sees this key can already rely on it being
            # durable (the persist-before-resolve guarantee).
            self.backend.put(key, result, digest=digest)
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            self._evict_over_cap()

    def _evict_over_cap(self) -> None:
        # Caller holds self._lock.
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def register_metrics(self, registry) -> None:
        """Expose the cache's live counters on an obs
        :class:`~repro.obs.metrics.MetricsRegistry` as callback gauges."""
        registry.gauge_fn(
            "cache_hits_total", "Result cache hits", lambda: self.hits
        )
        registry.gauge_fn(
            "cache_misses_total", "Result cache misses", lambda: self.misses
        )
        registry.gauge_fn(
            "cache_evictions_total", "LRU evictions", lambda: self.evictions
        )
        registry.gauge_fn(
            "cache_entries", "Entries currently cached", lambda: len(self)
        )


@dataclass
class BatchItem:
    """One solved (or replayed) instance of a batch.

    ``source`` is the file path for path inputs (``None`` for in-memory
    pairs); ``key`` the canonical cache key; ``elapsed_s`` the solve
    wall time (0.0 for cache hits).
    """

    source: str | None
    key: str
    result: DualityResult
    elapsed_s: float
    cached: bool = False

    @property
    def is_dual(self) -> bool:
        return self.result.is_dual


def load_instance(path: str | Path) -> tuple[Hypergraph, Hypergraph]:
    """Read one ``.hg`` instance file: ``G``, a ``==`` line, then ``H``."""
    hypergraphs = hgio.load_many(path)
    if len(hypergraphs) != 2:
        raise ValueError(
            f"{path}: an instance file must contain exactly two hypergraphs "
            f"separated by '==' (found {len(hypergraphs)})"
        )
    return hypergraphs[0], hypergraphs[1]


def solve_batch_entry(payload: tuple) -> tuple[DualityResult, float]:
    """Worker: solve one instance with the serial facade (module-level)."""
    g_payload, h_payload, method = payload
    from repro.duality import decide_duality

    g = from_mask_payload(g_payload)
    h = from_mask_payload(h_payload)
    start = time.perf_counter()
    result = decide_duality(g, h, method=method)
    return result, time.perf_counter() - start


def solve_batch_entry_obs(payload: tuple) -> tuple[DualityResult, float, dict]:
    """Worker: :func:`solve_batch_entry` under a traced request.

    ``payload`` carries a fourth element — the picklable
    ``(trace_id, parent_span_id)`` pair of the requesting trace.  The
    verdict path is *identical* to the plain entry (same facade call,
    same timer); the only additions are spans, and a sink cannot cross
    a process boundary, so the worker's spans come back **piggybacked**
    as plain dicts in the third return slot (``extras["spans"]``) for
    the service to re-record.  The solve itself is one ``worker-solve``
    span with a nested ``engine:<method>`` span; the deserialisation of
    the mask payloads is tagged on as ``decode_ms``.
    """
    g_payload, h_payload, method, wire_ctx = payload
    trace_id, parent_span_id = wire_ctx
    from repro.duality import decide_duality
    from repro.obs.trace import Span

    outer = Span(trace_id, "worker-solve", parent_id=parent_span_id)
    decode_start = time.perf_counter()
    g = from_mask_payload(g_payload)
    h = from_mask_payload(h_payload)
    outer.set_tag("decode_ms", round((time.perf_counter() - decode_start) * 1000, 3))
    inner = Span(trace_id, f"engine:{method}", parent_id=outer.span_id)
    start = time.perf_counter()
    result = decide_duality(g, h, method=method)
    elapsed = time.perf_counter() - start
    inner.finish()
    inner.set_tag("dual", result.is_dual)
    outer.finish()
    extras = {"spans": [outer.to_dict(), inner.to_dict()]}
    return result, elapsed, extras


def solve_many(
    instances,
    method: str = "fk-b",
    n_jobs: int | None = 1,
    cache: ResultCache | None = None,
    pool=None,
    timings: TimingLog | str | Path | None = None,
) -> list[BatchItem]:
    """Decide a batch of duality instances, optionally in parallel.

    Parameters
    ----------
    instances:
        An iterable of ``(G, H)`` :class:`Hypergraph` pairs and/or
        path-likes to ``.hg`` instance files (see :func:`load_instance`).
    method:
        Any :func:`repro.duality.available_methods` name (including
        ``"portfolio"``, which runs its sequential fallback inside each
        worker — pools do not nest).
    n_jobs:
        Worker processes for the cache-miss instances; ``1`` solves
        in-process, ``-1`` uses every core.  Ignored when ``pool`` is
        given.
    cache:
        A :class:`ResultCache` consulted before solving and updated
        after; hits replay the stored result with ``elapsed_s = 0``.
    pool:
        An already-warm pool — normally a
        :class:`repro.service.EnginePool` — to reuse across batches
        instead of paying the per-call worker spawn.  A pool exposing
        the futures API (``submit(fn, item, collect=False)``) gets each
        cache miss scheduled as its own future — the same per-item
        scheduler the engine service runs on, with per-item
        worker-death retry; a plain ``map(fn, items)`` pool falls back
        to the lock-step batch.  The caller owns the pool's lifecycle
        (this function never shuts it down).
    timings:
        A :class:`repro.obs.timings.TimingLog` (or a path to create
        one) recording one JSONL row per solved miss — engine, elapsed,
        structural features.  Verdicts are never affected.  When
        process-wide tracing is enabled (:func:`repro.obs.enable_tracing`)
        the batch additionally records ``batch-load`` / ``batch-solve``
        spans; with tracing disabled both hooks are no-ops.

    Results come back in input order, and each miss is solved by the
    ordinary serial engine inside its worker — so the batch's verdicts
    and certificates are exactly what one-at-a-time serial calls would
    produce.
    """
    if pool is None:
        resolve_n_jobs(n_jobs)  # validate early, before any loading
    if cache is not None and method in ("portfolio", "auto"):
        # A portfolio (or auto low-confidence race) winner is
        # timing-dependent, so its certificate is not a deterministic
        # function of the instance — exactly what a replay cache must
        # not store.
        raise ValueError(
            f"method={method!r} cannot be cached: the winning engine "
            "(and hence the certificate) depends on timing; pick a "
            "concrete engine or drop the cache"
        )
    # A path means this call owns the log (EngineService's ownership
    # rule): open it here, close it on every exit path below — a batch
    # sweep must not leak one file handle per call.
    owns_timings = isinstance(timings, (str, Path))
    if owns_timings:
        timings = TimingLog(timings)
    try:
        return _solve_many(
            instances,
            method=method,
            n_jobs=n_jobs,
            cache=cache,
            pool=pool,
            timings=timings,
        )
    finally:
        if owns_timings:
            timings.close()


def _solve_many(
    instances,
    method: str,
    n_jobs: int | None,
    cache: ResultCache | None,
    pool,
    timings: TimingLog | None,
) -> list[BatchItem]:
    sources: list[str | None] = []
    pairs: list[tuple[Hypergraph, Hypergraph]] = []
    with span("batch-load"):
        for item in instances:
            if isinstance(item, (str, Path)):
                sources.append(str(item))
                pairs.append(load_instance(item))
            else:
                g, h = item
                sources.append(None)
                pairs.append((g, h))

    keys = [instance_key(g, h, method) for g, h in pairs]
    items: list[BatchItem | None] = [None] * len(pairs)
    miss_positions: list[int] = []
    seen_misses: dict[str, int] = {}
    for pos, key in enumerate(keys):
        if key in seen_misses:
            # Duplicate within the batch: solve once, replay below
            # (without consulting the cache again — one instance, one
            # recorded miss).
            miss_positions.append(pos)
            continue
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            items[pos] = BatchItem(
                source=sources[pos],
                key=key,
                result=cached,
                elapsed_s=0.0,
                cached=True,
            )
        else:
            seen_misses[key] = pos
            miss_positions.append(pos)

    unique_positions = sorted(seen_misses.values())
    payloads = []
    for pos in unique_positions:
        g, h = pairs[pos]
        payloads.append((mask_payload(g), mask_payload(h), method))

    if pool is None:
        pool = WorkerPool(n_jobs)
    with span("batch-solve", misses=len(payloads), total=len(pairs)):
        if hasattr(pool, "submit"):
            # The futures scheduler (EnginePool): one future per miss,
            # kept out of the pool's drain batch so a service sharing
            # the pool never collects our items.  Awaiting in submission
            # order keeps error behaviour identical to the lock-step
            # path (first failure, in order), while the items still run
            # concurrently.
            futures = [
                pool.submit(solve_batch_entry, payload, collect=False)
                for payload in payloads
            ]
            outcomes = [future.result() for future in futures]
        else:
            outcomes = pool.map(solve_batch_entry, payloads)
    solved = {
        keys[pos]: outcome for pos, outcome in zip(unique_positions, outcomes)
    }
    if timings is not None:
        for pos, payload, outcome in zip(unique_positions, payloads, outcomes):
            result, elapsed = outcome
            try:
                features = structural_features(payload[0], payload[1])
                timings.record(
                    method,
                    elapsed,
                    features=features,
                    dual=result.is_dual,
                    source=sources[pos],
                )
                # A portfolio/auto solve additionally carries per-racer
                # timings; record each as its own row (role-tagged, like
                # the service does) — the sequential portfolio is how a
                # training corpus for `repro model fit` is grown.
                race = result.stats.extra.get("auto") or result.stats.extra.get(
                    "portfolio"
                )
                if race:
                    role = (
                        "auto"
                        if result.stats.extra.get("auto") is not None
                        else "portfolio"
                    )
                    for engine, racer_s in (race.get("timings_s") or {}).items():
                        if racer_s is None:
                            continue
                        timings.record(
                            engine,
                            racer_s,
                            features=features,
                            dual=result.is_dual,
                            source=sources[pos],
                            role=role,
                            winner=race.get("winner") or race.get("engine"),
                        )
            except Exception:  # noqa: BLE001 - observation never breaks solves
                pass

    for pos in miss_positions:
        key = keys[pos]
        result, elapsed = solved[key]
        duplicate = seen_misses[key] != pos
        items[pos] = BatchItem(
            source=sources[pos],
            key=key,
            result=result,
            elapsed_s=0.0 if duplicate else elapsed,
            cached=duplicate,
        )
        if cache is not None and not duplicate:
            # A durable backend indexes verdicts structurally too; the
            # digest is only worth hashing when such a backend exists.
            digest = pair_digest(*pairs[pos]) if cache.backed else None
            cache.put(key, result, digest=digest)
    return items
