"""The engine service: a concurrent request scheduler over the warm pool.

:class:`EngineService` is what ``repro serve`` (and any embedding
application) talks to.  Since PR 5 it is a *scheduler*, not a lock-step
queue: every :meth:`EngineService.submit` returns a
:class:`ServiceTicket` — a request id that is also a completion handle
— and requests resolve **out of submission order**, the moment their
verdict exists.  The pieces, wired in the right order:

1. a :class:`~repro.parallel.batch.ResultCache` consulted **at submit
   time** — a repeat instance's ticket resolves instantly, without ever
   reaching a worker.  With ``store=`` the cache is a write-through LRU
   over a durable :class:`~repro.store.VerdictStore` (the one
   persistence path), so hits survive across service sessions and
   processes;
2. an in-flight index — identical instances submitted concurrently
   share one computation (the first ticket is the primary, the rest
   replay its verdict, exactly the dedup rule ``solve_many`` applies
   within a batch);
3. a persistent :class:`~repro.service.pool.EnginePool` — each cache
   miss becomes one :class:`~repro.service.pool.PoolFuture`, so a slow
   instance never blocks an unrelated fast one (no head-of-line
   blocking), and a worker death retries only the lost items.

:meth:`EngineService.drain` survives as the lock-step compatibility
view: it awaits every collectable ticket and returns responses in
submission order, bit-for-bit what serial ``decide_duality`` calls
would produce.

Verdicts stream as JSON-ready dicts (:func:`response_to_json`): vertex
labels travel through the lossless codec of
:mod:`repro.parallel.codec`, so a service answering over tuples or
strings round-trips its certificates exactly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.duality.result import DualityResult
from repro.hypergraph import Hypergraph, instance_key, mask_payload, pair_digest
from repro.obs.timings import TimingLog, structural_features
from repro.obs.trace import record_span
from repro.parallel.batch import (
    ResultCache,
    load_instance,
    solve_batch_entry,
    solve_batch_entry_obs,
)
from repro.parallel.codec import CodecError, encode_vertex_set
from repro.parallel.executor import PARALLEL_METHODS, decide_duality_parallel
from repro.service.pool import Completion, EnginePool, PoolClosedError
from repro.store import VerdictStore


@dataclass(frozen=True)
class ServiceResponse:
    """One answered request.

    ``request_id`` is the ticket ``submit`` returned; ``source`` the
    instance file path (``None`` for in-memory pairs); ``cached`` True
    when the verdict came from the cache (or an identical in-flight
    request) instead of its own worker run.  ``origin`` says which:
    ``"computed"`` (this request's own worker run), ``"cache"`` (a
    submit-time cache hit), or ``"dedup"`` (joined an identical
    in-flight computation).  ``elapsed_s`` is the solve time of the
    computation that produced the verdict — dedup joiners report the
    primary's real elapsed, not 0.0 (they waited exactly as long).
    """

    request_id: int
    source: str | None
    key: str
    result: DualityResult
    elapsed_s: float
    cached: bool
    origin: str = "computed"

    @property
    def is_dual(self) -> bool:
        return self.result.is_dual


class ServiceTicket(int):
    """A request id that is also the request's completion handle.

    Tickets compare, hash, and serialize as their integer request id —
    existing callers that treated ``submit``'s return value as an id
    keep working unchanged — and additionally expose the future API:
    :meth:`done`, :meth:`result` (the :class:`ServiceResponse`, or the
    request's error re-raised), :meth:`exception`, and
    :meth:`add_done_callback` (fires with the ticket, in whatever
    thread resolved it, the instant the verdict exists).
    """

    def __new__(cls, request_id: int, source: str | None, key: str):
        self = super().__new__(cls, request_id)
        self.source = source
        self.key = key
        #: Optional :class:`repro.obs.trace.SpanContext` for this
        #: request; phase spans of the solve are recorded under it.
        self.trace = None
        self._joined_at: float | None = None
        self._completion = Completion()
        self._completion.owner = self
        return self

    @property
    def request_id(self) -> int:
        return int(self)

    def done(self) -> bool:
        """True once the verdict (or the request's error) exists."""
        return self._completion.done()

    def result(self, timeout: float | None = None) -> ServiceResponse:
        """Block until answered; the response, or the error re-raised."""
        return self._completion.result(timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """Block until answered; the recorded error (``None`` on success)."""
        return self._completion.exception(timeout)

    def add_done_callback(self, fn) -> None:
        """Run ``fn(ticket)`` on completion (now, if already answered).

        The callback runs in whatever thread resolved the ticket — the
        submitting thread for a cache hit, a pool completion thread
        otherwise — so it must be thread-safe and must not block.  Code
        living on an asyncio loop should use :meth:`add_loop_callback`
        instead of touching loop state from here.
        """
        self._completion.add_done_callback(fn)

    def add_loop_callback(self, loop, fn) -> None:
        """Run ``fn(ticket)`` *on the event loop* once the ticket resolves.

        The bridge between the completion-driven scheduler and asyncio
        code: completions resolve in pool/submitter threads, where
        touching loop state is undefined behaviour, so this wraps the
        callback in ``loop.call_soon_threadsafe``.  A loop that has
        already closed (server past its drain deadline) swallows the
        callback — by then nobody is listening for the verdict, which
        is already cached.
        """

        def _bounce(ticket) -> None:
            try:
                loop.call_soon_threadsafe(fn, ticket)
            except RuntimeError:  # loop already closed
                pass

        self._completion.add_done_callback(_bounce)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done() else "pending"
        return f"ServiceTicket({int(self)}, {state})"


class _Inflight:
    """One in-flight computation and every ticket awaiting it."""

    __slots__ = ("key", "tickets", "features", "digest")

    def __init__(self, key: str, ticket: ServiceTicket) -> None:
        self.key = key
        self.tickets = [ticket]
        #: Structural features of the instance (set when a timing log is
        #: attached), recorded with the solve's elapsed time.
        self.features: dict | None = None
        #: Structural :func:`~repro.hypergraph.pair_digest` (set when a
        #: durable store backs the cache), persisted alongside the
        #: verdict as its secondary index.
        self.digest: str | None = None


class EngineService:
    """A concurrent duality scheduler: cache → in-flight dedup → warm pool."""

    def __init__(
        self,
        method: str = "fk-b",
        n_jobs: int | None = 1,
        cache: ResultCache | None = None,
        pool: EnginePool | None = None,
        cache_max_entries: int | None = None,
        timings: TimingLog | str | Path | None = None,
        store: VerdictStore | str | Path | None = None,
        shard_backend=None,
    ) -> None:
        """Start a service session.

        ``cache`` may be a live in-memory :class:`ResultCache` (the net
        server shares one across its per-method services) or ``None``
        for no caching.  ``pool`` lets several services share one
        warm :class:`EnginePool`; a pool the service created itself is
        shut down on :meth:`close`, a borrowed one is left running.
        ``timings`` (a :class:`~repro.obs.timings.TimingLog` or a path)
        records every computed solve — engine, elapsed, structural
        features — as one JSONL line; verdicts are never affected.

        ``store`` (a :class:`~repro.store.VerdictStore` or a path) is
        the persistence path: every computed verdict is one fsync'd
        journal append before its ticket resolves, the service's
        :class:`ResultCache` becomes a read-through/write-through LRU
        over it (capped by ``cache_max_entries``; ``None`` keeps it
        unbounded), and — unless an explicit ``timings`` sink is given
        — per-engine timings land in the store's ``timings`` table.
        Mutually exclusive with ``cache``; a store the service opened
        from a path is closed on :meth:`close`, a live one is left open
        for its other users.

        ``shard_backend`` (a :class:`~repro.parallel.backends.ShardBackend`)
        redirects cache-miss solves of the parallel methods (``fk-a``,
        ``fk-b``, ``bm``, ``logspace``) through
        :func:`~repro.parallel.executor.decide_duality_parallel` on
        that backend — the coordinator mode, where shards fan out to a
        peer fleet instead of the local pool.  Other methods, cache
        hits, and dedup joins are untouched; the backend is borrowed
        (its owner closes it).
        """
        self.method = method
        if isinstance(cache, (str, Path)):
            raise TypeError(
                "cache= takes a live ResultCache; persist verdicts with "
                "store=<path> (a durable VerdictStore) instead"
            )
        if store is not None and cache is not None:
            raise ValueError(
                "pass either cache= (an in-memory ResultCache) or "
                "store= (durable journal/SQLite store), not both"
            )
        if method in ("portfolio", "auto") and store is not None:
            raise ValueError(
                f"method={method!r} cannot be cached: the winning engine "
                "(and hence the certificate) depends on timing; pick a "
                "concrete engine or drop the store (timings can still land "
                "durably via timings=store.timing_log())"
            )
        if method in ("portfolio", "auto") and cache is not None:
            # Fail at session start, not mid-drain: a portfolio (or auto
            # low-confidence race) winner is timing-dependent, which is
            # exactly what a replay cache must not store (same rule as
            # solve_many's).
            raise ValueError(
                f"method={method!r} cannot be cached: the winning engine "
                "(and hence the certificate) depends on timing; pick a "
                "concrete engine or drop the cache"
            )
        self._owns_store = isinstance(store, (str, Path))
        self.store: VerdictStore | None = (
            VerdictStore(store) if self._owns_store else store
        )
        if self.store is not None:
            # Write-through LRU over the durable store: every put is
            # journal-appended before it is visible.
            self.cache: ResultCache | None = ResultCache(
                max_entries=cache_max_entries, backend=self.store
            )
        else:
            self.cache = cache
        self.shard_backend = shard_backend
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else EnginePool(n_jobs)
        self.pool.start()
        self._lock = threading.RLock()
        self._undrained: list[ServiceTicket] = []
        self._inflight: dict[str, _Inflight] = {}
        self._next_id = 0
        self.requests = 0
        #: How each answered request got its verdict (satellite of the
        #: dedup-elapsed fix): computed / cache / dedup.
        self.by_origin = {"computed": 0, "cache": 0, "dedup": 0}
        if isinstance(timings, (str, Path)):
            self.timings: TimingLog | None = TimingLog(timings)
            self._owns_timings = True
        else:
            self.timings = timings
            self._owns_timings = False
        if self.timings is None and self.store is not None:
            # The store is the system of record: per-engine timings
            # default into its timings table (an explicit JSONL sink
            # still wins when the caller asked for one).
            self.timings = self.store.timing_log()
        self._closed = False

    # ------------------------------------------------------------------
    # The scheduler
    # ------------------------------------------------------------------

    def submit(
        self, instance, *, collect: bool = True, trace=None
    ) -> ServiceTicket:
        """Schedule one instance: a ``(G, H)`` pair or a ``.hg`` path.

        Returns the request's :class:`ServiceTicket` (usable directly
        as its integer request id).  The cache is consulted *here*: a
        hit's ticket is already resolved when ``submit`` returns, and
        never touches a worker.  An identical instance already in
        flight is joined, not recomputed.  Raises
        :class:`PoolClosedError` after :meth:`close`.  Path instances
        are loaded here too, so a missing or malformed file fails its
        own submit with the caller still knowing which request it was —
        it can never take down a later ``drain`` (and the rest of the
        queue) with it.

        With ``collect=True`` (the default) the ticket also joins the
        drain batch: the next :meth:`drain` blocks on it and returns
        its response in submission order.  Callers that await tickets
        themselves — the TCP server, the ``serve`` stdin loop — pass
        ``collect=False`` so their requests never leak into another
        caller's drain.

        ``trace`` (a :class:`repro.obs.trace.SpanContext`) makes this
        one request traced: cache-lookup / dedup-join / queue-wait /
        worker-solve spans are recorded under it as the request moves
        through the scheduler.  ``None`` (the default) costs nothing.
        """
        if self._closed:
            raise PoolClosedError("service is closed; open a new EngineService")
        if isinstance(instance, (str, Path)):
            source: str | None = str(instance)
            g, h = load_instance(instance)
        else:
            source = None
            g, h = instance
        key = instance_key(g, h, self.method)
        cache_hit: DualityResult | None = None
        entry: _Inflight | None = None
        lookup_start = time.time() if trace is not None else 0.0
        with self._lock:
            if self._closed:
                raise PoolClosedError(
                    "service is closed; open a new EngineService"
                )
            request_id = self._next_id
            self._next_id += 1
            ticket = ServiceTicket(request_id, source, key)
            ticket.trace = trace
            if collect:
                self._undrained.append(ticket)
            self.requests += 1
            joined = self._inflight.get(key)
            if joined is not None:
                # Same instance already computing: replay its verdict
                # when it lands, without consulting the cache again —
                # one solve, one recorded miss (solve_many's
                # within-batch dedup rule).  An in-flight key cannot be
                # in the cache: _on_solved fills the cache and retires
                # the entry under this same lock.
                joined.tickets.append(ticket)
                ticket._joined_at = time.time()
                return ticket
            if self.cache is not None:
                cache_hit = self.cache.get(key)
            if cache_hit is None:
                entry = _Inflight(key, ticket)
                self._inflight[key] = entry
        if trace is not None:
            record_span(
                trace,
                "cache-lookup",
                lookup_start,
                time.time(),
                hit=cache_hit is not None,
                cached_service=self.cache is not None,
            )
        if cache_hit is not None:
            with self._lock:
                self.by_origin["cache"] += 1
            ticket._completion.resolve(
                value=self._response(
                    ticket, cache_hit, 0.0, cached=True, origin="cache"
                )
            )
            return ticket
        g_payload, h_payload = mask_payload(g), mask_payload(h)
        if self.cache is not None and self.cache.backed:
            # The durable store indexes verdicts structurally too; the
            # digest travels with the in-flight entry to _on_solved.
            entry.digest = pair_digest(g, h)
        if self.timings is not None:
            # Set before the pool sees the item: at n_jobs=1 the solve
            # (and _on_solved) runs inline inside pool.submit.
            entry.features = structural_features(g_payload, h_payload)
        if self.shard_backend is not None and self.method in PARALLEL_METHODS:
            self._solve_distributed(entry, ticket, g, h, trace)
            return ticket
        if trace is not None:
            # The worker builds its spans under the request's trace id;
            # only the picklable id pair crosses the process boundary.
            payload = (g_payload, h_payload, self.method, trace.wire())
            future = self.pool.submit(
                solve_batch_entry_obs, payload, collect=False
            )
        else:
            payload = (g_payload, h_payload, self.method)
            future = self.pool.submit(solve_batch_entry, payload, collect=False)
        future.trace = trace
        future.add_done_callback(
            lambda f, entry=entry: self._on_solved(entry, f)
        )
        return ticket

    def _solve_distributed(self, entry: _Inflight, ticket, g, h, trace) -> None:
        """One cache-miss solve through the shard backend (coordinator
        mode): plan locally, fan the shards out, merge — then feed the
        verdict through the exact completion path a pool solve uses.

        Runs synchronously in the submitting thread (the server's
        dispatcher executor), like an inline ``n_jobs=1`` pool solve:
        the backend's own width is the parallelism, so a second local
        worker layer would only add queueing.  A synthetic completion
        keeps every :meth:`_on_solved` invariant — persist before
        resolve, dedup replay, timing rows — identical to the local
        path.
        """
        future = Completion()
        future.trace = trace
        future.submitted_at = time.time()
        future.add_done_callback(lambda f, entry=entry: self._on_solved(entry, f))
        solve_start = time.time()
        started = time.perf_counter()
        try:
            result = decide_duality_parallel(
                g, h, method=self.method, backend=self.shard_backend, trace=trace
            )
        except Exception as exc:  # noqa: BLE001 - per-request error object
            future.resolve(error=exc)
            return
        elapsed = time.perf_counter() - started
        if trace is not None:
            record_span(
                trace,
                "distributed-solve",
                solve_start,
                time.time(),
                backend=self.shard_backend.name,
                method=self.method,
            )
        future.resolve(value=(result, elapsed))

    def _on_solved(self, entry: _Inflight, future) -> None:
        """One computation landed: cache it, resolve every waiter.

        Runs in whatever thread completed the future — the submitting
        thread at ``n_jobs=1``, a pool collector thread otherwise.
        """
        error = future.exception()
        worker_spans = None
        with self._lock:
            self._inflight.pop(entry.key, None)
            tickets = list(entry.tickets)
            if error is None:
                outcome = future.result()
                if len(outcome) == 3:
                    # The traced worker entry piggybacks its spans on
                    # the result (a sink cannot cross processes).
                    result, elapsed, extras = outcome
                    worker_spans = extras.get("spans")
                else:
                    result, elapsed = outcome
                if self.cache is not None:
                    # With a store backend this is the durable journal
                    # append (persist-before-resolve happens right here,
                    # before any waiter is resolved below).
                    self.cache.put(entry.key, result, digest=entry.digest)
        if error is not None:
            for ticket in tickets:
                ticket._completion.resolve(error=error)
            return
        trace = getattr(future, "trace", None)
        if trace is not None and worker_spans:
            # Queue wait is the gap between pool submission and the
            # moment a worker actually picked the item up.
            worker_start = min(s["start"] for s in worker_spans)
            record_span(
                trace,
                "queue-wait",
                future.submitted_at,
                max(future.submitted_at, worker_start),
            )
            trace.sink.extend(worker_spans)
        if self.timings is not None:
            self._record_timings(entry, result, elapsed, trace)
        with self._lock:
            self.by_origin["computed"] += 1
            self.by_origin["dedup"] += len(tickets) - 1
        primary = True
        for ticket in tickets:
            if not primary and ticket.trace is not None:
                # The joiner's own wait on the primary's computation.
                record_span(
                    ticket.trace,
                    "dedup-join",
                    ticket._joined_at if ticket._joined_at else time.time(),
                    time.time(),
                    key=entry.key[:16],
                )
            ticket._completion.resolve(
                value=self._response(
                    ticket,
                    result,
                    elapsed,
                    cached=not primary,
                    origin="computed" if primary else "dedup",
                )
            )
            primary = False

    def _record_timings(self, entry, result, elapsed, trace) -> None:
        """One JSONL row per computed solve (plus the portfolio's losers).

        Never lets a logging failure poison a verdict that is already
        computed — recording errors are swallowed.
        """
        trace_id = trace.trace_id if trace is not None else None
        try:
            self.timings.record(
                self.method,
                elapsed,
                features=entry.features,
                dual=result.is_dual,
                trace_id=trace_id,
            )
            extra = getattr(result.stats, "extra", None)
            auto = extra.get("auto") if isinstance(extra, dict) else None
            portfolio = extra.get("portfolio") if isinstance(extra, dict) else None
            if auto:
                # The selector's outcome rows (role="auto") feed the
                # online-learning loop: each engine it actually ran,
                # tagged with the chosen winner and the decision mode.
                # A race fallback also sets extra["portfolio"]; the auto
                # rows subsume it, so don't record the race twice.
                for engine, engine_s in (auto.get("timings_s") or {}).items():
                    if engine_s is None:
                        continue
                    self.timings.record(
                        engine,
                        engine_s,
                        features=entry.features,
                        dual=result.is_dual,
                        trace_id=trace_id,
                        role="auto",
                        winner=auto.get("engine"),
                        mode=auto.get("mode"),
                    )
            elif portfolio:
                # The racer already timed every engine it ran — per-engine
                # rows are exactly the learned-selection training signal.
                for engine, engine_s in (portfolio.get("timings_s") or {}).items():
                    self.timings.record(
                        engine,
                        engine_s,
                        features=entry.features,
                        dual=result.is_dual,
                        trace_id=trace_id,
                        role="portfolio",
                        winner=portfolio.get("winner"),
                    )
        except Exception:  # noqa: BLE001 - observation must not break solves
            pass

    @staticmethod
    def _response(
        ticket: ServiceTicket,
        result: DualityResult,
        elapsed_s: float,
        cached: bool,
        origin: str = "computed",
    ) -> ServiceResponse:
        return ServiceResponse(
            request_id=ticket.request_id,
            source=ticket.source,
            key=ticket.key,
            result=result,
            elapsed_s=elapsed_s,
            cached=cached,
            origin=origin,
        )

    def drain(self) -> list[ServiceResponse]:
        """Await everything submitted for collection, in submission order.

        The lock-step compatibility view over the scheduler: responses
        come back in the order the tickets were submitted, with
        verdicts and certificates identical to one-at-a-time
        ``decide_duality`` calls.  A request error is re-raised here
        (the first one, in submission order) after the whole batch has
        settled — the rest of the batch is still computed and cached.
        The service stays open — submit/drain cycles repeat on the same
        workers.  In store mode every computed verdict has already been
        journal-appended by the time its ticket resolves, so a session
        that crashes later has lost nothing it answered.
        """
        if self._closed:
            raise PoolClosedError("service is closed; open a new EngineService")
        with self._lock:
            tickets, self._undrained = self._undrained, []
        responses: list[ServiceResponse] = []
        first_error: BaseException | None = None
        for ticket in tickets:
            error = ticket.exception()
            if error is not None:
                if first_error is None:
                    first_error = error
            else:
                responses.append(ticket.result())
        if first_error is not None:
            raise first_error
        return responses

    def solve(self, g: Hypergraph, h: Hypergraph) -> ServiceResponse:
        """Answer one in-memory pair now (queued requests are untouched)."""
        return self.submit((g, h), collect=False).result()

    def solve_file(self, path: str | Path) -> ServiceResponse:
        """Answer one ``.hg`` instance file now (the queue is untouched)."""
        return self.submit(path, collect=False).result()

    # ------------------------------------------------------------------
    # Lifecycle and introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """A snapshot of service health for logs and tests."""
        with self._lock:
            out = {
                "requests": self.requests,
                "queued": len(self._undrained),
                "inflight": len(self._inflight),
                "method": self.method,
                "n_jobs": self.pool.n_jobs,
                "pool_generations": self.pool.generations,
                "pool_restarts": self.pool.restarts,
                "tasks_completed": self.pool.tasks_completed,
                "by_origin": dict(self.by_origin),
            }
        if self.cache is not None:
            out["cache_hits"] = self.cache.hits
            out["cache_misses"] = self.cache.misses
            out["cache_evictions"] = self.cache.evictions
            out["cache_entries"] = len(self.cache)
        if self.timings is not None:
            out["timings_recorded"] = self.timings.records_written
        if self.store is not None:
            out["store"] = self.store.stats()
        return out

    def register_metrics(self, registry) -> None:
        """Register service, pool, and cache counters on an obs
        :class:`~repro.obs.metrics.MetricsRegistry` (callback gauges —
        scrapes read the live values)."""
        registry.gauge_fn(
            "service_requests_total", "Requests submitted", lambda: self.requests
        )
        registry.gauge_fn(
            "service_inflight",
            "Distinct computations currently in flight",
            lambda: len(self._inflight),
        )
        for origin in ("computed", "cache", "dedup"):
            registry.gauge_fn(
                f"service_responses_{origin}_total",
                f"Responses answered via {origin}",
                lambda origin=origin: self.by_origin[origin],
            )
        self.pool.register_metrics(registry)
        if self.cache is not None:
            self.cache.register_metrics(registry)
        if self.store is not None:
            self.store.register_metrics(registry)

    def close(self) -> None:
        """End the session: release the owned store, log and workers.

        Idempotent.  A borrowed pool (one passed into the constructor)
        is left running for its other users; with an owned pool, any
        ticket still in flight resolves with :class:`PoolClosedError`.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_timings and self.timings is not None:
            self.timings.close()
        if self._owns_store and self.store is not None:
            # Folds the journal into SQLite and releases the handles; a
            # borrowed store stays open for its other users.
            self.store.close()
        if self._owns_pool:
            self.pool.shutdown()

    def __enter__(self) -> "EngineService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def response_to_json(response: ServiceResponse) -> dict:
    """A JSON-safe dict for one verdict line of the ``serve`` stream.

    Witness vertices go through the lossless tagged codec; a witness
    outside the codec's type table (user-defined objects) degrades to
    its ``repr`` strings rather than failing the whole stream.
    """
    result = response.result
    cert = result.certificate
    try:
        witness = encode_vertex_set(cert.witness)
    except CodecError:
        witness = (
            sorted(map(repr, cert.witness)) if cert.witness is not None else None
        )
    return {
        "id": response.request_id,
        "source": response.source,
        "key": response.key,
        "method": result.method,
        "verdict": result.verdict.value,
        "dual": result.is_dual,
        "cached": response.cached,
        "origin": response.origin,
        "elapsed_ms": round(response.elapsed_s * 1000, 3),
        "kind": cert.kind.name if cert.kind is not None else None,
        "witness": witness,
        "path": list(cert.path) if cert.path is not None else None,
        "detail": cert.detail,
    }
