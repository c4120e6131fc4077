"""An asyncio TCP front end over the :mod:`repro.service` scheduler.

Every connection is multiplexed onto **one event loop**: where the old
thread-per-connection server spent two OS threads per client (and
degraded past a few hundred connections), :class:`AsyncDualityServer`
holds thousands of idle connections for the cost of their sockets —
the reader of every connection is a thin coroutine, and the framing in
:mod:`repro.net.protocol` plus the completion-driven
:class:`~repro.service.ServiceTicket` scheduler mean nothing about the
solve path had to change to get there.  Verdicts stay bit-for-bit
identical to serial ``decide_duality``.

Threading model (three kinds of thread, each with one job):

* the **event loop thread** owns every connection: reading lines,
  enqueueing responses, and all per-connection state.  It never solves,
  never loads a file, and never touches the disk, so a slow instance
  cannot freeze ten thousand idle connections;
* a small **dispatcher executor** runs :meth:`EngineService.submit` —
  request decoding, cache lookup, and (at ``n_jobs=1``) the inline
  solve itself — off the loop;
* the **pool's completion threads** resolve tickets.  Each ticket's
  done-callback builds the response payload in that thread, then
  bounces the finished payload into the loop via
  ``call_soon_threadsafe`` (the bridge
  :meth:`~repro.service.ServiceTicket.add_loop_callback` documents).

Backpressure, per connection, both directions:

* **read side** — at most ``max_inflight`` solves may be scheduled and
  undelivered per connection.  Past the cap the reader coroutine parks
  on a semaphore instead of calling ``read`` — asyncio flow control
  then stops the transport, TCP stops the peer, and a client that
  pipelines a million requests buffers them in *its own* kernel, not in
  server memory.  Non-solve ops hold slots from a second, smaller
  window, so a ping flood cannot grow the outbox either;
* **write side** — each connection has one writer task draining a FIFO
  outbox with ``await writer.drain()`` under a send timeout.  A client
  that stops reading stalls only its own writer (and, through the slot
  cap, its own reader); past :data:`~AsyncDualityServer.SEND_TIMEOUT`
  the connection is declared dead and dropped.

Auth: with ``auth_token`` set, the first frame of every connection must
be an ``auth`` op carrying the token — anything else (or a wrong token)
gets one clean error line and a disconnect, and never reaches the
scheduler.

Lifecycle is unchanged from the threaded generations: :meth:`start`
binds and spawns the loop thread, :meth:`shutdown` (or a client
``shutdown`` request, or ``KeyboardInterrupt`` in the CLI) waits for
in-flight tickets to deliver, closes the store, then closes the pool.
Persistence has one path: with a ``store`` the server caches through a
write-through LRU over the durable :class:`~repro.store.VerdictStore`,
so every computed verdict is journal-appended *before* it is written
to the wire; without one it caches nothing.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.net.protocol import (
    AuthError,
    LineTooLong,
    MAX_LINE_BYTES,
    ProtocolError,
    decode_hypergraph,
    parse_request,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timings import TimingLog
from repro.obs.trace import Span, SpanContext, TraceSink, new_trace_id, record_span
from repro.parallel.backends import (
    PeerBackend,
    decode_shard_item,
    encode_shard_outcome,
)
from repro.parallel.batch import ResultCache
from repro.parallel.executor import SHARD_RUNNERS
from repro.service import EnginePool, EngineService, response_to_json
from repro.store import VerdictStore


def parse_address(text: str) -> tuple[str, int]:
    """Split a ``HOST:PORT`` string (``:PORT`` alone means localhost)."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"expected HOST:PORT (e.g. 127.0.0.1:7171), got {text!r}"
        )
    return host or "127.0.0.1", int(port)


class _RequestTrace:
    """The tracing state of one traced solve request.

    ``sink`` is per-request so the spans can be handed back to the
    client that asked for them; ``ctx`` parents the scheduler's phase
    spans under the ``server`` root span; ``reply`` says whether the
    client asked for the spans on the wire (a server traced only by
    ``--slow-ms``/``--trace`` keeps them local).
    """

    __slots__ = ("sink", "ctx", "root", "reply")

    def __init__(self, trace_id: str, reply: bool) -> None:
        self.sink = TraceSink(maxlen=256)
        self.root = Span(trace_id, "server")
        self.ctx = SpanContext(trace_id, self.root.span_id, self.sink)
        self.reply = reply

    def finish(self) -> list[dict]:
        """Close the root span; every span of the request as dicts."""
        self.root.finish()
        self.sink.record(self.root)
        return [item.to_dict() for item in self.sink.spans()]


class _AsyncConnection:
    """One client connection: loop-owned state plus its writer task.

    Responses are enqueued (never written directly) into a FIFO outbox
    that the connection's writer task drains with ``drain()``-based
    flow control, so one connection's lines never interleave and a
    stalled client blocks only itself.  ``slots`` is the read-side
    backpressure cap: acquired by the reader before a solve is
    dispatched, released by the writer once the response left (or the
    wire died) — a full window parks the reader, which parks the
    transport, which parks the peer.
    """

    _CLOSE = object()

    def __init__(
        self,
        index: int,
        writer: asyncio.StreamWriter,
        max_inflight: int,
        op_window: int,
        send_timeout: float,
    ) -> None:
        self.index = index
        self.writer = writer
        self.dead = False  # a send failed or timed out; the wire is gone
        self.authenticated = False
        #: Solves dispatched and not yet enqueued for writing.  Touched
        #: only on the event loop thread; read (atomically) by stats.
        self.pending = 0
        self.slots = asyncio.Semaphore(max_inflight)
        self.op_slots = asyncio.Semaphore(op_window)
        self.outbox: asyncio.Queue = asyncio.Queue()
        self.send_timeout = send_timeout
        self.writer_task: asyncio.Task | None = None
        self._closed = False

    # -- the write side (the only code that touches the transport) -----

    async def write_loop(self) -> None:
        while True:
            payload, kind = await self.outbox.get()
            if payload is self._CLOSE:
                return
            if not self.dead:
                try:
                    self.writer.write(
                        json.dumps(payload).encode("utf-8") + b"\n"
                    )
                    await asyncio.wait_for(
                        self.writer.drain(), self.send_timeout
                    )
                except (OSError, TimeoutError):
                    # Stalled past the send timeout or vanished: the
                    # connection is over; computed verdicts are already
                    # cached — only their delivery is lost.
                    self.dead = True
            if kind == "solve":
                self.slots.release()
            elif kind == "op":
                self.op_slots.release()

    async def send_op(self, payload: dict) -> None:
        """Enqueue one inline-op response (bounded by the op window)."""
        await self.op_slots.acquire()
        self.outbox.put_nowait((payload, "op"))

    def enqueue_solve(self, payload: dict) -> None:
        """Enqueue one solve response (its slot is already held)."""
        self.outbox.put_nowait((payload, "solve"))

    async def aclose(self) -> None:
        """Flush the outbox, stop the writer, close the transport."""
        if self._closed:
            return
        self._closed = True
        self.outbox.put_nowait((self._CLOSE, None))
        if self.writer_task is not None:
            try:
                await asyncio.wait_for(self.writer_task, 10)
            except (TimeoutError, asyncio.CancelledError):
                pass
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (OSError, asyncio.CancelledError):  # already broken
            pass


class AsyncDualityServer:
    """JSON-lines duality scheduler on one event loop: 10k connections,
    per-connection backpressure, shared warm pool, shared cache."""

    #: How many solves one connection may have scheduled-but-undelivered
    #: before the server stops reading from it (asyncio flow control
    #: then pushes back all the way to the client's send buffer).
    MAX_INFLIGHT = 64

    #: The same cap for inline ops (ping/stats): a response window so a
    #: ping flood from a non-reading client cannot grow the outbox.
    OP_WINDOW = 32

    #: How long (seconds) one response write may take before the client
    #: is declared stalled and its connection dropped.
    SEND_TIMEOUT = 30.0

    #: How long (seconds) a closing connection or server waits for its
    #: in-flight tickets to deliver before giving up on them.
    DRAIN_TIMEOUT = 30.0

    #: listen(2) backlog — high enough for a reconnect stampede.
    BACKLOG = 512

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        method: str = "fk-b",
        n_jobs: int | None = 1,
        max_line_bytes: int = MAX_LINE_BYTES,
        cache_max_entries: int | None = None,
        max_inflight: int = MAX_INFLIGHT,
        auth_token: str | None = None,
        slow_ms: float | None = None,
        trace_requests: bool = False,
        timings: str | Path | None = None,
        store: VerdictStore | str | Path | None = None,
        peers: list | None = None,
        peer_auth_token: str | None = None,
        hedge_ms: float | None = None,
    ) -> None:
        """Configure a server (nothing binds until :meth:`start`).

        ``port=0`` asks the OS for a free port (read it back from
        :attr:`address` after ``start``).  ``max_inflight`` is the
        per-connection backpressure cap; ``auth_token`` (when set)
        makes the first frame of every connection a mandatory ``auth``
        op.

        ``store`` (a :class:`~repro.store.VerdictStore` or a path) turns
        caching on: the server's per-method services share one
        :class:`ResultCache` LRU (capped by ``cache_max_entries``) that
        writes through to the store, so every computed verdict is one
        fsync'd append *before* it reaches the wire, two server
        processes can share one store file, and per-engine timings
        default into the store's ``timings`` table (an explicit
        ``timings`` path still wins).  A legacy ``cache.json`` at the
        store path is imported automatically on open.  Without a store
        the server caches nothing.

        Observability knobs (all off by default, all verdict-neutral):
        ``slow_ms`` logs one structured JSON line to stderr — with the
        request's span breakdown — for every solve slower than that
        many milliseconds; ``trace_requests`` traces *every* solve
        server-side (clients can always trace their own requests with
        the ``trace`` field regardless); ``timings`` appends one JSONL
        row per computed solve (engine, elapsed, structural features)
        to the given path.

        ``peers`` (a list of ``"host:port"`` worker addresses) turns
        this server into a *coordinator*: parallel-method solves shard
        through a :class:`~repro.parallel.backends.PeerBackend` onto
        the fleet via the ``solve_shard`` op instead of the local
        pool, with hedged retries after ``hedge_ms`` milliseconds
        (``None`` keeps the backend's default deadline).
        ``peer_auth_token`` authenticates the outgoing peer
        connections (a fleet usually shares one secret).  Every server
        answers ``solve_shard`` regardless, so any ``repro serve``
        process can be a worker.
        """
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        self._host = host
        self._port = port
        self.method = method
        self.n_jobs = n_jobs
        self.max_line_bytes = max_line_bytes
        self.max_inflight = max_inflight
        self._auth_token = auth_token
        self._owns_store = isinstance(store, (str, Path))
        self.store: VerdictStore | None = (
            VerdictStore(store) if self._owns_store else store
        )
        self.cache: ResultCache | None = (
            ResultCache(max_entries=cache_max_entries, backend=self.store)
            if self.store is not None
            else None
        )
        self.pool = EnginePool(n_jobs)
        self.shard_backend: PeerBackend | None = None
        if peers:
            if hedge_ms is None:
                hedge_after = PeerBackend.DEFAULT_HEDGE_AFTER
            else:
                # 0 (or negative) disables the hedging deadline; drop
                # retries on a dead peer still fire immediately.
                hedge_after = hedge_ms / 1000.0 if hedge_ms > 0 else None
            self.shard_backend = PeerBackend(
                peers, auth_token=peer_auth_token, hedge_after=hedge_after
            )
        self._services: dict[str, EngineService] = {}
        # Guards the _services dict itself (stats() snapshots it while
        # the loop inserts); solves schedule concurrently on the pool.
        self._services_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._dispatcher: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_event: asyncio.Event | None = None
        self._connections: set[_AsyncConnection] = set()
        self._conn_lock = threading.Lock()
        self._handler_tasks: set[asyncio.Task] = set()
        self._closing = threading.Event()
        self._stopped = threading.Event()
        self._ready = threading.Event()
        self._start_error: BaseException | None = None
        self._count_lock = threading.Lock()
        #: Server-wide in-flight solves (dispatched, response not yet
        #: enqueued).  Mutated only on the loop thread; shutdown's drain
        #: polls it so every scheduled verdict gets delivered (or its
        #: connection declared dead) before the pool closes.
        self._inflight = 0
        self.slow_ms = slow_ms
        self.trace_requests = trace_requests
        # One shared log for every per-method service view; with a
        # store and no explicit path, timings land in the store's table.
        if timings is not None:
            self.timings = TimingLog(timings)
        elif self.store is not None:
            self.timings = self.store.timing_log()
        else:
            self.timings = None
        self.connections_accepted = 0
        self.requests_served = 0
        self.errors = 0
        #: The unified metrics registry (the ``metrics`` op's answer).
        self.registry = MetricsRegistry()
        self.latency = self.registry.histogram(
            "solve_latency_seconds",
            "Solve wall time, dispatch to response build (seconds)",
        )
        self._requests_by_op = self.registry.counter(
            "requests_total", "Requests answered, by op", ("op",)
        )
        self._errors_by_op = self.registry.counter(
            "errors_total", "Error responses, by op", ("op",)
        )
        self.registry.gauge_fn(
            "connections_open",
            "Currently open client connections",
            lambda: len(self._connections),
        )
        self.registry.gauge_fn(
            "connections_accepted_total",
            "Client connections accepted",
            lambda: self.connections_accepted,
        )
        self.registry.gauge_fn(
            "requests_inflight",
            "Solves dispatched and not yet delivered",
            lambda: self._inflight,
        )
        self.pool.register_metrics(self.registry)
        if self.shard_backend is not None:
            self.shard_backend.register_metrics(self.registry)
        if self.cache is not None:
            self.cache.register_metrics(self.registry)
        if self.store is not None:
            self.store.register_metrics(self.registry)

    def _count(self, counter: str) -> None:
        with self._count_lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def _tally(self, op: str) -> None:
        """One answered request: the plain counter plus its per-op series."""
        self._count("requests_served")
        self._requests_by_op.inc(op=op)

    def _tally_error(self, op: str) -> None:
        """One error response: the plain counter plus its per-op series."""
        self._count("errors")
        self._errors_by_op.inc(op=op)

    # ------------------------------------------------------------------
    # Lifecycle (the sync facade around the loop thread)
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "AsyncDualityServer":
        """Bind, listen, and spawn the event loop thread (idempotent)."""
        if self._closing.is_set():
            raise RuntimeError("server has been shut down; create a new one")
        if self._thread is not None:
            return self
        # Bind before spawning workers: a taken port must fail with
        # nothing to clean up, not leak a running pool.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self._host, self._port))
            listener.listen(self.BACKLOG)
            listener.setblocking(False)
            self.pool.start()
        except BaseException:
            listener.close()
            self.pool.shutdown()
            raise
        self._listener = listener
        # Dispatch (submit + inline solves at n_jobs=1) runs here, off
        # the loop; two threads minimum so a cache hit is never parked
        # behind one slow inline solve.
        self._dispatcher = ThreadPoolExecutor(
            max_workers=max(2, self.pool.n_jobs),
            thread_name_prefix="duality-dispatch",
        )
        self._thread = threading.Thread(
            target=self._thread_main, name="duality-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._start_error is not None:
            error = self._start_error
            self._thread.join(timeout=10)
            raise error
        return self

    def shutdown(self, timeout: float = 60.0) -> None:
        """Stop serving gracefully: deliver in-flight verdicts, flush
        the cache, close the pool.

        Safe to call from any thread and idempotent.  In-flight
        requests finish and get their responses; idle connections see a
        clean EOF.
        """
        self._closing.set()
        if self._thread is None:
            # start() was never called: still release the pool and
            # flush whatever the cache holds.
            self._finalize()
            return
        self._bounce_to_loop(self._signal_shutdown)
        self._stopped.wait(timeout)
        if self._thread is not threading.current_thread():
            self._thread.join(timeout)

    def wait(self) -> None:
        """Block until the server has fully stopped (CLI foreground)."""
        while not self._stopped.wait(0.5):
            pass

    def __enter__(self) -> "AsyncDualityServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - defensive
            if not self._ready.is_set():
                self._start_error = exc
                self._ready.set()
        finally:
            self._finalize()

    def _finalize(self) -> None:
        """Release everything (runs after the loop exits, or inline when
        the server never started)."""
        if self._stopped.is_set():
            return
        self._closing.set()
        if self._dispatcher is not None:
            # Queued dispatches are cancelled; a running inline solve is
            # awaited (threads cannot be killed, and its ticket resolves
            # into a closed connection harmlessly).
            self._dispatcher.shutdown(wait=True, cancel_futures=True)
        with self._services_lock:
            services = list(self._services.values())
        for service in services:
            service.close()  # borrowed pool/cache survive
        if self.timings is not None:
            self.timings.close()
        if self._owns_store and self.store is not None:
            self.store.close()
        if self.shard_backend is not None:
            self.shard_backend.close()
        self.pool.shutdown()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._stopped.set()

    def _signal_shutdown(self) -> None:
        """Loop-side shutdown trigger (idempotent)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    def _bounce_to_loop(self, fn, *args) -> None:
        """Run ``fn(*args)`` on the event loop from any thread.

        A loop that already closed (shutdown past its drain deadline)
        swallows the bounce: by then nobody is listening.
        """
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:
            pass

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        if self._closing.is_set():  # shutdown raced start
            self._shutdown_event.set()
        try:
            server = await asyncio.start_server(
                self._handle,
                sock=self._listener,
                limit=self.max_line_bytes,
                backlog=self.BACKLOG,
            )
        except BaseException as exc:
            self._start_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            await self._shutdown_event.wait()
        finally:
            self._closing.set()
            server.close()
            await server.wait_closed()
            # Every scheduled ticket delivers (or its client is declared
            # dead) before the workers disappear underneath it.
            deadline = self._loop.time() + self.DRAIN_TIMEOUT
            while self._inflight > 0 and self._loop.time() < deadline:
                await asyncio.sleep(0.05)
            with self._conn_lock:
                leftover = list(self._connections)
                self._connections.clear()
            await asyncio.gather(
                *(conn.aclose() for conn in leftover), return_exceptions=True
            )
            tasks = {t for t in self._handler_tasks if not t.done()}
            if tasks:
                await asyncio.wait(tasks, timeout=5)

    # ------------------------------------------------------------------
    # Per-connection handling (all on the loop thread)
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._count("connections_accepted")
        conn = _AsyncConnection(
            self.connections_accepted,
            writer,
            self.max_inflight,
            self.OP_WINDOW,
            self.SEND_TIMEOUT,
        )
        conn.writer_task = asyncio.ensure_future(conn.write_loop())
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        with self._conn_lock:
            self._connections.add(conn)
        try:
            while not (self._closing.is_set() or conn.dead):
                line = await self._read_line(conn, reader)
                if line is None:
                    break
                if not line.strip():
                    continue
                if not await self._serve_line(conn, line):
                    break
        except (OSError, ConnectionError):
            # The client vanished mid-read; its in-flight requests (if
            # any) still resolve below — their sends just go nowhere.
            pass
        finally:
            # Let this connection's in-flight tickets deliver, flush
            # the outbox in order, then release the transport.
            await self._await_conn_pending(conn)
            with self._conn_lock:
                self._connections.discard(conn)
            await conn.aclose()

    async def _read_line(
        self, conn: _AsyncConnection, reader: asyncio.StreamReader
    ) -> bytes | None:
        """One request line; ``None`` ends the connection.

        A clean EOF and a mid-request disconnect (trailing partial
        line) both end it quietly; an oversized line gets a
        ``LineTooLong`` error response first, because a half-read line
        has no trustworthy resynchronisation point.
        """
        try:
            return await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError:
            self._tally_error("protocol")
            await conn.send_op(
                self._error_payload(
                    None,
                    LineTooLong(
                        f"request line exceeds {self.max_line_bytes} bytes "
                        "without a newline"
                    ),
                )
            )
            return None
        except (OSError, ConnectionError):
            return None

    async def _serve_line(self, conn: _AsyncConnection, line: bytes) -> bool:
        """Dispatch one request line; False ends the connection."""
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self._tally_error("protocol")
            await conn.send_op(self._error_payload(None, exc))
            return True  # framing is intact: keep serving this client
        request_id = request.get("id")
        op = request.get("op", "solve")
        if self._auth_token is not None and not conn.authenticated:
            if op != "auth" or not self._token_matches(request):
                self._tally_error("auth")
                message = (
                    "wrong token"
                    if op == "auth"
                    else (
                        "authentication required: the first request "
                        "must be an 'auth' op with the server's token"
                    )
                )
                await conn.send_op(
                    self._error_payload(request_id, AuthError(message))
                )
                return False  # one clean error line, then disconnect
            conn.authenticated = True
            self._tally("auth")
            await conn.send_op(
                {"id": request_id, "ok": True, "authenticated": True}
            )
            return True
        if op == "auth":
            # No token required (or a redundant re-auth): fine, unless
            # the token is configured and this one is wrong.
            if self._auth_token is not None and not self._token_matches(request):
                self._tally_error("auth")
                await conn.send_op(
                    self._error_payload(request_id, AuthError("wrong token"))
                )
                return False
            self._tally("auth")
            await conn.send_op(
                {"id": request_id, "ok": True, "authenticated": True}
            )
            return True
        if op == "ping":
            self._tally("ping")
            await conn.send_op({"id": request_id, "ok": True, "pong": True})
            return True
        if op == "stats":
            self._tally("stats")
            await conn.send_op(
                {"id": request_id, "ok": True, "stats": self.stats()}
            )
            return True
        if op == "metrics":
            self._tally("metrics")
            await conn.send_op(
                {
                    "id": request_id,
                    "ok": True,
                    "metrics": self.registry.expose(),
                }
            )
            return True
        if op == "shutdown":
            # This connection's own solves are tracked; once they have
            # been enqueued, FIFO ordering puts them on the wire before
            # the shutdown acknowledgement.
            await self._await_conn_pending(conn)
            self._tally("shutdown")
            await conn.send_op(
                {"id": request_id, "ok": True, "shutting_down": True}
            )
            self._signal_shutdown()
            return False
        # op in ("solve", "solve_shard"): acquire a backpressure slot
        # *before* reading any further — a connection at its cap parks
        # here, the transport pauses, and the client's pipeline backs up
        # into the client's own buffers instead of server memory.
        await conn.slots.acquire()
        conn.pending += 1
        self._inflight += 1
        dispatch = (
            self._dispatch_shard_and_watch
            if op == "solve_shard"
            else self._dispatch_and_watch
        )
        try:
            self._dispatcher.submit(dispatch, conn, request)
        except RuntimeError:  # dispatcher closed: the server is closing
            conn.pending -= 1
            self._inflight -= 1
            conn.slots.release()
            return False
        return True

    def _token_matches(self, request: dict) -> bool:
        token = request.get("token")
        return isinstance(token, str) and hmac.compare_digest(
            token, self._auth_token
        )

    async def _await_conn_pending(self, conn: _AsyncConnection) -> None:
        deadline = self._loop.time() + self.DRAIN_TIMEOUT
        while conn.pending > 0 and self._loop.time() < deadline:
            await asyncio.sleep(0.02)

    # ------------------------------------------------------------------
    # The solve path (dispatcher + completion threads)
    # ------------------------------------------------------------------

    def _request_trace(self, request: dict) -> _RequestTrace | None:
        """The tracing state for one solve request (``None`` — the
        common case — means zero tracing work on the whole path).

        A request is traced when the client asked (``trace`` field: a
        trace-id string to adopt, or ``true`` to mint one here) or the
        server traces everything (``trace_requests`` / ``slow_ms``).
        Only a client-requested trace is echoed on the response.
        """
        requested = request.get("trace")
        if not (requested or self.trace_requests or self.slow_ms is not None):
            return None
        if isinstance(requested, str) and requested:
            trace_id = requested
        else:
            trace_id = new_trace_id()
        return _RequestTrace(trace_id, reply=bool(requested))

    def _dispatch_and_watch(self, conn: _AsyncConnection, request: dict) -> None:
        """Submit one solve to the scheduler (dispatcher thread).

        At ``n_jobs=1`` the submit runs the solve inline right here —
        which is exactly why this is not the loop thread.
        """
        request_id = request.get("id")
        started = time.monotonic()
        trace = self._request_trace(request)
        try:
            ticket = self._dispatch(request, trace)
        except Exception as exc:  # noqa: BLE001 - per-request error object
            self._tally_error("solve")
            self._bounce_to_loop(
                self._deliver, conn, self._error_payload(request_id, exc)
            )
            return
        ticket.add_done_callback(
            lambda t: self._finish_request(conn, request_id, started, trace, t)
        )

    def _dispatch_shard_and_watch(
        self, conn: _AsyncConnection, request: dict
    ) -> None:
        """Run one remote shard on the local pool (dispatcher thread).

        The worker half of the ``solve_shard`` op: decode the shard to
        the exact item a local :class:`WorkerPool` would have built,
        run it through the same module-level runner, and answer with
        the runner's outcome — so a coordinator's merge sees
        bit-for-bit what local sharding would have produced.
        """
        request_id = request.get("id")
        started = time.monotonic()
        trace = self._request_trace(request)
        try:
            decode_start = time.time()
            kind, item = decode_shard_item(request.get("shard"))
            if trace is not None:
                record_span(
                    trace.ctx, "decode-shard", decode_start, time.time(), kind=kind
                )
            future = self.pool.submit(SHARD_RUNNERS[kind], item, collect=False)
        except Exception as exc:  # noqa: BLE001 - per-request error object
            self._tally_error("solve_shard")
            self._bounce_to_loop(
                self._deliver, conn, self._error_payload(request_id, exc)
            )
            return
        future.add_done_callback(
            lambda settled: self._finish_shard(
                conn, request_id, kind, started, trace, settled
            )
        )

    def _finish_shard(
        self,
        conn: _AsyncConnection,
        request_id,
        kind: str,
        started: float,
        trace: _RequestTrace | None,
        future,
    ) -> None:
        """One shard settled: encode its outcome and bounce it into the
        loop (runs in whichever thread completed the shard)."""
        error = future.exception()
        if error is not None:
            self._tally_error("solve_shard")
            payload = self._error_payload(request_id, error)
        else:
            serialize_start = time.time()
            payload = {
                "id": request_id,
                "ok": True,
                "outcome": encode_shard_outcome(kind, future.result()),
            }
            if trace is not None:
                record_span(
                    trace.ctx, "serialize", serialize_start, time.time()
                )
            self._tally("solve_shard")
            self.latency.observe(time.monotonic() - started)
        if trace is not None:
            spans = trace.finish()
            if trace.reply and payload.get("ok"):
                payload["trace"] = {"id": trace.ctx.trace_id, "spans": spans}
            self._maybe_log_slow(request_id, started, trace, spans)
        self._bounce_to_loop(self._deliver, conn, payload)

    def _dispatch(self, request: dict, trace: _RequestTrace | None = None):
        """Schedule one solve on the shared scheduler; its ticket."""
        parse_start = time.time()
        method = request.get("method") or self.method
        if not isinstance(method, str):
            raise ProtocolError(f"method must be a string, got {method!r}")
        if "path" in request:
            instance = str(request["path"])
        elif "g" in request and "h" in request:
            instance = (
                decode_hypergraph(request["g"]),
                decode_hypergraph(request["h"]),
            )
        else:
            raise ProtocolError(
                "a solve request needs either inline 'g' and 'h' "
                "hypergraphs or a server-side 'path'"
            )
        if trace is not None:
            record_span(
                trace.ctx,
                "parse",
                parse_start,
                time.time(),
                inline="path" not in request,
                method=method,
            )
        service = self._service_for(method)
        return service.submit(
            instance, collect=False, trace=trace.ctx if trace else None
        )

    def _finish_request(
        self,
        conn: _AsyncConnection,
        request_id,
        started: float,
        trace: _RequestTrace | None,
        ticket,
    ) -> None:
        """One ticket resolved: build its response and bounce it into
        the loop.  Runs in whatever thread completed the solve — never
        the loop thread, so building the response cannot stall ten
        thousand other connections.
        """
        error = ticket.exception()
        if error is not None:
            self._tally_error("solve")
            payload = self._error_payload(request_id, error)
        else:
            payload = {"ok": True}
            serialize_start = time.time()
            payload.update(response_to_json(ticket.result()))
            payload["id"] = request_id  # the wire id wins over the queue's
            if trace is not None:
                record_span(
                    trace.ctx, "serialize", serialize_start, time.time()
                )
            self._tally("solve")
            self.latency.observe(time.monotonic() - started)
        if trace is not None:
            spans = trace.finish()
            if trace.reply and payload.get("ok"):
                payload["trace"] = {
                    "id": trace.ctx.trace_id,
                    "spans": spans,
                }
            self._maybe_log_slow(request_id, started, trace, spans)
        self._bounce_to_loop(self._deliver, conn, payload)

    def _maybe_log_slow(
        self, request_id, started: float, trace: _RequestTrace, spans: list[dict]
    ) -> None:
        """One structured stderr line per slow solve, with its span
        breakdown — greppable, one JSON object per line."""
        if self.slow_ms is None:
            return
        elapsed_ms = (time.monotonic() - started) * 1000
        if elapsed_ms < self.slow_ms:
            return
        breakdown = {}
        for item in spans:
            end = item.get("end")
            if end is not None:
                duration = round((end - item["start"]) * 1000, 3)
                name = item["name"]
                breakdown[name] = max(duration, breakdown.get(name, 0.0))
        line = {
            "event": "slow_request",
            "id": request_id,
            "trace_id": trace.ctx.trace_id,
            "elapsed_ms": round(elapsed_ms, 3),
            "threshold_ms": self.slow_ms,
            "spans_ms": breakdown,
        }
        print(json.dumps(line, separators=(",", ":")), file=sys.stderr, flush=True)

    def _deliver(self, conn: _AsyncConnection, payload: dict) -> None:
        """Loop thread: hand one finished response to the writer."""
        conn.pending -= 1
        self._inflight -= 1
        conn.enqueue_solve(payload)

    def _service_for(self, method: str) -> EngineService:
        """The per-method service view (shared pool, shared cache)."""
        with self._services_lock:
            service = self._services.get(method)
            if service is None:
                service = EngineService(
                    method=method,
                    # A portfolio (or auto-race) winner is timing-
                    # dependent — exactly what a replay cache must not
                    # store (solve_many's rule).  Timings still flow:
                    # self.timings is shared below, so auto solves feed
                    # the online-learning corpus even without a cache.
                    cache=None if method in ("portfolio", "auto") else self.cache,
                    pool=self.pool,
                    timings=self.timings,
                    shard_backend=self.shard_backend,
                )
                self._services[method] = service
        return service

    @staticmethod
    def _error_payload(request_id, exc: BaseException) -> dict:
        return {
            "id": request_id,
            "ok": False,
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
            },
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """A JSON-safe health snapshot (also the ``stats`` op's answer).

        Beyond the request/pool/cache counters, reports the
        backpressure state (per-connection in-flight, the cap),
        per-op request and error tallies, and service-time percentiles
        over the recent-request window.
        """
        with self._conn_lock:
            open_conns = [(c.index, c.pending) for c in self._connections]
        requests_by_op = {
            op: int(count) for op, count in self._requests_by_op.as_dict().items()
        }
        errors_by_op = {
            op: int(count) for op, count in self._errors_by_op.as_dict().items()
        }
        out = {
            "method": self.method,
            "n_jobs": self.pool.n_jobs,
            "auth_required": self._auth_token is not None,
            "max_inflight": self.max_inflight,
            "connections_accepted": self.connections_accepted,
            "connections_open": len(open_conns),
            "requests_served": self.requests_served,
            "requests_by_op": requests_by_op,
            "requests_inflight": self._inflight,
            "inflight_per_connection": {
                str(index): pending
                for index, pending in open_conns
                if pending
            },
            "errors": self.errors,
            "errors_by_op": errors_by_op,
            "latency": self.latency.snapshot_ms(),
            "pool_generations": self.pool.generations,
            "pool_restarts": self.pool.restarts,
            "tasks_completed": self.pool.tasks_completed,
        }
        with self._services_lock:
            out["methods_served"] = sorted(self._services)
            services = list(self._services.values())
        by_origin = {"computed": 0, "cache": 0, "dedup": 0}
        for service in services:
            for origin, count in service.stats()["by_origin"].items():
                by_origin[origin] = by_origin.get(origin, 0) + count
        out["responses_by_origin"] = by_origin
        if self.cache is not None:
            out["cache_entries"] = len(self.cache)
            out["cache_hits"] = self.cache.hits
            out["cache_misses"] = self.cache.misses
            out["cache_evictions"] = self.cache.evictions
        if self.store is not None:
            out["store"] = self.store.stats()
        if self.shard_backend is not None:
            out["peers"] = self.shard_backend.stats()
        return out


#: The event-loop server is *the* server since PR 6 (the threaded
#: generations are gone); the historical name stays as the API.
DualityServer = AsyncDualityServer
