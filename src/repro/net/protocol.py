"""The wire protocol of the duality service: JSON lines over TCP.

One request per line, one response per line, UTF-8 JSON objects, ``\n``
terminated — the network shape of what ``repro serve`` already speaks
over stdin/stdout, so every UNIX tool that can write lines can drive a
:class:`~repro.net.server.DualityServer` directly.

Requests
--------

======== ==================================================================
op       fields
======== ==================================================================
solve    ``id`` (echoed back), optional ``method`` (per-request engine
         override), and the instance: either inline ``g`` + ``h``
         hypergraphs (:func:`encode_hypergraph`) or a server-side
         ``path`` to an ``.hg`` instance file.  An optional ``trace``
         field (a trace-id string, or ``true`` to let the server mint
         one) makes this one request traced: the response carries a
         ``trace`` object ``{"id", "spans"}`` with the server-side span
         tree (parse / cache-lookup / queue-wait / worker-solve /
         serialize), each span a dict in the
         :meth:`repro.obs.trace.Span.to_dict` shape
solve_shard one planned shard of a decomposed instance: ``id`` plus a
         ``shard`` object in the wire shape of
         :func:`repro.parallel.backends.encode_shard_request` (kind +
         mask payload + shared vertex header).  The response carries
         the runner's ``outcome``
         (:func:`repro.parallel.backends.encode_shard_outcome`) — this
         is how a coordinator's
         :class:`~repro.parallel.backends.PeerBackend` fans one
         instance out to a worker fleet.  Scheduling, backpressure,
         auth, and tracing are exactly the ``solve`` op's
ping     liveness probe; answered with ``{"pong": true}``
stats    server/pool/cache health snapshot: counters, per-connection
         in-flight, cache hit/miss/eviction totals, per-op request and
         error tallies, p50/p99 service time
auth     ``token``: the server's shared secret.  On a server started
         with ``--auth-token`` this **must be the first frame** of the
         connection; a wrong or missing token is answered with one
         ``AuthError`` line and a disconnect.  Servers without a token
         accept (and ignore) the op.
metrics  the server's unified metrics registry rendered as Prometheus
         text exposition (version 0.0.4), returned as the ``metrics``
         string field of the response — counters, gauges, and the
         solve-latency summary, scrape-ready
shutdown ask the server to stop: in-flight requests drain, the cache is
         flushed atomically, the pool closes
======== ==================================================================

Responses carry ``"ok": true`` plus the verdict fields of
:func:`repro.service.response_to_json`, or ``"ok": false`` plus an
``error`` object ``{"type", "message"}`` — errors are *per request*;
they never tear down the connection, let alone the server.

**Responses may arrive out of request order.**  The server schedules
every solve on a shared worker pool and writes each response the
moment its verdict exists, so a fast instance overtakes a slow one
pipelined before it — that is the whole point of the concurrent
scheduler.  The echoed ``id`` is the correlation key: clients that
pipeline must match responses to requests by ``id``
(:meth:`repro.net.client.DualityClient.solve_many` does, and still
returns results in input order).  Non-solve ops (``ping``, ``stats``,
``shutdown``) are answered inline by the connection's reader, and one
connection's response lines never interleave mid-line (a dedicated
writer serialises them).

Framing is length-sane: a line longer than ``max_line_bytes`` (default
:data:`MAX_LINE_BYTES`) is refused with a protocol error and the
connection is closed, because a half-read oversized line has no
trustworthy resynchronisation point.

Flow control is per connection, both ways.  The server stops *reading*
a connection once it has ``max_inflight`` solves scheduled and
undelivered for it — a client that pipelines beyond the cap backs up
into its own socket buffers (TCP pushback), not server memory — and
each connection's responses are written under ``drain()`` throttling,
so a client that stops reading stalls only itself.  Clients should
therefore keep consuming responses while they stream requests
(:meth:`~repro.net.client.AsyncDualityClient.solve_many` does).

Hypergraphs travel through the lossless tagged codec of
:mod:`repro.parallel.codec` (one encoded vertex list per edge, plus the
universe for isolated vertices), so tuple- or frozenset-labelled
instances round-trip the wire with their exact vertex types.
"""

from __future__ import annotations

import json
import math
import socket

from repro.errors import VertexError
from repro.hypergraph import Hypergraph
from repro.parallel.codec import decode_vertex_set, encode_vertex_set

#: Default ceiling for one request/response line (4 MiB of JSON text).
MAX_LINE_BYTES = 4 * 1024 * 1024

#: The request operations a server understands.
OPERATIONS = ("solve", "solve_shard", "ping", "stats", "auth", "metrics", "shutdown")


class ProtocolError(ValueError):
    """A malformed request/response line or an ill-typed field."""


class LineTooLong(ProtocolError):
    """A line exceeded the negotiated ``max_line_bytes`` ceiling."""


class AuthError(ProtocolError):
    """A missing or wrong shared-secret token on an auth-required server."""


class RequestError(RuntimeError):
    """A server-side per-request failure, re-raised client-side.

    ``info`` is the error object off the wire: ``{"type", "message"}``.
    """

    def __init__(self, info: dict) -> None:
        super().__init__(f"{info.get('type', 'Error')}: {info.get('message', '')}")
        self.info = info


# ---------------------------------------------------------------------------
# Hypergraphs on the wire
# ---------------------------------------------------------------------------


def encode_hypergraph(hg: Hypergraph) -> dict:
    """A JSON-safe, lossless wire form: codec-tagged edges + universe."""
    return {
        "vertices": encode_vertex_set(hg.vertices),
        "edges": [encode_vertex_set(edge) for edge in hg.edges],
    }


def decode_hypergraph(payload) -> Hypergraph:
    """Invert :func:`encode_hypergraph`; raises :class:`ProtocolError`."""
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"hypergraph payload must be an object, got {type(payload).__name__}"
        )
    try:
        edges = [decode_vertex_set(edge) for edge in payload["edges"]]
        vertices = decode_vertex_set(payload.get("vertices"))
        return Hypergraph(edges, vertices=vertices)
    except (
        KeyError,
        TypeError,
        ValueError,
        OverflowError,
        RecursionError,
        VertexError,
    ) as exc:
        raise ProtocolError(f"malformed hypergraph payload: {exc}") from exc


# ---------------------------------------------------------------------------
# Line framing
# ---------------------------------------------------------------------------


def send_json(sock: socket.socket, obj: dict) -> None:
    """Write one JSON object as one ``\n``-terminated line."""
    sock.sendall(json.dumps(obj).encode("utf-8") + b"\n")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token} is not JSON")
    return value


#: Strict JSON: ``NaN``/``Infinity`` and numbers that overflow a double
#: are refused, so nothing non-finite is ever echoed back.
_REQUEST_DECODER = json.JSONDecoder(
    parse_constant=_finite_float, parse_float=_finite_float
)


def parse_request(line: bytes) -> dict:
    """Decode one request line into its dict; raises :class:`ProtocolError`."""
    try:
        request = _REQUEST_DECODER.decode(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise ProtocolError(f"request line is not valid JSON: {exc}") from exc
    if not isinstance(request, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(request).__name__}"
        )
    op = request.get("op", "solve")
    if op not in OPERATIONS:
        raise ProtocolError(
            f"unknown op {op!r}; valid ops: {', '.join(OPERATIONS)}"
        )
    return request


def parse_response(line: bytes) -> dict:
    """Decode one response line into its dict; raises :class:`ProtocolError`.

    Shape checks only — correlation (matching the echoed ``id`` to an
    outstanding request) is the caller's job, because pipelined
    responses legitimately arrive out of request order.
    """
    try:
        response = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise ProtocolError(f"malformed response line: {exc}") from exc
    if not isinstance(response, dict):
        raise ProtocolError(f"response is not an object: {response!r}")
    return response


class LineReader:
    """A buffered line reader over a socket with a hard length ceiling.

    ``readline`` returns one line without its terminator, ``None`` on a
    clean EOF (a trailing partial line — a client that died mid-request
    — is discarded), and raises :class:`LineTooLong` once the buffer
    exceeds ``max_line_bytes`` without a newline.  A socket timeout
    simply propagates (`TimeoutError`); buffered partial data survives
    it, so callers can poll a shutdown flag between reads.
    """

    def __init__(self, sock: socket.socket, max_line_bytes: int = MAX_LINE_BYTES):
        self._sock = sock
        self._max = max_line_bytes
        self._buffer = bytearray()
        self._eof = False

    def readline(self) -> bytes | None:
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                return line
            if self._eof:
                # Whatever is left has no terminator: a connection cut
                # mid-request.  Dropping it is the only safe reading.
                return None
            if len(self._buffer) > self._max:
                raise LineTooLong(
                    f"request line exceeds {self._max} bytes without a newline"
                )
            chunk = self._sock.recv(65536)
            if not chunk:
                self._eof = True
                continue
            self._buffer.extend(chunk)
