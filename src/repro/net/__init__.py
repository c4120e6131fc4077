"""Network front end: the duality scheduler over TCP, many clients at once.

:mod:`repro.service` made many concurrent calls cheap inside one
process; this package puts them on a socket.  An
:class:`AsyncDualityServer` multiplexes any number of connections —
thousands of them, on one event loop — onto **one** warm
:class:`~repro.service.EnginePool` and (with a ``store``) **one**
thread-safe :class:`~repro.parallel.batch.ResultCache` writing through
to a durable :class:`~repro.store.VerdictStore`, with no solve lock: every
request is dispatched straight to the service scheduler and its
response is written the moment the verdict exists, out of request
order when a fast instance overtakes a slow one.  Backpressure is per
connection (a max-inflight cap pauses *reading*; ``drain()`` throttles
*writing*), so one firehosing or stalled client affects only itself,
and an optional shared-secret token gates every connection's first
frame.

Clients talk JSON lines (:mod:`repro.net.protocol`), shipping
instances inline through the lossless vertex codec and re-ordering
pipelined answers by their echoed ``id``: :class:`AsyncDualityClient`
for coroutine code (windowless pipelining under ``drain()`` flow
control), :class:`DualityClient` as the blocking wrapper for scripts
and the CLI.  ``repro serve --listen HOST:PORT`` on the server side,
``repro client HOST:PORT`` on the client side.

Layering: ``repro.net`` sits on top of ``repro.service`` (it drives
:class:`~repro.service.EngineService` views); nothing below imports it,
and library use without a network never pays for it.
"""

from repro.net.client import AsyncDualityClient, DualityClient
from repro.net.protocol import (
    AuthError,
    LineTooLong,
    MAX_LINE_BYTES,
    ProtocolError,
    RequestError,
    decode_hypergraph,
    encode_hypergraph,
    parse_response,
)
from repro.net.server import AsyncDualityServer, DualityServer, parse_address

__all__ = [
    "AsyncDualityClient",
    "AsyncDualityServer",
    "AuthError",
    "DualityClient",
    "DualityServer",
    "LineTooLong",
    "MAX_LINE_BYTES",
    "ProtocolError",
    "RequestError",
    "decode_hypergraph",
    "encode_hypergraph",
    "parse_address",
    "parse_response",
]
