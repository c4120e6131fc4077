"""Persistent engine service: a concurrent scheduler over warm workers.

The :mod:`repro.parallel` subsystem made one call fast; this package
makes *many concurrent* calls cheap.  Its pieces:

* :class:`EnginePool` — a persistent worker pool with an explicit
  **start / submit / drain / shutdown** lifecycle.  ``submit`` returns
  a :class:`PoolFuture` per work item (result/done/callbacks, out of
  submission order), workers spawn once and stay warm across
  arbitrarily many batches, and a worker that dies mid-flight is
  detected, the pool respawns, and **only the lost items** re-run.
* :class:`EngineService` — the scheduler front end ``repro serve`` and
  the TCP server drive: a :class:`~repro.parallel.batch.ResultCache`
  consulted *at submit time* (hits resolve instantly; with ``store=``
  it writes through to a durable :class:`~repro.store.VerdictStore`), in-flight dedup of identical instances,
  and a :class:`ServiceTicket` per request — an id that doubles as a
  completion handle.  ``drain`` remains the lock-step view: responses
  in submission order with the same verdicts and certificates serial
  calls would produce.
* :func:`response_to_json` — one JSON verdict line per answer, with
  witnesses through the lossless vertex codec.

Layering: ``repro.service`` sits on top of ``repro.parallel`` (it reuses
``solve_many``'s cache and worker entry points); nothing below imports
it, and plain library use never pays for it.
"""

from repro.service.pool import (
    Completion,
    EnginePool,
    HedgedFuture,
    PoolClosedError,
    PoolFuture,
)
from repro.service.server import (
    EngineService,
    ServiceResponse,
    ServiceTicket,
    response_to_json,
)

__all__ = [
    "Completion",
    "EnginePool",
    "EngineService",
    "HedgedFuture",
    "PoolClosedError",
    "PoolFuture",
    "ServiceResponse",
    "ServiceTicket",
    "response_to_json",
]
