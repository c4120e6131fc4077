"""Durable verdict + timing store: the stack's one persistence path.

An append-only fsync'd journal (O(1) per verdict, crash-safe) compacted
into SQLite in WAL mode (multi-process readers, single writer).  The
service and the net server persist verdicts only through it, as the
write-through ``backend`` of the in-memory
:class:`~repro.parallel.batch.ResultCache` LRU.  The verdict entry
format (:func:`result_to_json` / :func:`result_from_json`) lives here
too; a legacy ``cache.json`` is migrated by :meth:`VerdictStore.import_json`
or automatically on open.  See :mod:`repro.store.verdict_store` for the
design notes.
"""

from repro.store.verdict_store import (
    AUTO_COMPACT_BYTES,
    StoreTimingLog,
    VerdictStore,
    result_from_json,
    result_to_json,
)

__all__ = [
    "AUTO_COMPACT_BYTES",
    "StoreTimingLog",
    "VerdictStore",
    "result_from_json",
    "result_to_json",
]
