"""The durable verdict store: journal-append persistence over SQLite.

:class:`VerdictStore` is the one persistence path of the stack, and
this module is the one place that knows the on-disk verdict entry
format (:func:`result_to_json` / :func:`result_from_json`).  It
replaces the old whole-file ``cache.json`` rewrite — O(cache) work per
flush and fundamentally single-process — with two cooperating layers:

* an **append-only JSONL journal** (``<path>.journal``) — each
  :meth:`put` appends one self-contained line with a single
  ``os.write`` under an ``flock`` and fsyncs it.  O(1) per verdict, and
  crash-safe by construction: ``kill -9`` mid-append can only lose the
  partial last line, never a verdict that was already flushed;

* a **SQLite database in WAL mode** (``<path>``) — the queryable system
  of record.  WAL gives multi-process readers plus a single writer for
  free, so N server processes can share one store file; the journal is
  replayed into it (idempotently — ``INSERT OR REPLACE`` keyed on
  ``instance_key``) at open, on :meth:`compact` (explicit or at
  ``auto_compact_bytes``) and at :meth:`close`, after which the journal
  is truncated.  A lookup, hit or miss, is one indexed ``SELECT`` that
  never reads the journal: every live writer inserts its row after the
  fsync and before the verdict resolves.  Only a writer that died
  between the two leaves a line with no row; that verdict was never
  acknowledged, so it is a miss until the next open or compaction.

Verdicts are keyed by :func:`~repro.hypergraph.instance_key` — the
labelled, engine-bound key that the answer path *must* use, because
certificates mention labelled vertices.  A secondary
``canonical_digest`` column stores the structural
:func:`~repro.hypergraph.pair_digest`, so label-renamed isomorphic
instances can be recognised (:meth:`get_structural` answers "what was
the verdict for this shape?") — an index for analytics and the learned
engine selection of ROADMAP direction 3, deliberately *not* wired into
the solve path: a structural hit could only reuse the verdict, never
the certificate, and the service's contract is bit-for-bit serial
results, certificate included.

Per-engine timings (the :class:`~repro.obs.timings.TimingLog` schema)
land in a ``timings`` table of the same database via
:meth:`record_timing` / :meth:`timing_log`, making the store the single
system of record ROADMAP directions 2 and 3 ask for.

Degradation rule: a corrupt database or journal is quarantined
(renamed aside with a warning) and the store opens empty — damage
costs recomputation, never a wrong answer and never a refusal to
start.  A legacy ``cache.json`` (the whole-file format of earlier
releases: one JSON object of ``{instance_key: entry}``) at the store
path is detected by content sniffing and imported automatically, with
the original kept as ``<path>.legacy``; entries that do not decode
(pre-codec witnesses, unknown formats) are skipped, so a stale entry
becomes a miss, never an error.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import warnings
from pathlib import Path

try:  # pragma: no cover - always present on the POSIX targets CI runs
    import fcntl
except ImportError:  # pragma: no cover - windows fallback: in-process only
    fcntl = None

from repro.duality.result import (
    Certificate,
    DecisionStats,
    DualityResult,
    FailureKind,
    Verdict,
)
from repro.parallel.codec import CodecError, decode_vertex_set, encode_vertex_set

_SQLITE_MAGIC = b"SQLite format 3\x00"

#: Journal size (bytes) past which a put triggers an inline compaction.
AUTO_COMPACT_BYTES = 8 << 20

_SCHEMA = """
CREATE TABLE IF NOT EXISTS verdicts (
    instance_key     TEXT PRIMARY KEY,
    canonical_digest TEXT,
    method           TEXT NOT NULL,
    verdict          TEXT NOT NULL,
    kind             TEXT,
    witness          TEXT NOT NULL,
    detail           TEXT NOT NULL,
    cert_path        TEXT NOT NULL,
    created_ts       REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS verdicts_by_digest
    ON verdicts (canonical_digest);
CREATE TABLE IF NOT EXISTS timings (
    ts        REAL NOT NULL,
    engine    TEXT NOT NULL,
    elapsed_s REAL NOT NULL,
    dual      INTEGER,
    trace_id  TEXT,
    features  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


def result_to_json(result: DualityResult) -> dict | None:
    """One verdict as a JSON-safe entry dict (``None`` for witnesses the
    codec cannot express — such results stay memory-only).

    The store's entry format, shared by the journal, the database rows
    and legacy ``cache.json`` imports: ``verdict`` / ``method`` /
    ``kind`` / ``witness`` (tagged codec) / ``detail`` / ``path``.
    """
    cert = result.certificate
    try:
        witness = encode_vertex_set(cert.witness)
    except CodecError:
        return None
    return {
        "verdict": result.verdict.value,
        "method": result.method,
        "kind": cert.kind.name if cert.kind is not None else None,
        "witness": witness,
        "detail": cert.detail,
        "path": list(cert.path) if cert.path is not None else None,
    }


def result_from_json(entry: dict) -> DualityResult:
    """Rebuild a :class:`DualityResult` from :func:`result_to_json` output.

    Replayed results carry fresh stats with ``extra["cached"] = True`` —
    work counters are not persisted, only the answer is.  Raises
    (``KeyError`` / ``TypeError`` / ``ValueError`` / :class:`CodecError`)
    on entries from unknown or pre-codec formats.
    """
    stats = DecisionStats()
    stats.extra["cached"] = True
    return DualityResult(
        verdict=Verdict(entry["verdict"]),
        certificate=Certificate(
            kind=FailureKind[entry["kind"]] if entry["kind"] else None,
            witness=decode_vertex_set(entry["witness"]),
            detail=entry.get("detail", ""),
            path=tuple(entry["path"]) if entry["path"] is not None else None,
        ),
        stats=stats,
        method=entry["method"],
    )


def _flock(fd: int, op: int) -> None:
    if fcntl is not None:
        fcntl.flock(fd, op)


class StoreTimingLog:
    """A :class:`~repro.obs.timings.TimingLog`-shaped recorder writing
    to the store's ``timings`` table.

    Drop-in for every ``timings=`` parameter in the service and net
    layers: same :meth:`record` signature, same ``records_written``
    counter, and a :meth:`close` that is a no-op because the store owns
    the database connection.
    """

    def __init__(self, store: "VerdictStore") -> None:
        self.store = store
        self.path = store.path
        self.records_written = 0
        self._lock = threading.Lock()

    def record(
        self,
        engine: str,
        elapsed_s: float,
        *,
        features: dict | None = None,
        dual=None,
        shard=None,
        trace_id: str | None = None,
        **extra,
    ) -> None:
        merged = dict(features) if features else {}
        if shard is not None:
            merged["shard"] = shard
        if extra:
            merged.update(extra)
        self.store.record_timing(
            engine, elapsed_s, features=merged, dual=dual, trace_id=trace_id
        )
        with self._lock:
            self.records_written += 1

    def close(self) -> None:
        """No-op: the store's connection outlives any one recorder."""

    def __enter__(self) -> "StoreTimingLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class VerdictStore:
    """Durable, multi-process verdict + timing store (journal → SQLite).

    Open it on a path; the database lives at ``path`` and the journal
    at ``path + ".journal"``.  The store is thread-safe (one internal
    connection guarded by a lock, WAL-mode readers in other processes
    never block on it) and safe to share between processes: appends are
    ``flock``-serialised and replay is idempotent.

    It implements the :class:`~repro.parallel.batch.ResultCache`
    backend protocol — ``get(key)`` / ``put(key, result, digest=)`` —
    so plugging it in is ``ResultCache(backend=VerdictStore(path))``.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        auto_compact_bytes: int = AUTO_COMPACT_BYTES,
    ) -> None:
        self.path = os.fspath(path)
        self.journal_path = self.path + ".journal"
        self.auto_compact_bytes = auto_compact_bytes
        self._lock = threading.RLock()  # guards the sqlite connection
        self._journal_fd: int | None = None
        self._closed = False
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.structural_hits = 0
        #: Entries imported from a legacy ``cache.json`` found at the
        #: store path on open (0 when the file was already a database).
        self.imported = 0
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        legacy = self._sniff_legacy()
        self._conn = self._open_db()
        if legacy is not None:
            self.imported = self.import_entries(legacy)
        # Crash leftovers from any previous writer: fold the journal in
        # and (if nobody else is mid-write) start with it empty.
        self.compact()

    # ------------------------------------------------------------------
    # Opening: content sniffing, legacy import, corruption quarantine
    # ------------------------------------------------------------------

    def _sniff_legacy(self) -> dict | None:
        """Ensure ``self.path`` is absent, empty, or a SQLite database.

        A legacy ``cache.json`` file is moved aside to
        ``<path>.legacy`` and its entries returned for import; anything
        else that is not SQLite is quarantined to ``<path>.corrupt``
        with a warning (degrade to misses, never refuse to start).
        """
        try:
            with open(self.path, "rb") as fh:
                head = fh.read(len(_SQLITE_MAGIC))
        except OSError:
            return None
        if not head or head.startswith(_SQLITE_MAGIC):
            return None
        try:
            payload = json.loads(Path(self.path).read_text(encoding="utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("legacy cache must be a JSON object")
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            self._quarantine(f"unreadable ({exc})")
            return None
        os.replace(self.path, self.path + ".legacy")
        return payload

    def _quarantine(self, why: str) -> None:
        warnings.warn(
            f"verdict store {self.path} is {why}; moving it aside to "
            f"{self.path}.corrupt and starting empty (cached verdicts "
            f"degrade to misses)",
            RuntimeWarning,
            stacklevel=3,
        )
        try:
            os.replace(self.path, self.path + ".corrupt")
        except OSError:  # pragma: no cover - already gone
            pass

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path,
            timeout=30.0,
            check_same_thread=False,
            isolation_level=None,  # autocommit; txns are explicit
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(_SCHEMA)
        return conn

    def _open_db(self) -> sqlite3.Connection:
        try:
            return self._connect()
        except sqlite3.DatabaseError:
            # Truncated/garbled database (the sniff only checks the
            # first page's magic): same quarantine rule.
            self._quarantine("not a readable SQLite database")
            return self._connect()

    # ------------------------------------------------------------------
    # The write path: fsync'd journal append + WAL insert
    # ------------------------------------------------------------------

    def _journal(self) -> int:
        if self._journal_fd is None:
            self._journal_fd = os.open(
                self.journal_path,
                os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                0o644,
            )
        return self._journal_fd

    def put(
        self, key: str, result: DualityResult, digest: str | None = None
    ) -> bool:
        """Persist one verdict durably; False if its witness has no
        JSON encoding (user-defined vertex types — such verdicts stay
        in the caller's memory only)."""
        entry = result_to_json(result)
        if entry is None:
            return False
        self.put_entry(key, entry, digest=digest)
        return True

    def put_entry(
        self, key: str, entry: dict, digest: str | None = None
    ) -> None:
        """Persist one already-encoded entry (the wire/cache JSON shape).

        The journal line is fsynced before the database insert, so the
        persist-before-resolve guarantee holds even if the process dies
        between the two: the next open replays the journal.
        """
        line = (
            json.dumps(
                {"key": key, "digest": digest, "entry": entry},
                separators=(",", ":"),
            )
            + "\n"
        ).encode("utf-8")
        with self._lock:
            fd = self._journal()
            _flock(fd, fcntl.LOCK_EX if fcntl else 0)
            try:
                os.write(fd, line)
                os.fsync(fd)
                size = os.fstat(fd).st_size
            finally:
                _flock(fd, fcntl.LOCK_UN if fcntl else 0)
            self._insert(key, digest, entry)
            self.puts += 1
        if size >= self.auto_compact_bytes:
            self.compact()

    def _insert(self, key: str, digest: str | None, entry: dict) -> None:
        # Caller holds self._lock.  witness/cert_path are stored as JSON
        # text (including "null") so NULL never has to disambiguate
        # "no witness" from "no column".
        self._conn.execute(
            "INSERT OR REPLACE INTO verdicts "
            "(instance_key, canonical_digest, method, verdict, kind, "
            " witness, detail, cert_path, created_ts) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                key,
                digest,
                entry.get("method", ""),
                entry["verdict"],
                entry.get("kind"),
                json.dumps(entry.get("witness")),
                entry.get("detail", ""),
                json.dumps(entry.get("path")),
                time.time(),
            ),
        )

    # ------------------------------------------------------------------
    # The read path
    # ------------------------------------------------------------------

    def get(self, key: str) -> DualityResult | None:
        """The stored result for ``key`` (labelled, engine-bound match)."""
        entry = self.get_entry(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return result_from_json(entry)

    def get_entry(self, key: str) -> dict | None:
        """The raw JSON entry for ``key`` (no hit/miss accounting): one
        indexed ``SELECT``, never a journal read (see the module doc)."""
        row = self._select(key)
        if row is None:
            return None
        return self._row_to_entry(row)

    def _select(self, key: str):
        with self._lock:
            return self._conn.execute(
                "SELECT method, verdict, kind, witness, detail, cert_path "
                "FROM verdicts WHERE instance_key = ?",
                (key,),
            ).fetchone()

    @staticmethod
    def _row_to_entry(row) -> dict:
        method, verdict, kind, witness, detail, cert_path = row
        return {
            "method": method,
            "verdict": verdict,
            "kind": kind,
            "witness": json.loads(witness),
            "detail": detail,
            "path": json.loads(cert_path),
        }

    def get_structural(self, digest: str) -> Verdict | None:
        """The verdict recorded for this *structure*, if any.

        Keyed on :func:`~repro.hypergraph.pair_digest`: a hit means a
        label-renamed isomorphic twin of the instance was solved
        before.  Only the verdict is returned — certificates are
        labelled sets, so they can never be reused across labellings,
        which is why this lookup is advisory (analytics, engine
        selection) and not part of the solve answer path.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT verdict FROM verdicts "
                "WHERE canonical_digest = ? LIMIT 1",
                (digest,),
            ).fetchone()
        if row is None:
            return None
        self.structural_hits += 1
        return Verdict(row[0])

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM verdicts"
            ).fetchone()
        return int(count)

    def __contains__(self, key: str) -> bool:
        return self._select(key) is not None

    # ------------------------------------------------------------------
    # Journal replay and compaction
    # ------------------------------------------------------------------

    def _replay_journal(self) -> int:
        """Fold every complete journal line into the database.

        Only :meth:`compact` calls this, holding the journal's
        exclusive ``flock``.  Idempotent (``INSERT OR REPLACE``);
        malformed complete lines are skipped with one warning, a
        partial trailing line (a ``kill -9`` mid-append) is silently
        ignored — that verdict was never acknowledged to anyone.
        """
        try:
            data = Path(self.journal_path).read_bytes()
        except OSError:
            return 0
        if not data:
            return 0
        replayed = 0
        malformed = 0
        with self._lock:
            self._conn.execute("BEGIN")
            try:
                for raw in data.split(b"\n")[:-1]:  # drop the partial tail
                    if not raw.strip():
                        continue
                    try:
                        record = json.loads(raw)
                        key = record["key"]
                        entry = record["entry"]
                        entry["verdict"]  # noqa: B018 - shape check
                    except (ValueError, KeyError, TypeError):
                        malformed += 1
                        continue
                    self._insert(key, record.get("digest"), entry)
                    replayed += 1
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        if malformed:
            warnings.warn(
                f"verdict store journal {self.journal_path}: skipped "
                f"{malformed} malformed line(s); the affected verdicts "
                f"degrade to misses",
                RuntimeWarning,
                stacklevel=3,
            )
        return replayed

    def compact(self) -> int:
        """Fold the journal into SQLite, checkpoint the WAL, truncate.

        Returns how many journal lines were folded in.  Safe against
        concurrent writers in other processes: the truncate happens
        under the same ``flock`` appends take, on the shared inode (so
        their ``O_APPEND`` descriptors stay valid), and only after a
        full WAL checkpoint — if another process holds the WAL busy the
        journal is simply kept for the next compaction.
        """
        with self._lock:
            fd = self._journal()
            _flock(fd, fcntl.LOCK_EX if fcntl else 0)
            try:
                replayed = self._replay_journal()
                try:
                    busy = self._conn.execute(
                        "PRAGMA wal_checkpoint(FULL)"
                    ).fetchone()[0]
                except sqlite3.OperationalError:
                    busy = 1
                if not busy:
                    os.ftruncate(fd, 0)
            finally:
                _flock(fd, fcntl.LOCK_UN if fcntl else 0)
        return replayed

    # ------------------------------------------------------------------
    # Legacy import
    # ------------------------------------------------------------------

    def import_entries(self, payload: dict) -> int:
        """Insert a legacy ``{instance_key: entry}`` dict.

        Entries that :func:`result_from_json` cannot decode (pre-codec
        witnesses, unknown formats, non-dict values) are skipped — a
        stale entry becomes a miss, never an error on a later
        :meth:`get`.  The count of imported rows is returned.  Existing
        keys are overwritten — an import is declared truth.
        """
        imported = 0
        with self._lock:
            self._conn.execute("BEGIN")
            try:
                for key, entry in payload.items():
                    if not isinstance(key, str) or not isinstance(entry, dict):
                        continue
                    try:
                        result_from_json(entry)
                    except (CodecError, KeyError, TypeError, ValueError):
                        continue
                    self._insert(key, None, entry)
                    imported += 1
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return imported

    def import_json(self, path: str | os.PathLike) -> int:
        """Import a legacy ``cache.json`` file into the store."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError(
                f"{os.fspath(path)} does not hold a JSON object cache"
            )
        return self.import_entries(payload)

    # ------------------------------------------------------------------
    # Timings
    # ------------------------------------------------------------------

    def record_timing(
        self,
        engine: str,
        elapsed_s: float,
        *,
        features: dict | None = None,
        dual=None,
        trace_id: str | None = None,
    ) -> None:
        """One per-engine timing row (the ``TimingLog`` schema)."""
        with self._lock:
            self._conn.execute(
                "INSERT INTO timings (ts, engine, elapsed_s, dual, "
                "trace_id, features) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    time.time(),
                    engine,
                    round(float(elapsed_s), 9),
                    None if dual is None else int(bool(dual)),
                    trace_id,
                    json.dumps(features or {}, separators=(",", ":")),
                ),
            )

    def timing_log(self) -> StoreTimingLog:
        """A ``TimingLog``-shaped recorder writing into this store."""
        return StoreTimingLog(self)

    def load_timings(self, engine: str | None = None) -> list[dict]:
        """Timing rows back as flat dicts (``TimingLog`` line shape)."""
        query = (
            "SELECT ts, engine, elapsed_s, dual, trace_id, features "
            "FROM timings"
        )
        params: tuple = ()
        if engine is not None:
            query += " WHERE engine = ?"
            params = (engine,)
        with self._lock:
            rows = self._conn.execute(query + " ORDER BY ts", params).fetchall()
        out = []
        for ts, eng, elapsed_s, dual, trace_id, features in rows:
            row = {"ts": ts, "engine": eng, "elapsed_s": elapsed_s}
            if dual is not None:
                row["dual"] = bool(dual)
            if trace_id is not None:
                row["trace_id"] = trace_id
            try:
                row.update(json.loads(features))
            except ValueError:  # pragma: no cover - we wrote it
                pass
            out.append(row)
        return out

    def timings_recorded(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM timings"
            ).fetchone()
        return int(count)

    def timings_by_engine(self) -> dict[str, int]:
        """Timing-row counts per engine — how much training signal each
        engine has contributed (``repro store stats`` surfaces this so
        users can judge whether a model fit is worth running)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT engine, COUNT(*) FROM timings "
                "GROUP BY engine ORDER BY engine"
            ).fetchall()
        return {engine: int(count) for engine, count in rows}

    def feature_coverage(self) -> float | None:
        """The fraction of timing rows that carry structural features
        (rows without features cannot train the selector).  ``None``
        when no timings are recorded."""
        with self._lock:
            total, featured = self._conn.execute(
                "SELECT COUNT(*), "
                "SUM(CASE WHEN features IS NOT NULL AND features != '' "
                "AND features != '{}' THEN 1 ELSE 0 END) FROM timings"
            ).fetchone()
        if not total:
            return None
        return round(int(featured or 0) / int(total), 4)

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------

    def journal_bytes(self) -> int:
        try:
            return os.stat(self.journal_path).st_size
        except OSError:
            return 0

    def stats(self) -> dict:
        return {
            "path": self.path,
            "entries": len(self),
            "timings": self.timings_recorded(),
            "timings_by_engine": self.timings_by_engine(),
            "feature_coverage": self.feature_coverage(),
            "journal_bytes": self.journal_bytes(),
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "structural_hits": self.structural_hits,
            "imported": self.imported,
        }

    def register_metrics(self, registry) -> None:
        """Expose the store's counters as callback gauges (the same
        pattern :meth:`ResultCache.register_metrics` uses)."""
        registry.gauge_fn(
            "store_entries", "Verdicts in the durable store", lambda: len(self)
        )
        registry.gauge_fn(
            "store_puts_total", "Verdicts persisted", lambda: self.puts
        )
        registry.gauge_fn(
            "store_journal_bytes",
            "Uncompacted journal size",
            lambda: self.journal_bytes(),
        )

    def close(self) -> None:
        """Compact if possible, then release the connection and journal
        descriptor.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self.compact()
        except sqlite3.Error:  # pragma: no cover - best-effort flush
            pass
        with self._lock:
            self._conn.close()
            if self._journal_fd is not None:
                os.close(self._journal_fd)
                self._journal_fd = None

    def __enter__(self) -> "VerdictStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
