"""Tests for the durable verdict store (:mod:`repro.store`).

The contracts:

* **O(1) durability** — every put is one fsync'd journal append plus a
  WAL insert; nothing ever rewrites the whole store;
* **crash safety by construction** — ``kill -9`` at any instant leaves
  the journal loadable to the last complete line, and a verdict that
  was acknowledged is always recoverable;
* **multi-process sharing** — two processes (or two servers) on one
  store file see each other's verdicts, bit-for-bit;
* **degrade, never block** — a corrupt database or journal is
  quarantined with a warning and costs recomputation, not startup;
* **migration** — a legacy ``cache.json`` at the store path is
  imported automatically, every codec vertex type surviving exactly.

Plus regression tests for the ``solve_many`` timing-log file-handle
leak, for legacy entries that do not decode (skipped on import, so
they answer as misses), and for the service's cache counters.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.duality import decide_duality
from repro.duality.result import (
    Certificate,
    DecisionStats,
    DualityResult,
    Verdict,
)
from repro.hypergraph import instance_key, pair_digest, relabel
from repro.hypergraph import io as hgio
from repro.hypergraph.generators import (
    hard_nondual_pair,
    matching_dual_pair,
    threshold_dual_pair,
)
from repro.net import DualityServer
from repro.obs.timings import TimingLog
from repro.parallel import ResultCache, solve_many
from repro.service import EngineService
from repro.store import VerdictStore, result_to_json

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _solved(pair=None, method="fk-b"):
    g, h = pair if pair is not None else matching_dual_pair(3)
    result = decide_duality(g, h, method=method)
    return instance_key(g, h, method), pair_digest(g, h), result


def _write_instance(path: Path, pair) -> Path:
    g, h = pair
    text = hgio.dumps(g) + "==\n" + hgio.dumps(h)
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# The store itself
# ---------------------------------------------------------------------------

class TestVerdictStore:
    def test_round_trip_is_bit_for_bit(self, tmp_path):
        store = VerdictStore(tmp_path / "store.db")
        for pair in (
            matching_dual_pair(3),
            threshold_dual_pair(7, 4),
            hard_nondual_pair(3),
        ):
            key, digest, result = _solved(pair)
            assert store.get(key) is None
            assert store.put(key, result, digest=digest)
            replayed = store.get(key)
            assert replayed.verdict == result.verdict
            assert replayed.certificate == result.certificate
            assert replayed.method == result.method
        assert store.hits == 3 and store.misses == 3
        store.close()

    def test_put_appends_get_survives_reopen_compacted(self, tmp_path):
        path = tmp_path / "store.db"
        store = VerdictStore(path)
        key, digest, result = _solved()
        store.put(key, result, digest=digest)
        # The journal grew by exactly one line and nothing rewrote it.
        assert store.journal_bytes() > 0
        journal_after_one = store.journal_bytes()
        k2, d2, r2 = _solved(hard_nondual_pair(3))
        store.put(k2, r2, digest=d2)
        assert store.journal_bytes() > journal_after_one
        store.close()

        reopened = VerdictStore(path)
        assert reopened.journal_bytes() == 0  # open compacts
        assert len(reopened) == 2
        assert reopened.get(key).certificate == result.certificate
        assert reopened.get(k2).certificate == r2.certificate
        reopened.close()

    def test_contains_len_and_stats(self, tmp_path):
        store = VerdictStore(tmp_path / "store.db")
        key, digest, result = _solved()
        assert key not in store and len(store) == 0
        store.put(key, result, digest=digest)
        assert key in store and len(store) == 1
        stats = store.stats()
        assert stats["entries"] == 1 and stats["puts"] == 1
        assert stats["journal_bytes"] > 0
        store.compact()
        assert store.journal_bytes() == 0
        assert len(store) == 1  # compaction drops nothing
        store.close()

    def test_structural_digest_finds_relabelled_twin(self, tmp_path):
        store = VerdictStore(tmp_path / "store.db")
        g, h = matching_dual_pair(3)
        key, digest, result = _solved((g, h))
        store.put(key, result, digest=digest)
        # An order-preserving relabelling of both sides: a different
        # labelled instance (different instance_key) with the same
        # structure (same pair_digest).
        mapping = {v: f"v{v}" for v in g.vertices | h.vertices}
        g2, h2 = relabel(g, mapping), relabel(h, mapping)
        assert instance_key(g2, h2, "fk-b") != key
        assert store.get(instance_key(g2, h2, "fk-b")) is None  # exact: miss
        assert store.get_structural(pair_digest(g2, h2)) is Verdict.DUAL
        assert store.stats()["structural_hits"] == 1
        store.close()

    def test_unencodable_witness_is_refused_not_stored(self, tmp_path):
        store = VerdictStore(tmp_path / "store.db")
        result = DualityResult(
            verdict=Verdict.NOT_DUAL,
            certificate=Certificate(
                kind=None, witness=frozenset({object()}), detail="", path=None
            ),
            stats=DecisionStats(),
            method="test",
        )
        assert store.put("some-key", result) is False
        assert len(store) == 0
        store.close()

    def test_timings_table_records_and_reads_back(self, tmp_path):
        store = VerdictStore(tmp_path / "store.db")
        log = store.timing_log()
        log.record(
            "fk-b", 0.0123, features={"g_edges": 3}, dual=True, trace_id="t1"
        )
        log.record("bm", 0.5, shard=2, role="portfolio")
        assert log.records_written == 2
        rows = store.load_timings()
        assert len(rows) == 2 and store.timings_recorded() == 2
        assert rows[0]["engine"] == "fk-b" and rows[0]["g_edges"] == 3
        assert rows[0]["dual"] is True and rows[0]["trace_id"] == "t1"
        assert rows[1]["shard"] == 2 and rows[1]["role"] == "portfolio"
        assert store.load_timings(engine="bm")[0]["engine"] == "bm"
        log.close()  # no-op: the store owns the connection
        store.close()


# ---------------------------------------------------------------------------
# The read path: one indexed lookup, the journal untouched
# ---------------------------------------------------------------------------

def _no_replay(self):
    raise AssertionError("the read path replayed the journal")


class TestReadPath:
    def test_miss_does_not_read_a_long_journal(self, tmp_path, monkeypatch):
        store = VerdictStore(tmp_path / "store.db")
        key, digest, result = _solved()
        entry = result_to_json(result)
        for n in range(1000):
            store.put_entry(f"key-{n:04d}", entry, digest=digest)
        assert store.journal_bytes() > 1000 * 100  # nothing compacted
        with monkeypatch.context() as patch:
            patch.setattr(VerdictStore, "_replay_journal", _no_replay)
            assert store.get("absent") is None
            assert store.get("key-0999") is not None
        assert store.misses == 1 and store.hits == 1
        store.close()

    def test_crashed_writer_line_is_a_miss_until_compaction(self, tmp_path):
        path = tmp_path / "store.db"
        store = VerdictStore(path)
        key, digest, result = _solved()
        # A foreign writer that died after its fsync, before its insert:
        # the line is on disk, the row is not, nobody got the answer.
        line = {"key": key, "digest": digest, "entry": result_to_json(result)}
        with open(str(path) + ".journal", "ab") as fh:
            fh.write(json.dumps(line).encode("utf-8") + b"\n")
        assert store.get(key) is None  # one recomputation, never wrong
        assert store.compact() == 1
        assert store.get(key).certificate == result.certificate
        reopened = VerdictStore(path)
        assert reopened.get(key).certificate == result.certificate
        reopened.close()
        store.close()

    def test_live_stores_share_puts_without_compaction(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "store.db"
        first, second = VerdictStore(path), VerdictStore(path)
        k1, d1, r1 = _solved(matching_dual_pair(3))
        k2, d2, r2 = _solved(hard_nondual_pair(3))
        with monkeypatch.context() as patch:
            patch.setattr(VerdictStore, "_replay_journal", _no_replay)
            first.put(k1, r1, digest=d1)
            assert second.get(k1).certificate == r1.certificate
            second.put(k2, r2, digest=d2)
            assert first.get(k2).certificate == r2.certificate
        assert first.journal_bytes() > 0  # both lines still unfolded
        second.close()
        first.close()


# ---------------------------------------------------------------------------
# ResultCache with a durable backend
# ---------------------------------------------------------------------------

class TestCacheBackend:
    def test_write_through_before_visibility(self, tmp_path):
        path = tmp_path / "store.db"
        store = VerdictStore(path)
        cache = ResultCache(backend=store)
        key, digest, result = _solved()
        cache.put(key, result, digest=digest)
        # Durable the instant put returns: a second, independent store
        # handle on the same file already sees the verdict.
        other = VerdictStore(path)
        assert other.get(key).certificate == result.certificate
        other.close()
        store.close()

    def test_memory_miss_falls_through_and_promotes(self, tmp_path):
        path = tmp_path / "store.db"
        key, digest, result = _solved()
        writer = VerdictStore(path)
        writer.put(key, result, digest=digest)
        writer.close()

        store = VerdictStore(path)
        cache = ResultCache(backend=store)
        assert cache.get(key).certificate == result.certificate
        assert cache.hits == 1 and cache.misses == 0
        assert len(cache) == 1  # promoted into the LRU
        backend_hits = store.hits
        assert cache.get(key) is not None
        assert store.hits == backend_hits  # served from memory now
        store.close()

    def test_eviction_loses_nothing_with_a_backend(self, tmp_path):
        store = VerdictStore(tmp_path / "store.db")
        cache = ResultCache(max_entries=1, backend=store)
        key1, d1, r1 = _solved(matching_dual_pair(3))
        key2, d2, r2 = _solved(hard_nondual_pair(3))
        cache.put(key1, r1, digest=d1)
        cache.put(key2, r2, digest=d2)  # evicts key1 from memory
        assert cache.evictions == 1 and len(cache) == 1
        assert cache.get(key1).certificate == r1.certificate  # backend refill
        store.close()


# ---------------------------------------------------------------------------
# Satellite bugfix regressions
# ---------------------------------------------------------------------------

class TestSolveManyTimingsOwnership:
    """`solve_many(timings=path)` must close the log it opened."""

    def _open_fds_for(self, path: Path) -> list[str]:
        target = str(path)
        out = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                if os.readlink(f"/proc/self/fd/{fd}") == target:
                    out.append(fd)
            except OSError:
                continue
        return out

    def test_path_timings_handle_is_closed(self, tmp_path):
        log_path = tmp_path / "timings.jsonl"
        solve_many([matching_dual_pair(3)], method="fk-b", timings=log_path)
        assert log_path.exists()
        assert self._open_fds_for(log_path) == []  # the leak of PR 7

    def test_path_timings_closed_even_when_solving_raises(self, tmp_path):
        log_path = tmp_path / "timings.jsonl"
        with pytest.raises(ValueError):
            solve_many(
                [matching_dual_pair(2)], method="portfolio",
                cache=ResultCache(), timings=log_path,
            )
        assert self._open_fds_for(log_path) == []

    def test_caller_owned_log_is_left_open(self, tmp_path):
        log = TimingLog(tmp_path / "timings.jsonl")
        solve_many([matching_dual_pair(3)], method="fk-b", timings=log)
        written = log.records_written
        log.record("probe", 0.0)  # still usable: solve_many didn't close it
        assert log.records_written == written + 1
        log.close()


# ---------------------------------------------------------------------------
# Crash safety and corruption
# ---------------------------------------------------------------------------

class TestCrashSafety:
    def test_kill_dash_nine_mid_append_leaves_journal_loadable(self, tmp_path):
        """SIGKILL a process that is appending verdicts in a tight
        loop; the journal must replay to the last complete line and
        every verdict the child reported as flushed must be present."""
        path = tmp_path / "store.db"
        key, digest, result = _solved()
        entry = result_to_json(result)

        script = textwrap.dedent(
            """
            import json, sys
            sys.path.insert(0, sys.argv[2])
            from repro.store import VerdictStore
            entry = json.loads(sys.argv[3])
            store = VerdictStore(sys.argv[1])
            n = 0
            while True:
                store.put_entry(f"key-{n:06d}", entry)
                n += 1
                if n % 25 == 0:
                    print(n, flush=True)  # all n so far are fsynced
            """
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script, str(path), SRC, json.dumps(entry)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            acknowledged = int(child.stdout.readline())
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                line = child.stdout.readline()
                acknowledged = int(line)
                if acknowledged >= 100:
                    break
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup
                child.kill()
                child.wait()

        store = VerdictStore(path)  # must not raise, must replay
        assert len(store) >= acknowledged
        assert store.get("key-000000") is not None
        assert store.get(f"key-{acknowledged - 1:06d}") is not None
        store.close()

    def test_partial_trailing_line_is_silently_dropped(self, tmp_path):
        path = tmp_path / "store.db"
        store = VerdictStore(path)
        key, digest, result = _solved()
        store.put(key, result, digest=digest)
        store.close()
        # Simulate a crash mid-append: a torn, newline-less tail.
        with open(str(path) + ".journal", "ab") as fh:
            fh.write(b'{"key": "torn-entr')
        reopened = VerdictStore(path)
        assert len(reopened) == 1
        assert reopened.get(key) is not None
        reopened.close()

    def test_malformed_complete_line_warns_and_degrades(self, tmp_path):
        path = tmp_path / "store.db"
        store = VerdictStore(path)
        key, digest, result = _solved()
        store.put(key, result, digest=digest)
        store.close()
        with open(str(path) + ".journal", "ab") as fh:
            fh.write(b"this is not json\n")
            fh.write(b'{"key": "k", "no_entry": true}\n')
        with pytest.warns(RuntimeWarning, match="malformed"):
            reopened = VerdictStore(path)
        assert len(reopened) == 1  # the good verdict survived
        reopened.close()

    def test_corrupt_database_quarantined_with_warning(self, tmp_path):
        path = tmp_path / "store.db"
        path.write_bytes(b"SQLite format 3\x00" + b"\xde\xad\xbe\xef" * 64)
        with pytest.warns(RuntimeWarning, match="corrupt|readable"):
            store = VerdictStore(path)
        assert len(store) == 0  # degrade to misses…
        assert (tmp_path / "store.db.corrupt").exists()  # …evidence kept
        key, digest, result = _solved()
        store.put(key, result, digest=digest)  # …and the store works
        assert store.get(key) is not None
        store.close()

    def test_unparseable_non_sqlite_file_quarantined(self, tmp_path):
        path = tmp_path / "store.db"
        path.write_text('{"truncated": ', encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            store = VerdictStore(path)
        assert len(store) == 0
        assert (tmp_path / "store.db.corrupt").exists()
        store.close()

    def test_corrupt_store_never_blocks_service_startup(self, tmp_path):
        path = tmp_path / "store.db"
        path.write_text("not a database at all", encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            with EngineService(method="fk-b", store=path) as service:
                assert service.solve(*matching_dual_pair(2)).is_dual


# ---------------------------------------------------------------------------
# Legacy cache.json migration
# ---------------------------------------------------------------------------

class TestLegacyImport:
    # Every vertex type of the lossless codec (TestCodec.VALUES).
    VERTEX_VALUES = [
        0,
        -7,
        10**30,
        True,
        False,
        "vertex",
        "",
        "with spaces / unicode ∅",
        None,
        2.5,
        (0, 1),
        ("fresh", 4),
        (0, ("nested", (1, 2))),
        frozenset({1, 2, 3}),
        frozenset({("a", 1), ("b", 2)}),
        (),
        frozenset(),
    ]

    def _legacy_cache(self, path: Path) -> dict[str, DualityResult]:
        results = {}
        for n, value in enumerate(self.VERTEX_VALUES):
            result = DualityResult(
                verdict=Verdict.NOT_DUAL,
                certificate=Certificate(
                    kind=None,
                    witness=frozenset({value}),
                    detail=f"entry {n}",
                    path=(n,),
                ),
                stats=DecisionStats(),
                method="fk-b",
            )
            results[f"legacy-{n:03d}"] = result
        path.write_text(
            json.dumps({k: result_to_json(r) for k, r in results.items()}),
            encoding="utf-8",
        )
        return results

    def test_auto_import_round_trips_every_codec_vertex_type(self, tmp_path):
        path = tmp_path / "cache.json"
        results = self._legacy_cache(path)
        store = VerdictStore(path)  # legacy JSON at the store path
        assert store.imported == len(results)
        assert (tmp_path / "cache.json.legacy").exists()  # original kept
        for key, original in results.items():
            replayed = store.get(key)
            assert replayed.certificate == original.certificate
            assert replayed.certificate.witness == original.certificate.witness
            for a, b in zip(
                sorted(replayed.certificate.witness, key=repr),
                sorted(original.certificate.witness, key=repr),
            ):
                assert type(a) is type(b)  # the codec preserved types
        store.close()
        # The path is a real SQLite store now: reopening imports nothing.
        again = VerdictStore(path)
        assert again.imported == 0 and len(again) == len(results)
        again.close()

    def test_explicit_import_via_api_and_cli(self, tmp_path, capsys):
        from repro.cli import main

        legacy = tmp_path / "old-cache.json"
        results = self._legacy_cache(legacy)
        db = tmp_path / "store.db"
        status = main(["store", "import", str(db), str(legacy)])
        out = json.loads(capsys.readouterr().out)
        assert status == 0
        assert out["imported"] == len(results)
        assert out["entries"] == len(results)
        status = main(["store", "stats", str(db)])
        stats = json.loads(capsys.readouterr().out)
        assert status == 0 and stats["entries"] == len(results)

    def _legacy_with_stale_entries(self, path: Path) -> tuple[str, DualityResult]:
        """A legacy file holding one good entry beside entries that
        cannot decode: a pre-codec witness, an unknown kind, a missing
        method.  Returns the good entry's key and result."""
        key, _digest, result = _solved(hard_nondual_pair(3))
        good = result_to_json(result)
        stale = {
            "pre-codec": {**good, "witness": [1, 2]},  # untagged witness
            "bad-kind": {**good, "kind": "NO_SUCH_KIND"},
            "no-method": {k: v for k, v in good.items() if k != "method"},
        }
        path.write_text(json.dumps({key: good, **stale}), encoding="utf-8")
        return key, result

    def _assert_stale_entries_miss(self, store: VerdictStore, key, result):
        assert len(store) == 1
        assert store.get(key).certificate == result.certificate
        cache = ResultCache(backend=store)
        for stale in ("pre-codec", "bad-kind", "no-method"):
            assert cache.get(stale) is None  # a miss, never CodecError
        assert cache.misses == 3

    def test_auto_import_skips_entries_that_do_not_decode(self, tmp_path):
        path = tmp_path / "cache.json"
        key, result = self._legacy_with_stale_entries(path)
        store = VerdictStore(path)
        assert store.imported == 1  # only the rows actually imported
        self._assert_stale_entries_miss(store, key, result)
        store.close()

    def test_cli_import_skips_entries_that_do_not_decode(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        legacy = tmp_path / "old-cache.json"
        key, result = self._legacy_with_stale_entries(legacy)
        db = tmp_path / "store.db"
        assert main(["store", "import", str(db), str(legacy)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"imported": 1, "entries": 1}
        store = VerdictStore(db)
        self._assert_stale_entries_miss(store, key, result)
        store.close()


# ---------------------------------------------------------------------------
# Two processes, one store
# ---------------------------------------------------------------------------

class TestMultiProcessSharing:
    def test_writer_process_verdicts_visible_here(self, tmp_path):
        path = tmp_path / "store.db"
        script = textwrap.dedent(
            """
            import sys
            sys.path.insert(0, sys.argv[2])
            from repro.hypergraph import instance_key, pair_digest
            from repro.hypergraph.generators import matching_dual_pair
            from repro.duality import decide_duality
            from repro.store import VerdictStore
            g, h = matching_dual_pair(3)
            result = decide_duality(g, h, method="fk-b")
            store = VerdictStore(sys.argv[1])
            store.put(
                instance_key(g, h, "fk-b"), result, digest=pair_digest(g, h)
            )
            store.close()
            print("done", flush=True)
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(path), SRC],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.stdout.strip() == "done", done.stderr
        key, digest, expected = _solved()
        store = VerdictStore(path)
        replayed = store.get(key)
        assert replayed is not None
        assert replayed.certificate == expected.certificate
        assert store.get_structural(digest) is Verdict.DUAL
        store.close()

    def test_two_servers_share_one_store(self, tmp_path):
        """The ISSUE acceptance shape: a verdict computed through one
        server is a cache hit on a second server sharing the store."""
        from repro.net import DualityClient

        path = tmp_path / "store.db"
        g, h = matching_dual_pair(3)
        with DualityServer(store=path) as one:
            with DualityClient(*one.address) as client:
                first = client.solve(g, h)
                assert first["cached"] is False
            # Concurrently open second server, same store file.
            with DualityServer(store=path) as two:
                with DualityClient(*two.address) as client:
                    second = client.solve(g, h)
        assert second["cached"] is True
        assert second["origin"] == "cache"
        for field in ("verdict", "method", "kind", "witness", "path"):
            assert second[field] == first[field]


# ---------------------------------------------------------------------------
# Service and server in store mode
# ---------------------------------------------------------------------------

class TestServiceStoreMode:
    def test_verdicts_survive_service_sessions(self, tmp_path):
        path = tmp_path / "store.db"
        g, h = matching_dual_pair(3)
        with EngineService(method="fk-b", store=path) as service:
            first = service.solve(g, h)
            assert first.cached is False
            stats = service.stats()
            assert stats["store"]["entries"] == 1
            assert stats["timings_recorded"] == 1  # timings default in
        with EngineService(method="fk-b", store=path) as service:
            second = service.solve(g, h)
        assert second.cached is True and second.origin == "cache"
        assert second.result.certificate == first.result.certificate

    def test_structural_index_is_populated(self, tmp_path):
        path = tmp_path / "store.db"
        g, h = matching_dual_pair(3)
        with EngineService(method="fk-b", store=path) as service:
            service.solve(g, h)
        store = VerdictStore(path)
        assert store.get_structural(pair_digest(g, h)) is Verdict.DUAL
        assert store.timings_recorded() >= 1
        store.close()

    def test_store_and_cache_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            EngineService(store=tmp_path / "s.db", cache=ResultCache())
        # The server caches exactly when it has a store: no cache= at all.
        with pytest.raises(TypeError):
            DualityServer(store=tmp_path / "s.db", cache=ResultCache())

    def test_cache_path_is_refused_with_a_pointer_to_store(self, tmp_path):
        for path in (tmp_path / "c.json", str(tmp_path / "c.json")):
            with pytest.raises(TypeError, match="store="):
                EngineService(method="fk-b", cache=path)
        assert not (tmp_path / "c.json").exists()

    def test_stats_report_cache_evictions(self, tmp_path):
        with EngineService(
            method="fk-b", store=tmp_path / "s.db", cache_max_entries=1
        ) as service:
            assert service.stats()["cache_evictions"] == 0
            service.solve(*matching_dual_pair(2))
            service.solve(*matching_dual_pair(3))  # evicts the first
            stats = service.stats()
        assert service.cache.evictions == 1
        assert stats["cache_evictions"] == 1
        assert stats["cache_entries"] == 1

    def test_portfolio_refuses_a_store(self, tmp_path):
        with pytest.raises(ValueError, match="portfolio"):
            EngineService(method="portfolio", store=tmp_path / "s.db")


class TestClientSideStore:
    def test_client_write_back_then_local_answer(self, tmp_path, capsys):
        from repro.cli import main

        instance = _write_instance(
            tmp_path / "inst.hg", matching_dual_pair(3)
        )
        db = tmp_path / "client-store.db"
        with DualityServer() as server:
            address = "%s:%d" % server.address
            argv = [
                "client", address, str(instance),
                "--store", str(db), "--method", "fk-b",
            ]
            assert main(argv) == 0
            first = json.loads(capsys.readouterr().out.strip())
            assert first["origin"] == "computed"
            # Second run: answered from the local store, no round trip.
            assert main(argv) == 0
            second = json.loads(capsys.readouterr().out.strip())
        assert second["origin"] == "store-local"
        assert second["cached"] is True
        for field in ("key", "verdict", "method", "kind", "witness", "path"):
            assert second[field] == first[field]
