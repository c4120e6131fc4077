"""Tests for the concurrent engine scheduler (:mod:`repro.service`).

Four contracts:

* **lifecycle** — the :class:`EnginePool` spawns workers once and keeps
  them warm across batches; drain leaves it usable, shutdown is
  idempotent, submits after shutdown fail loudly, and a worker dying
  mid-flight retries **only the lost items** — completed futures keep
  their results and never re-run;
* **scheduling** — ``submit`` returns per-item futures/tickets that
  resolve out of submission order (a slow item never blocks a fast
  one), cache hits resolve at submit time without touching a worker,
  and identical in-flight instances share one computation;
* **service semantics** — :meth:`EngineService.drain` answers in
  submission order with verdicts and certificates identical to serial
  ``decide_duality`` calls, and its cache sits in *front* of the pool
  (hits never reach a worker, and persist across sessions);
* **lossless persistence** — the tagged codec round-trips every vertex
  type the library constructs, tuples included.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time

import pytest

from repro.cli import main
from repro.duality import decide_duality
from repro.hypergraph import io as hgio
from repro.hypergraph.generators import (
    disjoint_union_pair,
    hard_nondual_pair,
    matching_dual_pair,
    perturb_drop_edge,
    threshold_dual_pair,
)
from repro.parallel import (
    CodecError,
    ResultCache,
    decide_duality_parallel,
    decode_value,
    encode_value,
    solve_many,
)
from repro.service import EnginePool, EngineService, PoolClosedError, response_to_json
from repro.store import VerdictStore


def _double(x):
    """Module-level (picklable) work function."""
    return 2 * x


def _sleepy(arg):
    """Module-level work function: sleep ``duration``, return ``value``."""
    duration, value = arg
    time.sleep(duration)
    return value


def _record_run(arg):
    """Module-level work function that logs each execution to a file."""
    path, value = arg
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("ran\n")
    return 2 * value


def _die_unless_flagged(arg):
    """Kill the hosting worker once, then behave (module-level).

    ``arg`` is ``(flag_path, value)``.  The first worker to run this
    creates the flag and dies abruptly (``os._exit`` — no exception, no
    cleanup, exactly what a segfault or OOM kill looks like to the
    parent).  Retries see the flag and succeed.
    """
    flag, value = arg
    if not os.path.exists(flag):
        with open(flag, "w", encoding="utf-8") as handle:
            handle.write("died")
        os._exit(13)
    return 2 * value


# ---------------------------------------------------------------------------
# EnginePool lifecycle
# ---------------------------------------------------------------------------

class TestEnginePoolLifecycle:
    def test_in_process_map(self):
        with EnginePool(1) as pool:
            assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
            assert pool.generations == 1

    def test_submit_then_drain_in_submission_order(self):
        with EnginePool(1) as pool:
            futures = [pool.submit(_double, n) for n in (5, 6, 7)]
            results = pool.drain()
            assert [results[f.ticket] for f in futures] == [10, 12, 14]

    def test_submit_after_drain_keeps_working(self):
        with EnginePool(1) as pool:
            pool.submit(_double, 1)
            assert list(pool.drain().values()) == [2]
            # drain leaves the pool warm — this must not raise.
            future = pool.submit(_double, 21)
            assert pool.drain()[future.ticket] == 42
            assert pool.generations == 1

    def test_double_shutdown_is_a_noop(self):
        pool = EnginePool(1).start()
        pool.shutdown()
        pool.shutdown()  # must not raise
        assert pool.closed

    def test_submit_after_shutdown_raises(self):
        pool = EnginePool(1).start()
        pool.shutdown()
        with pytest.raises(PoolClosedError, match="shut down"):
            pool.submit(_double, 1)
        with pytest.raises(PoolClosedError):
            pool.start()

    def test_start_is_idempotent(self):
        pool = EnginePool(2)
        try:
            pool.start()
            pool.start()
            assert pool.generations == 1
        finally:
            pool.shutdown()

    def test_workers_stay_warm_across_batches(self):
        with EnginePool(2) as pool:
            seen: set[int] = set()
            for batch in range(5):
                assert pool.map(_double, list(range(8))) == [
                    2 * n for n in range(8)
                ]
                seen |= pool.worker_pids()
            assert os.getpid() not in seen  # real subprocesses
            # One generation creates at most n_jobs worker processes,
            # ever.  A pool that respawned per batch would have minted
            # fresh pids each time (5 batches × 2 workers > 2).
            assert len(seen) <= pool.n_jobs
            assert pool.generations == 1

    def test_worker_death_mid_batch_recovers(self, tmp_path):
        flag = str(tmp_path / "died.flag")
        with EnginePool(2) as pool:
            results = pool.map(
                _die_unless_flagged, [(flag, n) for n in range(6)]
            )
            assert results == [2 * n for n in range(6)]
            assert pool.restarts >= 1
            assert pool.generations == pool.restarts + 1
        assert os.path.exists(flag)

    def test_worker_error_propagates_without_breaking_the_pool(self):
        with EnginePool(1) as pool:
            pool.submit(_double, 1)
            pool.submit(len, 3)  # TypeError: int has no len()
            with pytest.raises(TypeError):
                pool.drain()
            # The failed batch is fully cleared — no stale tickets to
            # re-raise or leak into later drains (regression: a task
            # exception used to poison every subsequent drain).
            assert pool.drain() == {}
            assert pool.map(_double, [4]) == [8]

    def test_failed_map_does_not_poison_later_batches(self):
        with EnginePool(1) as pool:
            with pytest.raises(TypeError):
                pool.map(len, [1, 2, 3])
            assert pool.drain() == {}
            future = pool.submit(_double, 5)
            assert pool.drain() == {future.ticket: 10}


# ---------------------------------------------------------------------------
# Per-item futures: the scheduler under everything
# ---------------------------------------------------------------------------

class TestPoolFutures:
    def test_in_process_submit_resolves_before_returning(self):
        with EnginePool(1) as pool:
            future = pool.submit(_double, 4)
            assert future.done()
            assert future.result() == 8
            assert future.exception() is None
            fired = []
            future.add_done_callback(fired.append)  # already done: fires now
            assert fired == [future]

    def test_fast_future_overtakes_a_slow_one(self):
        with EnginePool(2) as pool:
            slow = pool.submit(_sleepy, (2.0, "slow"), collect=False)
            fast = pool.submit(_sleepy, (0.0, "fast"), collect=False)
            assert fast.result(timeout=30) == "fast"
            # The fast item finished while the slow one is still in a
            # worker: no head-of-line blocking through the pool.
            assert not slow.done()
            assert slow.result(timeout=30) == "slow"

    def test_callbacks_fire_in_completion_order(self):
        order: list[str] = []
        lock = threading.Lock()

        def note(label):
            def callback(_future):
                with lock:
                    order.append(label)

            return callback

        with EnginePool(2) as pool:
            slow = pool.submit(_sleepy, (1.5, None), collect=False)
            fast = pool.submit(_sleepy, (0.0, None), collect=False)
            slow.add_done_callback(note("slow"))
            fast.add_done_callback(note("fast"))
            slow.wait(timeout=30)
            fast.wait(timeout=30)
        assert order == ["fast", "slow"]

    def test_future_error_is_isolated_to_its_item(self):
        with EnginePool(1) as pool:
            bad = pool.submit(len, 3, collect=False)  # TypeError
            good = pool.submit(_double, 5, collect=False)
            assert isinstance(bad.exception(), TypeError)
            with pytest.raises(TypeError):
                bad.result()
            assert good.result() == 10

    def test_shutdown_resolves_every_future(self):
        # More items than workers: some are running when shutdown hits,
        # some still queued.  Every future must settle — a value for
        # the ones the executor finished, PoolClosedError for the ones
        # it cancelled — so no waiter ever hangs on a dead pool.
        pool = EnginePool(2).start()
        futures = [
            pool.submit(_sleepy, (0.3, n), collect=False) for n in range(6)
        ]
        time.sleep(0.1)  # let the first items reach the workers
        pool.shutdown()
        for n, future in enumerate(futures):
            assert future.done()
            error = future.exception()
            if error is None:
                assert future.result() == n
            else:
                assert isinstance(error, PoolClosedError)
        assert any(f.exception() is None for f in futures)

    def test_worker_death_retries_only_the_lost_items(self, tmp_path):
        flag = str(tmp_path / "died.flag")
        survivor_runs = str(tmp_path / "survivor.runs")
        with EnginePool(2) as pool:
            survivor = pool.submit(
                _record_run, (survivor_runs, 21), collect=False
            )
            assert survivor.result(timeout=60) == 42  # done before the death
            killer = pool.submit(_die_unless_flagged, (flag, 1), collect=False)
            bystander = pool.submit(_double, 4, collect=False)
            assert killer.result(timeout=60) == 2  # retried transparently
            assert bystander.result(timeout=60) == 8
            assert pool.restarts >= 1
            assert killer.attempts >= 2
        # The already-completed item kept its result and never re-ran.
        with open(survivor_runs, encoding="utf-8") as handle:
            assert handle.read().count("ran") == 1
        assert survivor.result() == 42


# ---------------------------------------------------------------------------
# Pool reuse by the parallel subsystem
# ---------------------------------------------------------------------------

class TestPoolReuse:
    def test_solve_many_spawns_workers_once_across_batches(self):
        pairs_a = [matching_dual_pair(3), threshold_dual_pair(7, 4)]
        pairs_b = [hard_nondual_pair(3), matching_dual_pair(2)]
        with EnginePool(2) as pool:
            seen = set(pool.worker_pids())
            items_a = solve_many(pairs_a, method="fk-b", pool=pool)
            items_b = solve_many(pairs_b, method="fk-b", pool=pool)
            seen |= pool.worker_pids()
            assert pool.generations == 1  # spawned exactly once…
            assert len(seen) <= pool.n_jobs  # …no fresh processes per batch
        for (g, h), item in zip(pairs_a + pairs_b, items_a + items_b):
            reference = decide_duality(g, h, method="fk-b")
            assert item.result.verdict == reference.verdict
            assert item.result.certificate == reference.certificate

    def test_sharded_solving_through_persistent_pool(self):
        g, h = threshold_dual_pair(9, 5)
        with EnginePool(2) as pool:
            for method in ("fk-b", "bm", "logspace"):
                reference = decide_duality(g, h, method=method)
                sharded = decide_duality_parallel(g, h, method=method, pool=pool)
                assert sharded.verdict == reference.verdict, method
                assert sharded.certificate == reference.certificate, method
            assert pool.generations == 1


# ---------------------------------------------------------------------------
# EngineService
# ---------------------------------------------------------------------------

class TestEngineService:
    def _instances(self):
        return [
            matching_dual_pair(3),
            threshold_dual_pair(7, 4),
            hard_nondual_pair(3),
        ]

    def test_responses_in_submission_order_and_serial_identical(self):
        with EngineService(method="bm") as service:
            ids = [service.submit(pair) for pair in self._instances()]
            responses = service.drain()
        assert [r.request_id for r in responses] == ids
        for (g, h), response in zip(self._instances(), responses):
            reference = decide_duality(g, h, method="bm")
            assert response.result.verdict == reference.verdict
            assert response.result.certificate == reference.certificate

    def test_cache_sits_in_front_of_the_pool(self):
        cache = ResultCache()
        with EngineService(method="fk-b", cache=cache) as service:
            for pair in self._instances():
                service.submit(pair)
            service.drain()
            solved_after_first = service.pool.tasks_completed
            for pair in self._instances():
                service.submit(pair)
            second = service.drain()
        assert all(r.cached for r in second)
        # Hits never reached a worker.
        assert service.pool.tasks_completed == solved_after_first
        assert cache.hits == len(self._instances())

    def test_cache_hits_across_two_service_sessions(self, tmp_path):
        store_path = tmp_path / "service-store.db"
        with EngineService(method="fk-b", store=store_path) as first:
            for pair in self._instances():
                first.submit(pair)
            originals = first.drain()
        assert store_path.exists()

        with EngineService(method="fk-b", store=store_path) as second:
            for pair in self._instances():
                second.submit(pair)
            replayed = second.drain()
            assert second.pool.tasks_completed == 0  # everything from cache
        for original, replay in zip(originals, replayed):
            assert replay.cached
            assert replay.result.verdict == original.result.verdict
            assert replay.result.certificate == original.result.certificate

    def test_solve_and_solve_file(self, tmp_path):
        g, h = matching_dual_pair(2)
        path = tmp_path / "m2.hg"
        hgio.dump_many([g, h], path)
        with EngineService() as service:
            assert service.solve(g, h).is_dual
            response = service.solve_file(path)
            assert response.is_dual and response.source == str(path)

    def test_solve_coexists_with_queued_requests(self):
        # solve() runs outside the drain batch (collect=False), so it
        # can answer immediately without discarding anyone's queued
        # requests — the old lock-step service had to refuse here.
        with EngineService(method="bm") as service:
            queued = service.submit(matching_dual_pair(3))
            assert service.solve(*matching_dual_pair(2)).is_dual
            # The queued request is still answerable afterwards…
            (response,) = service.drain()
            assert response.request_id == queued and response.is_dual
            # …and the inline solve never leaked into the drain batch.
            assert service.drain() == []

    def test_bad_path_fails_its_own_submit_not_the_drain(self, tmp_path):
        g, h = matching_dual_pair(2)
        good = tmp_path / "good.hg"
        hgio.dump_many([g, h], good)
        with EngineService(method="bm") as service:
            service.submit(good)
            with pytest.raises(FileNotFoundError):
                service.submit(tmp_path / "missing.hg")
            # The good request drains normally despite the bad submit.
            (response,) = service.drain()
            assert response.is_dual

    def test_submit_after_close_raises(self):
        service = EngineService()
        service.close()
        service.close()  # idempotent
        with pytest.raises(PoolClosedError, match="closed"):
            service.submit(matching_dual_pair(2))
        with pytest.raises(PoolClosedError):
            service.drain()

    def test_borrowed_pool_survives_service_close(self):
        with EnginePool(1) as pool:
            service = EngineService(pool=pool)
            service.submit(matching_dual_pair(2))
            service.drain()
            service.close()
            assert not pool.closed
            assert pool.map(_double, [1]) == [2]

    def test_stats_snapshot(self):
        with EngineService(method="bm", cache=ResultCache()) as service:
            service.submit(matching_dual_pair(2))
            service.drain()
            stats = service.stats()
        assert stats["requests"] == 1
        assert stats["pool_generations"] == 1
        assert stats["cache_misses"] == 1

    def test_response_to_json_is_json_serialisable(self):
        with EngineService(method="bm") as service:
            ok = service.solve(*matching_dual_pair(2))
            bad = service.solve(*hard_nondual_pair(3))
        for response in (ok, bad):
            line = json.dumps(response_to_json(response))
            decoded = json.loads(line)
            assert decoded["dual"] == response.is_dual
        assert json.loads(json.dumps(response_to_json(bad)))["witness"]


# ---------------------------------------------------------------------------
# Service tickets: the scheduler's request-level contract
# ---------------------------------------------------------------------------

class TestServiceTickets:
    SLOW = threshold_dual_pair(13, 7)  # ~0.5 s under fk-b
    FAST = [matching_dual_pair(3), threshold_dual_pair(7, 4), matching_dual_pair(2)]

    def test_ticket_is_its_request_id(self):
        with EngineService(method="bm") as service:
            first = service.submit(matching_dual_pair(2))
            second = service.submit(matching_dual_pair(3))
            assert isinstance(first, int)
            assert (first, second) == (0, 1)
            assert second.request_id == 1
            service.drain()

    def test_cache_hit_ticket_resolves_at_submit_without_a_worker(self):
        cache = ResultCache()
        with EngineService(method="fk-b", cache=cache) as service:
            service.solve(*matching_dual_pair(3))
            solved = service.pool.tasks_completed
            ticket = service.submit(matching_dual_pair(3), collect=False)
            # Resolved the moment submit returned — no drain, no worker.
            assert ticket.done()
            response = ticket.result()
            assert response.cached
            assert service.pool.tasks_completed == solved
            assert cache.hits == 1

    def test_identical_inflight_instances_share_one_computation(self):
        # n_jobs=2 so the first submit is still computing in a worker
        # when the duplicate arrives; the duplicate must join it, not
        # occupy the second worker.
        cache = ResultCache()
        with EngineService(method="fk-b", n_jobs=2, cache=cache) as service:
            first = service.submit(self.SLOW, collect=False)
            second = service.submit(self.SLOW, collect=False)
            a = first.result(timeout=120)
            b = second.result(timeout=120)
            assert service.pool.tasks_completed == 1
            assert not a.cached and b.cached
            assert a.result.verdict == b.result.verdict
            assert a.result.certificate == b.result.certificate
            # One solve, one recorded miss: the joined duplicate never
            # consulted the cache (solve_many's within-batch rule).
            assert (cache.misses, cache.hits) == (1, 0)

    def test_out_of_order_completion_submission_order_drain(self):
        """Seeded fast/slow mix: fast tickets resolve before a slow one
        submitted ahead of them, yet drain stays in submission order and
        bit-for-bit identical to serial decide_duality."""
        rng = random.Random(20260726)
        fasts = list(self.FAST)
        rng.shuffle(fasts)
        instances = [self.SLOW] + fasts
        completion: list[int] = []
        lock = threading.Lock()

        def note(ticket):
            with lock:
                completion.append(ticket.request_id)

        with EngineService(method="fk-b", n_jobs=2) as service:
            tickets = []
            for pair in instances:
                ticket = service.submit(pair)
                ticket.add_done_callback(note)
                tickets.append(ticket)
            responses = service.drain()
        # Submission-order determinism on the drain side…
        assert [r.request_id for r in responses] == [int(t) for t in tickets]
        for (g, h), response in zip(instances, responses):
            reference = decide_duality(g, h, method="fk-b")
            assert response.result.verdict == reference.verdict
            assert response.result.certificate == reference.certificate
        # …while completion genuinely happened out of order: every fast
        # instance overtook the slow one submitted before it.
        assert completion[-1] == tickets[0].request_id
        assert sorted(completion) == [int(t) for t in tickets]

    def test_ticket_after_service_close_errors(self):
        service = EngineService(method="fk-b", n_jobs=2)
        inflight = service.submit(self.SLOW, collect=False)
        service.close()  # owned pool: shutdown resolves stragglers
        assert inflight.done()
        error = inflight.exception()
        if error is not None:  # cancelled before a worker picked it up
            assert isinstance(error, PoolClosedError)
        with pytest.raises(PoolClosedError, match="closed"):
            service.submit(matching_dual_pair(2))

    def test_error_ticket_resolves_with_the_error(self, tmp_path):
        from repro.hypergraph import Hypergraph

        not_simple = Hypergraph([frozenset({0}), frozenset({0, 1})])
        h = Hypergraph([frozenset({0})])
        with EngineService(method="fk-b") as service:
            bad = service.submit((not_simple, h), collect=False)
            error = bad.exception()
            assert error is not None and "simple" in str(error)
            with pytest.raises(type(error)):
                bad.result()
            # The scheduler (and its pool) survived the bad request.
            assert service.solve(*matching_dual_pair(2)).is_dual

    def test_drain_raises_first_error_but_computes_the_rest(self):
        from repro.hypergraph import Hypergraph

        not_simple = Hypergraph([frozenset({0}), frozenset({0, 1})])
        h = Hypergraph([frozenset({0})])
        cache = ResultCache()
        with EngineService(method="fk-b", cache=cache) as service:
            service.submit(matching_dual_pair(3))
            service.submit((not_simple, h))
            service.submit(matching_dual_pair(2))
            with pytest.raises(Exception, match="simple"):
                service.drain()
            # The healthy requests were still answered (and cached).
            assert len(cache) == 2
            assert service.submit(matching_dual_pair(3), collect=False).result().cached


# ---------------------------------------------------------------------------
# The serve CLI
# ---------------------------------------------------------------------------

class TestServeCommand:
    @pytest.fixture
    def instance_files(self, tmp_path):
        files = []
        for name, pair in (
            ("dual-m3", matching_dual_pair(3)),
            ("broken", hard_nondual_pair(3)),
        ):
            path = tmp_path / f"{name}.hg"
            hgio.dump_many(pair, path)
            files.append(path)
        return files

    def test_serve_files_streams_json_verdicts(self, instance_files, capsys):
        status = main(["serve", *map(str, instance_files)])
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert status == 1  # one instance is not dual
        assert [line["dual"] for line in lines] == [True, False]
        assert lines[1]["witness"] is not None

    def test_serve_stdin_streams_and_caches(
        self, instance_files, tmp_path, capsys, monkeypatch
    ):
        import io

        cache = tmp_path / "cache.json"
        stdin_lines = f"{instance_files[0]}\n# comment\n{instance_files[0]}\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_lines))
        status = main(["serve", "--cache", str(cache), "--stats"])
        out = capsys.readouterr().out.strip().splitlines()
        assert status == 0
        verdicts = [json.loads(line) for line in out[:-1]]
        assert [v["cached"] for v in verdicts] == [False, True]
        stats = json.loads(out[-1])["stats"]
        assert stats["cache_hits"] == 1
        assert cache.exists()

    def test_serve_survives_a_bad_path_on_stdin(
        self, instance_files, capsys, monkeypatch
    ):
        import io

        stdin_lines = f"missing-file.hg\n{instance_files[0]}\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_lines))
        status = main(["serve"])
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert status == 1  # the bad path is reported as a failure…
        assert "error" in lines[0]
        assert lines[1]["dual"] is True  # …but the session kept serving

    def test_serve_survives_a_solver_side_error(
        self, instance_files, tmp_path, capsys, monkeypatch
    ):
        import io

        # Parses fine, but G is not simple — the engine raises at solve
        # time, well past submit's load.
        not_simple = tmp_path / "not-simple.hg"
        not_simple.write_text("0\n0 1\n==\n0\n", encoding="utf-8")
        stdin_lines = f"{not_simple}\n{instance_files[0]}\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_lines))
        status = main(["serve"])
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert status == 1
        assert "error" in lines[0] and "simple" in lines[0]["error"]
        assert lines[1]["dual"] is True  # the session kept serving

    def test_serve_batch_isolates_the_failing_file(self, instance_files, tmp_path, capsys):
        not_simple = tmp_path / "not-simple.hg"
        not_simple.write_text("0\n0 1\n==\n0\n", encoding="utf-8")
        status = main(
            ["serve", str(instance_files[0]), str(not_simple)]
        )
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert status == 1
        by_kind = {"error" in line: line for line in lines}
        assert by_kind[True]["source"] == str(not_simple)
        assert by_kind[False]["dual"] is True

    def test_serve_cache_across_cli_sessions(self, instance_files, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        main(["serve", str(instance_files[0]), "--cache", str(cache)])
        capsys.readouterr()
        main(["serve", str(instance_files[0]), "--cache", str(cache)])
        (line,) = capsys.readouterr().out.strip().splitlines()
        assert json.loads(line)["cached"] is True

    def test_serve_stdin_exits_cleanly_on_ctrl_c(
        self, instance_files, tmp_path, capsys, monkeypatch
    ):
        """Ctrl-C mid-stream is a normal session end: no traceback, the
        verdicts answered so far stand, and the cache is still flushed."""

        class InterruptedStdin:
            def __init__(self, lines):
                self._lines = iter(lines)

            def __iter__(self):
                return self

            def __next__(self):
                line = next(self._lines)
                if line is None:
                    raise KeyboardInterrupt
                return line

        cache = tmp_path / "cache.json"
        monkeypatch.setattr(
            "sys.stdin", InterruptedStdin([f"{instance_files[0]}\n", None])
        )
        status = main(["serve", "--cache", str(cache), "--stats"])
        out = capsys.readouterr().out.strip().splitlines()
        assert status == 0
        assert json.loads(out[0])["dual"] is True
        assert json.loads(out[-1])["stats"]["requests"] == 1
        assert cache.exists()  # flushed despite the interrupt


# ---------------------------------------------------------------------------
# Lossless codec and cache persistence
# ---------------------------------------------------------------------------

class TestCodec:
    VALUES = [
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

    def test_round_trip_preserves_value_and_type(self):
        for value in self.VALUES:
            decoded = decode_value(encode_value(value))
            assert decoded == value
            assert type(decoded) is type(value)

    def test_bool_does_not_collapse_to_int(self):
        assert decode_value(encode_value(True)) is True
        assert type(decode_value(encode_value(1))) is int

    def test_json_round_trip(self):
        for value in self.VALUES:
            wire = json.loads(json.dumps(encode_value(value)))
            assert decode_value(wire) == value

    def test_exotic_types_rejected(self):
        with pytest.raises(CodecError):
            encode_value(object())
        with pytest.raises(CodecError):
            decode_value(["?", 1])

    def test_cache_persists_tuple_labelled_witnesses(self, tmp_path):
        # disjoint_union_pair labels vertices (side, v) — the exact case
        # the old JSON persistence silently dropped.
        g, h = disjoint_union_pair(matching_dual_pair(2), matching_dual_pair(1))
        broken = perturb_drop_edge(h)
        path = tmp_path / "verdicts.db"
        store = VerdictStore(path)
        (original,) = solve_many(
            [(g, broken)], method="bm", cache=ResultCache(backend=store)
        )
        store.close()
        assert not original.is_dual
        assert any(isinstance(v, tuple) for v in original.result.witness)

        store = VerdictStore(path)
        assert len(store) == 1  # persisted, not dropped
        (replayed,) = solve_many(
            [(g, broken)], method="bm", cache=ResultCache(backend=store)
        )
        store.close()
        assert replayed.cached
        assert replayed.result.certificate == original.result.certificate
        assert replayed.result.witness == original.result.witness
        assert all(
            type(a) is type(b)
            for a, b in zip(
                sorted(replayed.result.witness, key=repr),
                sorted(original.result.witness, key=repr),
            )
        )

    def test_pre_codec_cache_entries_become_misses(self, tmp_path):
        path = tmp_path / "old-cache.json"
        path.write_text(
            json.dumps(
                {
                    "deadbeef": {
                        "verdict": "not-dual",
                        "method": "bm",
                        "kind": "MISSING_TRANSVERSAL",
                        "witness": [0, 2],  # old, untagged format
                        "detail": "",
                        "path": None,
                    }
                }
            ),
            encoding="utf-8",
        )
        store = VerdictStore(path)  # auto-imports the legacy file
        assert store.imported == 0 and len(store) == 0  # dropped
        cache = ResultCache(backend=store)
        assert cache.get("deadbeef") is None  # a miss, not an error
        assert cache.misses == 1
        store.close()


class TestLoopCallbacks:
    def test_add_loop_callback_runs_on_the_event_loop(self):
        """The asyncio bridge: however the ticket resolves (worker
        thread, submitter thread, cache hit at submit), the callback
        always lands on the loop thread — that is the contract the TCP
        server's delivery path is built on."""
        import asyncio

        with EngineService(method="fk-b", cache=ResultCache()) as service:

            async def drive() -> list[tuple[int, bool, bool]]:
                loop = asyncio.get_running_loop()
                loop_thread = threading.get_ident()
                landed: list[tuple[int, bool, bool]] = []
                done = asyncio.Event()
                # One computed verdict, then the same instance again —
                # the second resolves already-cached, at submit time,
                # in the submitting thread.
                for expected in (False, True):
                    ticket = await loop.run_in_executor(
                        None,
                        lambda: service.submit(
                            matching_dual_pair(3), collect=False
                        ),
                    )
                    done.clear()

                    def on_done(t, expected=expected) -> None:
                        landed.append(
                            (
                                threading.get_ident() == loop_thread,
                                t.result().cached is expected,
                                t.done(),
                            )
                        )
                        done.set()

                    ticket.add_loop_callback(loop, on_done)
                    await asyncio.wait_for(done.wait(), 60)
                return landed

            landed = asyncio.run(drive())
        assert landed == [(True, True, True), (True, True, True)]

    def test_add_loop_callback_swallows_a_closed_loop(self):
        """A verdict landing after its loop closed is dropped, not a
        crash in the completion thread (the verdict itself is safe in
        the cache)."""
        import asyncio

        loop = asyncio.new_event_loop()
        loop.close()
        fired: list[int] = []
        with EngineService(method="bm") as service:
            ticket = service.submit(matching_dual_pair(2), collect=False)
            ticket.exception()  # settle first, then attach
            ticket.add_loop_callback(loop, lambda t: fired.append(1))
        assert fired == []
