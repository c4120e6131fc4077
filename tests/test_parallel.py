"""Tests for the parallel subsystem (:mod:`repro.parallel`).

The contract under test everywhere: parallelism changes wall time, never
answers.  Sharded solving, the portfolio racer, and the batch front end
must return verdicts and certificates identical to the serial reference
engines, for every ``n_jobs``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.cli import main
from repro.duality import check_result_witness, decide_duality
from repro.hypergraph import (
    Hypergraph,
    canonical_digest,
    from_mask_payload,
    instance_key,
    mask_payload,
)
from repro.hypergraph import io as hgio
from repro.hypergraph.generators import (
    hard_nondual_pair,
    matching_dual_pair,
    perturb_drop_edge,
    perturb_enlarge_edge,
    random_dual_pair,
    random_simple,
    standard_dual_suite,
    threshold_dual_pair,
)
from repro.parallel import (
    PARALLEL_METHODS,
    ResultCache,
    WorkerPool,
    decide_duality_parallel,
    plan_bm,
    plan_fk,
    plan_logspace,
    race_portfolio,
    resolve_n_jobs,
    solve_many,
    solve_shards,
)
from repro.store import VerdictStore

from tests.conftest import nonempty_simple_hypergraphs


def _instance_corpus():
    """A mixed corpus: dual, perturbed-non-dual, and adversarial pairs."""
    corpus = []
    for name, g, h in standard_dual_suite(max_matching=3, max_threshold=5):
        corpus.append((name, g, h))
        if len(h) > 1:
            corpus.append((f"{name}-drop", g, perturb_drop_edge(h)))
            corpus.append((f"{name}-enlarge", g, perturb_enlarge_edge(h)))
    corpus.append(("hard-3", *hard_nondual_pair(3)))
    for seed in range(3):
        corpus.append((f"random-{seed}", *random_dual_pair(6, 4, seed=seed)))
    return corpus


CORPUS = _instance_corpus()


# ---------------------------------------------------------------------------
# Sharded solving: bit-for-bit equivalence with the serial engines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", PARALLEL_METHODS)
class TestShardedEquivalence:
    def test_corpus_in_process(self, method):
        for name, g, h in CORPUS:
            reference = decide_duality(g, h, method=method)
            sharded = decide_duality_parallel(g, h, method=method, n_jobs=1)
            assert sharded.verdict == reference.verdict, (method, name)
            assert sharded.certificate == reference.certificate, (method, name)
            assert sharded.method == reference.method, (method, name)

    def test_corpus_two_workers(self, method):
        # A spot-check subset across processes (pool startup is not free).
        for name, g, h in CORPUS[::7]:
            reference = decide_duality(g, h, method=method)
            sharded = decide_duality(g, h, method=method, n_jobs=2)
            assert sharded.verdict == reference.verdict, (method, name)
            assert sharded.certificate == reference.certificate, (method, name)

    @given(
        nonempty_simple_hypergraphs(max_vertices=5, max_edges=4),
        nonempty_simple_hypergraphs(max_vertices=5, max_edges=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_fuzzed_in_process(self, method, g, h):
        reference = decide_duality(g, h, method=method)
        sharded = decide_duality_parallel(g, h, method=method, n_jobs=1)
        assert sharded.verdict == reference.verdict
        assert sharded.certificate == reference.certificate


class TestShardedStats:
    """The tree engines' work counters survive the shard/merge round trip."""

    def test_bm_and_logspace_stats_match_serial(self):
        for name, g, h in CORPUS:
            for method in ("bm", "logspace"):
                reference = decide_duality(g, h, method=method)
                sharded = decide_duality_parallel(g, h, method=method, n_jobs=1)
                assert sharded.stats.nodes == reference.stats.nodes, (method, name)
                assert sharded.stats.max_depth == reference.stats.max_depth
                if method == "logspace":
                    assert (
                        sharded.stats.peak_space_bits
                        == reference.stats.peak_space_bits
                    ), name

    def test_fk_stats_match_serial_on_dual_instances(self):
        # On dual instances the serial recursion visits every branch the
        # planner unrolled, so even the counters line up.
        for name, g, h in CORPUS:
            reference = decide_duality(g, h, method="fk-b")
            if not reference.is_dual:
                continue
            sharded = decide_duality_parallel(g, h, method="fk-b", n_jobs=1)
            assert sharded.stats.nodes == reference.stats.nodes, name
            assert sharded.stats.max_depth == reference.stats.max_depth, name
            assert sharded.stats.base_cases == reference.stats.base_cases, name

    def test_fk_plan_oversharding(self):
        g, h = threshold_dual_pair(9, 5)
        plan = plan_fk(g, h, use_b=True, target_shards=8)
        assert len(plan.shards) >= 8
        # Orders are the serial DFS positions.
        assert [s.order for s in plan.shards] == list(range(len(plan.shards)))


class TestRecursiveShardPlans:
    """Multi-level bm/logspace plans: more shards, same answers."""

    def _skewed(self):
        # One tiny block glued to one big block: the root's children are
        # very uneven, so a one-level plan cannot balance the work.
        return threshold_dual_pair(9, 5)

    def test_bm_reshards_past_the_root_children(self):
        g, h = self._skewed()
        one_level = plan_bm(g, h)
        recursive = plan_bm(g, h, target_shards=len(one_level.shards) + 4)
        assert len(recursive.shards) > len(one_level.shards)
        # Re-sharding expanded interior nodes beyond the root.
        assert recursive.plan_stats.nodes > one_level.plan_stats.nodes

    def test_logspace_reshards_past_the_root_children(self):
        g, h = self._skewed()
        one_level = plan_logspace(g, h)
        recursive = plan_logspace(g, h, target_shards=len(one_level.shards) + 4)
        assert len(recursive.shards) > len(one_level.shards)
        assert len(recursive.extra["planned_nodes"]) > len(
            one_level.extra["planned_nodes"]
        )

    @pytest.mark.parametrize("method", ["bm", "logspace"])
    def test_recursive_plans_preserve_results_and_stats(self, method):
        plan_fn = plan_bm if method == "bm" else plan_logspace
        for name, g, h in CORPUS:
            serial = decide_duality(g, h, method=method)
            for target in (2, 5, 11):
                plan = plan_fn(g, h, target_shards=target)
                merged = solve_shards(plan, 1)
                assert merged.verdict == serial.verdict, (name, target)
                assert merged.certificate == serial.certificate, (name, target)
                assert merged.stats.nodes == serial.stats.nodes, (name, target)
                assert merged.stats.max_depth == serial.stats.max_depth
                if method == "bm":
                    assert merged.stats.base_cases == serial.stats.base_cases
                    assert (
                        merged.stats.max_children == serial.stats.max_children
                    )
                else:
                    assert (
                        merged.stats.peak_space_bits
                        == serial.stats.peak_space_bits
                    ), (name, target)

    def test_facade_engages_recursive_plans_at_n_jobs_2(self):
        g, h = self._skewed()
        result = decide_duality(g, h, method="bm", n_jobs=2)
        reference = decide_duality(g, h, method="bm")
        assert result.certificate == reference.certificate
        assert result.stats.extra["n_shards"] >= len(plan_bm(g, h).shards)


class TestFacadeParallelOptions:
    def test_n_jobs_rejected_for_serial_only_engines(self):
        g, h = matching_dual_pair(2)
        with pytest.raises(ValueError, match="no parallel path"):
            decide_duality(g, h, method="berge", n_jobs=2)

    def test_bad_n_jobs_rejected(self):
        g, h = matching_dual_pair(2)
        for bad in (0, -2, 1.5, "4"):
            with pytest.raises(ValueError):
                decide_duality(g, h, method="fk-b", n_jobs=bad)

    def test_n_jobs_minus_one_means_all_cores(self):
        assert resolve_n_jobs(-1) >= 1
        g, h = matching_dual_pair(2)
        assert decide_duality(g, h, method="fk-b", n_jobs=-1).is_dual

    def test_unknown_option_rejected_with_sanctioned_list(self):
        g, h = matching_dual_pair(2)
        with pytest.raises(ValueError, match="sanctioned options for 'fk-b'"):
            decide_duality(g, h, method="fk-b", frobnicate=True)
        with pytest.raises(ValueError, match="accepts no engine options"):
            decide_duality(g, h, method="logspace", use_bitset=False)

    def test_sanctioned_option_accepted(self):
        g, h = matching_dual_pair(2)
        assert decide_duality(g, h, method="fk-b", use_bitset=False).is_dual

    def test_use_bitset_false_incompatible_with_sharding(self):
        g, h = matching_dual_pair(2)
        with pytest.raises(ValueError, match="use_bitset=False"):
            decide_duality(g, h, method="fk-b", n_jobs=2, use_bitset=False)


# ---------------------------------------------------------------------------
# Portfolio racing
# ---------------------------------------------------------------------------

class TestPortfolio:
    def test_sequential_mode_records_all_timings(self):
        g, h = matching_dual_pair(3)
        result = decide_duality(g, h, method="portfolio")
        race = result.stats.extra["portfolio"]
        assert race["mode"] == "sequential"
        assert set(race["timings_s"]) == set(race["engines"])
        assert all(t is not None for t in race["timings_s"].values())
        assert result.is_dual

    def test_winner_result_is_the_winners_serial_result(self):
        for name, g, h in CORPUS[::5]:
            result = race_portfolio(g, h, n_jobs=1)
            winner = result.stats.extra["portfolio"]["winner"]
            reference = decide_duality(g, h, method=winner)
            assert result.verdict == reference.verdict, name
            assert result.certificate == reference.certificate, name
            assert check_result_witness(g, h, result), name

    def test_race_mode_agrees_with_serial_references(self):
        for name, g, h in CORPUS[::9]:
            result = race_portfolio(g, h, n_jobs=2)
            assert result.stats.extra["portfolio"]["mode"] == "race"
            fk = decide_duality(g, h, method="fk-b")
            ls = decide_duality(g, h, method="logspace")
            assert result.verdict == fk.verdict == ls.verdict, name
            winner = result.stats.extra["portfolio"]["winner"]
            assert (
                result.certificate
                == decide_duality(g, h, method=winner).certificate
            ), name

    def test_unknown_engine_rejected(self):
        g, h = matching_dual_pair(2)
        with pytest.raises(ValueError, match="unknown portfolio engine"):
            race_portfolio(g, h, engines=("fk-b", "quantum"))
        with pytest.raises(ValueError, match="at least one engine"):
            race_portfolio(g, h, engines=())

    def test_custom_engine_subset(self):
        g, h = hard_nondual_pair(2)
        result = race_portfolio(g, h, engines=("fk-a", "bm"), n_jobs=1)
        assert not result.is_dual
        assert set(result.stats.extra["portfolio"]["timings_s"]) == {"fk-a", "bm"}


class TestPortfolioCrashPaths:
    """A racer whose engine raises is reported and replaced, not dropped."""

    def _not_simple_pair(self):
        # {0} ⊂ {0, 1} makes G non-simple: every engine's precondition
        # check raises, which is the deterministic stand-in for an
        # engine crash inside a racer.
        g = Hypergraph([frozenset({0}), frozenset({0, 1})])
        h = Hypergraph([frozenset({0})])
        return g, h

    def test_run_portfolio_entry_reports_instead_of_raising(self):
        from repro.parallel.portfolio import run_portfolio_entry

        g, h = self._not_simple_pair()
        engine, elapsed, result, error = run_portfolio_entry(
            ("fk-b", mask_payload(g), mask_payload(h))
        )
        assert engine == "fk-b"
        assert elapsed >= 0.0
        assert result is None
        assert error is not None and "NotSimple" in error

    def test_sequential_mode_survives_a_crashing_engine(self, monkeypatch):
        from repro import duality

        real = duality.decide_duality

        def crashy(g, h, method="bm", **kw):
            if method == "bm":
                raise RuntimeError("engine bm exploded")
            return real(g, h, method=method, **kw)

        monkeypatch.setattr(duality, "decide_duality", crashy)
        g, h = matching_dual_pair(3)
        result = race_portfolio(g, h, engines=("bm", "fk-b"), n_jobs=1)
        race = result.stats.extra["portfolio"]
        assert result.is_dual
        assert race["winner"] == "fk-b"
        assert "bm" in race["errors"] and "exploded" in race["errors"]["bm"]
        assert race["timings_s"]["bm"] is not None  # reported, not dropped

    def test_race_mode_replaces_crashed_racers(self, monkeypatch):
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("monkeypatching racers requires fork semantics")
        from repro import duality

        real = duality.decide_duality

        def crashy(g, h, method="bm", **kw):
            if method in ("bm", "logspace"):
                raise RuntimeError(f"engine {method} exploded")
            return real(g, h, method=method, **kw)

        monkeypatch.setattr(duality, "decide_duality", crashy)
        g, h = matching_dual_pair(3)
        # Two slots, three engines: both initial racers crash, so the
        # race must relaunch fk-b on a vacated slot and still answer.
        result = race_portfolio(
            g, h, engines=("bm", "logspace", "fk-b"), n_jobs=2
        )
        race = result.stats.extra["portfolio"]
        assert result.is_dual
        assert race["mode"] == "race"
        assert race["winner"] == "fk-b"
        assert set(race["errors"]) == {"bm", "logspace"}
        reference = decide_duality(g, h, method="fk-b")
        assert result.verdict == reference.verdict
        assert result.certificate == reference.certificate

    def test_every_engine_failing_raises_with_the_reasons(self):
        from repro.errors import NotSimpleError

        g, h = self._not_simple_pair()
        # Sequential mode re-raises the shared underlying failure (the
        # pre-existing every-engine-rejects-non-simple contract) with
        # the other engines' outcomes attached as a note.
        with pytest.raises(NotSimpleError) as info:
            race_portfolio(g, h, engines=("fk-b", "bm"), n_jobs=1)
        assert any(
            "every portfolio engine failed" in note
            for note in getattr(info.value, "__notes__", [])
        )
        # Race mode only has the racers' error reprs to report.
        with pytest.raises(RuntimeError, match="every portfolio engine"):
            race_portfolio(g, h, engines=("fk-b", "bm"), n_jobs=2)


# ---------------------------------------------------------------------------
# Canonical hashing
# ---------------------------------------------------------------------------

class TestCanonicalHashing:
    def test_payload_round_trip(self):
        for _name, g, h in CORPUS[:10]:
            for hg in (g, h):
                assert from_mask_payload(mask_payload(hg)) == hg

    def test_digest_invariant_under_order_preserving_relabelling(self):
        g = Hypergraph([{1, 2}, {2, 3}, {3, 4}], vertices=range(6))
        relabelled = Hypergraph(
            [("b", "c"), ("c", "d"), ("d", "e")],
            vertices=["a", "b", "c", "d", "e", "f"],
        )
        assert canonical_digest(g) == canonical_digest(relabelled)

    def test_digest_invariant_under_construction_order(self):
        edges = [{1, 4}, {2, 3}, {1, 2}]
        shuffled = list(edges)
        random.Random(7).shuffle(shuffled)
        assert canonical_digest(Hypergraph(edges)) == canonical_digest(
            Hypergraph(shuffled)
        )

    def test_distinct_families_get_distinct_digests(self):
        seen = {}
        rng_instances = [
            random_simple(n_vertices=6, n_edges=4, seed=seed) for seed in range(40)
        ]
        rng_instances += [g for _n, g, h in CORPUS[:10] for g in (g, h)]
        for hg in rng_instances:
            digest = canonical_digest(hg)
            previous = seen.setdefault(digest, hg)
            # Same digest must mean same mask structure.
            assert mask_payload(previous)[1] == mask_payload(hg)[1]

    def test_instance_key_binds_labels_and_method(self):
        g = Hypergraph([{1, 2}, {2, 3}], vertices=range(4))
        relabelled = Hypergraph(
            [("b", "c"), ("c", "d")], vertices=["a", "b", "c", "d"]
        )
        assert canonical_digest(g) == canonical_digest(relabelled)
        assert instance_key(g, g, "fk-b") != instance_key(
            relabelled, relabelled, "fk-b"
        )
        assert instance_key(g, g, "fk-b") != instance_key(g, g, "bm")
        assert instance_key(g, g, "fk-b") == instance_key(g, g, "fk-b")


# ---------------------------------------------------------------------------
# Batch front end and result cache
# ---------------------------------------------------------------------------

class TestSolveMany:
    def _pairs(self):
        return [
            matching_dual_pair(3),
            threshold_dual_pair(7, 4),
            hard_nondual_pair(3),
            random_dual_pair(6, 4, seed=2),
        ]

    @pytest.mark.parametrize("method", ["fk-b", "logspace"])
    def test_two_jobs_identical_to_serial_reference(self, method):
        pairs = self._pairs()
        items = solve_many(pairs, method=method, n_jobs=2)
        assert len(items) == len(pairs)
        for (g, h), item in zip(pairs, items):
            reference = decide_duality(g, h, method=method)
            assert item.result.verdict == reference.verdict
            assert item.result.certificate == reference.certificate
            assert item.result.method == reference.method

    def test_randomized_batches_identical_to_serial(self):
        rng = random.Random(13)
        pairs = []
        for _ in range(12):
            g = random_simple(
                n_vertices=rng.randint(3, 6),
                n_edges=rng.randint(1, 4),
                seed=rng.randint(0, 10_000),
            )
            if rng.random() < 0.5:
                from repro.hypergraph import transversal_hypergraph

                pairs.append((g, transversal_hypergraph(g)))
            else:
                h = random_simple(
                    n_vertices=rng.randint(3, 6),
                    n_edges=rng.randint(1, 4),
                    seed=rng.randint(0, 10_000),
                )
                pairs.append((g, h))
        for method in ("fk-b", "logspace"):
            items = solve_many(pairs, method=method, n_jobs=2)
            for (g, h), item in zip(pairs, items):
                reference = decide_duality(g, h, method=method)
                assert item.result.verdict == reference.verdict, method
                assert item.result.certificate == reference.certificate, method

    def test_cache_hit_miss_behaviour(self):
        pairs = self._pairs()
        cache = ResultCache()
        first = solve_many(pairs, method="fk-b", cache=cache)
        assert cache.misses == len(pairs) and cache.hits == 0
        assert all(not item.cached for item in first)
        second = solve_many(pairs, method="fk-b", cache=cache)
        assert cache.hits == len(pairs)
        assert all(item.cached and item.elapsed_s == 0.0 for item in second)
        for a, b in zip(first, second):
            assert a.key == b.key
            assert a.result.verdict == b.result.verdict
            assert a.result.certificate == b.result.certificate

    def test_cache_is_method_sensitive(self):
        cache = ResultCache()
        pairs = [matching_dual_pair(2)]
        solve_many(pairs, method="fk-b", cache=cache)
        solve_many(pairs, method="bm", cache=cache)
        assert cache.hits == 0 and cache.misses == 2

    def test_duplicate_instances_solved_once(self):
        g, h = matching_dual_pair(3)
        items = solve_many([(g, h), (g, h), (g, h)], method="fk-b")
        assert not items[0].cached
        assert items[1].cached and items[2].cached
        assert items[0].result.certificate == items[2].result.certificate

    def test_cache_json_round_trip(self, tmp_path):
        pairs = self._pairs()
        path = tmp_path / "verdicts.db"
        store = VerdictStore(path)
        originals = solve_many(
            pairs, method="fk-b", cache=ResultCache(backend=store)
        )
        store.close()
        store = VerdictStore(path)
        assert len(store) == len(pairs)
        reloaded = ResultCache(backend=store)
        replayed = solve_many(pairs, method="fk-b", cache=reloaded)
        store.close()
        assert reloaded.hits == len(pairs)
        for original, replay in zip(originals, replayed):
            assert replay.cached
            assert replay.result.verdict == original.result.verdict
            assert replay.result.certificate == original.result.certificate
            assert replay.result.stats.extra.get("cached") is True

    def test_path_inputs(self, tmp_path):
        g, h = matching_dual_pair(2)
        path = tmp_path / "instance.hg"
        hgio.dump_many([g, h], path)
        (item,) = solve_many([path], method="bm")
        assert item.source == str(path)
        assert item.is_dual

    def test_malformed_instance_file_rejected(self, tmp_path):
        g, _h = matching_dual_pair(2)
        path = tmp_path / "only-one.hg"
        hgio.dump(g, path)
        with pytest.raises(ValueError, match="exactly two hypergraphs"):
            solve_many([path])


class TestWorkerPool:
    def test_in_process_fallback_is_plain_map(self):
        pool = WorkerPool(1)
        assert pool.map(len, [(1, 2), (3,)]) == [2, 1]

    def test_single_item_never_forks(self):
        # A lambda is unpicklable: proof that one item stays in-process.
        pool = WorkerPool(4)
        assert pool.map(lambda x: x + 1, [41]) == [42]

    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(None) == 1
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(-1) >= 1
        for bad in (0, -3, True, 2.0):
            with pytest.raises(ValueError):
                resolve_n_jobs(bad)


# ---------------------------------------------------------------------------
# CLI front end
# ---------------------------------------------------------------------------

class TestBatchCommand:
    @pytest.fixture
    def instance_files(self, tmp_path):
        files = []
        for name, (g, h) in (
            ("dual-m3", matching_dual_pair(3)),
            ("dual-t74", threshold_dual_pair(7, 4)),
            ("broken", hard_nondual_pair(3)),
        ):
            path = tmp_path / f"{name}.hg"
            hgio.dump_many([g, h], path)
            files.append(path)
        return files

    def test_batch_reports_and_exit_status(self, instance_files, capsys):
        status = main(["batch", *map(str, instance_files)])
        out = capsys.readouterr().out
        assert status == 1  # one instance is not dual
        assert "broken.hg" in out and "NOT dual" in out
        assert "3 instances (2 dual, 1 not)" in out

    def test_batch_all_dual_exits_zero(self, instance_files, capsys):
        status = main(["batch", *map(str, instance_files[:2]), "--jobs", "2"])
        assert status == 0
        assert "jobs=2" in capsys.readouterr().out

    def test_batch_cache_round_trip(self, instance_files, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        main(["batch", *map(str, instance_files), "--cache", str(cache)])
        first = capsys.readouterr().out
        assert "hits/misses 0/3" in first
        main(["batch", *map(str, instance_files), "--cache", str(cache)])
        second = capsys.readouterr().out
        assert "hits/misses 3/0" in second
        assert second.count("[cached]") == 3

    def test_dual_jobs_flag(self, tmp_path, capsys):
        g, h = matching_dual_pair(2)
        g_path, h_path = tmp_path / "g.hg", tmp_path / "h.hg"
        hgio.dump(g, g_path)
        hgio.dump(h, h_path)
        assert (
            main(
                ["dual", str(g_path), str(h_path), "--method", "fk-b", "-j", "2"]
            )
            == 0
        )

    def test_dual_portfolio_reports_winner(self, tmp_path, capsys):
        g, h = matching_dual_pair(2)
        g_path, h_path = tmp_path / "g.hg", tmp_path / "h.hg"
        hgio.dump(g, g_path)
        hgio.dump(h, h_path)
        assert main(["dual", str(g_path), str(h_path), "--method", "portfolio"]) == 0
        assert "portfolio winner:" in capsys.readouterr().out

    def test_portfolio_with_cache_rejected(self):
        with pytest.raises(ValueError, match="portfolio.*cannot be cached"):
            solve_many(
                [matching_dual_pair(2)], method="portfolio", cache=ResultCache()
            )

    def test_duplicate_misses_counted_once(self):
        g, h = matching_dual_pair(3)
        cache = ResultCache()
        solve_many([(g, h), (g, h), (g, h)], method="fk-b", cache=cache)
        assert cache.misses == 1 and cache.hits == 0
