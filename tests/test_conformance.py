"""Differential conformance fuzzer: every engine, every path, one answer.

``Dual`` is the rare problem where we have *nine* independent deciders
(plus a definitional truth-table check), most of them with two data
paths (integer-mask kernels vs the ``frozenset`` reference) and several
with a sharded multi-process path.  Randomised differential testing
exploits that redundancy: any disagreement on any instance is a bug in
at least one engine, with the instance as a free reproducer.

The fuzzer is seeded and sized through the environment so CI can run a
heavy sweep while the tier-1 suite stays fast:

* ``REPRO_CONFORMANCE_INSTANCES`` — how many random instances
  (default 60; CI runs ≥ 500);
* ``REPRO_CONFORMANCE_SEED`` — the master seed (default 20260726).

Contracts checked per instance:

* all engines return the **same verdict**, and every NOT_DUAL verdict
  carries a witness that :func:`check_result_witness` validates;
* for each engine with a ``use_bitset`` toggle (``fk-a``, ``fk-b``,
  ``dfs-enum``, ``tractable``) and for the tree engines' global kernel
  toggle (``bm``, ``logspace``, ``guess-check``), the mask and
  ``frozenset`` paths return **bit-for-bit identical results** —
  verdict, certificate, and work counters;
* the sharded paths (``fk-a``, ``fk-b``, ``bm``, ``logspace``) are
  identical to serial at ``n_jobs=1`` on every instance and at
  ``n_jobs=2`` (through one persistent :class:`EnginePool`) on a
  stride sample.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.duality import check_result_witness, decide_duality
from repro.hypergraph import Hypergraph, transversal_hypergraph
from repro.hypergraph.generators import (
    degenerate_pairs,
    perturb_drop_edge,
    perturb_enlarge_edge,
    random_simple,
)
from repro.parallel import decide_duality_parallel
from repro.service import EnginePool

from tests.conftest import count_project_calls, frozenset_reference

N_INSTANCES = int(os.environ.get("REPRO_CONFORMANCE_INSTANCES", "60"))
SEED = int(os.environ.get("REPRO_CONFORMANCE_SEED", "20260726"))

#: Every decision engine.  ``truth-table`` is definitional (2^n
#: assignments) and feasible because the generator caps universes at 7
#: vertices; ``transversal`` is the Berge oracle.
ALL_ENGINES = (
    "fk-a",
    "fk-b",
    "bm",
    "logspace",
    "berge",
    "guess-check",
    "dfs-enum",
    "tractable",
    "truth-table",
)

#: Engines with a per-call ``use_bitset`` reference toggle.
TOGGLED_ENGINES = ("fk-a", "fk-b", "dfs-enum", "tractable")

#: Engines whose mask kernels sit behind the global operations toggle.
KERNEL_TOGGLED_ENGINES = ("bm", "logspace", "guess-check")

SHARDED_ENGINES = ("fk-a", "fk-b", "bm", "logspace")

#: Every how-many instances the expensive n_jobs=2 process fan-out runs.
PROCESS_STRIDE = max(1, N_INSTANCES // 20)


def _generate_corpus(n: int, seed: int):
    """``n`` seeded random instances: dual, perturbed, and adversarial.

    Universes stay ≤ 7 vertices so the truth-table engine stays feasible
    (2^7 assignments).  Roughly half the instances are exact dual pairs
    ``(G, tr(G))``; the rest are perturbations with known failure modes
    (dropped transversal, enlarged edge, unrelated H) plus the
    degenerate constant pairs sprinkled in.
    """
    rng = random.Random(seed)
    corpus = []
    degenerates = degenerate_pairs()
    while len(corpus) < n:
        roll = rng.random()
        if roll < 0.04:
            name, g, h, _dual = degenerates[rng.randrange(len(degenerates))]
            corpus.append((f"degenerate:{name}", g, h))
            continue
        n_vertices = rng.randint(3, 7)
        g = random_simple(
            n_vertices=n_vertices,
            n_edges=rng.randint(1, 5),
            min_size=1,
            max_size=rng.randint(1, min(4, n_vertices)),
            seed=rng.randrange(1 << 30),
        )
        if g.is_trivial_false():
            continue
        h = transversal_hypergraph(g)
        if roll < 0.50:
            corpus.append((f"dual:{len(corpus)}", g, h))
        elif roll < 0.65 and len(h) > 1:
            corpus.append(
                (f"drop:{len(corpus)}", g, perturb_drop_edge(h, rng.randrange(len(h))))
            )
        elif roll < 0.80 and len(h) >= 1:
            corpus.append(
                (
                    f"enlarge:{len(corpus)}",
                    g,
                    perturb_enlarge_edge(h, rng.randrange(len(h))),
                )
            )
        else:
            other = random_simple(
                n_vertices=rng.randint(3, 7),
                n_edges=rng.randint(1, 5),
                seed=rng.randrange(1 << 30),
            )
            if other.is_trivial_false():
                continue
            corpus.append((f"unrelated:{len(corpus)}", g, other))
    return corpus


CORPUS = _generate_corpus(N_INSTANCES, SEED)


def _identical(a, b) -> bool:
    """Bit-for-bit result identity: verdict, certificate, counters."""
    return (
        a.verdict == b.verdict
        and a.certificate == b.certificate
        and a.method == b.method
        and a.stats.nodes == b.stats.nodes
        and a.stats.max_depth == b.stats.max_depth
        and a.stats.max_children == b.stats.max_children
        and a.stats.base_cases == b.stats.base_cases
    )


def test_corpus_is_seeded_and_sized():
    assert len(CORPUS) == N_INSTANCES
    assert _generate_corpus(5, SEED)[0][0] == _generate_corpus(5, SEED)[0][0]


def test_all_engines_agree_on_every_instance():
    """One verdict per instance, witnesses valid, across all 9 engines."""
    for name, g, h in CORPUS:
        reference = decide_duality(g, h, method="bm")
        for engine in ALL_ENGINES:
            result = decide_duality(g, h, method=engine)
            assert result.verdict == reference.verdict, (name, engine)
            if not result.is_dual and result.witness is not None:
                assert check_result_witness(g, h, result), (name, engine)


def test_mask_and_frozenset_paths_identical():
    """`use_bitset=False` references replay the mask paths exactly."""
    for name, g, h in CORPUS:
        for engine in TOGGLED_ENGINES:
            fast = decide_duality(g, h, method=engine, use_bitset=True)
            reference = decide_duality(g, h, method=engine, use_bitset=False)
            assert _identical(fast, reference), (name, engine)
            assert fast.stats.extra == reference.stats.extra, (name, engine)


def test_kernel_toggle_paths_identical():
    """The tree engines under the global kernel toggle.

    The reference run must really take the ``frozenset`` procedures
    (it projects) and the fast run the mask kernel (it never does), or
    the comparison would hold vacuously.
    """
    for name, g, h in CORPUS[:: max(1, N_INSTANCES // 100 or 1)]:
        for engine in KERNEL_TOGGLED_ENGINES:
            with count_project_calls() as fast_calls:
                fast = decide_duality(g, h, method=engine)
            with count_project_calls() as reference_calls, frozenset_reference():
                reference = decide_duality(g, h, method=engine)
            assert _identical(fast, reference), (name, engine)
            assert fast_calls[0] == 0, (name, engine)
            if fast.stats.nodes:
                assert reference_calls[0] > 0, (name, engine)


def test_sharded_in_process_identical_to_serial():
    """n_jobs=1 sharded solving replays the serial engines exactly."""
    for name, g, h in CORPUS:
        for engine in SHARDED_ENGINES:
            serial = decide_duality(g, h, method=engine)
            sharded = decide_duality_parallel(g, h, method=engine, n_jobs=1)
            assert sharded.verdict == serial.verdict, (name, engine)
            assert sharded.certificate == serial.certificate, (name, engine)


def test_sharded_two_workers_identical_to_serial():
    """n_jobs=2 through one persistent pool, on a stride sample."""
    with EnginePool(2) as pool:
        for name, g, h in CORPUS[::PROCESS_STRIDE]:
            for engine in SHARDED_ENGINES:
                serial = decide_duality(g, h, method=engine)
                sharded = decide_duality_parallel(g, h, method=engine, pool=pool)
                assert sharded.verdict == serial.verdict, (name, engine)
                assert sharded.certificate == serial.certificate, (name, engine)
        assert pool.generations == 1  # the whole sweep, one worker spawn


def test_recursive_shard_plans_identical_to_serial():
    """Multi-level bm/logspace plans at several targets, stats included."""
    from repro.parallel import plan_bm, plan_logspace, solve_shards

    for name, g, h in CORPUS[:: max(1, N_INSTANCES // 50 or 1)]:
        for engine, plan_fn in (("bm", plan_bm), ("logspace", plan_logspace)):
            serial = decide_duality(g, h, method=engine)
            for target in (2, 6):
                plan = plan_fn(g, h, target_shards=target)
                merged = solve_shards(plan, 1)
                assert merged.verdict == serial.verdict, (name, engine, target)
                assert merged.certificate == serial.certificate, (
                    name,
                    engine,
                    target,
                )
                assert merged.stats.nodes == serial.stats.nodes, (
                    name,
                    engine,
                    target,
                )
                assert merged.stats.max_depth == serial.stats.max_depth


@pytest.mark.parametrize("engine", ["fk-b", "bm"])
def test_dual_verdicts_match_ground_truth(engine):
    """Instances built as (G, tr(G)) must come out DUAL."""
    for name, g, h in CORPUS:
        if not name.startswith("dual:"):
            continue
        assert decide_duality(g, h, method=engine).is_dual, name


# ---------------------------------------------------------------------------
# Distributed tier: a coordinator fanning shards out to peer servers
# ---------------------------------------------------------------------------
#
# The fleet is real — in-process :class:`DualityServer` instances spoken
# to over TCP via the ``solve_shard`` op — so this tier covers the wire
# codec, the pipelined peer channels, and the hedged dispatch, not just
# the merge.  The oracle is double: serial engines (verdict +
# certificate) and an in-process replay of the *same shard plan* the
# backend dispatches (full bit-for-bit result identity, stats included,
# via ``_identical`` — FK shard counters depend on the plan width, so
# the local oracle must shard at the fleet's width).

#: Every how-many instances the non-default engines run distributed.
DISTRIBUTED_STRIDE = max(1, N_INSTANCES // 30)


def _golden_instances():
    from pathlib import Path

    from repro.parallel.batch import load_instance

    root = Path(__file__).parent / "corpus"
    return [(path.name, *load_instance(path)) for path in sorted(root.glob("*.hg"))]


@pytest.fixture(scope="module")
def peer_fleet():
    """Three worker duality servers, shared across the distributed tier."""
    from repro.net.server import DualityServer

    servers = [DualityServer(n_jobs=1).start() for _ in range(3)]
    yield servers
    for server in servers:
        server.shutdown()


def _fleet_backend(servers, **kwargs):
    from repro.parallel import PeerBackend

    peers = ["%s:%d" % server.address for server in servers]
    kwargs.setdefault("hedge_after", None)  # deterministic: no duplicates
    return PeerBackend(peers, **kwargs)


def _local_replay(g, h, engine, width):
    """In-process replay of the exact plan a ``width``-wide backend runs.

    The deterministic oracle for full ``_identical`` checks: same plan
    width as the peer fleet, shards solved inline in submission order.
    """
    from repro.parallel import executor

    class _Inline:
        def map_shards(self, plan, trace=None):
            runner = executor.SHARD_RUNNERS[executor.shard_kind(plan)]
            return [runner(item) for item in executor.shard_worker_items(plan)]

    backend = _Inline()
    backend.width = width
    return decide_duality_parallel(g, h, method=engine, backend=backend)


def test_distributed_identical_to_serial_fuzzed(peer_fleet):
    """fk-b distributed over 3 peers: every fuzzed instance, both oracles."""
    backend = _fleet_backend(peer_fleet)
    try:
        for name, g, h in CORPUS:
            serial = decide_duality(g, h, method="fk-b")
            local = _local_replay(g, h, "fk-b", backend.width)
            distributed = decide_duality_parallel(g, h, method="fk-b", backend=backend)
            assert distributed.verdict == serial.verdict, name
            assert distributed.certificate == serial.certificate, name
            assert _identical(distributed, local), name
    finally:
        backend.close()


def test_distributed_all_sharded_engines_on_stride(peer_fleet):
    """Every sharded engine distributed, bit-for-bit with local sharding."""
    backend = _fleet_backend(peer_fleet)
    try:
        for name, g, h in CORPUS[::DISTRIBUTED_STRIDE]:
            for engine in SHARDED_ENGINES:
                serial = decide_duality(g, h, method=engine)
                local = _local_replay(g, h, engine, backend.width)
                distributed = decide_duality_parallel(
                    g, h, method=engine, backend=backend
                )
                assert distributed.verdict == serial.verdict, (name, engine)
                assert distributed.certificate == serial.certificate, (name, engine)
                assert _identical(distributed, local), (name, engine)
    finally:
        backend.close()


def test_distributed_identical_on_golden_corpus(peer_fleet):
    """The checked-in golden corpus, distributed, against both oracles."""
    backend = _fleet_backend(peer_fleet)
    try:
        for name, g, h in _golden_instances():
            for engine in ("fk-b", "bm"):
                serial = decide_duality(g, h, method=engine)
                local = _local_replay(g, h, engine, backend.width)
                distributed = decide_duality_parallel(
                    g, h, method=engine, backend=backend
                )
                assert distributed.verdict == serial.verdict, (name, engine)
                assert distributed.certificate == serial.certificate, (name, engine)
                assert _identical(distributed, local), (name, engine)
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# Learned-selection tier: method="auto" conforms on every decision path
# ---------------------------------------------------------------------------
#
# ``auto`` is a meta-method like ``portfolio``: every path returns some
# serial engine's own result object, so its verdicts (and, on the
# deterministic sequential paths checked here, its full results) must
# be bit-for-bit reproducible by re-running the chosen engine serially.

#: Every how-many instances the auto tier checks (it reruns the chosen
#: engine serially per instance, so it strides like the other tiers).
AUTO_STRIDE = max(1, N_INSTANCES // 30)


@pytest.fixture(scope="module")
def trained_selector():
    """A selector trained online from sequential portfolio races over a
    corpus slice — the exact bootstrap ``repro model fit`` documents."""
    from repro.hypergraph import mask_payload
    from repro.obs.timings import structural_features
    from repro.parallel.portfolio import race_portfolio
    from repro.select import fit_engine_model

    rows = []
    for _name, g, h in CORPUS[:: max(1, N_INSTANCES // 24)]:
        result = race_portfolio(g, h, n_jobs=1)
        features = structural_features(mask_payload(g), mask_payload(h))
        race = result.stats.extra["portfolio"]
        for engine, elapsed in race["timings_s"].items():
            if elapsed is not None:
                rows.append({"engine": engine, "elapsed_s": elapsed, **features})
    return fit_engine_model(rows)


def test_auto_verdicts_identical_to_serial(trained_selector):
    """Trained auto (predicted or reduced-race) on a corpus stride:
    the verdict matches serial, the result is the chosen engine's own."""
    import warnings

    for name, g, h in CORPUS[::AUTO_STRIDE]:
        serial = decide_duality(g, h, method="bm")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a cold start here is a bug
            result = decide_duality(g, h, method="auto", model=trained_selector)
        assert result.verdict == serial.verdict, name
        auto = result.stats.extra["auto"]
        assert auto["mode"] in ("predicted", "reduced-race"), name
        replay = decide_duality(g, h, method=auto["engine"])
        assert _identical(result, replay), (name, auto)


def test_auto_low_confidence_race_identical_to_serial(trained_selector):
    """confidence > 1 forces the reduced race on every instance; the
    sequential race winner's result is its engine's serial result."""
    for name, g, h in CORPUS[::AUTO_STRIDE]:
        result = decide_duality(
            g, h, method="auto", model=trained_selector, confidence=1.5
        )
        auto = result.stats.extra["auto"]
        assert auto["mode"] == "reduced-race", name
        assert len(auto["engines"]) == 2, name
        replay = decide_duality(g, h, method=auto["engine"])
        assert _identical(result, replay), (name, auto)


def test_auto_cold_start_identical_to_serial(monkeypatch):
    """No model at all: auto warns and degrades to the full portfolio,
    whose sequential winner is bit-for-bit some serial engine."""
    from repro.select import ColdStartWarning, reset_default_model
    from repro.select.selector import MODEL_ENV

    monkeypatch.delenv(MODEL_ENV, raising=False)
    reset_default_model()
    try:
        for name, g, h in CORPUS[::AUTO_STRIDE]:
            with pytest.warns(ColdStartWarning):
                result = decide_duality(g, h, method="auto")
            auto = result.stats.extra["auto"]
            assert auto["mode"] == "cold-start", name
            replay = decide_duality(g, h, method=auto["engine"])
            assert _identical(result, replay), (name, auto)
    finally:
        reset_default_model()


def test_distributed_survives_peer_killed_mid_run():
    """One peer dies mid-sweep: hedged retries reroute, verdicts hold.

    The killed peer's in-flight shards resolve as retryable (the drop
    contract of the peer channel) and relaunch on the survivors, so the
    batch completes bit-for-bit — the peer costs latency, not answers.
    """
    from repro.net.server import DualityServer

    servers = [DualityServer(n_jobs=1).start() for _ in range(3)]
    backend = _fleet_backend(servers, hedge_after=0.2)
    sample = CORPUS[::DISTRIBUTED_STRIDE]
    kill_at = max(1, len(sample) // 3)
    try:
        for index, (name, g, h) in enumerate(sample):
            if index == kill_at:
                servers[0].shutdown()  # mid-run, without warning the backend
            serial = decide_duality(g, h, method="fk-b")
            local = _local_replay(g, h, "fk-b", backend.width)
            distributed = decide_duality_parallel(g, h, method="fk-b", backend=backend)
            assert distributed.verdict == serial.verdict, name
            assert distributed.certificate == serial.certificate, name
            assert _identical(distributed, local), name
        health = backend.stats()["peers"]
        assert not health[0]["connected"]  # the victim is marked down
        assert any(peer["connected"] for peer in health[1:])
    finally:
        backend.close()
        for server in servers[1:]:
            server.shutdown()
