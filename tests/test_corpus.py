"""Golden-corpus regression replay (``tests/corpus/*.hg``).

The corpus files are real instances past PRs tripped over — skewed
decomposition trees, FK-B forced-true deltas, single-vertex edges,
Boolean constants, extra-edge certificates — with their expected
verdicts recorded in ``MANIFEST.json`` (regenerate with
``python tests/corpus/generate.py``).  The replays drive them through
the batch front end and the persistent service, so a regression in any
engine, the shard planner, the cache, or the service layer shows up as
a verdict flip on a named, checked-in instance.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.duality import check_result_witness, decide_duality
from repro.parallel import ResultCache, load_instance, solve_many
from repro.service import EnginePool, EngineService

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
MANIFEST = json.loads((CORPUS_DIR / "MANIFEST.json").read_text(encoding="utf-8"))

REPLAY_ENGINES = ("bm", "logspace", "fk-b", "dfs-enum", "tractable")


def _files():
    return [CORPUS_DIR / entry["file"] for entry in MANIFEST.values()]


def test_manifest_matches_files_on_disk():
    files = {entry["file"] for entry in MANIFEST.values()}
    on_disk = {p.name for p in CORPUS_DIR.glob("*.hg")}
    assert files == on_disk
    assert len(MANIFEST) >= 10


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_every_engine_reproduces_the_expected_verdict(name):
    entry = MANIFEST[name]
    g, h = load_instance(CORPUS_DIR / entry["file"])
    expected_dual = entry["verdict"] == "dual"
    for engine in REPLAY_ENGINES:
        result = decide_duality(g, h, method=engine)
        assert result.is_dual == expected_dual, (name, engine, entry["why"])
        if not result.is_dual and result.witness is not None:
            assert check_result_witness(g, h, result), (name, engine)


def test_corpus_replays_through_solve_many():
    items = solve_many(_files(), method="bm", cache=ResultCache())
    for item, (name, entry) in zip(items, sorted(MANIFEST.items())):
        assert item.source.endswith(entry["file"])
        assert item.is_dual == (entry["verdict"] == "dual"), name


def test_corpus_replays_through_the_service(tmp_path):
    store_path = tmp_path / "corpus-store.db"
    with EngineService(method="bm", store=store_path) as service:
        for path in _files():
            service.submit(path)
        responses = service.drain()
    for response, (name, entry) in zip(responses, sorted(MANIFEST.items())):
        assert response.is_dual == (entry["verdict"] == "dual"), name

    # A second service session answers the whole corpus from the store.
    with EngineService(method="bm", store=store_path) as replay:
        for path in _files():
            replay.submit(path)
        replayed = replay.drain()
        assert replay.pool.tasks_completed == 0
    for first, second in zip(responses, replayed):
        assert second.cached
        assert second.result.verdict == first.result.verdict
        assert second.result.certificate == first.result.certificate


def test_corpus_sharded_and_pooled_replay():
    """The skewed instances through recursive plans and a warm pool."""
    from repro.parallel import plan_bm, plan_logspace, solve_shards

    with EnginePool(2) as pool:
        for name, entry in sorted(MANIFEST.items()):
            g, h = load_instance(CORPUS_DIR / entry["file"])
            for engine, plan_fn in (("bm", plan_bm), ("logspace", plan_logspace)):
                serial = decide_duality(g, h, method=engine)
                plan = plan_fn(g, h, target_shards=4)
                merged = solve_shards(plan, pool=pool)
                assert merged.verdict == serial.verdict, (name, engine)
                assert merged.certificate == serial.certificate, (name, engine)
        assert pool.generations == 1
