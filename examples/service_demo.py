"""The engine scheduler: warm workers, tickets, cached verdicts, JSON out.

PRs 3 and 5 in one walkthrough:

1. an :class:`EnginePool` with an explicit lifecycle — workers spawn
   once and answer several batches (``generations`` stays at 1),
2. an :class:`EngineService` session: submit/drain over the warm pool
   with a result cache over a durable verdict store in front, and JSON
   verdict lines,
3. a second service session over the same store file — every answer is
   a cache hit, no worker ever runs,
4. sharded single-instance solving and recursive shard plans routed
   through the same persistent pool,
5. the PR-5 scheduler: tickets resolving out of submission order (a
   slow instance never delays a fast one) and cache hits resolving at
   submit time.

Run me::

    PYTHONPATH=src python examples/service_demo.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.duality import decide_duality
from repro.hypergraph import io as hgio
from repro.hypergraph.generators import (
    hard_nondual_pair,
    matching_dual_pair,
    threshold_dual_pair,
)
from repro.parallel import decide_duality_parallel, solve_many
from repro.service import EnginePool, EngineService, response_to_json

# ---------------------------------------------------------------------------
# 1. One pool, many batches
# ---------------------------------------------------------------------------

print("— persistent EnginePool —")
with EnginePool(n_jobs=2) as pool:
    batches = [
        [matching_dual_pair(3), threshold_dual_pair(7, 4)],
        [hard_nondual_pair(3), matching_dual_pair(2)],
        [threshold_dual_pair(9, 5)],
    ]
    for i, pairs in enumerate(batches):
        items = solve_many(pairs, method="fk-b", pool=pool)
        verdicts = ", ".join(item.result.verdict.value for item in items)
        print(f"batch {i}: {verdicts}")
    print(
        f"worker generations: {pool.generations} "
        f"(3 batches, workers spawned once)"
    )

# ---------------------------------------------------------------------------
# 2 + 3. A service session, then a replay session over the same store
# ---------------------------------------------------------------------------

print("\n— EngineService over a durable verdict store —")
with tempfile.TemporaryDirectory() as tmp:
    store_path = Path(tmp) / "verdicts.db"
    instance_dir = Path(tmp)
    for name, pair in {
        "m3": matching_dual_pair(3),
        "t74": threshold_dual_pair(7, 4),
        "bad": hard_nondual_pair(3),
    }.items():
        hgio.dump_many(pair, instance_dir / f"{name}.hg")

    with EngineService(method="bm", n_jobs=1, store=store_path) as service:
        for path in sorted(instance_dir.glob("*.hg")):
            service.submit(path)
        for response in service.drain():
            line = response_to_json(response)
            print(json.dumps({k: line[k] for k in ("source", "verdict", "cached")}))
        print(f"session 1 stats: {service.stats()['cache_misses']} misses")

    with EngineService(method="bm", n_jobs=1, store=store_path) as replay:
        for path in sorted(instance_dir.glob("*.hg")):
            replay.submit(path)
        responses = replay.drain()
        assert all(r.cached for r in responses)
        assert replay.pool.tasks_completed == 0
        print(
            f"session 2: {len(responses)} answers, all cache hits, "
            "no worker ran"
        )

# ---------------------------------------------------------------------------
# 4. Sharded solving through the same warm pool
# ---------------------------------------------------------------------------

print("\n— recursive shard plans over the warm pool —")
g, h = threshold_dual_pair(9, 5)
with EnginePool(n_jobs=2) as pool:
    for method in ("fk-b", "bm", "logspace"):
        sharded = decide_duality_parallel(g, h, method=method, pool=pool)
        serial = decide_duality(g, h, method=method)
        assert sharded.certificate == serial.certificate
        print(
            f"{method:<9} {sharded.verdict.value}  "
            f"shards={sharded.stats.extra['n_shards']}  "
            f"(identical certificate to serial)"
        )
    print(f"worker generations: {pool.generations}")

# ---------------------------------------------------------------------------
# 5. The concurrent scheduler: tickets complete out of order
# ---------------------------------------------------------------------------

print("\n— tickets: out-of-order completion, submission-order drain —")
from repro.parallel import ResultCache  # noqa: E402

completed: list[str] = []
with EngineService(method="fk-b", n_jobs=2, cache=ResultCache()) as service:
    slow = service.submit(threshold_dual_pair(12, 6))   # ~100x the fast one
    fast = service.submit(matching_dual_pair(3))
    slow.add_done_callback(lambda t: completed.append("slow"))
    fast.add_done_callback(lambda t: completed.append("fast"))
    # Each ticket is an int request id *and* a future:
    print(f"request ids: slow={int(slow)}, fast={int(fast)}")
    print(f"fast verdict: {fast.result().result.verdict.value}")
    responses = service.drain()                         # submission order
    assert [r.request_id for r in responses] == [slow, fast]
    print(f"completion order: {completed} (drain order: [slow, fast])")

    # A repeat of an answered instance resolves at submit time — no
    # drain, no worker run.
    solved_before = service.pool.tasks_completed
    hit = service.submit(matching_dual_pair(3), collect=False)
    assert hit.done() and hit.result().cached
    assert service.pool.tasks_completed == solved_before
    print("repeat instance: resolved at submit, straight from the cache")
