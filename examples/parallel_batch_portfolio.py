"""Parallel duality solving: sharding, portfolio racing, batch caching.

PR 2's subsystem in one walkthrough:

1. solve one instance with worker-pool sharding (``n_jobs``),
2. race an engine portfolio and inspect the per-engine timings,
3. stream a batch of ``.hg`` instance files through ``solve_many`` with
   a canonical-hash result cache, twice — the second pass is all hits —
   and persist it through a durable verdict store that a fresh cache
   (a later CLI run, another process) replays.

Run me::

    PYTHONPATH=src python examples/parallel_batch_portfolio.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.duality import decide_duality
from repro.hypergraph import io as hgio
from repro.hypergraph.generators import (
    hard_nondual_pair,
    matching_dual_pair,
    threshold_dual_pair,
)
from repro.parallel import ResultCache, race_portfolio, solve_many
from repro.store import VerdictStore

# ---------------------------------------------------------------------------
# 1. Sharded solving: same verdict, same certificate, more cores
# ---------------------------------------------------------------------------

g, h = threshold_dual_pair(10, 5)
serial = decide_duality(g, h, method="fk-b")
sharded = decide_duality(g, h, method="fk-b", n_jobs=2)
print("— sharded fk-b —")
print(f"serial   : {serial.verdict.value} ({serial.stats.nodes} nodes)")
print(
    f"sharded  : {sharded.verdict.value} "
    f"({sharded.stats.extra['n_shards']} shards over "
    f"{sharded.stats.extra['n_jobs']} workers)"
)
assert sharded.certificate == serial.certificate

# ---------------------------------------------------------------------------
# 2. Portfolio racing: don't choose an engine, race them
# ---------------------------------------------------------------------------

print("\n— portfolio —")
result = race_portfolio(g, h, engines=("fk-b", "bm", "logspace"), n_jobs=1)
race = result.stats.extra["portfolio"]
print(f"winner: {race['winner']} (mode: {race['mode']})")
for engine, elapsed in race["timings_s"].items():
    shown = f"{elapsed * 1000:7.1f} ms" if elapsed is not None else "   (cancelled)"
    print(f"  {engine:<10} {shown}")

# ---------------------------------------------------------------------------
# 3. Batch front end with a persistent result cache
# ---------------------------------------------------------------------------

print("\n— batch + cache —")
with tempfile.TemporaryDirectory() as tmp:
    base = Path(tmp)
    for name, pair in {
        "matching-4": matching_dual_pair(4),
        "threshold-9-5": threshold_dual_pair(9, 5),
        "broken-3": hard_nondual_pair(3),
    }.items():
        hgio.dump_many(pair, base / f"{name}.hg")
    instance_files = sorted(base.glob("*.hg"))

    store = VerdictStore(base / "verdicts.db")
    cache = ResultCache(backend=store)  # write-through to the store
    for sweep in (1, 2):
        items = solve_many(instance_files, method="fk-b", n_jobs=1, cache=cache)
        print(f"sweep {sweep}:")
        for item in items:
            verdict = "dual" if item.is_dual else "NOT dual"
            note = "cached" if item.cached else f"{item.elapsed_s * 1000:.1f} ms"
            print(f"  {Path(item.source).name:<18} {verdict:<8} [{note}]")
    print(f"cache: {cache.hits} hits / {cache.misses} misses")

    store.close()

    # The store persists: a SQLite file keyed by canonical instance hashes.
    store = VerdictStore(base / "verdicts.db")
    fresh = ResultCache(backend=store)
    solve_many(instance_files, method="fk-b", n_jobs=1, cache=fresh)
    print(f"store holds {len(store)} verdicts; a fresh cache replayed "
          f"{fresh.hits} of them")
    store.close()
