"""Perf-trajectory harness: before/after timings → ``BENCH_core.json``.

Runs the two pytest experiment modules the bitset refactor touches most
(E1 figure regeneration, E9 itemset borders) for wall-clock context, then
times the refactored kernels directly — each one both through its bitset
fast path ("after") and through the retained frozenset reference path
("before": ``transversal_hypergraph_reference``, ``use_bitset=False``,
``use_bitset_kernels(False)``, ``frequency_scan``) — and writes a
machine-readable report so future PRs can diff the perf trajectory.
(Exception: the bm rows' "before" only reverts the restriction
operators — see the note at their construction — so they understate the
refactor's full effect.)  Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # full run
    PYTHONPATH=src python benchmarks/run_bench.py --quick    # smaller sweep
    PYTHONPATH=src python benchmarks/run_bench.py --out /tmp/bench.json

The JSON layout:

* ``suites``  — wall time and exit status of the pytest benchmark files;
* ``engines`` — per engine/instance: before_s, after_s, speedup;
* ``itemsets`` — frequency-counting kernels at ≥ 20 items / ≥ 200 rows;
* ``parallel`` — serial vs multi-process rows (batch ``solve_many``,
  sharded single-instance solving, portfolio racing, warm-pool
  amortization, the ``server-concurrent`` scheduler-saturation row:
  4 TCP clients with a fast/slow mix vs the same requests serialized,
  and the ``server-async`` event-loop row: the same 4-client numbers
  plus a 1000-connection sweep with ping latency percentiles, against
  the recorded pre-deletion threaded baseline, and the ``store-flush``
  row: per-verdict persistence cost of the durable store's journal
  append vs the legacy full-file ``cache.json`` rewrite at ≥ 1k
  entries, the ``distributed-shard`` row: one instance sharded over a
  2-peer fleet of real servers via ``solve_shard`` against serial and
  local sharding, and the ``hedge-tail`` row: p99 solve time with one
  delay-proxied slow peer, hedging off vs a 50 ms hedge deadline).

Each run also **appends** a compact summary entry to a history file
(``BENCH_trend.json`` by default, ``--trend``/``--label`` to steer), so
the perf trajectory accumulates across PRs instead of being overwritten
per snapshot.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.duality.boros_makino import decide_boros_makino  # noqa: E402
from repro.duality.fredman_khachiyan import decide_fk_a, decide_fk_b  # noqa: E402
from repro.hypergraph.generators import (  # noqa: E402
    matching_dual_pair,
    threshold,
    threshold_dual_pair,
)
from repro.hypergraph.operations import use_bitset_kernels  # noqa: E402
from repro.hypergraph.transversal import (  # noqa: E402
    transversal_hypergraph,
    transversal_hypergraph_reference,
)
from repro.itemsets.datasets import dense_random  # noqa: E402
from repro.itemsets.frequency import frequency, frequency_scan, support_map  # noqa: E402
from repro.itemsets.relation import BooleanRelation  # noqa: E402
from repro.duality import decide_duality  # noqa: E402
from repro.parallel import race_portfolio, solve_many  # noqa: E402
from repro.service import EnginePool  # noqa: E402


def best_of(fn, repeats: int = 3) -> float:
    """Minimum wall time of ``repeats`` runs (the usual benchmark floor)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_pytest_suite(module: str) -> dict:
    """One pytest benchmark module, timed end to end."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", f"benchmarks/{module}", "-q"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    wall = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": round(wall, 3), "exit_code": proc.returncode, "summary": tail}


def engine_rows(quick: bool) -> list[dict]:
    """Before/after rows for the duality engines."""
    rows = []

    def row(engine, instance, g, h, before, after, repeats):
        before_s = best_of(before, repeats)
        after_s = best_of(after, repeats)
        rows.append(
            {
                "engine": engine,
                "instance": instance,
                "n_vertices": len(g.vertices | h.vertices),
                "volume": len(g) * len(h),
                "before_s": round(before_s, 4),
                "after_s": round(after_s, 4),
                "speedup": round(before_s / after_s, 2) if after_s else None,
            }
        )

    # transversal engine: tr(G) itself is the engine's whole cost.
    tr_instances = [("threshold-9", threshold(9))]
    if not quick:
        tr_instances += [("threshold-11", threshold(11)), ("matching-9", matching_dual_pair(9)[0])]
    for name, g in tr_instances:
        row(
            "transversal",
            name,
            g,
            g,
            lambda g=g: transversal_hypergraph_reference(g),
            lambda g=g: transversal_hypergraph(g),
            repeats=2 if not quick else 1,
        )

    # Fredman–Khachiyan A and B: mask recursion vs frozenset recursion.
    fk_instances = [("threshold-9-5", threshold_dual_pair(9, 5))]
    if not quick:
        fk_instances += [
            ("threshold-11-6", threshold_dual_pair(11, 6)),
            ("matching-8", matching_dual_pair(8)),
        ]
    for name, (g, h) in fk_instances:
        row(
            "fk-a",
            name,
            g,
            h,
            lambda g=g, h=h: decide_fk_a(g, h, use_bitset=False),
            lambda g=g, h=h: decide_fk_a(g, h, use_bitset=True),
            repeats=3,
        )
        row(
            "fk-b",
            name,
            g,
            h,
            lambda g=g, h=h: decide_fk_b(g, h, use_bitset=False),
            lambda g=g, h=h: decide_fk_b(g, h, use_bitset=True),
            repeats=3,
        )

    # Boros–Makino.  use_bitset_kernels(False) swaps the mask node
    # kernel for the frozenset reference procedures (marksmall and
    # process_children over restriction_instance), whose majority and
    # transversal checks still run mask inner loops.  The bm "before" is
    # therefore a partial revert — an underestimate of the full
    # refactor's effect — which the per-row "before_scope" field records.
    bm_instances = [("matching-6", matching_dual_pair(6))]
    if not quick:
        bm_instances.append(("matching-7", matching_dual_pair(7)))
    for name, (g, h) in bm_instances:

        def before(g=g, h=h):
            use_bitset_kernels(False)
            try:
                decide_boros_makino(g, h)
            finally:
                use_bitset_kernels(True)

        row(
            "bm",
            name,
            g,
            h,
            before,
            lambda g=g, h=h: decide_boros_makino(g, h),
            repeats=2 if not quick else 1,
        )
        rows[-1]["before_scope"] = "frozenset-node-step"
    return rows


def itemset_rows(quick: bool) -> list[dict]:
    """Before/after rows for frequency counting (≥ 20 items, ≥ 200 rows)."""
    rows = []
    shapes = [(24, 300, 0.5)]
    if not quick:
        shapes.append((32, 500, 0.4))
    for n_items, n_rows, density in shapes:
        relation = dense_random(
            n_items=n_items, n_rows=n_rows, density=density, seed=42
        )
        # Re-wrap so cached bitmaps from generation don't skew the scan side.
        relation = BooleanRelation(relation.rows, items=relation.items)
        items = sorted(relation.items, key=repr)
        import random as _random

        rng = _random.Random(7)
        queries = [
            frozenset(rng.sample(items, rng.randint(1, 6))) for _ in range(200)
        ]

        def scan_all():
            for u in queries:
                frequency_scan(relation, u)

        def bitmap_all():
            for u in queries:
                frequency(relation, u)

        relation.vertical_bitmaps()  # build once; steady-state is what we time
        before_s = best_of(scan_all, 3)
        after_s = best_of(bitmap_all, 3)
        rows.append(
            {
                "kernel": "frequency",
                "instance": f"dense-{n_items}x{n_rows}",
                "n_items": n_items,
                "n_rows": n_rows,
                "queries": len(queries),
                "before_s": round(before_s, 4),
                "after_s": round(after_s, 4),
                "speedup": round(before_s / after_s, 2) if after_s else None,
            }
        )

        def support_bitmap():
            support_map(relation, queries)

        def support_scan():
            for u in queries:
                frequency_scan(relation, u)

        before_s = best_of(support_scan, 3)
        after_s = best_of(support_bitmap, 3)
        rows.append(
            {
                "kernel": "support_map",
                "instance": f"dense-{n_items}x{n_rows}",
                "n_items": n_items,
                "n_rows": n_rows,
                "queries": len(queries),
                "before_s": round(before_s, 4),
                "after_s": round(after_s, 4),
                "speedup": round(before_s / after_s, 2) if after_s else None,
            }
        )
    return rows


def _batch_workload(quick: bool) -> list[tuple]:
    """A multi-instance batch of *distinct* dual pairs (``solve_many``
    dedupes repeats, so the workload must not contain any)."""
    pairs = [
        threshold_dual_pair(10, 5),
        threshold_dual_pair(11, 6),
        threshold_dual_pair(11, 5),
        threshold_dual_pair(9, 5),
        matching_dual_pair(8),
        matching_dual_pair(7),
    ]
    if not quick:
        pairs += [
            threshold_dual_pair(12, 6),
            threshold_dual_pair(10, 6),
            threshold_dual_pair(12, 5),
            matching_dual_pair(6),
        ]
    return pairs


def parallel_rows(quick: bool) -> list[dict]:
    """Serial vs parallel rows for the PR-2 subsystem.

    * ``solve_many`` — the batch front end, one serial engine per
      worker: the row the ROADMAP's "parallel speedup" trend tracks.
    * ``decide_duality(n_jobs=2)`` — sharded solving of one instance.
    * ``portfolio`` — racing wall time vs the slowest racer's serial
      time (the cost an unlucky fixed engine choice would pay).
    """
    rows = []
    repeats = 1 if quick else 2

    pairs = _batch_workload(quick)
    serial_s = best_of(lambda: solve_many(pairs, method="fk-b", n_jobs=1), repeats)
    parallel_s = best_of(lambda: solve_many(pairs, method="fk-b", n_jobs=2), repeats)
    rows.append(
        {
            "kernel": "solve_many",
            "instance": f"batch-{len(pairs)}x-fk-b",
            "n_instances": len(pairs),
            "n_jobs": 2,
            "serial_s": round(serial_s, 4),
            "parallel_s": round(parallel_s, 4),
            "speedup": round(serial_s / parallel_s, 2) if parallel_s else None,
        }
    )

    g, h = threshold_dual_pair(11, 6) if quick else threshold_dual_pair(12, 6)
    serial_s = best_of(lambda: decide_duality(g, h, method="fk-b"), repeats)
    parallel_s = best_of(
        lambda: decide_duality(g, h, method="fk-b", n_jobs=2), repeats
    )
    rows.append(
        {
            "kernel": "sharded-fk-b",
            "instance": f"threshold-{len(g.vertices)}",
            "n_jobs": 2,
            "serial_s": round(serial_s, 4),
            "parallel_s": round(parallel_s, 4),
            "speedup": round(serial_s / parallel_s, 2) if parallel_s else None,
        }
    )

    engines = ("fk-b", "bm", "logspace")
    per_engine = {
        engine: best_of(lambda e=engine: decide_duality(g, h, method=e), 1)
        for engine in engines
    }
    race_s = best_of(lambda: race_portfolio(g, h, engines=engines, n_jobs=3), 1)
    worst = max(per_engine.values())
    rows.append(
        {
            "kernel": "portfolio",
            "instance": f"threshold-{len(g.vertices)}",
            "n_jobs": 3,
            "serial_s": round(worst, 4),
            "serial_scope": "slowest racer",
            "parallel_s": round(race_s, 4),
            "speedup": round(worst / race_s, 2) if race_s else None,
            "per_engine_s": {e: round(t, 4) for e, t in per_engine.items()},
        }
    )

    # Batch portfolio: the same multi-instance batch under
    # method="portfolio", serial fallback (n_jobs=1 runs every racer to
    # completion) vs per-instance process racing.  Racing wins even on a
    # single core — concurrency hedges the engine choice, so the batch
    # finishes in about the fastest racer's time instead of the sum.
    race_pairs = [
        matching_dual_pair(7),
        threshold_dual_pair(10, 5),
        threshold_dual_pair(11, 6),
    ]

    def batch_sequential():
        for pg, ph in race_pairs:
            race_portfolio(pg, ph, engines=engines, n_jobs=1)

    def batch_raced():
        for pg, ph in race_pairs:
            race_portfolio(pg, ph, engines=engines, n_jobs=3)

    serial_s = best_of(batch_sequential, 1)
    parallel_s = best_of(batch_raced, 1)
    rows.append(
        {
            "kernel": "batch-portfolio",
            "instance": f"batch-{len(race_pairs)}x-portfolio",
            "n_instances": len(race_pairs),
            "n_jobs": 3,
            "serial_s": round(serial_s, 4),
            "serial_scope": "n_jobs=1 fallback (all racers run)",
            "parallel_s": round(parallel_s, 4),
            "speedup": round(serial_s / parallel_s, 2) if parallel_s else None,
        }
    )
    # Persistent pool vs per-call spawn: many small batches of small
    # instances — the service workload.  "serial" pays a fresh worker
    # pool per batch (the PR-2 behaviour); "parallel" spawns an
    # EnginePool once and streams every batch through the warm workers.
    small_pairs = [
        matching_dual_pair(k) for k in (2, 3, 4, 5)
    ] + [
        threshold_dual_pair(n, k)
        for n, k in ((5, 3), (6, 3), (7, 4), (8, 4), (7, 3), (6, 4), (8, 5), (9, 4))
    ]
    small_batches = [small_pairs[i : i + 2] for i in range(0, len(small_pairs), 2)]

    def per_call_pools():
        for batch in small_batches:
            solve_many(batch, method="fk-b", n_jobs=2)

    def persistent_pool():
        with EnginePool(2) as pool:
            for batch in small_batches:
                solve_many(batch, method="fk-b", pool=pool)

    serial_s = best_of(per_call_pools, repeats)
    parallel_s = best_of(persistent_pool, repeats)
    rows.append(
        {
            "kernel": "service-pool",
            "instance": f"{len(small_batches)}-batches-of-2-fk-b",
            "n_instances": len(small_pairs),
            "n_jobs": 2,
            "serial_s": round(serial_s, 4),
            "serial_scope": "fresh WorkerPool per batch",
            "parallel_s": round(parallel_s, 4),
            "parallel_scope": "one warm EnginePool for every batch",
            "speedup": round(serial_s / parallel_s, 2) if parallel_s else None,
        }
    )
    # Scheduler saturation: 4 concurrent clients (one of them on a
    # deliberately slow instance) against one warm TCP server, vs the
    # same requests serialized through one client at a time.  The PR-5
    # row: with no solve lock, fast requests overtake the slow one, so
    # concurrency wins wall-clock wherever cores exist (and costs
    # nothing on one core).  No cache — every request computes, both
    # sides.
    from repro.net import DualityClient, DualityServer

    slow_pair = (
        threshold_dual_pair(11, 6) if quick else threshold_dual_pair(12, 6)
    )
    client_workloads = [
        [slow_pair],
        [matching_dual_pair(7), threshold_dual_pair(9, 5)],
        [threshold_dual_pair(10, 5), matching_dual_pair(6)],
        [threshold_dual_pair(10, 6), threshold_dual_pair(8, 4)],
    ]

    with DualityServer(method="fk-b", n_jobs=2) as server:
        host, port = server.address

        def run_client(workload):
            with DualityClient(host, port, timeout=600) as client:
                client.solve_many(workload)

        def serialized():
            for workload in client_workloads:
                run_client(workload)

        def concurrent():
            import threading

            threads = [
                threading.Thread(target=run_client, args=(workload,))
                for workload in client_workloads
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        run_client(client_workloads[1])  # warm the pool off the clock
        # Per-pass noise on a small box is ±15%, well above the effect
        # being measured (the serial/concurrent ratio sits near 1.0 on
        # one core), and independent best-of floors turn that noise
        # into a coin flip.  Pair the passes instead — serialized and
        # concurrent alternate back to back, so drift hits both sides
        # of each pair — and report the median paired ratio.
        import statistics

        server_passes = 2 if quick else 8
        ser_times, con_times = [], []
        for _ in range(server_passes):
            start = time.perf_counter()
            serialized()
            ser_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            concurrent()
            con_times.append(time.perf_counter() - start)
        serial_s = statistics.median(ser_times)
        parallel_s = statistics.median(con_times)
        paired_speedup = statistics.median(
            s / c for s, c in zip(ser_times, con_times)
        )
    rows.append(
        {
            "kernel": "server-concurrent",
            "instance": f"{len(client_workloads)}-clients-mixed-fk-b",
            "n_instances": sum(len(w) for w in client_workloads),
            "n_jobs": 2,
            "serial_s": round(serial_s, 4),
            "serial_scope": "one client at a time (the old solve-lock shape)",
            "parallel_s": round(parallel_s, 4),
            "parallel_scope": "4 concurrent clients, shared scheduler",
            "speedup": round(paired_speedup, 2),
            "speedup_method": f"median paired ratio over {server_passes} passes",
        }
    )
    # Event-loop saturation (PR 6).  The server the rows above just
    # drove *is* the asyncio server — the threaded one is deleted — so
    # its 4-client numbers carry over verbatim for the throughput
    # comparison against the recorded threaded baseline; what this row
    # adds is the part no thread-per-connection design did cheaply: a
    # four-digit connection sweep, every connection live at once on one
    # event loop, with ping latency percentiles under that load.
    rows.append(
        {
            "kernel": "server-async",
            "instance": f"{len(client_workloads)}-clients-mixed-fk-b+conn-sweep",
            "n_instances": sum(len(w) for w in client_workloads),
            "n_jobs": 2,
            "serial_s": round(serial_s, 4),
            "serial_scope": "one client at a time, asyncio server",
            "parallel_s": round(parallel_s, 4),
            "parallel_scope": (
                "4 concurrent clients, asyncio server "
                "(same measurement as server-concurrent)"
            ),
            "speedup": round(paired_speedup, 2),
            "speedup_method": f"median paired ratio over {server_passes} passes",
            "connections": _connection_sweep(quick),
            # The threaded server is deleted, so no future run can
            # measure it live; these numbers pin the comparison.  The
            # 4-client figures are the PR-5 trend entry (same machine,
            # same full workload, recorded by the threaded server's own
            # last bench run); absolute wall-clock drifts run to run on
            # this box, so compare the within-run concurrency ratios
            # (speedup vs speedup), which is what
            # ``throughput_vs_threaded`` below does.  The 1000-conn
            # figures were measured by hand at the PR-5 head right
            # before the deletion: the threaded design held 1000
            # connections, but at 2 OS threads each (2002 threads) with
            # ping latency in the hundreds of ms from scheduler
            # pressure.
            "threaded_baseline": {
                "serial_s": 0.3148,
                "parallel_s": 0.3181,
                "speedup": 0.99,
                "source": "BENCH_trend.json PR5 server-concurrent row",
                "os_threads_at_1000_conns": 2002,
                "ping_ms_at_1000_conns": 287.0,
                "conn_figures_measured": "PR-5 head, same container, pre-deletion",
            },
            # ≥ 1.0 means the async server extracts at least as much
            # concurrent throughput from the same 4-client workload as
            # the threaded server did, normalized against each run's
            # own serialized pass to cancel machine drift.
            "throughput_vs_threaded": round(paired_speedup / 0.99, 2),
        }
    )
    # Observability overhead: the same solve_many batch with tracing +
    # a timing log on vs everything off.  The obs layer's contract is
    # zero-cost-when-disabled and a few percent at most when enabled;
    # this row keeps the claim measured, not asserted.
    import statistics
    import tempfile

    from repro.obs import disable_tracing, enable_tracing

    obs_pairs = _batch_workload(quick)

    def obs_off():
        solve_many(obs_pairs, method="fk-b", n_jobs=2)

    def obs_on():
        enable_tracing()
        try:
            with tempfile.TemporaryDirectory() as tmp:
                solve_many(
                    obs_pairs,
                    method="fk-b",
                    n_jobs=2,
                    timings=Path(tmp) / "timings.jsonl",
                )
        finally:
            disable_tracing()

    # Interleaved off/on passes with a median paired ratio, because on
    # this 1-core container absolute wall-clock drifts run to run by
    # more than the overhead being measured (same trick as the
    # server-concurrent row).
    obs_off()  # warm the workload off the clock
    obs_passes = 2 if quick else 3
    off_times: list[float] = []
    on_times: list[float] = []
    paired: list[float] = []
    for _ in range(obs_passes):
        start = time.perf_counter()
        obs_off()
        off_t = time.perf_counter() - start
        start = time.perf_counter()
        obs_on()
        on_t = time.perf_counter() - start
        off_times.append(off_t)
        on_times.append(on_t)
        paired.append(on_t / off_t)
    ratio = statistics.median(paired)
    rows.append(
        {
            "kernel": "obs-overhead",
            "instance": f"batch-{len(obs_pairs)}x-fk-b",
            "n_instances": len(obs_pairs),
            "n_jobs": 2,
            "serial_s": round(min(off_times), 4),
            "serial_scope": "tracing + metrics + timings disabled",
            "parallel_s": round(min(on_times), 4),
            "parallel_scope": "global tracing on + timing log recording",
            "speedup": round(1 / ratio, 2),
            "speedup_method": f"median paired ratio over {obs_passes} passes",
            "overhead_pct": round((ratio - 1) * 100, 1),
        }
    )
    for row in rows:
        row["cpus"] = os.cpu_count()
    return rows


def store_rows(quick: bool) -> list[dict]:
    """The PR-8 ``store-flush`` row: per-verdict persistence cost.

    "serial" is the legacy autosave shape — every new verdict rewrote
    the whole ``cache.json``, so the per-verdict cost grows linearly
    with the cache.  "parallel" is the durable store — one fsync'd
    journal append plus a WAL insert, whatever the store already holds.
    The ``scaling`` sub-table shows the divergence directly: the
    rewrite cost grows ~8x from 128 to 1024 entries while the flush
    cost stays flat.  Sizes are fixed (store operations are cheap
    enough that ``--quick`` does not need to shrink them, and the
    acceptance point is ≥ 1k entries).
    """
    import tempfile

    from repro.store import VerdictStore, result_to_json

    del quick  # sizes are fixed; see the docstring
    g, h = matching_dual_pair(3)
    result = decide_duality(g, h, method="fk-b")
    entry = result_to_json(result)

    def rewrite_whole_file(results: dict, path: Path) -> None:
        # The legacy autosave: encode and serialise every entry, fsync a
        # temp sibling, atomically replace the file.
        entries = {key: result_to_json(r) for key, r in results.items()}
        data = json.dumps(entries, indent=1) + "\n"
        tmp_path = path.with_name(path.name + ".tmp")
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)

    sizes = (128, 1024)
    scaling: dict[str, dict] = {}
    flush_probes = 16
    with tempfile.TemporaryDirectory() as tmp:
        for n_entries in sizes:
            # Legacy: a cache holding n entries pays a full-file rewrite
            # to persist each new verdict.
            results = {f"key-{n:06d}": result for n in range(n_entries)}
            cache_path = Path(tmp) / f"cache-{n_entries}.json"
            rewrite_s = best_of(
                lambda: rewrite_whole_file(results, cache_path), 3
            )

            # Store: the same store size, per-verdict journal flush.
            store = VerdictStore(Path(tmp) / f"store-{n_entries}.db")
            for n in range(n_entries):
                store.put_entry(f"key-{n:06d}", entry)
            probe = [0]

            def flush_batch():
                for _ in range(flush_probes):
                    probe[0] += 1
                    store.put_entry(f"probe-{probe[0]:06d}", entry)

            flush_s = best_of(flush_batch, 3) / flush_probes
            store.close()
            scaling[str(n_entries)] = {
                "rewrite_s": round(rewrite_s, 6),
                "flush_s": round(flush_s, 6),
            }

    small, big = (str(n) for n in sizes)
    rewrite_big = scaling[big]["rewrite_s"]
    flush_big = scaling[big]["flush_s"]
    return [
        {
            "kernel": "store-flush",
            "instance": f"{sizes[1]}-entries",
            "n_entries": sizes[1],
            "serial_s": rewrite_big,
            "serial_scope": "legacy autosave: full cache.json rewrite per verdict",
            "parallel_s": flush_big,
            "parallel_scope": "journal append + fsync + WAL insert per verdict",
            "speedup": round(rewrite_big / flush_big, 2) if flush_big else None,
            "scaling": scaling,
            # ~sizes-ratio means linear in the cache; ~1.0 means flat.
            "rewrite_growth": round(
                rewrite_big / scaling[small]["rewrite_s"], 1
            ),
            "flush_growth": round(flush_big / scaling[small]["flush_s"], 1),
            "cpus": os.cpu_count(),
        }
    ]


def auto_select_rows(quick: bool) -> list[dict]:
    """The PR-10 ``auto-select`` row: learned selection vs the portfolio.

    A selector is trained online — sequential portfolio races over a
    training workload record every racer's timing — then a held-out
    workload is decided three ways:

    * **best single engine** (the ``serial_s`` baseline): the fixed
      engine with the lowest total wall in hindsight — the bar the
      learned selection must stay within 1.2x of;
    * **portfolio**: every racer on every instance, whose aggregate
      CPU-seconds (``portfolio_cpu_s``) is the cost ``auto`` exists to
      undercut;
    * **auto** (``parallel_s``): per-instance prediction, reduced race
      on low confidence, with the CPU it actually burned
      (``auto_cpu_s``) summed from its own per-engine timings.
    """
    from repro.hypergraph import mask_payload
    from repro.obs.timings import structural_features
    from repro.select import fit_engine_model

    # The same complement the portfolio row races: the generator
    # families here are all paper §6 tractable classes, so including
    # the ``tractable`` recognizer would degenerate every race (and the
    # learned problem with it) to structural dispatch.
    engines = ("fk-b", "bm", "logspace")

    train_pairs = _batch_workload(quick)
    train_rows = []
    for pg, ph in train_pairs:
        result = race_portfolio(pg, ph, engines=engines, n_jobs=1)
        features = structural_features(mask_payload(pg), mask_payload(ph))
        race = result.stats.extra["portfolio"]
        for engine, elapsed in race["timings_s"].items():
            if elapsed is not None:
                train_rows.append(
                    {"engine": engine, "elapsed_s": elapsed, **features}
                )
    model = fit_engine_model(train_rows)

    eval_pairs = [
        threshold_dual_pair(11, 5),
        threshold_dual_pair(10, 6),
        threshold_dual_pair(9, 4),
        matching_dual_pair(7),
    ]
    if not quick:
        eval_pairs += [threshold_dual_pair(12, 7), matching_dual_pair(6)]

    # Every fixed engine choice, timed sequentially over the held-out
    # workload: the per-engine totals are each engine's wall AND its
    # CPU-seconds (single-threaded), so their sum is the aggregate CPU
    # a sequential portfolio burns on this workload.
    per_engine_total = {
        engine: sum(
            best_of(
                lambda e=engine, a=pg, b=ph: decide_duality(a, b, method=e), 1
            )
            for pg, ph in eval_pairs
        )
        for engine in engines
    }
    portfolio_cpu = sum(per_engine_total.values())
    best_engine = min(per_engine_total, key=lambda e: per_engine_total[e])
    best_single_s = per_engine_total[best_engine]

    modes: dict[str, int] = {}
    auto_cpu = 0.0
    # Warm the selector path (imports, feature kernels) off the clock,
    # exactly like the per-engine baselines were warmed by the races.
    decide_duality(*eval_pairs[0], method="auto", model=model)
    auto_wall = 0.0
    results = []
    for pg, ph in eval_pairs:
        start = time.perf_counter()
        results.append(decide_duality(pg, ph, method="auto", model=model))
        auto_wall += time.perf_counter() - start
    for result in results:
        auto = result.stats.extra["auto"]
        modes[auto["mode"]] = modes.get(auto["mode"], 0) + 1
        auto_cpu += sum(
            t for t in auto["timings_s"].values() if t is not None
        )

    return [
        {
            "kernel": "auto-select",
            "instance": f"batch-{len(eval_pairs)}x-heldout",
            "n_instances": len(eval_pairs),
            "n_jobs": 1,
            "serial_s": round(best_single_s, 4),
            "serial_scope": f"best single engine in hindsight ({best_engine})",
            "parallel_s": round(auto_wall, 4),
            "parallel_scope": "learned selection (predict / reduced race)",
            "speedup": round(best_single_s / auto_wall, 2) if auto_wall else None,
            "wall_ratio_vs_best": round(auto_wall / best_single_s, 3)
            if best_single_s
            else None,
            "auto_cpu_s": round(auto_cpu, 4),
            "portfolio_cpu_s": round(portfolio_cpu, 4),
            "cpu_fraction_of_portfolio": round(auto_cpu / portfolio_cpu, 4)
            if portfolio_cpu
            else None,
            "modes": modes,
            "per_engine_s": {
                engine: round(total, 4)
                for engine, total in per_engine_total.items()
            },
            "train_groups": model.meta["groups"],
            "cpus": os.cpu_count(),
        }
    ]


def _delay_proxy(upstream: tuple, delay_s: float):
    """A TCP proxy that delays every server→client chunk by ``delay_s``
    — a deterministically slow peer for the hedge-tail row.  Returns
    ``(listener, "host:port")``; close the listener to stop it."""
    import socket
    import threading

    listener = socket.create_server(("127.0.0.1", 0))
    address = "127.0.0.1:%d" % listener.getsockname()[1]

    def pump(src, dst, delay):
        try:
            while True:
                chunk = src.recv(65536)
                if not chunk:
                    break
                if delay:
                    time.sleep(delay)
                dst.sendall(chunk)
        except OSError:
            pass
        for sock in (src, dst):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def serve():
        while True:
            try:
                conn, _peer = listener.accept()
            except OSError:
                return
            try:
                up = socket.create_connection(upstream)
            except OSError:
                conn.close()
                continue
            threading.Thread(target=pump, args=(conn, up, 0), daemon=True).start()
            threading.Thread(
                target=pump, args=(up, conn, delay_s), daemon=True
            ).start()

    threading.Thread(target=serve, daemon=True).start()
    return listener, address


def distributed_rows(quick: bool) -> list[dict]:
    """The PR-9 distributed-sharding rows.

    * ``distributed-shard`` — one instance sharded over a 2-peer fleet
      of real duality servers (``solve_shard`` over TCP) vs the serial
      engine, with the local 2-process sharding time for context: the
      row says what the wire costs (or buys) at this instance size.
    * ``hedge-tail`` — the same fleet with one peer behind a delay
      proxy.  "serial" is the p99 solve time with hedging off (the
      slow peer taxes whichever shards land on it); "parallel" is the
      p99 with a 50 ms hedge deadline (duplicates relaunch on the fast
      peer and win).  The row quantifies what hedged retries shave off
      the tail, not average, latency.
    """
    from repro.net.server import DualityServer
    from repro.parallel import PeerBackend, decide_duality_parallel

    rows = []
    repeats = 1 if quick else 2
    g, h = threshold_dual_pair(11, 6) if quick else threshold_dual_pair(12, 6)

    servers = [DualityServer(n_jobs=1).start() for _ in range(2)]
    peers = ["%s:%d" % server.address for server in servers]
    try:
        serial_s = best_of(lambda: decide_duality(g, h, method="fk-b"), repeats)
        local_s = best_of(
            lambda: decide_duality(g, h, method="fk-b", n_jobs=2), repeats
        )
        with PeerBackend(peers, hedge_after=None) as backend:
            reference = decide_duality(g, h, method="fk-b")
            result = decide_duality_parallel(g, h, method="fk-b", backend=backend)
            assert result.verdict == reference.verdict
            distributed_s = best_of(
                lambda: decide_duality_parallel(
                    g, h, method="fk-b", backend=backend
                ),
                repeats,
            )
        rows.append(
            {
                "kernel": "distributed-shard",
                "instance": f"threshold-{len(g.vertices)}",
                "n_peers": 2,
                "serial_s": round(serial_s, 4),
                "parallel_s": round(distributed_s, 4),
                "parallel_scope": "2 peer servers via solve_shard over TCP",
                "local_shard_s": round(local_s, 4),
                "speedup": round(serial_s / distributed_s, 2)
                if distributed_s
                else None,
            }
        )

        # Hedge tail: peer 0 answers late by construction.
        delay_s = 0.25
        listener, slow_address = _delay_proxy(servers[0].address, delay_s)
        solves = 8 if quick else 16
        sg, sh = matching_dual_pair(4)
        tails = {}
        hedges = {}
        try:
            for label, hedge_after in (("off", None), ("on", 0.05)):
                with PeerBackend(
                    [slow_address, peers[1]], hedge_after=hedge_after
                ) as backend:
                    times = []
                    for _ in range(solves):
                        start = time.perf_counter()
                        decide_duality_parallel(
                            sg, sh, method="fk-b", backend=backend
                        )
                        times.append(time.perf_counter() - start)
                    times.sort()
                    tails[label] = times[min(len(times) - 1, int(len(times) * 0.99))]
                    hedges[label] = backend.stats()["hedges_fired"]
        finally:
            listener.close()
        rows.append(
            {
                "kernel": "hedge-tail",
                "instance": f"matching-{len(sg.vertices)}-x{solves}",
                "n_peers": 2,
                "peer_delay_s": delay_s,
                "serial_s": round(tails["off"], 4),
                "serial_scope": "p99 solve, hedging off, one peer delayed",
                "parallel_s": round(tails["on"], 4),
                "parallel_scope": "p99 solve, 50 ms hedge deadline",
                "hedges_fired": hedges["on"],
                "speedup": round(tails["off"] / tails["on"], 2)
                if tails["on"]
                else None,
            }
        )
    finally:
        for server in servers:
            server.shutdown()
    return rows


def _connection_sweep(quick: bool) -> dict:
    """Hold ``target`` live connections on one event loop and ping them
    all concurrently; latency percentiles are per-ping under that load."""
    import asyncio
    import resource

    from repro.net import AsyncDualityClient, DualityServer

    target = 250 if quick else 1000
    wave = 200
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    needed = 4 * target + 256
    if soft < needed:
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (min(needed, hard), hard))
        except (ValueError, OSError):
            pass
        soft = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
    if soft < needed:
        # Fit the sweep to the box instead of failing the whole bench.
        target = max(0, (soft - 256) // 4)
    if target <= 0:
        return {"target": 0, "skipped": "RLIMIT_NOFILE too low"}

    with DualityServer(method="fk-b", n_jobs=1) as server:
        host, port = server.address

        async def drive() -> dict:
            clients: list[AsyncDualityClient] = []
            latencies: list[float] = []
            start = time.perf_counter()
            while len(clients) < target:
                batch = [
                    AsyncDualityClient(host, port, timeout=600)
                    for _ in range(min(wave, target - len(clients)))
                ]
                await asyncio.gather(*(c.connect() for c in batch))
                clients.extend(batch)
            connect_s = time.perf_counter() - start

            async def timed_ping(client: AsyncDualityClient) -> None:
                ping_start = time.perf_counter()
                await client.ping()
                latencies.append(time.perf_counter() - ping_start)

            start = time.perf_counter()
            await asyncio.gather(*(timed_ping(c) for c in clients))
            ping_all_s = time.perf_counter() - start
            stats = await clients[0].stats()
            for index in range(0, len(clients), wave):
                await asyncio.gather(
                    *(c.close() for c in clients[index : index + wave])
                )
            latencies.sort()

            def pct(q: float) -> float:
                position = min(len(latencies) - 1, round(q * (len(latencies) - 1)))
                return latencies[position]

            return {
                "target": target,
                "sustained": stats["connections_open"],
                "connect_s": round(connect_s, 4),
                "ping_all_s": round(ping_all_s, 4),
                "ping_p50_ms": round(pct(0.50) * 1000, 2),
                "ping_p99_ms": round(pct(0.99) * 1000, 2),
            }

        return asyncio.run(drive())


def _git_label() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unversioned"


def append_trend(report: dict, trend_path: Path, label: str) -> None:
    """Append this run's summary to the per-PR history file.

    A corrupt or wrong-shaped history file must not discard a completed
    benchmark run: it is set aside with a warning and a fresh history is
    started.
    """
    history = []
    if trend_path.exists():
        try:
            history = json.loads(trend_path.read_text(encoding="utf-8"))
            if not isinstance(history, list):
                raise ValueError(f"expected a JSON list, got {type(history).__name__}")
        except (ValueError, OSError) as exc:
            backup = trend_path.with_suffix(".json.corrupt")
            trend_path.replace(backup)
            print(
                f"warning: unreadable trend history ({exc}); "
                f"moved to {backup} and starting fresh"
            )
            history = []
    entry = {
        "label": label,
        "generated_at": report["generated_at"],
        "python": report["python"],
        "quick": report["quick"],
        "engines": {
            f"{row['engine']}/{row['instance']}": row["speedup"]
            for row in report["engines"]
        },
        "itemsets": {
            f"{row['kernel']}/{row['instance']}": row["speedup"]
            for row in report["itemsets"]
        },
        "parallel": report["parallel"],
    }
    history.append(entry)
    trend_path.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_core.json",
        help="output path (default: BENCH_core.json at the repo root)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweep for smoke runs"
    )
    parser.add_argument(
        "--skip-suites",
        action="store_true",
        help="skip the pytest E1/E9 wall-time runs",
    )
    parser.add_argument(
        "--trend",
        type=Path,
        default=REPO_ROOT / "BENCH_trend.json",
        help="history file to append to (default: BENCH_trend.json)",
    )
    parser.add_argument(
        "--label",
        default=None,
        help="history entry label (default: the current git short hash)",
    )
    args = parser.parse_args(argv)

    report = {
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "quick": args.quick,
        "suites": {},
        "engines": [],
        "itemsets": [],
        "parallel": [],
    }

    if not args.skip_suites:
        for module in ("bench_e1_figure1.py", "bench_e9_itemsets.py"):
            print(f"running pytest {module} ...", flush=True)
            report["suites"][module.removesuffix(".py")] = run_pytest_suite(module)

    print("timing duality engines (before = frozenset, after = bitset) ...")
    report["engines"] = engine_rows(args.quick)
    print("timing itemset frequency kernels ...")
    report["itemsets"] = itemset_rows(args.quick)
    print("timing parallel subsystem (serial vs n_jobs=2 / racing) ...")
    report["parallel"] = parallel_rows(args.quick)
    print("timing verdict persistence (full rewrite vs journal flush) ...")
    report["parallel"] += store_rows(args.quick)
    print("timing learned engine selection (auto vs best single / portfolio) ...")
    report["parallel"] += auto_select_rows(args.quick)
    print("timing distributed sharding (2-peer fleet, hedge tail) ...")
    report["parallel"] += distributed_rows(args.quick)

    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    append_trend(report, args.trend, args.label or _git_label())
    print(f"appended trend entry to {args.trend}")

    width = max(
        len(f"{r['engine']}/{r['instance']}") for r in report["engines"]
    )
    for r in report["engines"]:
        label = f"{r['engine']}/{r['instance']}"
        print(
            f"  {label:<{width}}  before {r['before_s']:8.4f}s"
            f"  after {r['after_s']:8.4f}s  x{r['speedup']}"
        )
    for r in report["itemsets"]:
        label = f"{r['kernel']}/{r['instance']}"
        print(
            f"  {label:<{width}}  before {r['before_s']:8.4f}s"
            f"  after {r['after_s']:8.4f}s  x{r['speedup']}"
        )
    for r in report["parallel"]:
        label = f"{r['kernel']}/{r['instance']}"
        print(
            f"  {label:<{width}}  serial {r['serial_s']:8.4f}s"
            f"  parallel {r['parallel_s']:8.4f}s  x{r['speedup']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
