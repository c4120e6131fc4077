"""The ``kernel`` workload: ``decide_duality`` called in-process, closed loop.

One caller, no cache, no service: the engines and the hypergraph/core
layers do all the work.  A run repeats whole cycles of a fixed mix
(shuffled per cycle from the seed), so every run holds the same share of
each instance family and its order statistics are comparable.
"""

from __future__ import annotations

import os
import random
import sys
import time

from common import (
    Labeller,
    MIN_P99_SAMPLES,
    build_family,
    median,
    p99_checked,
    percentile,
    timed_launch,
    tree_peak_rss_mb,
)

#: ``(family, method, calls per cycle)``; about a third non-dual (``~``
#: drops an edge of H, ``x`` is the canonical non-dual matching pair).
#: The tree engines get few large instances (matching-7 is ~0.4 s on
#: both), so one cycle stays near two seconds; those two calls are 2.6%
#: of the cycle, so the p99 falls inside them.
KERNEL_MIX = tuple(
    (family, method, count)
    for method in ("bm", "logspace")
    for family, count in (
        ("m5", 5),
        ("m6", 1),
        ("m7", 1),
        ("t8-3", 4),
        ("t10-3", 1),
        ("r8-6/1", 1),
        ("r8-6/2", 1),
        ("r8-6/3", 1),
        ("r8-6/4", 1),
        ("m5~", 3),
        ("x5", 2),
        ("t8-3~", 2),
    )
) + tuple(
    (family, "fk-b", count)
    for family, count in (
        ("m5", 3),
        ("m6", 3),
        ("m7", 2),
        ("t8-3", 2),
        ("t8-4", 2),
        ("t9-4", 2),
        ("t10-3", 2),
        ("t10-4", 1),
        ("r8-6/1", 1),
        ("r8-6/2", 1),
        ("r8-6/3", 1),
        ("r8-6/4", 1),
        ("m6~", 3),
        ("t9-4~", 2),
        ("x6", 2),
        ("t10-3~", 2),
    )
)

#: A fresh interpreter answering one trivial call on each engine.
SETUP_SNIPPET = (
    "from repro.duality import decide_duality\n"
    "from repro.hypergraph.generators import matching_dual_pair\n"
    "g, h = matching_dual_pair(1)\n"
    "for m in ('bm', 'logspace', 'fk-b'):\n"
    "    assert decide_duality(g, h, method=m).is_dual\n"
)
SETUP_LAUNCHES = 9


def measure_setup() -> float:
    """Median seconds from launching a fresh interpreter until it has
    imported the engines and answered one trivial instance on each."""
    return median(
        [timed_launch([sys.executable, "-c", SETUP_SNIPPET]) for _ in range(SETUP_LAUNCHES)]
    )


def build_cycle():
    """The mix as ``(family, method, g, h, dual)`` entries, one per call."""
    built = {family: build_family(family) for family, _method, _count in KERNEL_MIX}
    return [
        (family, method, *built[family])
        for family, method, count in KERNEL_MIX
        for _ in range(count)
    ]


def _call(entry, labeller: Labeller):
    """One labelled call: ``(wall s, cpu s, labelled g, h, result)``."""
    from repro.duality import decide_duality

    _family, method, g, h, _dual = entry
    a, b = labeller.fresh(g, h)
    cpu = time.process_time()
    start = time.perf_counter()
    result = decide_duality(a, b, method=method)
    wall = time.perf_counter() - start
    return wall, time.process_time() - cpu, a, b, result


def check(entry, g, h, result) -> bool:
    """The verdict matches the construction; a NOT_DUAL witness checks."""
    from repro.duality import check_result_witness

    return result.is_dual == entry[4] and check_result_witness(g, h, result)


def warm_up(labeller: Labeller) -> None:
    for method in ("bm", "logspace", "fk-b"):
        for family in ("m3", "x3"):
            g, h, dual = build_family(family)
            _call((family, method, g, h, dual), labeller)


def run(seed: int, seconds: float) -> dict:
    """The untraced run: every end-to-end metric.

    Whole cycles run until ``seconds`` have passed and the p99 has its
    sample.  Throughput and CPU per solve are medians over cycles, so a
    few cycles slowed by a neighbour on the host do not move them; peak
    RSS is read after a fixed number of cycles, because the engines'
    memo grows with every call and a faster host would otherwise report
    more memory.
    """
    setup_s = measure_setup()
    rng = random.Random(seed)
    labeller = Labeller(rng)
    cycle = build_cycle()
    min_cycles = -(-MIN_P99_SAMPLES // len(cycle))
    warm_up(labeller)
    walls, rates, cpu_per_call = [], [], []
    failed = 0
    peak_rss = None
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(rates) < min_cycles:
        if time.perf_counter() - started > 150:
            raise RuntimeError("kernel cycles too slow for a p99 sample")
        rng.shuffle(cycle)
        busy = cpu = 0.0
        for entry in cycle:
            wall, call_cpu, g, h, result = _call(entry, labeller)
            walls.append(wall)
            busy += wall
            cpu += call_cpu
            # Outside the timed call; answers are not kept, so the
            # benchmark's own memory stays out of the peak RSS.
            failed += not check(entry, g, h, result)
        rates.append(len(cycle) / busy)
        cpu_per_call.append(cpu / len(cycle))
        if len(rates) == min_cycles:
            peak_rss = tree_peak_rss_mb(os.getpid())
    n = len(walls)
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "samples": n,
        "metrics": {
            "setup_s": (setup_s, "s"),
            "solve_p50_ms": (percentile(walls, 0.5) * 1000, "ms"),
            "solve_p99_ms": (p99_checked(walls) * 1000, "ms"),
            "solves_per_s": (median(rates), "1/s"),
            "ok_frac": ((n - failed) / n, "ratio"),
            "cpu_ms_per_solve": (median(cpu_per_call) * 1000, "ms"),
            "peak_rss_mb": (peak_rss, "MB"),
        },
    }


def layer_passes(cycle, labeller: Labeller) -> dict:
    """One untraced and one traced pass over ``cycle`` (same order, fresh
    labels).

    Returns the duality/hypergraph/core layer ``metrics``, the calls
    made and answered wrongly, the wall seconds of each pass, and
    ``repeat``: whether node and memo-miss counts repeated exactly —
    the proof that relabelling defeats the process-wide memo.
    """
    from contextlib import nullcontext

    from layers import Tracer, kernel_targets, logspace_memo

    def one_pass(tracer=None):
        rows = []
        with tracer.installed(kernel_targets()) if tracer else nullcontext():
            for entry in cycle:
                before = logspace_memo()
                wall, _cpu, g, h, result = _call(entry, labeller)
                hits, misses = (a - b for a, b in zip(logspace_memo(), before))
                ok = check(entry, g, h, result)
                rows.append((entry[1], wall, result.stats.nodes, hits, misses, ok))
        return rows

    plain = one_pass()
    tracer = Tracer()
    traced_rows = one_pass(tracer)
    repeat = [row[2:5] for row in plain] == [row[2:5] for row in traced_rows]
    failed = sum(1 for row in plain + traced_rows if not row[5])
    traced_s = sum(row[1] for row in traced_rows)
    metrics = {}
    for method in ("bm", "logspace", "fk-b"):
        rows = [row for row in plain if row[0] == method]
        metrics[f"duality.{method}.solve_ms_p50"] = (
            median([row[1] for row in rows]) * 1000,
            "ms",
        )
        metrics[f"duality.{method}.nodes"] = (sum(row[2] for row in rows), "count")
    hits = sum(row[3] for row in plain if row[0] == "logspace")
    misses = sum(row[4] for row in plain if row[0] == "logspace")
    metrics["duality.logspace.memo_hit_frac"] = (hits / (hits + misses), "ratio")
    for name in ("hypergraph.project", "core.vertex_index.decode"):
        metrics[f"{name}.calls"] = (tracer.calls(name), "count")
    for name in (
        "hypergraph.project",
        "hypergraph.restriction_instance",
        "core.vertex_index.decode",
    ):
        metrics[f"{name}.self_share"] = (tracer.self_s(name) / traced_s, "ratio")
    return {
        "metrics": metrics,
        "attempted": len(plain) + len(traced_rows),
        "failed": failed,
        "plain_s": sum(row[1] for row in plain),
        "traced_s": traced_s,
        "repeat": repeat,
    }
