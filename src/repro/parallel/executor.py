"""Worker-pool execution of shard plans, with bit-exact merging.

The executor turns a :class:`~repro.parallel.planner.ShardPlan` into a
:class:`~repro.duality.result.DualityResult` that is **identical** to
the serial engine's — verdict, certificate, and (for the tree engines,
and for FK on dual instances) the work counters too:

* shard outcomes are merged in the serial visiting order (the shard's
  ``order``), so the winning certificate is the one the serial engine
  would have returned;
* planning work is pre-accounted by the planner, worker counters are
  summed in, and depth/branching maxima are recombined, reproducing the
  serial stats wherever the serial engine would have visited the same
  nodes.

Workers receive only tuples of primitives (mask payloads) and return
only primitives plus ``frozenset`` witnesses, so the process-boundary
cost is a few pickled ints per shard.  ``n_jobs=1`` bypasses
``multiprocessing`` entirely — the same shard functions run in-process,
which keeps the path deterministic, debuggable, and usable where
subprocesses are unwelcome (tests, notebooks, already-forked servers).
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Sequence

from repro.duality.boros_makino import tree_result, walk_tree
from repro.duality.fredman_khachiyan import (
    _assignment_to_result,
    _decide_m,
)
from repro.duality.result import (
    DecisionStats,
    DualityResult,
    dual_result,
)
from repro.duality.tree import Mark, NodeAttributes
from repro.hypergraph import Hypergraph, from_mask_payload
from repro.parallel.planner import (
    ShardPlan,
    plan_bm,
    plan_fk,
    plan_logspace,
)

#: Engine-façade method names with a sharded parallel path.
PARALLEL_METHODS = ("fk-a", "fk-b", "bm", "logspace")

#: How many FK shards to plan per worker — a little oversharding lets
#: the pool balance branches of uneven volume.
FK_SHARDS_PER_JOB = 4

#: Recursive-plan targets for the tree engines: how many shards to aim
#: for per worker when ``n_jobs > 1``.  Oversharding (×2) lets the pool
#: balance skewed decomposition trees.
TREE_SHARDS_PER_JOB = 2


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalise an ``n_jobs`` request: ``None``/1 → 1, ``-1`` → all cores."""
    if n_jobs is None:
        return 1
    if not isinstance(n_jobs, int) or isinstance(n_jobs, bool):
        raise ValueError(f"n_jobs must be an int, got {n_jobs!r}")
    if n_jobs == -1:
        return max(os.cpu_count() or 1, 1)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 or -1 (all cores), got {n_jobs}")
    return n_jobs


class WorkerPool:
    """A minimal map-over-processes abstraction.

    ``n_jobs == 1`` (or a single work item) maps in-process — the
    deterministic fallback the tests and the planner's merge logic are
    validated against.  Larger ``n_jobs`` fan out over a
    ``multiprocessing.Pool``; work functions must be module-level (the
    spawn start method re-imports them) and items picklable.
    """

    def __init__(self, n_jobs: int | None = 1) -> None:
        self.n_jobs = resolve_n_jobs(n_jobs)

    def map(self, fn: Callable, items: Iterable) -> list:
        """``[fn(item) for item in items]``, possibly across processes."""
        work = list(items)
        if self.n_jobs == 1 or len(work) <= 1:
            return [fn(item) for item in work]
        import multiprocessing

        processes = min(self.n_jobs, len(work))
        with multiprocessing.get_context().Pool(processes) as pool:
            return pool.map(fn, work, chunksize=1)


# ---------------------------------------------------------------------------
# Shard workers (module-level: they must survive pickling by name)
# ---------------------------------------------------------------------------

def run_fk_shard(payload: tuple) -> tuple:
    """Solve one FK subproblem with the serial mask recursion.

    Returns ``(failing, nodes, max_depth, base_cases)`` where ``failing``
    is the mask-domain failing assignment (or ``None``) — the delta is
    applied at merge time.  ``depth`` seeds the recursion's depth
    counter so the merged ``max_depth`` matches the serial engine's.
    """
    f_masks, g_masks, _delta, depth, use_b = payload
    stats = DecisionStats()
    failing = _decide_m(
        frozenset(f_masks), frozenset(g_masks), stats, depth=depth, use_b=use_b
    )
    return failing, stats.nodes, stats.max_depth, stats.base_cases


def _rebuild_instance(header: tuple) -> tuple[Hypergraph, Hypergraph]:
    """Both sides of the instance from a shared-header mask payload."""
    vertices, g_masks, h_masks = header[0], header[1], header[2]
    return (
        from_mask_payload((vertices, g_masks)),
        from_mask_payload((vertices, h_masks)),
    )


def run_bm_shard(args: tuple) -> tuple:
    """Walk one Boros–Makino subtree and report its aggregates.

    Returns ``(nodes, max_depth, max_branching, n_leaves, fails)`` with
    ``fails`` the subtree's first ``fail`` leaf as a one-item list of
    ``(label, witness)`` (empty if it has none) — the only one the merge
    can pick, since every other fail leaf of the subtree has a higher
    label.  Depths are absolute (labels carry the full path from the
    original root).
    """
    header, label, scope_mask = args
    g, h = _rebuild_instance(header)
    walk = walk_tree(g, h, header[3], tuple(label), scope_mask)
    fails = [walk.fail] if walk.fail is not None else []
    return walk.nodes, walk.max_depth, walk.max_children, walk.leaves, fails


def run_ls_shard(args: tuple) -> tuple:
    """Continue the logspace DFS from one interior node of the tree.

    Returns ``(nodes, max_depth, first_max_label, fail)`` where
    ``first_max_label`` is the first node *in DFS order* attaining the
    subtree's maximum depth (the quantity the serial decider's
    ``deepest`` tracker ends on) and ``fail`` is the minimum-label
    ``fail`` leaf as ``(label, witness)``, or ``None``.  The walk is the
    serial decider's own (:func:`repro.duality.boros_makino.walk_tree`).
    """
    header, label, scope_mask = args
    g, h = _rebuild_instance(header)
    walk = walk_tree(g, h, label=tuple(label), scope=scope_mask)
    return walk.nodes, walk.max_depth, walk.deepest, walk.fail


# ---------------------------------------------------------------------------
# Dispatch: the planned method → worker function mapping
# ---------------------------------------------------------------------------

#: Planned-method name → short shard-kind tag.  The tag is what travels
#: on the ``solve_shard`` wire op and what keys :data:`SHARD_RUNNERS`.
SHARD_KINDS = {
    "fredman-khachiyan-A": "fk",
    "fredman-khachiyan-B": "fk",
    "boros-makino": "bm",
    "logspace": "ls",
}

#: Shard-kind tag → module-level worker function.  Every backend — the
#: in-process map, the warm :class:`repro.service.EnginePool`, and a
#: remote peer's ``solve_shard`` handler — runs exactly these.
SHARD_RUNNERS = {
    "fk": run_fk_shard,
    "bm": run_bm_shard,
    "ls": run_ls_shard,
}


def shard_kind(plan: ShardPlan) -> str:
    """The shard-kind tag (``fk``/``bm``/``ls``) of a plan."""
    try:
        return SHARD_KINDS[plan.method]
    except KeyError:
        raise ValueError(
            f"no shard runner for planned method {plan.method!r}"
        ) from None


def shard_worker_items(plan: ShardPlan) -> list[tuple]:
    """The worker items for a plan's shards, in shard order.

    FK shards are self-contained payloads; the tree engines' shards are
    ``(shared header, *payload)`` tuples — the same shapes
    :data:`SHARD_RUNNERS` expect and the wire codec serialises.
    """
    if shard_kind(plan) == "fk":
        return [shard.payload for shard in plan.shards]
    return [(plan.header, *shard.payload) for shard in plan.shards]


def merge_shard_outcomes(
    plan: ShardPlan, outcomes: Sequence[tuple]
) -> DualityResult:
    """Merge shard outcomes (in shard order) into the serial result.

    ``outcomes[i]`` must be the return value of the plan's shard runner
    on ``shard_worker_items(plan)[i]`` — wherever it actually ran.
    """
    kind = shard_kind(plan)
    if kind == "fk":
        return _merge_fk(plan, outcomes)
    if kind == "bm":
        return _merge_bm(plan, outcomes)
    return _merge_logspace(plan, outcomes)


# ---------------------------------------------------------------------------
# Merges
# ---------------------------------------------------------------------------

def _merge_fk(plan: ShardPlan, outcomes: Sequence[tuple]) -> DualityResult:
    stats = DecisionStats(
        nodes=plan.plan_stats.nodes,
        max_depth=plan.plan_stats.max_depth,
    )
    merged_failing = None
    for shard, (failing, nodes, max_depth, base_cases) in zip(
        plan.shards, outcomes
    ):
        stats.nodes += nodes
        stats.max_depth = max(stats.max_depth, max_depth)
        stats.base_cases += base_cases
        if failing is not None and merged_failing is None:
            kind, true_mask = failing
            delta = shard.payload[2]
            merged_failing = (kind, true_mask | delta)
    stats.extra["n_shards"] = len(plan.shards)
    if merged_failing is None:
        return dual_result(plan.method, stats)
    kind, true_mask = merged_failing
    failing = (kind, plan.index.decode(true_mask))
    return _assignment_to_result(plan.method, plan.g, plan.h, failing, stats)


def _merge_bm(plan: ShardPlan, outcomes: Sequence[tuple]) -> DualityResult:
    stats = DecisionStats(
        # Interior nodes the planner expanded itself (the root, plus any
        # node it re-sharded through on a recursive plan).
        nodes=plan.plan_stats.nodes,
        max_depth=0,
        max_children=plan.plan_stats.max_children,
        base_cases=0,
    )
    fails: list[tuple[tuple[int, ...], frozenset]] = []
    for leaf in plan.extra.get("planned_leaves", ()):
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, leaf.depth)
        stats.base_cases += 1
        if leaf.mark is Mark.FAIL:
            fails.append((leaf.label, leaf.witness))
    for nodes, max_depth, max_branching, n_leaves, shard_fails in outcomes:
        stats.nodes += nodes
        stats.max_depth = max(stats.max_depth, max_depth)
        stats.max_children = max(stats.max_children, max_branching)
        stats.base_cases += n_leaves
        fails.extend(shard_fails)
    stats.extra["swapped"] = plan.swapped
    stats.extra["n_shards"] = len(plan.shards)
    first_fail = min(fails, key=lambda item: item[0]) if fails else None
    return tree_result(plan.method, plan.swapped, stats, first_fail)


def _merge_logspace(plan: ShardPlan, outcomes: Sequence[tuple]) -> DualityResult:
    from repro.duality.logspace import pathnode_metered

    # Accounting units in the serial DFS order.  Lexicographic label
    # order *is* DFS pre-order (a parent's label is a proper prefix of
    # its children's), so sorting planned nodes and shard subtrees by
    # label replays the serial decider's visiting order at any re-shard
    # depth.
    planned_nodes: list[NodeAttributes] = plan.extra["planned_nodes"]
    units: list[tuple[tuple[int, ...], str, object]] = [
        (attrs.label, "node", attrs) for attrs in planned_nodes
    ]
    units += [
        (tuple(shard.payload[0]), "shard", outcome)
        for shard, outcome in zip(plan.shards, outcomes)
    ]
    units.sort(key=lambda unit: unit[0])

    stats = DecisionStats(nodes=0, max_depth=0)
    stats.extra["swapped"] = plan.swapped
    deepest: tuple[int, ...] = ()
    deepest_depth = 0
    first_fail: tuple[tuple[int, ...], frozenset] | None = None

    for _label, kind, payload in units:
        if kind == "node":
            attrs: NodeAttributes = payload
            stats.nodes += 1
            if attrs.depth > deepest_depth:
                deepest_depth = attrs.depth
                deepest = attrs.label
            if attrs.mark is Mark.FAIL and (
                first_fail is None or attrs.label < first_fail[0]
            ):
                first_fail = (attrs.label, attrs.witness)
            continue
        nodes, max_depth, first_max_label, fail = payload
        stats.nodes += nodes
        if max_depth > deepest_depth:
            deepest_depth = max_depth
            deepest = tuple(first_max_label)
        if fail is not None and (first_fail is None or fail[0] < first_fail[0]):
            first_fail = (tuple(fail[0]), fail[1])
    stats.max_depth = deepest_depth
    stats.extra["n_shards"] = len(plan.shards)

    _attrs, meter = pathnode_metered(plan.g, plan.h, deepest)
    stats.peak_space_bits = meter.peak_bits

    return tree_result(plan.method, plan.swapped, stats, first_fail)


# ---------------------------------------------------------------------------
# Front door
# ---------------------------------------------------------------------------

def solve_shards(
    plan: ShardPlan,
    n_jobs: int | None = 1,
    pool=None,
    backend=None,
    trace=None,
) -> DualityResult:
    """Run a plan's shards through an execution backend and merge.

    Three dispatch paths, one merge:

    * ``backend`` — any :class:`repro.parallel.backends.ShardBackend`
      (local warm pool or a remote peer fleet, with hedged retries);
      ``n_jobs``/``pool`` are ignored and ``trace`` (a ``SpanContext``)
      lets shard spans follow the request;
    * ``pool`` — any object with a ``map(fn, items)`` method, e.g. a
      persistent :class:`repro.service.EnginePool`; the caller keeps
      ownership of its lifecycle;
    * otherwise a transient :class:`WorkerPool` sized by ``n_jobs``.

    The shard list may be empty (all root children were leaves, or the
    root itself was); the merge handles those from the plan.
    """
    if plan.resolved is not None:
        return plan.resolved
    if backend is not None:
        outcomes = backend.map_shards(plan, trace=trace)
        return merge_shard_outcomes(plan, outcomes)
    if pool is None:
        pool = WorkerPool(n_jobs)
    runner = SHARD_RUNNERS[shard_kind(plan)]
    outcomes = pool.map(runner, shard_worker_items(plan))
    return merge_shard_outcomes(plan, outcomes)


def decide_duality_parallel(
    g: Hypergraph,
    h: Hypergraph,
    method: str = "fk-b",
    n_jobs: int | None = 1,
    pool=None,
    backend=None,
    trace=None,
    **options,
) -> DualityResult:
    """Sharded parallel duality decision, equivalent to the serial engines.

    ``method`` must be one of :data:`PARALLEL_METHODS`.  Verdicts and
    certificates are identical to ``decide_duality(g, h, method=method)``
    for every ``n_jobs`` — parallelism changes wall time only.

    ``pool`` reuses a persistent pool (e.g. a
    :class:`repro.service.EnginePool`) for the shard fan-out instead of
    spawning a transient one per call; its ``n_jobs`` then sizes the
    shard plan.  ``backend`` dispatches shards through a
    :class:`repro.parallel.backends.ShardBackend` instead (its ``width``
    sizes the plan; ``trace`` threads a ``SpanContext`` to it).
    """
    if backend is not None:
        jobs = max(1, backend.width)
    else:
        jobs = resolve_n_jobs(n_jobs if pool is None else pool.n_jobs)
    if method in ("fk-a", "fk-b"):
        if options.pop("use_bitset", True) is False:
            raise ValueError(
                "the sharded fk path runs the mask kernels; "
                "use n_jobs=1 for the use_bitset=False reference"
            )
        if options:
            raise ValueError(
                f"unknown option(s) for parallel {method!r}: {sorted(options)}"
            )
        plan = plan_fk(
            g, h, use_b=(method == "fk-b"), target_shards=jobs * FK_SHARDS_PER_JOB
        )
        result = solve_shards(plan, jobs, pool=pool, backend=backend, trace=trace)
    elif method == "bm":
        options.setdefault(
            "target_shards", jobs * TREE_SHARDS_PER_JOB if jobs > 1 else None
        )
        plan = plan_bm(g, h, **options)
        result = solve_shards(plan, jobs, pool=pool, backend=backend, trace=trace)
    elif method == "logspace":
        target = options.pop(
            "target_shards", jobs * TREE_SHARDS_PER_JOB if jobs > 1 else None
        )
        cost_fn = options.pop("cost_fn", None)
        if options:
            raise ValueError(
                f"unknown option(s) for parallel 'logspace': {sorted(options)}"
            )
        plan = plan_logspace(g, h, target_shards=target, cost_fn=cost_fn)
        result = solve_shards(plan, jobs, pool=pool, backend=backend, trace=trace)
    else:
        raise ValueError(
            f"method {method!r} has no sharded parallel path; "
            f"parallelizable methods: {', '.join(PARALLEL_METHODS)}"
        )
    result.stats.extra["n_jobs"] = jobs
    return result
