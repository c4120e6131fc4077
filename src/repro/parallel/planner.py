"""Shard planner: split one duality instance into independent subinstances.

Every decomposition engine in :mod:`repro.duality` reduces an instance
to subinstances that can be solved *independently* — the property the
paper's self-reduction arguments (and Eiter–Gottlob–Makino's
"polynomially many subproblems" decompositions) rest on, and exactly
what a worker pool needs.  The planner performs the first few reduction
steps **in the parent process**, mirroring the serial engine's free
choices bit for bit, and emits a :class:`ShardPlan`: a shared header
(the instance as canonical mask payloads over one
:class:`~repro.core.VertexIndex`) plus one compact payload per shard.

Three shard shapes, one per engine family:

* **FK branch pairs** (``fk-a``/``fk-b``) — the planner unrolls the top
  of the Fredman–Khachiyan recursion: each expansion replaces a leaf
  subproblem ``(f, g)`` by its branch children in the serial visiting
  order (the ``x=0`` branch first, then the ``x=1`` branch or the
  per-``u ∈ g₁`` B-subproblems).  A shard is a pair of mask families
  plus the *delta* mask of variables forced true along its path, so the
  merged failing assignment equals the serial one exactly.

* **BM tree children** (``bm``) — the planner expands the decomposition
  tree's root with :func:`repro.duality.boros_makino.node_step`; each child
  scope becomes a shard whose worker walks that subtree.

* **Logspace projections** (``logspace``) — the planner resolves the
  root and its children with Section 4's ``next`` procedure; each
  interior child becomes a shard whose worker continues the
  ``iter_tree_nodes`` DFS from that child's attributes.

Shard plans for ``bm`` and ``logspace`` are **recursive**: when asked
for more shards than the root has children (``target_shards``), the
planner keeps expanding the largest-estimated-volume frontier node —
re-sharding a shard — until the target is met or nothing worth
splitting remains.  A skewed decomposition tree (one giant child, many
trivial ones) therefore still yields balanced work, where a one-level
plan would put the whole tree in a single worker.  Every node the
planner expands or discovers is recorded in the plan (the *planned
nodes*), so the merge can reconstruct the serial engine's counters and
visiting order exactly, at any re-shard depth.

Merging (in :mod:`repro.parallel.executor`) re-applies the serial
engine's priority rules — first failing FK branch in DFS order, first
``fail`` leaf in canonical label order (which *is* DFS pre-order:
a parent's label is a proper prefix of its children's, so
lexicographic label order equals the serial visiting order) — so
verdicts *and certificates* are identical to the serial engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import VertexIndex
from repro.duality.boros_makino import MaskNodes, node_step, tree_result
from repro.duality.conditions import prepare_instance
from repro.duality.fredman_khachiyan import _base_case_m, fk_branches
from repro.duality.logspace import initial_attrs, next_attrs
from repro.duality.policies import PAPER_POLICY, TieBreakPolicy
from repro.duality.result import DecisionStats, DualityResult
from repro.duality.tree import Mark, NodeAttributes
from repro.hypergraph import Hypergraph, mask_payload


@dataclass(frozen=True)
class Shard:
    """One independent subinstance, as a picklable payload.

    ``order`` is the shard's position in the serial engine's visiting
    order — the merge priority.  ``payload`` is a tuple of primitives
    whose shape depends on ``kind`` (``"fk"``, ``"bm"``, ``"ls"``).
    """

    kind: str
    order: int
    payload: tuple


@dataclass
class ShardPlan:
    """The output of a planner: shards plus parent-side merge context.

    ``header`` is shipped to every worker (instance mask payloads and
    engine options); ``shards`` are the per-worker payloads.  When the
    instance resolves during planning (entry-condition violation, a
    degenerate pair, or a root that is itself a leaf), ``resolved``
    holds the finished result and ``shards`` is empty.

    The remaining fields are merge context that never leaves the parent:
    the validated sides, the vertex index, whether the sides were
    swapped, and the planning work already accounted (so merged stats
    line up with the serial engines').
    """

    method: str
    header: tuple
    shards: tuple[Shard, ...] = ()
    resolved: DualityResult | None = None
    g: Hypergraph | None = None
    h: Hypergraph | None = None
    index: VertexIndex | None = None
    swapped: bool = False
    plan_stats: DecisionStats = field(default_factory=DecisionStats)
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Fredman–Khachiyan branch pairs
# ---------------------------------------------------------------------------

#: A planner-side FK leaf: (f masks, g masks, delta mask, depth).
_FkLeaf = tuple[frozenset, frozenset, int, int]


def _fk_expandable(leaf: _FkLeaf) -> bool:
    """True iff the serial recursion would split this subproblem (its
    base case does not resolve it; like ``_decide_m``, only the root
    tests cross-intersection)."""
    f, g, _delta, depth = leaf
    return _base_case_m(f, g, DecisionStats(), check_cross=depth == 0) is None


def plan_fk(
    g: Hypergraph,
    h: Hypergraph,
    use_b: bool,
    target_shards: int,
) -> ShardPlan:
    """Unroll the top of the FK recursion into ``≈ target_shards`` leaves.

    Expansion replaces, repeatedly, the largest-volume expandable leaf
    by its branch children *in place*, so the leaf list stays in the
    serial DFS order.  Each expansion corresponds to one interior
    ``_decide_m`` call, which the plan's stats pre-account.
    """
    method = "fredman-khachiyan-B" if use_b else "fredman-khachiyan-A"
    g.require_simple("G")
    h.require_simple("H")
    index = VertexIndex(g.vertices | h.vertices)
    root: _FkLeaf = (
        frozenset(index.encode(e) for e in g.edges),
        frozenset(index.encode(e) for e in h.edges),
        0,
        0,
    )

    plan_stats = DecisionStats()
    # Each entry pairs a leaf with its (cached) expandability.
    entries: list[tuple[_FkLeaf, bool]] = [(root, _fk_expandable(root))]
    while len(entries) < target_shards:
        candidates = [
            (len(leaf[0]) * len(leaf[1]), pos)
            for pos, (leaf, can_expand) in enumerate(entries)
            if can_expand
        ]
        if not candidates:
            break
        _volume, pos = max(candidates, key=lambda c: (c[0], -c[1]))
        (f, gm, delta, depth), _ = entries[pos]
        plan_stats.nodes += 1
        plan_stats.max_depth = max(plan_stats.max_depth, depth)
        # The subcalls _decide_m would issue, in its visiting order.
        children = [
            (f_child, g_child, delta | bit, depth + 1)
            for f_child, g_child, bit in fk_branches(f, gm, use_b)
        ]
        entries[pos : pos + 1] = [
            (child, _fk_expandable(child)) for child in children
        ]

    leaves = [leaf for leaf, _ in entries]
    shards = tuple(
        Shard(
            kind="fk",
            order=i,
            payload=(tuple(f), tuple(gm), delta, depth, use_b),
        )
        for i, (f, gm, delta, depth) in enumerate(leaves)
    )
    return ShardPlan(
        method=method,
        header=(),
        shards=shards,
        g=g,
        h=h,
        index=index,
        plan_stats=plan_stats,
    )


# ---------------------------------------------------------------------------
# Boros–Makino tree children (recursive)
# ---------------------------------------------------------------------------

#: Frontier nodes with a restricted volume below this are never worth
#: re-sharding — their subtrees are cheaper than the dispatch overhead.
RESHARD_MIN_VOLUME = 4


def _grow_frontier(
    children: list[NodeAttributes],
    target_shards: int | None,
    g: Hypergraph,
    h: Hypergraph,
    expand_node,
    cost_fn=None,
) -> list[NodeAttributes]:
    """Shared frontier expansion: split the costliest subtree until
    ``target_shards`` frontier nodes exist (or nothing is worth
    splitting).

    ``expand_node(attrs)`` performs one engine-specific expansion step,
    records the node (and any marked children) in the caller's plan
    bookkeeping, and returns the node's unexpanded interior children —
    or ``None`` when the node turned out to be a leaf.  Cost estimates
    are only computed when expansion will actually be attempted: with
    ``target_shards=None``, or a frontier already at target, the
    children are returned as-is.

    ``cost_fn(attrs, g, h) -> float`` replaces the default
    ``|G^S|·|H_S|`` volume estimate (e.g. with a learned per-shard cost
    predictor, :func:`repro.select.shard_cost_fn`).  A ``min_cost``
    attribute on it replaces the :data:`RESHARD_MIN_VOLUME` re-shard
    gate — the default 0.0 lets every positive-cost node split.  The
    estimate only steers which node splits next; the executor's merges
    reconstruct the serial result from *any* partition, so verdicts,
    certificates, and stats are unchanged under any cost function.
    """
    if target_shards is None or len(children) >= target_shards:
        return children
    if cost_fn is None:
        # The work estimate for a frontier node: |G^S| · |H_S|.
        nodes = MaskNodes(g, h)

        def estimate(attrs, _g, _h):
            return nodes.volume(nodes.index.encode(attrs.scope))

        gate = RESHARD_MIN_VOLUME
    else:
        estimate = cost_fn
        gate = getattr(cost_fn, "min_cost", 0.0)
    frontier = [(attrs, estimate(attrs, g, h)) for attrs in children]
    while len(frontier) < target_shards:
        candidates = [
            (cost, pos)
            for pos, (_attrs, cost) in enumerate(frontier)
            if cost >= gate and (cost_fn is None or cost > 0)
        ]
        if not candidates:
            break
        _cost, pos = max(candidates, key=lambda c: (c[0], -c[1]))
        attrs, _ = frontier.pop(pos)
        grandchildren = expand_node(attrs)
        if grandchildren is None:
            continue
        frontier[pos:pos] = [
            (child, estimate(child, g, h)) for child in grandchildren
        ]
    return [attrs for attrs, _cost in frontier]


def plan_bm(
    g: Hypergraph,
    h: Hypergraph,
    enforce_size_order: bool = True,
    policy: TieBreakPolicy = PAPER_POLICY,
    target_shards: int | None = None,
    cost_fn=None,
) -> ShardPlan:
    """Shard the decomposition tree, re-sharding big subtrees on demand.

    Mirrors :func:`repro.duality.boros_makino.decide_boros_makino`'s
    prologue (entry check, side swap) in the parent; a root that is
    itself a leaf is resolved by the executor without any worker.

    ``target_shards=None`` reproduces the one-level plan (one shard per
    root child).  With a target, the planner repeatedly expands the
    frontier node of largest estimated cost — mirroring the serial
    engine's own expansion bit for bit — until the frontier holds
    ``target_shards`` nodes or only trivial subtrees remain.  Leaves
    discovered along the way stay in the plan (``extra["planned_leaves"]``)
    so merged stats and the fail-leaf priority match the serial engine
    at every re-shard depth.

    ``cost_fn(attrs, g, h) -> float`` swaps the default ``|G^S|·|H_S|``
    volume estimate for a pluggable per-shard cost predictor (see
    :func:`_grow_frontier`); the default ``None`` keeps the volume
    estimate bit-for-bit.  Results are identical under any cost
    function — only shard balance changes.
    """
    from repro.duality.result import not_dual_result

    method = "boros-makino"
    entry = prepare_instance(g, h)
    if not entry.ok:
        return ShardPlan(
            method=method,
            header=(),
            resolved=not_dual_result(
                method, entry.failure, witness=entry.witness, detail=entry.detail
            ),
        )
    g_v, h_v = entry.g, entry.h
    swapped = enforce_size_order and len(h_v) > len(g_v)
    if swapped:
        g_v, h_v = h_v, g_v

    universe = frozenset(g_v.vertices | h_v.vertices)
    index = VertexIndex(universe)
    root_attrs = NodeAttributes((), universe, Mark.NIL, frozenset())
    step = node_step(g_v, h_v, policy)
    outcome = step(root_attrs)

    if isinstance(outcome, NodeAttributes):
        # Single-node tree: resolve exactly as the serial decider would.
        stats = DecisionStats(nodes=1, max_depth=0, max_children=0, base_cases=1)
        stats.extra["swapped"] = swapped
        fail = (outcome.label, outcome.witness) if outcome.mark is Mark.FAIL else None
        resolved = tree_result(method, swapped, stats, fail)
        return ShardPlan(method=method, header=(), resolved=resolved)

    # Recursive frontier expansion: plan-state updated by the callback,
    # selection/splicing shared with plan_logspace via _grow_frontier.
    # Expanding a node mirrors the serial builder bit for bit, so
    # plan-time work is pre-accounting, not extra work.
    plan_state = {"interior": 1, "max_children": len(outcome)}  # the root
    planned_leaves: list[NodeAttributes] = []

    def expand_bm_node(attrs: NodeAttributes) -> list[NodeAttributes] | None:
        child_outcome = step(attrs)
        if isinstance(child_outcome, NodeAttributes):
            planned_leaves.append(child_outcome)
            return None
        plan_state["interior"] += 1
        plan_state["max_children"] = max(
            plan_state["max_children"], len(child_outcome)
        )
        return child_outcome

    frontier = _grow_frontier(
        outcome, target_shards, g_v, h_v, expand_bm_node, cost_fn=cost_fn
    )

    g_vertices, g_masks = mask_payload(g_v)
    _h_vertices, h_masks = mask_payload(h_v)
    header = (g_vertices, g_masks, h_masks, policy)
    shards = tuple(
        Shard(
            kind="bm",
            order=i,
            payload=(child.label, index.encode(child.scope)),
        )
        for i, child in enumerate(frontier)
    )
    plan_stats = DecisionStats(
        nodes=plan_state["interior"], max_children=plan_state["max_children"]
    )
    plan = ShardPlan(
        method=method,
        header=header,
        shards=shards,
        g=g_v,
        h=h_v,
        index=index,
        swapped=swapped,
        plan_stats=plan_stats,
    )
    plan.extra["planned_leaves"] = planned_leaves
    return plan


# ---------------------------------------------------------------------------
# Logspace projections
# ---------------------------------------------------------------------------

def _ls_children(
    g: Hypergraph, h: Hypergraph, attrs: NodeAttributes
) -> list[NodeAttributes]:
    """All children of an interior node via Lemma 4.1's ``next``."""
    children: list[NodeAttributes] = []
    i = 1
    while True:
        child = next_attrs(g, h, attrs, i)
        if child is None:
            break
        children.append(child)
        i += 1
    return children


def plan_logspace(
    g: Hypergraph,
    h: Hypergraph,
    target_shards: int | None = None,
    cost_fn=None,
) -> ShardPlan:
    """Shard the Section 4 DFS, re-sharding big projections on demand.

    One shard per unexpanded interior node of the plan frontier.  Nodes
    the planner resolves itself — the root, any interior node it
    re-sharded through, and every ``done``/``fail`` leaf the Lemma 4.1
    finalisation marks along the way — are carried in
    ``extra["planned_nodes"]``; the executor accounts for them without
    dispatching a worker, walking plan nodes and shard outcomes in
    label (= DFS) order so the ``deepest`` tracker and the fail-leaf
    priority replay the serial decider exactly.

    ``target_shards=None`` keeps the one-level plan (the root's interior
    children); with a target, the largest-estimated-cost frontier node
    is expanded via ``next`` until the target is met or only trivial
    projections remain.  ``cost_fn`` swaps the volume estimate for a
    pluggable per-shard cost predictor, exactly as in :func:`plan_bm`.
    """
    from repro.duality.result import not_dual_result

    method = "logspace"
    entry = prepare_instance(g, h)
    if not entry.ok:
        return ShardPlan(
            method=method,
            header=(),
            resolved=not_dual_result(
                method, entry.failure, witness=entry.witness, detail=entry.detail
            ),
        )
    g_v, h_v = entry.g, entry.h
    swapped = len(h_v) > len(g_v)
    if swapped:
        g_v, h_v = h_v, g_v

    index = VertexIndex(g_v.vertices | h_v.vertices)
    root = initial_attrs(g_v, h_v)

    planned_nodes: list[NodeAttributes] = [root]
    root_children: list[NodeAttributes] = []
    if root.mark is Mark.NIL:
        for child in _ls_children(g_v, h_v, root):
            if child.mark is Mark.NIL:
                root_children.append(child)
            else:
                planned_nodes.append(child)

    def expand_ls_node(attrs: NodeAttributes) -> list[NodeAttributes]:
        planned_nodes.append(attrs)
        nil_children: list[NodeAttributes] = []
        for child in _ls_children(g_v, h_v, attrs):
            if child.mark is Mark.NIL:
                nil_children.append(child)
            else:
                planned_nodes.append(child)
        return nil_children

    frontier = _grow_frontier(
        root_children, target_shards, g_v, h_v, expand_ls_node, cost_fn=cost_fn
    )

    g_vertices, g_masks = mask_payload(g_v)
    _h_vertices, h_masks = mask_payload(h_v)
    header = (g_vertices, g_masks, h_masks)
    shards = tuple(
        Shard(
            kind="ls",
            order=i,
            payload=(child.label, index.encode(child.scope)),
        )
        for i, child in enumerate(frontier)
    )

    plan = ShardPlan(
        method=method,
        header=header,
        shards=shards,
        g=g_v,
        h=h_v,
        index=index,
        swapped=swapped,
    )
    plan.extra["planned_nodes"] = planned_nodes
    return plan
