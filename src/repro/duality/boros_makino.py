"""The Boros–Makino decomposition method (paper, Section 2).

A node of ``T(G, H)`` is fully described by its scope ``S_α``: the node
instance ``(G^{S_α}, H_{S_α})`` is a projection and restriction of the
original input, and the paper's two procedures — ``marksmall`` (for
leaves with ``|H_{S_α}| ≤ 1``) and ``process`` (the majority-vertex
expansion step) — only count, intersect and compare its edges.
:class:`MaskNodes` runs both on integer masks over one
:class:`~repro.core.VertexIndex`: a scope is one ``int``, ``G^S`` the set
``{E & S}`` and ``H_S`` the ``H`` masks inside ``S``.  It is the node
step of every tree engine — the deciders here and in Section 4, Lemma
4.1's ``next``, the guess-and-check walk of Section 5, and the shard
planner and runners.

Deciding needs no tree.  Proposition 2.1(1) asks only whether every
leaf is ``done``, and a node is determined by its scope, so
:func:`walk_tree` runs one depth-first walk over scope masks, holding
only a stack of ``(scope, label)`` pairs.  It counts what the deciders
report (nodes, depth, branching, leaves, the first node at the deepest
level, the first ``fail`` leaf) and decodes nothing but the fail leaf's
witness.  :func:`decide_boros_makino`,
:func:`repro.duality.logspace.decide_logspace` and the ``bm``/``ls``
shard runners all run on it.  :func:`build_tree` materialises the
whole tree, as :class:`~repro.duality.tree.TreeNode` objects, for the
callers that look at its shape (``repro tree``, :func:`tree_for`).

:func:`marksmall` and :func:`process_children` transcribe the same
procedures line by line over ``frozenset`` instances built by
:func:`~repro.hypergraph.operations.restriction_instance`, and
:func:`_reference_expand` is their node step.  It is what
``use_bitset_kernels(False)`` selects — in the same walker and the same
tree builder — so the kernel always has an independent program to be
compared against.

Determinism.  The paper notes the tree is not unique because of free
choices, and suggests fixing them; we follow its suggestions exactly:

* ``marksmall`` case 4 picks the **smallest** ``i ∈ H`` with
  ``{i} ∉ G^{S_α}`` (smallest in the library's canonical vertex order);
* ``process`` step 3 picks the **lexicographically first** edge
  ``G ∈ G^{S_α}`` with ``G ∩ I_α = ∅``, and step 4 the first
  ``H ∈ H_{S_α}`` with ``H ⊆ I_α`` (canonical edge order);
* children are ordered by the canonical order of their scopes, indexed
  from 1 — this fixes the labels used by Section 4's path descriptors.

In the mask domain the canonical orders are ascending bit position and
:func:`~repro.core.mask_sort_key`.

Entry conditions.  The procedures are only correct for instances with
``G ⊆ tr(H)`` and ``H ⊆ tr(G)`` ("It is assumed that … Clearly this can
be tested in logarithmic space"); :func:`decide_boros_makino` runs
:func:`repro.duality.conditions.prepare_instance` first and converts a
violation into an immediate NOT_DUAL verdict.  The paper also assumes
``|H| ≤ |G|``; the decider swaps the sides when necessary (duality is
symmetric) and records the swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import filterfalse

from repro._util import sort_key, vertex_key
from repro.core import (
    VertexIndex,
    column_counts,
    is_new_transversal_mask,
    iter_bits,
    mask_sort_key,
    union_mask,
)
from repro.hypergraph import Hypergraph
from repro.hypergraph.operations import (
    bitset_kernels_enabled,
    restriction_instance,
)
from repro.hypergraph.transversal import is_new_transversal
from repro.duality.conditions import prepare_instance
from repro.duality.policies import PAPER_POLICY, TieBreakPolicy
from repro.duality.result import (
    DecisionStats,
    DualityResult,
    FailureKind,
    dual_result,
    not_dual_result,
)
from repro.duality.tree import (
    DecompositionTree,
    Mark,
    NodeAttributes,
    TreeNode,
)


def majority_mask(h_masks) -> int:
    """``I_α`` as a mask: the bits set in more than half of ``h_masks``
    (a collection), from per-bit column counts."""
    threshold = len(h_masks) / 2.0
    return union_mask(
        bit for bit, count in column_counts(h_masks).items() if count > threshold
    )


def majority_vertices(h_restricted: Hypergraph) -> frozenset:
    """``I_α``: vertices occurring in more than ``|H_{S_α}|/2`` edges (step 1)."""
    family = h_restricted.bits()
    return family.index.decode(majority_mask(family.masks))


class MaskNodes:
    """The node step of ``T(G, H)`` on integer masks.

    Built once per instance: ``G`` and ``H`` become masks over one
    :class:`VertexIndex` (the shared universe that
    :func:`prepare_instance` gives both sides means their cached bitset
    views already agree), and every method takes a node's scope as a
    mask.  ``policy`` resolves the free choices: the paper policy's are
    ``min(…, key=mask_sort_key)`` over the candidates, any other policy
    is handed the decoded candidates in canonical order.  A policy equal
    to :data:`PAPER_POLICY` (e.g. an unpickled copy in a shard worker)
    counts as the paper policy.
    """

    __slots__ = ("index", "g_masks", "h_masks", "policy", "universe")

    def __init__(
        self, g: Hypergraph, h: Hypergraph, policy: TieBreakPolicy = PAPER_POLICY
    ) -> None:
        g_bits, h_bits = g.bits(), h.bits()
        if g_bits.index.vertices == h_bits.index.vertices:
            self.index = g_bits.index
            self.g_masks, self.h_masks = g_bits.masks, h_bits.masks
        else:
            self.index = VertexIndex(g.vertices | h.vertices)
            self.g_masks = tuple(self.index.encode(e) for e in g.edges)
            self.h_masks = tuple(self.index.encode(e) for e in h.edges)
        self.policy = PAPER_POLICY if policy == PAPER_POLICY else policy
        #: The root's scope ``V(G) ∪ V(H)``; the index may be wider.
        self.universe = self.index.encode(g.vertices | h.vertices)

    def decode(self, mask: int) -> frozenset:
        """The vertex set of a scope or witness mask."""
        return self.index.decode(mask) if mask else frozenset()

    def instance(self, scope: int) -> tuple[set[int], list[int]]:
        """``inst(α) = (G^S, H_S)`` as masks.

        ``G^S`` is a set — no step observes its order — and may hold the
        empty mask; ``H_S`` keeps ``H``'s canonical order.
        """
        return (
            set(map(scope.__and__, self.g_masks)),
            list(filterfalse((~scope).__and__, self.h_masks)),
        )

    def volume(self, scope: int) -> int:
        """``|G^S|·|H_S|``, without materialising the node instance."""
        g_s, h_s = self.instance(scope)
        return len(g_s) * len(h_s)

    def mark(self, scope: int) -> tuple[Mark, int]:
        """The ``(mark, t)`` a node at ``scope`` gets at its own expansion
        (``marksmall``, or the step-2 check); ``(NIL, 0)`` if interior."""
        mark, witness = self._finalize(scope, *self.instance(scope))
        return (mark, witness) if mark is not Mark.NIL else (Mark.NIL, 0)

    def step(self, scope: int) -> tuple[Mark, int | list[int]]:
        """The node at ``scope``: ``(mark, t)`` if it is a leaf, else
        ``(NIL, child scopes)`` in canonical order."""
        g_s, h_s = self.instance(scope)
        mark, witness = self._finalize(scope, g_s, h_s)
        if mark is not Mark.NIL:
            return mark, witness
        return mark, self._children(scope, g_s, h_s, witness)

    def expand(self, attrs: NodeAttributes) -> NodeAttributes | list[NodeAttributes]:
        """:func:`node_step` on this instance, decoding at the boundary."""
        return _as_attrs(attrs, *self.step(self.index.encode(attrs.scope)), self.decode)

    def _finalize(
        self, scope: int, g_s: set[int], h_s: list[int]
    ) -> tuple[Mark, int]:
        """The leaf rules; an interior node gets ``(NIL, I_α)``."""
        if len(h_s) > 1:
            # process steps 1-2: is I_α a new transversal of G^S w.r.t. H_S?
            i_alpha = majority_mask(h_s)
            if is_new_transversal_mask(i_alpha, g_s, h_s):
                return Mark.FAIL, i_alpha
            return Mark.NIL, i_alpha
        if not h_s:
            # case 2: some G-edge misses S entirely; case 1: S traverses G.
            return (Mark.DONE, 0) if 0 in g_s else (Mark.FAIL, scope)
        missing = [bit for bit in iter_bits(h_s[0]) if bit not in g_s]
        if not missing:
            return Mark.DONE, 0  # case 3: the lone H-edge is forced
        # case 4: drop an i ∈ H whose singleton is not in G^S.
        if self.policy is not PAPER_POLICY:
            vertices = [self.index.vertices[b.bit_length() - 1] for b in missing]
            missing = [self.index.bit(self.policy.vertex_choice(vertices))]
        return Mark.FAIL, scope & ~missing[0]

    def _children(
        self, scope: int, g_s: set[int], h_s: list[int], i_alpha: int
    ) -> list[int]:
        """``process`` steps 3-4: the child scopes, canonically ordered."""
        missed = [m for m in g_s if not m & i_alpha]
        if missed:
            # Step 3: a G-edge disjoint from I_α; every edge meeting it
            # spawns one child per shared vertex.
            g_edge = self._edge_choice(missed)
            scopes = {
                scope & ~(e & ~bit) for e in g_s for bit in iter_bits(e & g_edge)
            }
        else:
            # Step 4: an H-edge inside I_α.
            h_edge = self._edge_choice([m for m in h_s if m & i_alpha == m])
            scopes = {scope & ~bit for bit in iter_bits(h_edge)}
            scopes.add(h_edge)
        return sorted(scopes, key=mask_sort_key)

    def _edge_choice(self, masks: list[int]) -> int:
        if self.policy is PAPER_POLICY:
            return min(masks, key=mask_sort_key)
        ordered = sorted(masks, key=mask_sort_key)
        chosen = self.policy.edge_choice([self.index.decode(m) for m in ordered])
        return self.index.encode(chosen)


def marksmall(
    attrs: NodeAttributes,
    g: Hypergraph,
    h: Hypergraph,
    policy: TieBreakPolicy = PAPER_POLICY,
) -> NodeAttributes:
    """The paper's ``marksmall`` procedure, for nodes with ``|H_{S_α}| ≤ 1``.

    Returns the node with its final ``done``/``fail`` marking and
    witness set ``t(α)``.  ``policy`` resolves the case-4 free choice
    (the paper's default: smallest ``i``).  This is the ``frozenset``
    reference of :meth:`MaskNodes.mark`.
    """
    g_s, h_s = restriction_instance(g, h, attrs.scope)
    if len(h_s) > 1:
        raise ValueError("marksmall requires |H_S| <= 1")
    g_family = g_s.bits()
    empty_in_g = 0 in g_family

    if len(h_s) == 0 and not empty_in_g:
        # case 1: nothing left of H, yet S_α still traverses G.
        return NodeAttributes(attrs.label, attrs.scope, Mark.FAIL, attrs.scope)
    if len(h_s) == 0 and empty_in_g:
        # case 2: some G-edge misses S_α entirely — branch is consistent.
        return NodeAttributes(attrs.label, attrs.scope, Mark.DONE, frozenset())

    (h_edge,) = h_s.edges
    if all(g_family.index.bit(i) in g_family for i in h_edge):
        # case 3: the lone H-edge is forced vertex-by-vertex.
        return NodeAttributes(attrs.label, attrs.scope, Mark.DONE, frozenset())

    # case 4: drop an i ∈ H whose singleton is not in G^{S_α}
    # (paper default: the smallest such i).
    candidates = sorted(
        (i for i in h_edge if g_family.index.bit(i) not in g_family),
        key=vertex_key,
    )
    chosen = policy.vertex_choice(candidates)
    return NodeAttributes(
        attrs.label, attrs.scope, Mark.FAIL, attrs.scope - {chosen}
    )


def process_children(
    attrs: NodeAttributes,
    g: Hypergraph,
    h: Hypergraph,
    policy: TieBreakPolicy = PAPER_POLICY,
) -> NodeAttributes | list[frozenset]:
    """The paper's ``process`` procedure, for nodes with ``|H_{S_α}| ≥ 2``.

    Either the node turns out to be a ``fail`` leaf (step 2 — the
    majority set is a new transversal), in which case the marked
    :class:`NodeAttributes` is returned, or the list of child **scopes**
    ``C = {C₁, …, C_κ}`` is returned in canonical order.  This is the
    ``frozenset`` reference of :meth:`MaskNodes.expand`.
    """
    g_s, h_s = restriction_instance(g, h, attrs.scope)
    if len(h_s) < 2:
        raise ValueError("process requires |H_S| >= 2")
    scope = attrs.scope

    # Step 1: the majority vertex set.
    i_alpha = majority_vertices(h_s)

    # Step 2: is I_α a new transversal of G^{S_α} w.r.t. H_{S_α}?
    if is_new_transversal(i_alpha, g_s, h_s):
        return NodeAttributes(attrs.label, scope, Mark.FAIL, i_alpha)

    # Step 3: some G-edge disjoint from I_α (I_α not a transversal).
    g_family = g_s.bits()
    i_alpha_mask = g_family.index.encode_within(i_alpha)
    missed = [
        e
        for e, m in zip(g_s.edges, g_family.masks)
        if not m & i_alpha_mask
    ]
    if missed:
        g_edge = policy.edge_choice(missed)
        avoid_mask = g_family.index.encode(scope - g_edge)
        survivors = [
            e
            for e, m in zip(g_s.edges, g_family.masks)
            if m & avoid_mask != m
        ]
        scopes = {
            scope - (e - {i}) for e in survivors for i in (e & g_edge)
        }
        return sorted(scopes, key=sort_key)

    # Step 4: some H-edge inside I_α (I_α covers an H-edge).
    h_family = h_s.bits()
    covered_mask = h_family.index.encode_within(i_alpha)
    covered = [
        e
        for e, m in zip(h_s.edges, h_family.masks)
        if m & covered_mask == m
    ]
    h_edge = policy.edge_choice(covered)
    scopes = {scope - {i} for i in h_edge} | {h_edge}
    return sorted(scopes, key=sort_key)


def _reference_expand(
    scope: frozenset,
    g: Hypergraph,
    h: Hypergraph,
    policy: TieBreakPolicy = PAPER_POLICY,
) -> tuple[Mark, frozenset | list[frozenset]]:
    """:meth:`MaskNodes.step` on the ``frozenset`` procedures."""
    attrs = NodeAttributes((), scope, Mark.NIL, frozenset())
    _g_s, h_s = restriction_instance(g, h, scope)
    if len(h_s) <= 1:
        leaf = marksmall(attrs, g, h, policy)
        return leaf.mark, leaf.witness
    outcome = process_children(attrs, g, h, policy)
    if isinstance(outcome, NodeAttributes):
        return outcome.mark, outcome.witness
    return Mark.NIL, outcome


def _as_attrs(
    attrs: NodeAttributes, mark: Mark, outcome, decode
) -> NodeAttributes | list[NodeAttributes]:
    """A node step's outcome at ``attrs`` as :func:`node_step` returns it."""
    if mark is not Mark.NIL:
        return NodeAttributes(attrs.label, attrs.scope, mark, decode(outcome))
    return [
        NodeAttributes(attrs.child_label(i), decode(child), Mark.NIL, frozenset())
        for i, child in enumerate(outcome, start=1)
    ]


def node_step(g: Hypergraph, h: Hypergraph, policy: TieBreakPolicy = PAPER_POLICY):
    """One decomposition step on ``NodeAttributes``, bound to one
    instance: mark a node, or produce its children.

    :meth:`MaskNodes.expand`, or the ``frozenset`` procedures under
    ``use_bitset_kernels(False)``.  The shard planner and
    :func:`build_tree` expand nodes through it.
    """
    if bitset_kernels_enabled():
        return MaskNodes(g, h, policy).expand

    def reference(attrs: NodeAttributes) -> NodeAttributes | list[NodeAttributes]:
        return _as_attrs(attrs, *_reference_expand(attrs.scope, g, h, policy), frozenset)

    return reference


def build_tree(
    g: Hypergraph,
    h: Hypergraph,
    policy: TieBreakPolicy = PAPER_POLICY,
) -> DecompositionTree:
    """Materialise the full decomposition tree ``T(G, H)``.

    ``g`` and ``h`` must already satisfy the entry conditions
    (``G ⊆ tr(H)``, ``H ⊆ tr(G)``, shared universe); use
    :func:`decide_boros_makino` for arbitrary simple inputs.  ``policy``
    resolves the free choices — any policy is correct (Prop. 2.1); only
    tree size and witness identity vary (experiment E13).  Deciding
    needs none of this: :func:`walk_tree` visits the same nodes.
    """
    step = node_step(g, h, policy)
    universe = frozenset(g.vertices | h.vertices)
    root = TreeNode(NodeAttributes((), universe, Mark.NIL, frozenset()))
    frontier = [root]
    while frontier:
        node = frontier.pop()
        outcome = step(node.attrs)
        if isinstance(outcome, NodeAttributes):
            node.attrs = outcome
            continue
        node.children = [TreeNode(child) for child in outcome]
        frontier.extend(node.children)
    return DecompositionTree(g=g, h=h, root=root)


@dataclass
class TreeWalk:
    """What one walk over a subtree of ``T(G, H)`` reports.

    Depths are absolute (a label is the full path from the original
    root).  ``deepest`` is the first node in pre-order at ``max_depth``;
    ``fail`` is the first ``fail`` leaf in pre-order — the lowest label,
    since label order is pre-order — as ``(label, t(α))``, or ``None``.
    """

    nodes: int
    max_depth: int
    deepest: tuple[int, ...]
    max_children: int
    leaves: int
    fail: tuple[tuple[int, ...], frozenset] | None


def walk_tree(
    g: Hypergraph,
    h: Hypergraph,
    policy: TieBreakPolicy = PAPER_POLICY,
    label: tuple[int, ...] = (),
    scope: int | None = None,
) -> TreeWalk:
    """Walk the subtree of ``T(G, H)`` at ``label`` depth-first, in label
    order, without materialising it.

    ``scope`` is the subtree root's scope as a mask over
    ``MaskNodes(g, h).index`` (default: the whole tree's root).  Each
    node is finalised or expanded by :meth:`MaskNodes.step`, or by
    :func:`_reference_expand` under ``use_bitset_kernels(False)``; the
    walk keeps only a stack of ``(scope, label)`` pairs — the pending
    siblings along the current path — and decodes only the fail witness.
    """
    nodes = MaskNodes(g, h, policy)
    if scope is None:
        scope = nodes.universe
    if bitset_kernels_enabled():
        step, decode = nodes.step, nodes.decode
    else:
        step = partial(_reference_expand, g=g, h=h, policy=policy)
        scope, decode = nodes.decode(scope), frozenset
    count = leaves = max_children = 0
    max_depth, deepest, fail = len(label), label, None
    stack = [(scope, label)]
    pop, push = stack.pop, stack.extend
    nil, failed = Mark.NIL, Mark.FAIL
    while stack:
        scope, label = pop()
        count += 1
        if len(label) > max_depth:
            max_depth, deepest = len(label), label
        mark, outcome = step(scope)
        if mark is nil and outcome:
            kappa = len(outcome)
            if kappa > max_children:
                max_children = kappa
            # Pushed last-first, so child 1 is visited next (pre-order).
            push([(outcome[i - 1], label + (i,)) for i in range(kappa, 0, -1)])
            continue
        leaves += 1
        if mark is failed and fail is None:
            fail = (label, decode(outcome))
    return TreeWalk(count, max_depth, deepest, max_children, leaves, fail)


def tree_result(
    method: str,
    swapped: bool,
    stats: DecisionStats,
    fail: tuple[tuple[int, ...], frozenset] | None,
) -> DualityResult:
    """A tree decider's answer: dual iff there is no ``fail`` leaf, else
    the first fail leaf ``(label, t(α))`` gives the witness and the
    certificate path (``swapped`` names the witness direction)."""
    if fail is None:
        return dual_result(method, stats)
    label, witness = fail
    direction = "H wrt G" if swapped else "G wrt H"
    return not_dual_result(
        method,
        FailureKind.MISSING_TRANSVERSAL,
        witness=witness,
        detail=f"fail leaf {label}: new transversal of {direction}",
        path=label,
        stats=stats,
    )


def decide_boros_makino(
    g: Hypergraph,
    h: Hypergraph,
    enforce_size_order: bool = True,
    policy: TieBreakPolicy = PAPER_POLICY,
) -> DualityResult:
    """Decide duality via the Boros–Makino decomposition tree.

    Pipeline: entry check (``prepare_instance``) → optional side swap to
    restore the paper's ``|H| ≤ |G|`` assumption → one :func:`walk_tree`
    over the scope masks of ``T(G, H)`` (no tree is materialised) → all
    leaves ``done`` ⟺ dual (Proposition 2.1(1)).

    On failure, the first ``fail`` leaf (in canonical label order)
    provides the witness ``t(α)`` — a new transversal of the tree's
    ``G``-side w.r.t. its ``H``-side; ``stats.extra["swapped"]`` records
    whether the sides were exchanged (the witness direction flips with
    it).  The fail leaf's label is reported as the certificate path.
    The stats are the whole tree's: nodes, depth, largest branching and
    leaves.
    """
    method = "boros-makino"
    entry = prepare_instance(g, h)
    if not entry.ok:
        return not_dual_result(
            method, entry.failure, witness=entry.witness, detail=entry.detail
        )
    g_v, h_v = entry.g, entry.h

    swapped = enforce_size_order and len(h_v) > len(g_v)
    if swapped:
        g_v, h_v = h_v, g_v

    walk = walk_tree(g_v, h_v, policy)
    stats = DecisionStats(
        nodes=walk.nodes,
        max_depth=walk.max_depth,
        max_children=walk.max_children,
        base_cases=walk.leaves,
    )
    stats.extra["swapped"] = swapped

    return tree_result(method, swapped, stats, walk.fail)


def tree_for(
    g: Hypergraph,
    h: Hypergraph,
    policy: TieBreakPolicy = PAPER_POLICY,
) -> DecompositionTree:
    """Entry-checked tree construction (raises on invalid instances).

    Convenience for experiments that need the tree itself (depth and
    branching measurements); requires the instance to satisfy the entry
    conditions, i.e. to be a "genuine" ``H ⊆ tr(G)`` decomposition input.
    """
    entry = prepare_instance(g, h)
    if not entry.ok:
        raise ValueError(
            f"instance violates the decomposition entry conditions: {entry.detail}"
        )
    return build_tree(entry.g, entry.h, policy)
