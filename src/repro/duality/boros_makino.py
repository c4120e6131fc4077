"""The Boros–Makino decomposition method (paper, Section 2).

A node of ``T(G, H)`` is fully described by its scope ``S_α``: the node
instance ``(G^{S_α}, H_{S_α})`` is a projection and restriction of the
original input, and the paper's two procedures — ``marksmall`` (for
leaves with ``|H_{S_α}| ≤ 1``) and ``process`` (the majority-vertex
expansion step) — only count, intersect and compare its edges.
:class:`MaskNodes` runs both on integer masks over one
:class:`~repro.core.VertexIndex`: a scope is one ``int``, ``G^S`` the set
``{E & S}`` and ``H_S`` the ``H`` masks inside ``S``.  It is the node
step of every tree engine — the tree builder here, the logspace ``next``
of Section 4, the guess-and-check walk of Section 5, and the shard
planner and runners — and scopes and witnesses become vertex sets only
where they leave it, in :class:`~repro.duality.tree.NodeAttributes`.

:func:`marksmall` and :func:`process_children` transcribe the same
procedures line by line over ``frozenset`` instances built by
:func:`~repro.hypergraph.operations.restriction_instance`.  They are the
reference that ``use_bitset_kernels(False)`` selects, so the kernel
always has an independent program to be compared against.

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

from functools import partial

from repro._util import sort_key, vertex_key
from repro.core import (
    VertexIndex,
    is_new_transversal_mask,
    iter_bits,
    mask_sort_key,
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
    """``I_α`` as a mask: the bits set in more than half of ``h_masks``.

    One pass counting per-bit occurrences — ``O(Σ|E|)``.
    """
    threshold = len(h_masks) / 2.0
    counts: dict[int, int] = {}
    for mask in h_masks:
        for bit in iter_bits(mask):
            counts[bit] = counts.get(bit, 0) + 1
    majority = 0
    for bit, count in counts.items():
        if count > threshold:
            majority |= bit
    return majority


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

    __slots__ = ("index", "g_masks", "h_masks", "policy")

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

    def decode(self, mask: int) -> frozenset:
        """The vertex set of a scope or witness mask."""
        return self.index.decode(mask) if mask else frozenset()

    def instance(self, scope: int) -> tuple[set[int], list[int]]:
        """``inst(α) = (G^S, H_S)`` as masks.

        ``G^S`` is a set — no step observes its order — and may hold the
        empty mask; ``H_S`` keeps ``H``'s canonical order.
        """
        return (
            {m & scope for m in self.g_masks},
            [m for m in self.h_masks if m & scope == m],
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

    def expand(self, attrs: NodeAttributes) -> NodeAttributes | list[NodeAttributes]:
        """:func:`expand` on this instance, decoding at the boundary."""
        scope = self.index.encode(attrs.scope)
        g_s, h_s = self.instance(scope)
        mark, witness = self._finalize(scope, g_s, h_s)
        if mark is not Mark.NIL:
            return NodeAttributes(attrs.label, attrs.scope, mark, self.decode(witness))
        children = self._children(scope, g_s, h_s, witness)
        return [
            NodeAttributes(attrs.child_label(i), self.decode(c), Mark.NIL, frozenset())
            for i, c in enumerate(children, start=1)
        ]

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
    attrs: NodeAttributes,
    g: Hypergraph,
    h: Hypergraph,
    policy: TieBreakPolicy = PAPER_POLICY,
) -> NodeAttributes | list[NodeAttributes]:
    """:func:`expand` on the ``frozenset`` procedures."""
    _g_s, h_s = restriction_instance(g, h, attrs.scope)
    if len(h_s) <= 1:
        return marksmall(attrs, g, h, policy)
    outcome = process_children(attrs, g, h, policy)
    if isinstance(outcome, NodeAttributes):
        return outcome
    return [
        NodeAttributes(attrs.child_label(i), child_scope, Mark.NIL, frozenset())
        for i, child_scope in enumerate(outcome, start=1)
    ]


def node_step(g: Hypergraph, h: Hypergraph, policy: TieBreakPolicy = PAPER_POLICY):
    """:func:`expand` bound to one instance, for callers that expand many
    of its nodes: :meth:`MaskNodes.expand`, or the ``frozenset``
    reference under ``use_bitset_kernels(False)``."""
    if bitset_kernels_enabled():
        return MaskNodes(g, h, policy).expand
    return partial(_reference_expand, g=g, h=h, policy=policy)


def expand(
    attrs: NodeAttributes,
    g: Hypergraph,
    h: Hypergraph,
    policy: TieBreakPolicy = PAPER_POLICY,
) -> NodeAttributes | list[NodeAttributes]:
    """One decomposition step at a node: mark it, or produce its children.

    This is the building block the logspace ``next`` procedure of
    Section 4 wraps: everything it does is edge-counting, set
    intersection and comparisons — logspace operations.  It runs on
    :class:`MaskNodes` unless ``use_bitset_kernels(False)`` selects the
    ``frozenset`` procedures.
    """
    return node_step(g, h, policy)(attrs)


def grow_subtree(
    attrs: NodeAttributes,
    g: Hypergraph,
    h: Hypergraph,
    policy: TieBreakPolicy = PAPER_POLICY,
) -> TreeNode:
    """Materialise the subtree of ``T(G, H)`` rooted at the node ``attrs``."""
    step = node_step(g, h, policy)
    root = TreeNode(attrs)
    frontier = [root]
    while frontier:
        node = frontier.pop()
        outcome = step(node.attrs)
        if isinstance(outcome, NodeAttributes):
            node.attrs = outcome
            continue
        node.children = [TreeNode(child) for child in outcome]
        frontier.extend(node.children)
    return root


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
    tree size and witness identity vary (experiment E13).
    """
    universe = frozenset(g.vertices | h.vertices)
    root_attrs = NodeAttributes((), universe, Mark.NIL, frozenset())
    return DecompositionTree(g=g, h=h, root=grow_subtree(root_attrs, g, h, policy))


def decide_boros_makino(
    g: Hypergraph,
    h: Hypergraph,
    enforce_size_order: bool = True,
    policy: TieBreakPolicy = PAPER_POLICY,
) -> DualityResult:
    """Decide duality via the full Boros–Makino decomposition tree.

    Pipeline: entry check (``prepare_instance``) → optional side swap to
    restore the paper's ``|H| ≤ |G|`` assumption → build ``T(G, H)`` →
    all leaves ``done`` ⟺ dual (Proposition 2.1(1)).

    On failure, the first ``fail`` leaf (in canonical label order)
    provides the witness ``t(α)`` — a new transversal of the tree's
    ``G``-side w.r.t. its ``H``-side; ``stats.extra["swapped"]`` records
    whether the sides were exchanged (the witness direction flips with
    it).  The fail leaf's label is reported as the certificate path.
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

    tree = build_tree(g_v, h_v, policy)
    stats = DecisionStats(
        nodes=tree.node_count(),
        max_depth=tree.depth(),
        max_children=tree.max_branching(),
        base_cases=sum(1 for _ in tree.leaves()),
    )
    stats.extra["swapped"] = swapped

    fails = tree.fail_leaves()
    if not fails:
        return dual_result(method, stats)
    first_fail = min(fails, key=lambda n: n.attrs.label)
    direction = "H wrt G" if swapped else "G wrt H"
    return not_dual_result(
        method,
        FailureKind.MISSING_TRANSVERSAL,
        witness=first_fail.attrs.witness,
        detail=f"fail leaf {first_fail.attrs.label}: new transversal of {direction}",
        path=first_fail.attrs.label,
        stats=stats,
    )


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
