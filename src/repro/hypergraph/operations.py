"""Hypergraph operations used throughout the paper.

The two restriction operators are exactly the ones the Boros–Makino
decomposition applies at every tree node (paper, Section 2, item (iii)):

* projection      ``G^S   = {E ∩ S | E ∈ G}``       (:func:`project`)
* sub-hypergraph  ``H_S   = {E ∈ H | E ⊆ S}``       (:func:`restrict_to_subsets`)

and the complement family from the itemset bridge (Section 1):

* ``A^c = {S − A | A ∈ A}``                          (:func:`complement_family`)
"""

from __future__ import annotations

from collections.abc import Iterable

from repro._util import minimize_family
from repro.core import BitsetFamily, mask_sort_key
from repro.errors import VertexError
from repro.hypergraph.hypergraph import Hypergraph

#: When True (the default), the restriction operators and the tree
#: engines' node step run on masks.  :func:`use_bitset_kernels` flips it —
#: the perf harness uses the switch to measure the frozenset path
#: "before" the refactor without checking out old code.
_USE_BITSET = True


def use_bitset_kernels(enabled: bool) -> bool:
    """Enable/disable the mask fast path of :func:`project`,
    :func:`restrict_to_subsets` and :func:`contract`, and the mask node
    kernel of the tree engines (:class:`repro.duality.boros_makino.MaskNodes`);
    returns the previous setting.

    Both paths produce identical results — this exists for the
    equivalence tests and the before/after benchmark harness only.
    """
    global _USE_BITSET
    previous = _USE_BITSET
    _USE_BITSET = enabled
    return previous


def bitset_kernels_enabled() -> bool:
    """The current :func:`use_bitset_kernels` setting."""
    return _USE_BITSET


def project(hg: Hypergraph, onto: Iterable) -> Hypergraph:
    """The projection ``G^S = {E ∩ S : E ∈ G}`` over universe ``S``.

    The result may be non-simple and may contain the empty edge even if
    ``hg`` is simple — the Boros–Makino procedures rely on both facts
    (``marksmall`` explicitly tests ``∅ ∈ G^{S_α}``), so *no*
    minimisation is applied here.

    The decomposition engines derive each node's ``G^S`` on masks
    (:class:`repro.duality.boros_makino.MaskNodes`); this operator is
    their ``frozenset`` reference.  Its fast path intersects masks and
    sorts by the mask key instead of paying a ``frozenset`` intersection
    plus ``sort_key`` per edge.
    """
    scope = frozenset(onto)
    if not scope <= hg.vertices:
        raise VertexError("projection scope must be a subset of the universe")
    if not _USE_BITSET:
        return Hypergraph((edge & scope for edge in hg.edges), vertices=scope)
    family = hg.bits()
    index = family.index
    scope_mask = index.encode(scope)
    projected = sorted(
        {mask & scope_mask for mask in family.masks}, key=mask_sort_key
    )
    result = Hypergraph._from_canonical(
        tuple(index.decode(mask) for mask in projected), scope
    )
    # Share the parent's index: restricting the same hypergraph many
    # times must not rebuild a VertexIndex per call.
    result._bits = BitsetFamily(index, tuple(projected), canonical=True)
    return result


def restrict_to_subsets(hg: Hypergraph, within: Iterable) -> Hypergraph:
    """The sub-hypergraph ``H_S = {E ∈ H : E ⊆ S}`` over universe ``S``.

    The fast path filters with one submask test per edge; the surviving
    edges are reused as-is (already canonical, already deduplicated).
    """
    scope = frozenset(within)
    if not scope <= hg.vertices:
        raise VertexError("restriction scope must be a subset of the universe")
    if not _USE_BITSET:
        return Hypergraph(
            (edge for edge in hg.edges if edge <= scope), vertices=scope
        )
    family = hg.bits()
    scope_mask = family.index.encode(scope)
    kept_pairs = [
        (edge, mask)
        for edge, mask in zip(hg.edges, family.masks)
        if mask & scope_mask == mask
    ]
    result = Hypergraph._from_canonical(
        tuple(edge for edge, _mask in kept_pairs), scope
    )
    result._bits = BitsetFamily(
        family.index, tuple(mask for _edge, mask in kept_pairs), canonical=True
    )
    return result


def complement_family(hg: Hypergraph, universe: Iterable | None = None) -> Hypergraph:
    """The complement family ``A^c = {U − A : A ∈ A}`` over universe ``U``.

    The paper (Section 1) uses this to relate itemset borders:
    ``IS⁻ = tr(IS⁺ᶜ)``.  When ``universe`` is omitted the hypergraph's own
    universe is used.  Complementation is an involution over a fixed
    universe and maps antichains of maximal sets to antichains of minimal
    sets (and vice versa).
    """
    scope = frozenset(universe) if universe is not None else hg.vertices
    if not hg.vertices <= scope:
        raise VertexError("complement universe must contain all vertices")
    return Hypergraph((scope - edge for edge in hg.edges), vertices=scope)


def contract(hg: Hypergraph, removed: Iterable) -> Hypergraph:
    """Delete the vertices in ``removed`` from every edge, then minimise.

    This is the *contraction* ``{min(E − X) : E ∈ H}`` used by the
    Fredman–Khachiyan style decompositions (e.g. forming ``g₀`` with a
    term's variables forced true).  Unlike :func:`project`, the result is
    minimised, because contraction is used where a simple DNF is needed.
    """
    gone = frozenset(removed)
    kept_universe = hg.vertices - gone
    if not _USE_BITSET:
        return Hypergraph(
            minimize_family(edge - gone for edge in hg.edges),
            vertices=kept_universe,
        )
    from repro.core import minimalize_masks

    family = hg.bits()
    index = family.index
    keep_mask = index.full_mask & ~index.encode_within(gone)
    contracted = minimalize_masks(mask & keep_mask for mask in family.masks)
    result = Hypergraph._from_canonical(
        tuple(index.decode(mask) for mask in contracted), kept_universe
    )
    result._bits = BitsetFamily(index, contracted, canonical=True)
    return result


def delete_edges_meeting(hg: Hypergraph, blocker: Iterable) -> Hypergraph:
    """Keep only the edges disjoint from ``blocker`` (universe unchanged)."""
    block = frozenset(blocker)
    return Hypergraph(
        (edge for edge in hg.edges if not edge & block),
        vertices=hg.vertices,
    )


def union(first: Hypergraph, second: Hypergraph) -> Hypergraph:
    """Edge-union over the union of the universes (no minimisation)."""
    return Hypergraph(
        tuple(first.edges) + tuple(second.edges),
        vertices=first.vertices | second.vertices,
    )


def minimized_union(first: Hypergraph, second: Hypergraph) -> Hypergraph:
    """``min(F ∪ G)`` — the simple hypergraph of the combined family.

    This is the hypergraph counterpart of taking the irredundant DNF of
    ``f ∨ g``; the decompositions use it to form ``g₀ ∨ g₁``.
    """
    return union(first, second).minimized()


def restriction_instance(
    g: Hypergraph, h: Hypergraph, scope: frozenset
) -> tuple[Hypergraph, Hypergraph]:
    """The node instance ``inst(α) = (G^{S_α}, H_{S_α})`` of Section 2.

    ``g`` and ``h`` are the *original* input hypergraphs; the instance at
    a decomposition-tree node is fully determined by its scope ``S_α``,
    which is what makes the logspace re-derivation of Section 4 possible.
    """
    return project(g, scope), restrict_to_subsets(h, scope)


def disjoint_relabel(
    hypergraphs: Iterable[Hypergraph],
) -> list[Hypergraph]:
    """Relabel the given hypergraphs so their universes become disjoint.

    Vertex ``v`` of the ``i``-th hypergraph becomes the pair ``(i, v)``.
    Used by generators that combine building blocks (e.g. unions of dual
    pairs stay dual when the blocks live on disjoint universes).
    """
    out: list[Hypergraph] = []
    for index, hg in enumerate(hypergraphs):
        mapping = {v: (index, v) for v in hg.vertices}
        out.append(
            Hypergraph(
                (frozenset(mapping[v] for v in edge) for edge in hg.edges),
                vertices=frozenset(mapping.values()),
            )
        )
    return out


def relabel(hg: Hypergraph, mapping: dict) -> Hypergraph:
    """Apply an injective vertex relabelling given by ``mapping``."""
    missing = hg.vertices - mapping.keys()
    if missing:
        raise VertexError(f"mapping misses vertices: {sorted(map(repr, missing))}")
    values = list(mapping[v] for v in hg.vertices)
    if len(set(values)) != len(values):
        raise VertexError("relabelling must be injective on the universe")
    return Hypergraph(
        (frozenset(mapping[v] for v in edge) for edge in hg.edges),
        vertices=frozenset(values),
    )
