"""Minimal transversals: definitions, checks, and exact computation.

Core notions from the paper (Section 1):

* A *transversal* of ``H`` is a subset of ``V(H)`` meeting every edge.
* A *minimal transversal* contains no other transversal.
* ``tr(H)`` is the simple hypergraph of all minimal transversals.
* Given ``G ⊆ tr(H)``, a **new transversal of H w.r.t. G** is a
  transversal of ``H`` containing **no** edge of ``G`` — the witness
  object produced by every non-duality certificate in the paper.

Degenerate conventions (consistent with reading hypergraphs as monotone
DNFs): ``tr(∅-edge-family) = {∅}`` and ``tr({∅}) = ∅-edge-family`` — the
dual of constant *false* is constant *true* and vice versa.

``tr()`` here is the Berge-multiplication reference implementation with
intermediate minimisation.  It is exponential in the worst case and is
the *ground truth* against which all sophisticated deciders are tested.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro._util import minimize_family, powerset, sort_key
from repro.core import (
    BitsetFamily,
    covers_none,
    is_minimal_transversal_mask,
    iter_bits,
    meets_all,
    transversal_masks,
)
from repro.hypergraph.hypergraph import Hypergraph


def is_transversal(candidate: Iterable, hg: Hypergraph) -> bool:
    """True iff ``candidate`` meets every edge of ``hg``.

    The empty set is a transversal of the empty hypergraph; nothing is a
    transversal of a hypergraph containing the empty edge.  Runs as one
    ``&``-test per edge on the bitset view; candidate vertices outside
    ``V(hg)`` cannot meet an edge and are ignored.
    """
    family = hg.bits()
    return meets_all(family.index.encode_within(candidate), family.masks)


def is_minimal_transversal(candidate: Iterable, hg: Hypergraph) -> bool:
    """True iff ``candidate`` is a transversal and no proper subset is.

    Minimality is checked via the classical *private vertex* criterion:
    a transversal ``T`` is minimal iff every ``v ∈ T`` has a *witness
    edge* ``E`` with ``T ∩ E = {v}``.  This is linear in the instance
    size, unlike testing all subsets.
    """
    cand = frozenset(candidate)
    family = hg.bits()
    index = family.index
    if any(v not in index for v in cand):
        # A vertex outside V(hg) occurs in no edge, so it can have no
        # witness edge — the set is not a minimal transversal.
        return False
    return is_minimal_transversal_mask(index.encode(cand), family.masks)


def is_new_transversal(
    candidate: Iterable, hg: Hypergraph, known: Hypergraph
) -> bool:
    """True iff ``candidate`` is a transversal of ``hg`` containing no edge of ``known``.

    This is the witness predicate of the paper: a new transversal of
    ``G`` with respect to ``H`` proves ``H ≠ tr(G)`` (Section 1).
    """
    cand = frozenset(candidate)
    if not is_transversal(cand, hg):
        return False
    known_family = known.bits()
    return covers_none(
        known_family.index.encode_within(cand), known_family.masks
    )


def minimalize_transversal(candidate: Iterable, hg: Hypergraph) -> frozenset:
    """Shrink a transversal to a minimal one by greedy vertex elimination.

    This is the polynomial-time post-processing discussed after
    Corollary 4.1: starting from ``t``, successively remove vertices
    whose removal keeps the set a transversal.  The paper notes this
    pass needs *linear* space in ``|V|`` (to remember removals), which
    is why the quadratic-logspace bound covers the non-minimal witness
    only.  Vertices are scanned in canonical order so the result is
    deterministic (ascending bit position *is* canonical vertex order;
    vertices outside ``V(hg)`` never affect transversality, so the
    greedy scan always removes them).
    """
    family = hg.bits()
    index = family.index
    mask = index.encode_within(candidate)
    if not meets_all(mask, family.masks):
        raise ValueError("minimalize_transversal needs a transversal to start from")
    for bit in iter_bits(mask):
        trial = mask & ~bit
        if meets_all(trial, family.masks):
            mask = trial
    return index.decode(mask)


def transversal_hypergraph(
    hg: Hypergraph, order: str = "canonical", impl: str = "bitset"
) -> Hypergraph:
    """Compute ``tr(hg)`` exactly by Berge multiplication.

    Processes edges one at a time, maintaining the minimal transversals
    of the prefix family; each step "multiplies" the current family by
    the next edge and re-minimises.  Worst-case exponential, but exact —
    this function defines correctness for every other decider in the
    repository.

    ``order`` selects the multiplication order — an ablation knob for
    the intermediate-blow-up experiments (the *result* is always the
    same):

    * ``"canonical"`` — the library's canonical edge order (default);
    * ``"small-first"`` / ``"large-first"`` — by edge size;
    * ``"interleaved"`` — alternate smallest/largest remaining.

    ``impl`` selects the inner-loop representation: ``"bitset"`` runs
    the multiplication on integer masks (the fast path), ``"frozenset"``
    on frozensets (the reference the bitset path is tested against).
    Both produce the identical hypergraph.

    The result's universe equals ``hg``'s universe.
    """
    if impl == "frozenset":
        return transversal_hypergraph_reference(hg, order)
    if impl != "bitset":
        raise ValueError(f"unknown impl {impl!r}; choose bitset or frozenset")
    if hg.is_trivial_true():
        return Hypergraph.empty(hg.vertices)
    index = hg.bits().index
    masks = transversal_masks(
        index.encode(edge) for edge in _multiplication_order(hg, order)
    )
    family = BitsetFamily(index, masks, canonical=True)
    result = Hypergraph._from_canonical(family.decode(), hg.vertices)
    result._bits = family
    return result


def transversal_hypergraph_reference(
    hg: Hypergraph, order: str = "canonical"
) -> Hypergraph:
    """The original frozenset-domain Berge multiplication.

    Kept callable as the equivalence oracle for the bitset kernel (the
    randomized property tests assert both paths agree edge-for-edge) and
    as the "before" side of the performance harness.
    """
    if hg.is_trivial_true():
        return Hypergraph.empty(hg.vertices)
    current: frozenset[frozenset] = frozenset((frozenset(),))
    for edge in _multiplication_order(hg, order):
        expanded: set[frozenset] = set()
        for partial in current:
            if partial & edge:
                expanded.add(partial)
            else:
                for v in edge:
                    expanded.add(partial | {v})
        current = minimize_family(expanded)
    return Hypergraph(current, vertices=hg.vertices)


def _multiplication_order(hg: Hypergraph, order: str) -> list[frozenset]:
    """The Berge processing order for :func:`transversal_hypergraph`."""
    edges = list(hg.edges)
    if order == "canonical":
        return edges
    if order == "small-first":
        return sorted(edges, key=lambda e: (len(e),) + sort_key(e))
    if order == "large-first":
        return sorted(edges, key=lambda e: (-len(e),) + sort_key(e))
    if order == "interleaved":
        by_size = sorted(edges, key=lambda e: (len(e),) + sort_key(e))
        out: list[frozenset] = []
        lo, hi = 0, len(by_size) - 1
        while lo <= hi:
            out.append(by_size[lo])
            lo += 1
            if lo <= hi:
                out.append(by_size[hi])
                hi -= 1
        return out
    raise ValueError(
        f"unknown multiplication order {order!r}; choose canonical, "
        f"small-first, large-first or interleaved"
    )


def berge_peak_intermediate(hg: Hypergraph, order: str = "canonical") -> int:
    """The largest intermediate family during Berge multiplication.

    The quantity the ordering ablation (experiment E14) measures: how
    the multiplication order inflates or contains the intermediate
    transversal families, independent of the (fixed) final result.
    """
    if hg.is_trivial_true():
        return 0
    from repro.core import berge_step

    index = hg.bits().index
    current: tuple[int, ...] = (0,)
    peak = 1
    for edge in _multiplication_order(hg, order):
        current = berge_step(current, index.encode(edge))
        peak = max(peak, len(current))
    return peak


def minimal_transversals(hg: Hypergraph) -> Iterator[frozenset]:
    """Iterate the minimal transversals in canonical order.

    Materialises ``tr(hg)`` (Berge) and yields its edges; exists so that
    callers expressing "enumerate tr(H)" read naturally.
    """
    yield from transversal_hypergraph(hg).edges


def transversals_brute_force(hg: Hypergraph) -> Hypergraph:
    """``tr(hg)`` by scanning the entire powerset of the universe.

    Doubly exponential guardrail used only in tests to validate the
    Berge implementation on tiny instances (``|V| ≤ ~12``).
    """
    minimal = [
        subset
        for subset in powerset(hg.vertices)
        if is_minimal_transversal(subset, hg)
    ]
    return Hypergraph(minimal, vertices=hg.vertices)


def find_new_transversal_brute_force(
    hg: Hypergraph, known: Hypergraph
) -> frozenset | None:
    """Smallest new transversal of ``hg`` w.r.t. ``known`` or ``None``.

    Reference witness-finder (powerset scan, tests only).
    """
    for subset in powerset(hg.vertices):
        if is_new_transversal(subset, hg, known):
            return subset
    return None


def independent_sets_complement(hg: Hypergraph) -> Hypergraph:
    """The complements of maximal independent sets, i.e. ``tr(H)`` restated.

    A set ``T`` is a minimal transversal of ``H`` iff ``V − T`` is a
    *maximal independent set* (contains no edge, maximal with that
    property).  Exposed because the itemset bridge (Section 1) is this
    statement with "independent" read as "frequent".
    """
    return transversal_hypergraph(hg)


def maximal_independent_sets(hg: Hypergraph) -> Hypergraph:
    """All maximal edge-free subsets of the universe.

    Computed as complements of minimal transversals; the pair
    (:func:`maximal_independent_sets`, ``tr``) is the abstract version of
    (maximal frequent itemsets, minimal infrequent itemsets).
    """
    scope = hg.vertices
    return Hypergraph(
        (scope - t for t in transversal_hypergraph(hg).edges),
        vertices=scope,
    )


def self_transversal(hg: Hypergraph) -> bool:
    """True iff ``tr(H) = H`` — the non-dominated coterie criterion (Prop. 1.3)."""
    simple = hg.minimized()
    return transversal_hypergraph(simple) == simple


def cross_intersecting(g: Hypergraph, h: Hypergraph) -> bool:
    """True iff every edge of ``g`` meets every edge of ``h``.

    Necessary for duality: each minimal transversal must meet each edge.
    """
    return all(ge & he for ge in g.edges for he in h.edges)


def ordered_edges_by_canonical(edges: Iterable[frozenset]) -> list[frozenset]:
    """Sort edges by the library-wide canonical key (size, then lex)."""
    return sorted(edges, key=sort_key)
