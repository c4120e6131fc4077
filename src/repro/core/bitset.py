"""Integer bitmask kernels: the hot loops of the library in the mask domain.

A hyperedge over an indexed universe is one Python ``int``; a family of
edges is a tuple of ints.  Every kernel here is the mask-domain twin of a
``frozenset`` operation elsewhere in the library, with the *same*
deterministic ordering guarantees:

==============================  =========================================
set domain                      mask domain
==============================  =========================================
``u <= e``                      ``u & e == u``
``u & e`` (non-empty?)          ``u & e`` (non-zero?)
``len(e)``                      ``e.bit_count()``
``sort_key(e)``                 :func:`mask_sort_key`: popcount, then the
                                LSB-first binary digits with 0↔1 swapped
``minimize_family``             :func:`minimalize_masks`
``is_antichain``                :func:`masks_are_antichain`
``transversal_hypergraph``      :func:`transversal_masks`
==============================  =========================================

The equivalence of the two orderings is exactly the :class:`VertexIndex`
invariant: bit positions ascend with ``vertex_key``, so comparing sorted
bit-position tuples is comparing sorted vertex-key tuples.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator
from functools import reduce
from operator import or_

from repro.core.vertex_index import VertexIndex


def popcount(mask: int) -> int:
    """Number of set bits (edge cardinality in the mask domain)."""
    return mask.bit_count()


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the single-bit masks of ``mask``, lowest position first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def iter_positions(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def union_mask(masks: Iterable[int]) -> int:
    """The bitwise OR of a family: the vertices it mentions."""
    return reduce(or_, masks, 0)


def column_counts(masks: Collection[int], bits: int | None = None) -> dict[int, int]:
    """How many masks hold each bit of ``bits`` (default: the family's
    union), keyed by single-bit mask in ascending position.

    One C-level scan per column: ``sum(bit & m)`` is ``count · bit``.
    """
    if bits is None:
        bits = union_mask(masks)
    return {
        bit: sum(map(bit.__and__, masks)) >> (bit.bit_length() - 1)
        for bit in iter_bits(bits)
    }


#: ``str.translate`` table swapping the binary digits.
_FLIP_DIGITS = str.maketrans("01", "10")


def mask_sort_key(mask: int) -> tuple[int, str]:
    """The canonical edge order, in the mask domain.

    ``(popcount, ascending bit positions)`` orders edges exactly as
    :func:`repro._util.sort_key` orders the decoded edges whenever all
    masks come from one :class:`VertexIndex`.  For equal popcounts that
    order is decided by the lowest differing bit (the mask holding it
    comes first), so the key compares the binary digits lowest bit first,
    with 0 and 1 swapped: ``bin(m)[:1:-1]`` reversed, translated.  Two
    distinct masks of equal popcount never give strings where one is a
    prefix of the other, so no tuple of positions is built.
    """
    return (mask.bit_count(), bin(mask)[:1:-1].translate(_FLIP_DIGITS))


def sorted_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """Deduplicate and canonically order a family of masks."""
    return tuple(sorted(set(masks), key=mask_sort_key))


def is_submask(small: int, big: int) -> bool:
    """``small ⊆ big`` as masks."""
    return small & big == small


def antichain_minima(masks: Iterable[int]) -> list[int]:
    """Inclusion-minimal members, in ascending-popcount order.

    A popcount sort suffices for the subset scan (a proper submask has a
    strictly smaller popcount, and equal-popcount distinct masks are
    incomparable); the cheaper key is what keeps the Berge inner loop
    fast, so only the public wrapper pays for full canonical ordering.
    """
    unique = sorted(set(masks), key=int.bit_count)
    kept: list[int] = []
    for mask in unique:
        # ``other ⊆ mask`` ⇔ ``other & ~mask == 0``.
        if all(map((~mask).__and__, kept)):
            kept.append(mask)
    return kept


def minimalize_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """The inclusion-minimal members of a family, canonically ordered.

    Mask-domain twin of :func:`repro._util.minimize_family` (which
    returns an unordered ``frozenset``).
    """
    return tuple(sorted(antichain_minima(masks), key=mask_sort_key))


def maximalize_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """The inclusion-maximal members of a family, canonically ordered."""
    unique = sorted(set(masks), key=mask_sort_key, reverse=True)
    kept: list[int] = []
    for mask in unique:
        if not any(mask & other == mask for other in kept):
            kept.append(mask)
    return tuple(sorted(kept, key=mask_sort_key))


def masks_are_antichain(masks: Iterable[int]) -> bool:
    """True iff no mask of the family is contained in another one.

    A proper submask has a strictly smaller popcount, so each mask is
    only tested against the lower popcount levels — a uniform family
    costs one pass.
    """
    levels: dict[int, list[int]] = {}
    for mask in set(masks):
        levels.setdefault(mask.bit_count(), []).append(mask)
    smaller: list[int] = []
    for size in sorted(levels):
        level = levels[size]
        if smaller:
            for big in level:
                if not all(map((~big).__and__, smaller)):
                    return False
        smaller += level
    return True


def meets_all(candidate: int, masks: Iterable[int]) -> bool:
    """Transversality: does ``candidate`` intersect every mask?

    Matches the set-domain convention: an empty mask in the family makes
    the answer ``False``, an empty family makes it ``True``.
    """
    return all(map(candidate.__and__, masks))


def covers_none(candidate: int, masks: Iterable[int]) -> bool:
    """True iff no mask of the family is contained in ``candidate``."""
    return all(map((~candidate).__and__, masks))


def is_new_transversal_mask(
    candidate: int, g_masks: Iterable[int], h_masks: Iterable[int]
) -> bool:
    """The paper's witness predicate in the mask domain.

    ``candidate`` meets every edge of ``G`` and covers no edge of ``H``.
    """
    return meets_all(candidate, g_masks) and covers_none(candidate, h_masks)


def is_minimal_transversal_mask(candidate: int, masks: Iterable[int]) -> bool:
    """Is ``candidate`` a minimal transversal of the family?

    One pass collects the traces ``candidate & E``: the candidate is a
    transversal iff no trace is empty, and minimal (private-vertex
    criterion) iff every bit of it is some edge's whole trace.
    """
    hits = set(map(candidate.__and__, masks))
    return 0 not in hits and hits.issuperset(iter_bits(candidate))


def transversal_masks(edge_masks: Iterable[int]) -> tuple[int, ...]:
    """``tr`` by Berge multiplication, entirely in the mask domain.

    Multiplies edges in the given order with intermediate minimalisation;
    the result is the canonical (popcount-then-lex) ordering of the
    minimal transversal masks.  ``tr(∅) = (0,)`` and ``tr({∅}) = ()`` per
    the Boolean-constant conventions.  Intermediate families stay in
    ascending-popcount order; only the final family pays the canonical
    sort.
    """
    current: list[int] = [0]
    for edge in edge_masks:
        if edge == 0:
            return ()
        current = _berge_expand_minimize(current, edge)
    return tuple(sorted(current, key=mask_sort_key))


def _berge_expand_minimize(current: Iterable[int], edge: int) -> list[int]:
    """One Berge step on an antichain ``current`` (ascending popcount).

    Exploits the step's structure instead of re-minimising from scratch:

    * partials already meeting the edge (``keep``) stay minimal — none
      can contain an extended partial ``p|bit`` (that would need
      ``p ⊂ a``, impossible in an antichain);
    * an extended partial has ``cand & edge == bit`` (its parent missed
      the edge), so any member contained in it must itself contain that
      one bit — containment checks split into per-bit buckets.
    """
    bits = tuple(iter_bits(edge))
    keep: list[int] = []
    misses: list[int] = []
    for partial in current:
        (keep if partial & edge else misses).append(partial)
    if not misses:
        return keep
    candidates: set[int] = set()
    for partial in misses:
        for bit in bits:
            candidates.add(partial | bit)
    bucket: dict[int, list[int]] = {
        bit: [a for a in keep if a & bit] for bit in bits
    }
    accepted: list[int] = []
    for cand in sorted(candidates, key=int.bit_count):
        bit = cand & edge
        owners = bucket[bit]
        if any(member & cand == member for member in owners):
            continue
        owners.append(cand)
        accepted.append(cand)
    return sorted(keep + accepted, key=int.bit_count)


def berge_step(current: Iterable[int], edge: int) -> tuple[int, ...]:
    """One Berge multiplication step: ``min(current × edge)``.

    ``current`` must be an antichain in ascending-popcount order — i.e.
    the start family ``(0,)`` or the output of a previous step.  Exposed
    separately so incremental deciders can instrument the intermediate
    family sizes between steps; the returned family is in
    ascending-popcount order (canonical ordering is deferred to whoever
    materialises a hypergraph from the final family).
    """
    return tuple(_berge_expand_minimize(current, edge))


class BitsetFamily:
    """An edge family as canonical masks over a shared :class:`VertexIndex`.

    The masks are stored deduplicated in canonical (popcount-then-lex)
    order, so iteration is popcount-ordered and ``decode()`` reproduces
    the :class:`repro.hypergraph.Hypergraph` canonical edge order
    exactly.
    """

    __slots__ = ("index", "masks", "_mask_set")

    def __init__(
        self,
        index: VertexIndex,
        masks: Iterable[int],
        *,
        canonical: bool = False,
    ) -> None:
        self.index = index
        self.masks: tuple[int, ...] = (
            tuple(masks) if canonical else sorted_masks(masks)
        )
        self._mask_set: frozenset[int] | None = None

    @classmethod
    def from_sets(
        cls, edges: Iterable[Iterable], universe: Iterable | None = None
    ) -> "BitsetFamily":
        """Build from vertex collections (universe defaults to their union)."""
        edge_list = [frozenset(e) for e in edges]
        if universe is None:
            scope: set = set()
            for e in edge_list:
                scope |= e
            universe = scope
        index = VertexIndex(universe)
        return cls(index, (index.encode(e) for e in edge_list))

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[int]:
        return iter(self.masks)

    def __contains__(self, mask: int) -> bool:
        if self._mask_set is None:
            self._mask_set = frozenset(self.masks)
        return mask in self._mask_set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitsetFamily):
            return NotImplemented
        return (
            self.masks == other.masks
            and self.index.vertices == other.index.vertices
        )

    def __hash__(self) -> int:
        return hash((self.masks, self.index.vertices))

    def __repr__(self) -> str:
        return (
            f"BitsetFamily({len(self.masks)} masks over "
            f"{len(self.index)} bits)"
        )

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    def decode(self) -> tuple[frozenset, ...]:
        """The family as frozensets, in canonical edge order."""
        return self.index.decode_many(self.masks)

    def minimized(self) -> "BitsetFamily":
        """The antichain of inclusion-minimal masks."""
        return BitsetFamily(
            self.index, minimalize_masks(self.masks), canonical=True
        )

    def is_antichain(self) -> bool:
        """True iff the family is simple (no containments)."""
        return masks_are_antichain(self.masks)

    def is_transversal(self, candidate) -> bool:
        """Does the candidate (mask or vertex collection) meet every edge?"""
        return meets_all(self._as_mask(candidate), self.masks)

    def is_minimal_transversal(self, candidate) -> bool:
        """Private-vertex minimal-transversality test."""
        return is_minimal_transversal_mask(self._as_mask(candidate), self.masks)

    def transversal_family(self) -> "BitsetFamily":
        """``tr`` of this family over the same index (Berge, mask domain)."""
        return BitsetFamily(
            self.index, transversal_masks(self.masks), canonical=True
        )

    def _as_mask(self, candidate) -> int:
        if isinstance(candidate, int):
            return candidate
        return self.index.encode_within(candidate)
