"""Bitset core: integer-bitmask kernels behind the hot paths.

The paper's algorithms treat hyperedges as characteristic vectors; this
package makes that literal.  A :class:`VertexIndex` fixes a stable
vertex↔bit bijection in canonical vertex order, a :class:`BitsetFamily`
holds an edge family as machine integers, and the kernel functions turn
every subset / intersection / minimalisation inner loop into ``&``-and-
compare arithmetic on ints.

Layering: :mod:`repro.core` depends only on :mod:`repro._util` and
:mod:`repro.errors`; the hypergraph layer builds lazy views on top of it
(:meth:`repro.hypergraph.Hypergraph.bits`), and the duality engines and
itemset counters consume those views.  The ``frozenset`` API everywhere
above remains the public, canonical representation — the masks are a
cache, never a source of truth.
"""

from repro.core.bitset import (
    BitsetFamily,
    antichain_minima,
    berge_step,
    column_counts,
    covers_none,
    is_minimal_transversal_mask,
    is_new_transversal_mask,
    is_submask,
    iter_bits,
    iter_positions,
    mask_sort_key,
    masks_are_antichain,
    maximalize_masks,
    meets_all,
    minimalize_masks,
    popcount,
    sorted_masks,
    transversal_masks,
    union_mask,
)
from repro.core.vertex_index import VertexIndex

__all__ = [
    "BitsetFamily",
    "VertexIndex",
    "antichain_minima",
    "berge_step",
    "column_counts",
    "covers_none",
    "is_minimal_transversal_mask",
    "is_new_transversal_mask",
    "is_submask",
    "iter_bits",
    "iter_positions",
    "mask_sort_key",
    "masks_are_antichain",
    "maximalize_masks",
    "meets_all",
    "minimalize_masks",
    "popcount",
    "sorted_masks",
    "transversal_masks",
    "union_mask",
]
