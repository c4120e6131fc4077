"""The :class:`Hypergraph` type: an immutable finite family of finite sets.

Terminology follows the paper (Gottlob, PODS 2013, Section 1):

* A *hypergraph* ``H`` is a finite family of finite sets (*hyperedges*)
  over a vertex set ``V(H)``.
* ``H`` is *simple* if no hyperedge is contained in another one.
* By default, if the vertex set is not explicitly specified, it is the
  union of the hyperedges.

Two degenerate hypergraphs play the role of Boolean constants when a
hypergraph is read as a monotone DNF (one term per edge):

* the **empty hypergraph** (no edges) corresponds to constant *false*;
* the hypergraph containing only the **empty edge** corresponds to
  constant *true*.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro._util import (
    canonical_edges,
    format_family,
    sort_key,
    vertex_key,
)
from repro.core import BitsetFamily, VertexIndex
from repro.errors import NotSimpleError, VertexError


class Hypergraph:
    """An immutable hypergraph: a family of ``frozenset`` hyperedges.

    Parameters
    ----------
    edges:
        Any iterable of vertex-iterables.  Duplicate edges collapse.
    vertices:
        Optional explicit vertex universe.  Must contain every vertex
        that occurs in an edge; may be larger (isolated vertices are
        meaningful for restrictions and for duality over a fixed
        universe).  When omitted, the universe is the union of the edges.

    The class is hashable and usable as a dict key / set member.  Edges
    are stored in a canonical deterministic order (by size, then
    lexicographically), so iteration order, ``repr`` and serialisations
    are reproducible across runs.
    """

    __slots__ = ("_edges", "_vertices", "_hash", "_bits")

    def __init__(
        self,
        edges: Iterable[Iterable] = (),
        vertices: Iterable | None = None,
    ) -> None:
        frozen = canonical_edges(frozenset(e) for e in edges)
        union: set = set()
        for edge in frozen:
            union |= edge
        if vertices is None:
            universe = frozenset(union)
        else:
            universe = frozenset(vertices)
            if not union <= universe:
                missing = union - universe
                raise VertexError(
                    f"edges use vertices outside the declared universe: "
                    f"{sorted(missing, key=vertex_key)}"
                )
        self._edges: tuple[frozenset, ...] = frozen
        self._vertices: frozenset = universe
        self._hash: int | None = None
        self._bits = None

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------

    @property
    def edges(self) -> tuple[frozenset, ...]:
        """The hyperedges in canonical order."""
        return self._edges

    @property
    def vertices(self) -> frozenset:
        """The vertex universe ``V(H)``."""
        return self._vertices

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, edge: Iterable) -> bool:
        return frozenset(edge) in set(self._edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._edges == other._edges and self._vertices == other._vertices

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._edges, self._vertices))
        return self._hash

    def __repr__(self) -> str:
        return f"Hypergraph({format_family(self._edges)}, V={len(self._vertices)})"

    # ------------------------------------------------------------------
    # Structural predicates
    # ------------------------------------------------------------------

    def is_simple(self) -> bool:
        """True iff no hyperedge contains another (the family is an antichain).

        Checked on the bitset view (one ``&``-compare per edge pair); the
        view is cached, so deciders that call :meth:`require_simple` and
        then run mask kernels pay for the encoding once.
        """
        return self.bits().is_antichain()

    def require_simple(self, what: str = "hypergraph") -> "Hypergraph":
        """Return ``self`` if simple, else raise :class:`NotSimpleError`."""
        if not self.is_simple():
            raise NotSimpleError(f"{what} must be simple: {self!r}")
        return self

    def is_trivial_true(self) -> bool:
        """True iff this hypergraph contains the empty edge (constant true DNF)."""
        return frozenset() in set(self._edges)

    def is_trivial_false(self) -> bool:
        """True iff this hypergraph has no edges (constant false DNF)."""
        return not self._edges

    def has_isolated_vertices(self) -> bool:
        """True iff some universe vertex occurs in no edge."""
        covered: set = set()
        for edge in self._edges:
            covered |= edge
        return covered != set(self._vertices)

    def edge_sizes(self) -> tuple[int, ...]:
        """Sizes of the hyperedges, in canonical edge order."""
        return tuple(len(e) for e in self._edges)

    def rank(self) -> int:
        """The maximum edge size (0 for the empty hypergraph)."""
        return max((len(e) for e in self._edges), default=0)

    def degree(self, vertex) -> int:
        """Number of edges containing ``vertex``."""
        if vertex not in self._vertices:
            raise VertexError(f"{vertex!r} is not a vertex of this hypergraph")
        return sum(1 for e in self._edges if vertex in e)

    def degrees(self) -> dict:
        """Degree of every universe vertex (isolated vertices map to 0)."""
        counts = {v: 0 for v in self._vertices}
        for edge in self._edges:
            for v in edge:
                counts[v] += 1
        return counts

    def volume(self, other: "Hypergraph") -> int:
        """The Fredman–Khachiyan instance volume ``|G|·|H|``."""
        return len(self) * len(other)

    # ------------------------------------------------------------------
    # Bitset view
    # ------------------------------------------------------------------

    def bits(self) -> BitsetFamily:
        """The lazily-built bitset view of this hypergraph.

        A :class:`repro.core.BitsetFamily` over a :class:`VertexIndex`
        covering (at least) the universe, built once and cached.
        Because the canonical edge order equals the canonical mask
        order, ``bits().masks[i]`` encodes ``edges[i]``.  The view is a
        derived cache — the ``frozenset`` edges remain the source of
        truth.

        Restriction operators attach views that share the *parent*
        hypergraph's index, so a decomposition node never rebuilds an
        index; consumers must therefore treat the index as a superset of
        the universe (extra bits simply never occur in any mask).
        """
        if self._bits is None:
            index = VertexIndex(self._vertices)
            self._bits = BitsetFamily(
                index,
                tuple(index.encode(edge) for edge in self._edges),
                canonical=True,
            )
        return self._bits

    @classmethod
    def _from_canonical(
        cls, edges: tuple[frozenset, ...], vertices: frozenset
    ) -> "Hypergraph":
        """Internal fast constructor: edges already deduplicated, in
        canonical order, and within ``vertices``.  Callers (the bitset
        fast paths) guarantee the invariants the public constructor
        re-establishes by sorting."""
        hg = cls.__new__(cls)
        hg._edges = edges
        hg._vertices = vertices
        hg._hash = None
        hg._bits = None
        return hg

    # ------------------------------------------------------------------
    # Derivations
    # ------------------------------------------------------------------

    def minimized(self) -> "Hypergraph":
        """The simple hypergraph ``min(H)`` of inclusion-minimal edges.

        The vertex universe is preserved.  Runs in the mask domain via
        the bitset view; the result is identical to minimising the
        ``frozenset`` family directly.
        """
        family = self.bits().minimized()
        out = Hypergraph._from_canonical(family.decode(), self._vertices)
        out._bits = family
        return out

    def with_vertices(self, vertices: Iterable) -> "Hypergraph":
        """Same edges over an explicitly supplied (super-)universe.

        A superset of the current universe keeps the canonical edge
        tuple as is (and, when equal, the cached bitset view).
        """
        universe = frozenset(vertices)
        if not self._vertices <= universe:
            return Hypergraph(self._edges, vertices=universe)
        out = Hypergraph._from_canonical(self._edges, universe)
        if universe == self._vertices:
            out._bits = self._bits
        return out

    def without_isolated_vertices(self) -> "Hypergraph":
        """Shrink the universe to the union of the edges."""
        return Hypergraph(self._edges)

    def sorted_edges(self) -> list[frozenset]:
        """The edges as a list, in canonical order (a copy, safe to mutate)."""
        return list(self._edges)

    def lexicographically_first_edge(self, candidates: Iterable[frozenset]) -> frozenset:
        """The canonically-first edge among ``candidates``.

        Used for the deterministic tie-breaking the paper suggests in the
        ``process`` procedure (Section 2): "the lexicographically first
        edge G ∈ G^{S_α}".
        """
        chosen = sorted(candidates, key=sort_key)
        if not chosen:
            raise ValueError("no candidate edges supplied")
        return chosen[0]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edge_lists(
        cls, edge_lists: Iterable[Iterable], vertices: Iterable | None = None
    ) -> "Hypergraph":
        """Build from any iterable of vertex collections (lists, tuples, sets)."""
        return cls(edge_lists, vertices=vertices)

    @classmethod
    def empty(cls, vertices: Iterable = ()) -> "Hypergraph":
        """The hypergraph with no edges (constant-false DNF)."""
        return cls((), vertices=vertices)

    @classmethod
    def trivial_true(cls, vertices: Iterable = ()) -> "Hypergraph":
        """The hypergraph whose only edge is empty (constant-true DNF)."""
        return cls((frozenset(),), vertices=vertices)

    @classmethod
    def singletons(cls, vertices: Iterable) -> "Hypergraph":
        """One singleton edge per vertex: ``{{v} : v ∈ V}``.

        Its unique minimal transversal is the full vertex set, so this
        hypergraph and ``{V}`` form a dual pair.
        """
        universe = frozenset(vertices)
        return cls(({v} for v in universe), vertices=universe)

    @classmethod
    def single_edge(cls, edge: Iterable, vertices: Iterable | None = None) -> "Hypergraph":
        """The hypergraph with exactly one edge."""
        return cls((frozenset(edge),), vertices=vertices)
