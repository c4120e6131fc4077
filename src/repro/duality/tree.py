"""Decomposition-tree data structures (paper, Section 2).

A node ``α`` of the Boros–Makino tree ``T(G, H)`` carries five data
structures (paper, items (i)–(v)):

(i)   a unique ``label(α)`` — a sequence in ``ℵ_H`` (child indices from
      the root; the root's label is the empty sequence),
(ii)  a set ``S_α ⊆ V(G)`` (the node's *scope*),
(iii) the instance ``inst(α) = (G^{S_α}, H_{S_α})``,
(iv)  a marking ``mark(α) ∈ {done, fail, nil}``,
(v)   a vertex set ``t(α)`` — empty unless the node is a ``fail`` leaf,
      in which case it is a new transversal of ``G`` w.r.t. ``H``.

Because ``inst(α)`` is fully determined by the original input and
``S_α`` (projection/restriction commute with nesting of scopes), nodes
store the scope and derive the instance on demand — the property that
Section 4's logspace re-derivation rests on.  The engines work on the
scope as one mask (:class:`repro.duality.boros_makino.MaskNodes`).

Labels here are 0-free: the paper indexes children from 1, and so do we
(``label = (i₁, …, i_k)`` with ``i_j ≥ 1``), matching the path
descriptors of Section 4.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum

from repro.hypergraph import Hypergraph
from repro.hypergraph.operations import restriction_instance


class Mark(Enum):
    """The marking of a tree node (paper, item (iv))."""

    NIL = "nil"
    DONE = "done"
    FAIL = "fail"


@dataclass(frozen=True)
class NodeAttributes:
    """The attribute tuple ``attr(α) = (label, S_α, mark, t)``.

    The instance component of the paper's ``attr`` is derivable from
    ``scope`` and the input; :meth:`instance` materialises it as
    ``frozenset`` hypergraphs (the engines' reference path).
    """

    label: tuple[int, ...]
    scope: frozenset
    mark: Mark
    witness: frozenset

    def instance(
        self, g: Hypergraph, h: Hypergraph
    ) -> tuple[Hypergraph, Hypergraph]:
        """``inst(α) = (G^{S_α}, H_{S_α})`` for the original input ``(G, H)``."""
        return restriction_instance(g, h, self.scope)

    @property
    def depth(self) -> int:
        """Distance from the root (the label's length)."""
        return len(self.label)

    def child_label(self, index: int) -> tuple[int, ...]:
        """The label of the ``index``-th child (children indexed from 1)."""
        if index < 1:
            raise ValueError("children are indexed from 1")
        return self.label + (index,)


@dataclass
class TreeNode:
    """A materialised node of ``T(G, H)`` with its children."""

    attrs: NodeAttributes
    children: list["TreeNode"] = field(default_factory=list)

    def walk(self) -> Iterator["TreeNode"]:
        """Pre-order traversal of the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class DecompositionTree:
    """The complete tree ``T(G, H)`` with its input instance.

    ``g``/``h`` are the (validated, shared-universe) input hypergraphs;
    ``root`` the materialised tree.  The accessors expose exactly the
    quantities Proposition 2.1 bounds — leaf markings, depth, branching.
    """

    g: Hypergraph
    h: Hypergraph
    root: TreeNode

    def nodes(self) -> Iterator[TreeNode]:
        """All nodes, pre-order."""
        yield from self.root.walk()

    def leaves(self) -> Iterator[TreeNode]:
        """All leaves (nodes without children)."""
        for node in self.nodes():
            if not node.children:
                yield node

    def fail_leaves(self) -> list[TreeNode]:
        """The leaves marked ``fail`` — each witnesses ``H ≠ tr(G)``."""
        return [n for n in self.leaves() if n.attrs.mark is Mark.FAIL]

    def all_done(self) -> bool:
        """Proposition 2.1(1): ``H = tr(G)`` iff every leaf is ``done``."""
        return all(n.attrs.mark is Mark.DONE for n in self.leaves())

    def depth(self) -> int:
        """The depth of the tree (root = 0)."""
        return max((n.attrs.depth for n in self.nodes()), default=0)

    def max_branching(self) -> int:
        """The largest ``κ(α)`` over all nodes."""
        return max((len(n.children) for n in self.nodes()), default=0)

    def node_count(self) -> int:
        """Total number of nodes."""
        return sum(1 for _ in self.nodes())

    def find(self, label: tuple[int, ...]) -> TreeNode | None:
        """The node with the given label, or ``None``.

        Follows child indices, so lookup cost is the label length — this
        is the tree-side mirror of Section 4's ``pathnode``.
        """
        node = self.root
        for index in label:
            if index < 1 or index > len(node.children):
                return None
            node = node.children[index - 1]
        return node

    def labels(self) -> list[tuple[int, ...]]:
        """All node labels, pre-order."""
        return [n.attrs.label for n in self.nodes()]

    def edges(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Parent→child label pairs — the "Edges:" section of ``decompose``."""
        out = []
        for node in self.nodes():
            for child in node.children:
                out.append((node.attrs.label, child.attrs.label))
        return out
