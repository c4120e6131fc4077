"""Necessary conditions for duality and the logspace-checkable entry test.

The paper (Section 2) assumes of every input instance ``I = (G, H)``:

    "It is assumed that for the input instance I = (G,H) we have
     |H| ≤ |G|, and that G ⊆ tr(H) and H ⊆ tr(G).  Clearly this can be
     tested in logarithmic space."

``G ⊆ tr(H)`` means every edge of ``G`` is a *minimal transversal* of
``H`` — checkable edge-by-edge with counters only (hence logspace):

* transversality: each ``E ∈ G`` meets each ``F ∈ H``;
* minimality (private-vertex criterion): each ``v ∈ E`` has a witness
  edge ``F ∈ H`` with ``E ∩ F = {v}``.

This module provides those checks, classic quick rejections used by the
Fredman–Khachiyan algorithms, and :func:`prepare_instance`, which either
normalises an arbitrary simple pair into a valid Boros–Makino input or
returns an immediate NOT_DUAL answer with a primitive certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import is_minimal_transversal_mask
from repro.errors import NotSimpleError
from repro.hypergraph import Hypergraph
from repro.hypergraph.transversal import (
    is_minimal_transversal,
    is_transversal,
)
from repro.duality.result import FailureKind


def first_non_minimal_transversal_edge(
    g: Hypergraph, h: Hypergraph
) -> frozenset | None:
    """The canonically-first edge of ``g`` that is not a minimal transversal of ``h``.

    Returns ``None`` when ``G ⊆ tr(H)`` holds.  When both sides' bitset
    views share one index (as after :func:`prepare_instance` aligns the
    universes) the scan runs on those cached masks.
    """
    own, partner = g.bits(), h.bits()
    if own.index.vertices == partner.index.vertices:
        for edge, mask in zip(g.edges, own.masks):
            if not is_minimal_transversal_mask(mask, partner.masks):
                return edge
        return None
    for edge in g.edges:
        if not is_minimal_transversal(edge, h):
            return edge
    return None


def subset_of_transversals(g: Hypergraph, h: Hypergraph) -> bool:
    """``G ⊆ tr(H)``: every edge of ``g`` is a minimal transversal of ``h``."""
    return first_non_minimal_transversal_edge(g, h) is None


def cross_intersection_holds(g: Hypergraph, h: Hypergraph) -> bool:
    """Every edge of ``g`` meets every edge of ``h`` (weakest necessary condition)."""
    return all(ge & he for ge in g.edges for he in h.edges)


def fredman_khachiyan_weight(g: Hypergraph, h: Hypergraph) -> float:
    """The FK volume inequality weight ``Σ_G 2^{-|E|} + Σ_H 2^{-|E|}``.

    For a dual pair the weight is ≥ 1 (every assignment satisfies
    exactly one of ``f(x)``, ``g(¬x)``, and each term covers a
    ``2^{-|t|}`` fraction of assignments).  Weight < 1 certifies
    non-duality without recursion.
    """
    return sum(2.0 ** -len(e) for e in g.edges) + sum(
        2.0 ** -len(e) for e in h.edges
    )


def same_relevant_variables(g: Hypergraph, h: Hypergraph) -> bool:
    """Dual irredundant DNFs mention exactly the same variables.

    A variable occurring in a minimal term of ``f`` is relevant to ``f``,
    and ``f`` and its dual have the same relevant variables.  (Degenerate
    constant hypergraphs mention no variables, so they pass vacuously.)
    """
    g_used: set = set()
    for edge in g.edges:
        g_used |= edge
    h_used: set = set()
    for edge in h.edges:
        h_used |= edge
    return g_used == h_used


@dataclass(frozen=True)
class EntryCheck:
    """Outcome of :func:`prepare_instance`.

    Either ``ok`` is True and ``(g, h)`` is a valid decomposition input
    (both simple, ``G ⊆ tr(H)``, ``H ⊆ tr(G)``) — in which case duality
    of the original pair is equivalent to ``H = tr(G)`` — or ``ok`` is
    False and ``failure``/``witness``/``detail`` explain the immediate
    NOT_DUAL verdict.
    """

    ok: bool
    g: Hypergraph | None = None
    h: Hypergraph | None = None
    failure: FailureKind | None = None
    witness: frozenset | None = None
    detail: str = ""


def check_degenerate(g: Hypergraph, h: Hypergraph) -> bool | None:
    """Resolve instances involving constant hypergraphs, if possible.

    Returns True/False when the instance is decided outright by the
    Boolean-constant conventions, ``None`` when both sides are
    non-degenerate:

    * ``tr(∅) = {∅}``: constant false is dual to constant true only;
    * a hypergraph with the empty edge is dual to the empty one only.
    """
    if g.is_trivial_false():
        return h.is_trivial_true()
    if g.is_trivial_true():
        return h.is_trivial_false()
    if h.is_trivial_false() or h.is_trivial_true():
        # g is non-degenerate here, so it cannot be dual to a constant.
        return False
    return None


def prepare_instance(g: Hypergraph, h: Hypergraph) -> EntryCheck:
    """Validate and normalise an instance for the decomposition deciders.

    Raises :class:`NotSimpleError` when a side is not simple (redundant
    DNF — a malformed input per the problem definition).  Otherwise
    performs the paper's logspace entry test:

    1. resolve degenerate/constant cases,
    2. check ``H ⊆ tr(G)`` — a violation yields an ``EXTRA_EDGE``
       certificate (some claimed minimal transversal isn't one),
    3. check ``G ⊆ tr(H)`` — a violation means (since duality is
       symmetric) ``tr(G) ≠ H``; the offending edge certifies it.

    On success the returned pair is aligned to a shared universe (the
    union of both universes), so decomposition can treat ``V`` as one
    fixed vertex set.
    """
    g.require_simple("G")
    h.require_simple("H")

    degenerate = check_degenerate(g, h)
    if degenerate is True:
        return EntryCheck(ok=True, g=g, h=h)
    if degenerate is False:
        return EntryCheck(
            ok=False,
            failure=FailureKind.CONSTANT_MISMATCH,
            detail="constant hypergraph paired with a non-matching partner",
        )

    universe = g.vertices | h.vertices
    g = g.with_vertices(universe)
    h = h.with_vertices(universe)

    bad_h = first_non_minimal_transversal_edge(h, g)
    if bad_h is not None:
        if is_transversal(bad_h, g):
            detail = f"edge {sorted(map(repr, bad_h))} of H is a non-minimal transversal of G"
        else:
            detail = f"edge {sorted(map(repr, bad_h))} of H is not a transversal of G"
        return EntryCheck(
            ok=False,
            failure=FailureKind.EXTRA_EDGE,
            witness=bad_h,
            detail=detail,
        )

    bad_g = first_non_minimal_transversal_edge(g, h)
    if bad_g is not None:
        if is_transversal(bad_g, h):
            detail = f"edge {sorted(map(repr, bad_g))} of G is a non-minimal transversal of H"
        else:
            detail = f"edge {sorted(map(repr, bad_g))} of G is not a transversal of H"
        return EntryCheck(
            ok=False,
            failure=FailureKind.EXTRA_EDGE,
            witness=bad_g,
            detail=detail,
        )

    return EntryCheck(ok=True, g=g, h=h)
