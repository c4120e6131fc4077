"""Section 4: duality in quadratic logspace.

This module implements the paper's main construction:

* :func:`next_attrs` — Lemma 4.1's logspace procedure
  ``next(V, attr(α), i)``: from a node's attributes, compute the
  attributes of its ``i``-th child or report ``impossible``;
* path descriptors — sequences of ≤ ``⌊log₂|H|⌋`` integers bounded by
  ``|V|·|G|`` (the set ``PD(I)``);
* :func:`pathnode` — Lemma 4.2: resolve a path descriptor to the node's
  attributes (or ``wrongpath``) by iterated self-composition of ``next``;
* :func:`pathnode_metered` — the same computation with the Lemma 3.1
  register discipline metered (descriptor digits + one live register
  file per composition stage), so experiments can verify the
  ``O(log² n)`` peak;
* :func:`pathnode_pipeline` — the same computation literally routed
  through :class:`repro.machine.pipeline.Pipeline`, i.e. the Lemma 4.2
  function ``F`` run as a ``[[FDSPACE[log n]_pol]]^log`` composition;
* :func:`decompose` — Theorem 4.1's algorithm: list the vertices and
  edges of ``T(G, H)`` using ``pathnode`` only;
* :func:`decide_logspace` / :func:`find_new_transversal_logspace` —
  Corollary 4.1(1) and (2).

A note on node finalisation.  The paper's ``process`` can mark a node
``fail`` *at its own expansion* (step 2), while ``next`` produces child
attributes.  For ``pathnode``'s output to carry final markings, ``next``
finalises every child it emits: it applies ``marksmall`` when
``|H_{S_child}| ≤ 1`` and the step-2 new-transversal check when
``|H_{S_child}| ≥ 2`` (both logspace).  The root is finalised the same
way.  This matches the tree builder exactly — the test suite checks
``pathnode(I, label(α)) = attr(α)`` for every node α of the built tree.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache

from repro._util import bits_needed, vertex_key
from repro.hypergraph import Hypergraph
from repro.hypergraph.operations import bitset_kernels_enabled
from repro.machine.meter import RegisterFile, SpaceMeter
from repro.machine.pipeline import self_composition
from repro.machine.transducer import FunctionTransducer
from repro.duality.boros_makino import MaskNodes, _reference_expand
from repro.duality.conditions import prepare_instance
from repro.duality.result import (
    DecisionStats,
    DualityResult,
    FailureKind,
    dual_result,
    not_dual_result,
)
from repro.duality.tree import Mark, NodeAttributes

#: Sentinel for Lemma 4.1's "impossible" / Lemma 4.2's "wrongpath".
IMPOSSIBLE = None

PathDescriptor = tuple[int, ...]


# ---------------------------------------------------------------------------
# Instance geometry: the PD(I) parameters
# ---------------------------------------------------------------------------

def max_depth_bound(h: Hypergraph) -> int:
    """``⌊log₂ |H|⌋`` — the maximal path-descriptor length (Prop. 2.1(2))."""
    if len(h) <= 1:
        return 0
    return int(math.floor(math.log2(len(h))))


def max_child_index(g: Hypergraph) -> int:
    """``|V|·|G|`` — the bound on each descriptor entry (Prop. 2.1(3))."""
    return max(1, len(g.vertices) * len(g))


def instance_size(g: Hypergraph, h: Hypergraph) -> int:
    """The input size ``n = |I|`` used for register bounds (encoding length)."""
    per_edge = lambda hg: sum(len(e) + 1 for e in hg.edges) + 1  # noqa: E731
    return len(g.vertices) + per_edge(g) + per_edge(h) + 2


def is_valid_descriptor(g: Hypergraph, h: Hypergraph, pi: PathDescriptor) -> bool:
    """Membership in ``PD(I)``: length and per-entry bounds."""
    if len(pi) > max_depth_bound(h):
        return False
    bound = max_child_index(g)
    return all(1 <= entry <= bound for entry in pi)


def descriptor_bits(g: Hypergraph, h: Hypergraph) -> int:
    """Bits to store one path descriptor — the ``O(log² n)`` object."""
    return max_depth_bound(h) * bits_needed(max_child_index(g))


# ---------------------------------------------------------------------------
# Node finalisation and the next step (Lemma 4.1)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=65536)
def _finalize_scope(
    g: Hypergraph, h: Hypergraph, scope: frozenset, reference: bool
) -> tuple[Mark, frozenset]:
    """Scope-level finalisation: the ``(mark, t)`` a node at ``scope`` gets.

    Everything ``marksmall`` and the step-2 check compute depends only
    on the scope (the instance is derived from it), so results are
    cached per scope.  The cache is a host-side *time* optimisation; the
    model-space accounting (``pathnode_metered``) is unaffected — a
    Turing machine recomputes, we memoise.  ``reference`` — whether
    ``use_bitset_kernels(False)`` selected the ``frozenset`` procedures
    over the mask kernel — is part of the key, so neither path ever
    answers for the other.
    """
    if reference:
        probe = NodeAttributes((), scope, Mark.NIL, frozenset())
        outcome = _reference_expand(probe, g, h)
        if isinstance(outcome, NodeAttributes):
            return outcome.mark, outcome.witness
        return Mark.NIL, frozenset()
    nodes = MaskNodes(g, h)
    mark, witness = nodes.mark(nodes.index.encode(scope))
    return mark, nodes.decode(witness)


@lru_cache(maxsize=65536)
def _children_scopes(
    g: Hypergraph, h: Hypergraph, scope: frozenset, reference: bool
) -> tuple[frozenset, ...]:
    """The ordered child scopes of an *interior* node at ``scope``.

    ``process`` steps 3–5 depend only on the scope; cached so that
    enumerating children one index at a time (the ``next`` protocol)
    costs one expansion per node instead of one per child.  A leaf
    scope has no children (callers check finalisation first, so this
    only guards misuse).  ``reference`` is as in :func:`_finalize_scope`.
    """
    probe = NodeAttributes((), scope, Mark.NIL, frozenset())
    if reference:
        outcome = _reference_expand(probe, g, h)
    else:
        outcome = MaskNodes(g, h).expand(probe)
    if isinstance(outcome, NodeAttributes):
        return ()
    return tuple(child.scope for child in outcome)


def finalize(attrs: NodeAttributes, g: Hypergraph, h: Hypergraph) -> NodeAttributes:
    """Apply the marking rules that fire at a node's own expansion.

    ``marksmall`` for ``|H_S| ≤ 1``; the ``process`` step-2
    new-transversal check for ``|H_S| ≥ 2``; otherwise the node is
    interior and keeps ``nil``.  The node step runs on
    :class:`~repro.duality.boros_makino.MaskNodes` unless
    ``use_bitset_kernels(False)`` selects the ``frozenset`` procedures.
    """
    if attrs.mark is not Mark.NIL:
        return attrs
    reference = not bitset_kernels_enabled()
    mark, witness = _finalize_scope(g, h, attrs.scope, reference)
    if mark is Mark.NIL:
        return attrs
    return NodeAttributes(attrs.label, attrs.scope, mark, witness)


def initial_attrs(g: Hypergraph, h: Hypergraph) -> NodeAttributes:
    """The finalised root attributes ``attr(α₀)`` (logspace-computable)."""
    universe = frozenset(g.vertices | h.vertices)
    return finalize(NodeAttributes((), universe, Mark.NIL, frozenset()), g, h)


def next_attrs(
    g: Hypergraph, h: Hypergraph, attrs: NodeAttributes, index: int
) -> NodeAttributes | None:
    """Lemma 4.1's ``next(V, attr(α), i)``.

    Returns the finalised attributes of the ``i``-th child of ``α``, or
    :data:`IMPOSSIBLE` (``None``) when ``α`` is a leaf or has fewer than
    ``i`` children.  Everything here is counting, set intersection and
    comparison over the read-only input — the operations Lemma 4.1
    observes to be logspace.
    """
    if index < 1:
        raise ValueError("child indices start at 1")
    if attrs.mark is not Mark.NIL:
        return IMPOSSIBLE
    scopes = _children_scopes(g, h, attrs.scope, not bitset_kernels_enabled())
    if index > len(scopes):
        return IMPOSSIBLE
    raw = NodeAttributes(
        attrs.child_label(index), scopes[index - 1], Mark.NIL, frozenset()
    )
    return finalize(raw, g, h)


# ---------------------------------------------------------------------------
# pathnode (Lemma 4.2)
# ---------------------------------------------------------------------------

def pathnode(
    g: Hypergraph, h: Hypergraph, pi: PathDescriptor
) -> NodeAttributes | None:
    """Lemma 4.2's ``pathnode(I, π)``: attributes of the node at ``π``.

    Returns ``wrongpath`` (``None``) when ``π`` does not correspond to a
    node of ``T(G, H)`` — including descriptors outside ``PD(I)``.
    """
    if not is_valid_descriptor(g, h, tuple(pi)):
        return IMPOSSIBLE
    attrs = initial_attrs(g, h)
    for entry in pi:
        attrs = next_attrs(g, h, attrs, entry)
        if attrs is IMPOSSIBLE:
            return IMPOSSIBLE
    return attrs


def pathnode_metered(
    g: Hypergraph,
    h: Hypergraph,
    pi: PathDescriptor,
    meter: SpaceMeter | None = None,
) -> tuple[NodeAttributes | None, SpaceMeter]:
    """``pathnode`` under the Lemma 3.1 register discipline, metered.

    Allocates exactly the model-relevant state of the ``T*`` machine:

    * one register per descriptor digit (width ``⌈log(|V||G|+1)⌉``), and
    * one register file per composition stage — the stage's index
      register ``d_i``, output register ``o_i``, and a constant number
      of ``O(log n)`` scratch counters — kept **live across stages**, as
      in the paper's construction.

    The attribute values themselves flow through Python (they are the
    intermediate outputs Lemma 3.1 proves never need storing; the
    genuine bit-recomputation mechanism is exercised separately by
    :func:`pathnode_pipeline` and experiment E5).  The returned meter's
    ``peak_bits`` is the quantity Theorem 4.1 bounds by ``O(log² n)``.
    """
    meter = meter if meter is not None else SpaceMeter()
    pi = tuple(pi)
    n = instance_size(g, h)
    digit_bound = max_child_index(g)

    digit_registers = []
    stage_files: list[RegisterFile] = []
    try:
        for position, entry in enumerate(pi):
            reg = meter.register(f"pi[{position}]", digit_bound)
            if 1 <= entry <= digit_bound:
                reg.value = entry
            digit_registers.append(reg)

        if not is_valid_descriptor(g, h, pi):
            return IMPOSSIBLE, meter

        attrs = initial_attrs(g, h)
        for position, entry in enumerate(pi):
            stage = RegisterFile(meter, f"P{position}")
            stage.register("d", n ** 3)
            stage.register("o", 255)
            stage.register("head", n)
            stage.register("scan", n)
            stage.register("count", n)
            stage.register("aux", n)
            stage_files.append(stage)
            attrs = next_attrs(g, h, attrs, entry)
            if attrs is IMPOSSIBLE:
                return IMPOSSIBLE, meter
        return attrs, meter
    finally:
        for stage in stage_files:
            stage.free()
        for reg in digit_registers:
            reg.free()


# ---------------------------------------------------------------------------
# pathnode through the machine substrate (Lemma 4.2 ∘ Lemma 3.1, literally)
# ---------------------------------------------------------------------------

def encode_state(attrs: NodeAttributes | None, remaining: PathDescriptor) -> str:
    """Serialise the Lemma 4.2 state ``(attr, γ)`` (or ``wrongpath``)."""
    if attrs is IMPOSSIBLE:
        return "wrongpath"
    label = ",".join(str(i) for i in attrs.label)
    scope = ",".join(str(v) for v in sorted(attrs.scope, key=vertex_key))
    witness = ",".join(str(v) for v in sorted(attrs.witness, key=vertex_key))
    gamma = ",".join(str(i) for i in remaining)
    return f"{label}|{scope}|{attrs.mark.value}|{witness}#{gamma}"


def decode_state(
    text: str, g: Hypergraph, h: Hypergraph
) -> tuple[NodeAttributes | None, PathDescriptor]:
    """Inverse of :func:`encode_state` (vertex names resolved via the universe)."""
    if text == "wrongpath":
        return IMPOSSIBLE, ()
    head, _, gamma_text = text.rpartition("#")
    label_text, scope_text, mark_text, witness_text = head.split("|")
    by_name = {str(v): v for v in g.vertices | h.vertices}

    def parse_set(chunk: str) -> frozenset:
        if not chunk:
            return frozenset()
        return frozenset(by_name[token] for token in chunk.split(","))

    label = tuple(int(t) for t in label_text.split(",")) if label_text else ()
    gamma = tuple(int(t) for t in gamma_text.split(",")) if gamma_text else ()
    attrs = NodeAttributes(
        label, parse_set(scope_text), Mark(mark_text), parse_set(witness_text)
    )
    return attrs, gamma


def lemma42_step(g: Hypergraph, h: Hypergraph):
    """The Lemma 4.2 stage function ``F`` as a ``str → str`` map.

    On ``wrongpath`` or an exhausted descriptor the input passes through
    unchanged (so ``F`` is safely self-composable ``ρ`` times); otherwise
    one ``next`` step is consumed from the descriptor head.
    """

    def step(text: str) -> str:
        if text == "wrongpath":
            return "wrongpath"
        attrs, gamma = decode_state(text, g, h)
        if not gamma:
            return text
        child = next_attrs(g, h, attrs, gamma[0])
        if child is IMPOSSIBLE:
            return "wrongpath"
        return encode_state(child, gamma[1:])

    return step


def pathnode_pipeline(
    g: Hypergraph,
    h: Hypergraph,
    pi: PathDescriptor,
    meter: SpaceMeter | None = None,
):
    """``pathnode`` executed through :class:`repro.machine.pipeline.Pipeline`.

    Builds the self-composition ``F^{ℓ(π)}`` with the ``T*`` discipline —
    intermediate states are recomputed char-by-char, never stored — and
    decodes the final state.  Exponentially slower than :func:`pathnode`
    (that is the point); returns ``(attrs_or_None, pipeline)`` so callers
    can read the space/time report.
    """
    pi = tuple(pi)
    if not is_valid_descriptor(g, h, pi):
        raise ValueError("descriptor outside PD(I)")
    stage = FunctionTransducer(lemma42_step(g, h), name="F", charged_registers=6)
    pipeline = self_composition(stage, max(1, len(pi)), meter=meter)
    final_text = pipeline.compute_recomputed(encode_state(initial_attrs(g, h), pi))
    attrs, remaining = decode_state(final_text, g, h)
    if attrs is IMPOSSIBLE or remaining:
        return IMPOSSIBLE, pipeline
    return attrs, pipeline


# ---------------------------------------------------------------------------
# Tree enumeration via pathnode / next only
# ---------------------------------------------------------------------------

def iter_tree_nodes(
    g: Hypergraph, h: Hypergraph
) -> Iterator[NodeAttributes]:
    """All nodes of ``T(G, H)`` in DFS (label) order, via ``next`` only.

    Space-faithful in spirit: holds the current path's attributes (depth
    ≤ ``⌊log |H|⌋``) instead of the whole tree.  Used by ``decompose``,
    the Corollary 4.1 deciders and the guess-and-check walk.
    """
    root = initial_attrs(g, h)
    stack: list[tuple[NodeAttributes, int]] = [(root, 1)]
    yield root
    while stack:
        attrs, index = stack.pop()
        child = next_attrs(g, h, attrs, index)
        if child is IMPOSSIBLE:
            continue
        stack.append((attrs, index + 1))
        yield child
        if child.mark is Mark.NIL:
            stack.append((child, 1))


def iter_path_descriptors(g: Hypergraph, h: Hypergraph) -> Iterator[PathDescriptor]:
    """The full set ``PD(I)`` in length-then-lex order.

    Astronomically large for all but toy instances (``(|V||G|)^{⌊log|H|⌋}``
    sequences) — exactly the price Theorem 4.1 pays in *time* for its
    space bound.  Guarded by callers; exposed for the paper-faithful
    variant of ``decompose``.
    """
    depth = max_depth_bound(h)
    bound = max_child_index(g)

    def sequences(length: int, prefix: tuple[int, ...]) -> Iterator[PathDescriptor]:
        if length == 0:
            yield prefix
            return
        for entry in range(1, bound + 1):
            yield from sequences(length - 1, prefix + (entry,))

    for length in range(depth + 1):
        yield from sequences(length, ())


def decompose(
    g: Hypergraph,
    h: Hypergraph,
    exhaustive: bool = False,
    exhaustive_limit: int = 200_000,
) -> dict:
    """Theorem 4.1's ``decompose``: list ``T(G, H)``'s vertices and edges.

    With ``exhaustive=True`` the algorithm runs exactly as printed in the
    paper — iterate *all* path descriptors, then all consecutive pairs,
    calling ``pathnode`` on each (quadratic-logspace, exponential time);
    a guard refuses instances whose ``|PD(I)|`` exceeds
    ``exhaustive_limit``.  The default mode enumerates via ``next`` with
    DFS pruning — same output, sane time.

    Returns ``{"vertices": [NodeAttributes…], "edges": [(label, label)…]}``
    with vertices in DFS label order and edges parent→child.
    """
    if exhaustive:
        depth = max_depth_bound(h)
        bound = max_child_index(g)
        total = sum(bound ** k for k in range(depth + 1))
        if total > exhaustive_limit:
            raise MemoryError(
                f"|PD(I)| = {total} exceeds the exhaustive-mode limit "
                f"({exhaustive_limit}); use the default pruned mode"
            )
        vertices = []
        for pi in iter_path_descriptors(g, h):
            attrs = pathnode(g, h, pi)
            if attrs is not IMPOSSIBLE:
                vertices.append(attrs)
        edges = []
        for pi in iter_path_descriptors(g, h):
            parent = pathnode(g, h, pi)
            if parent is IMPOSSIBLE:
                continue
            for entry in range(1, bound + 1):
                child = pathnode(g, h, pi + (entry,))
                if child is not IMPOSSIBLE:
                    edges.append((parent.label, child.label))
        vertices.sort(key=lambda a: a.label)
        edges.sort()
        return {"vertices": vertices, "edges": edges}

    vertices = sorted(iter_tree_nodes(g, h), key=lambda a: a.label)
    edges = sorted(
        (attrs.label[:-1], attrs.label) for attrs in vertices if attrs.label
    )
    return {"vertices": vertices, "edges": edges}


# ---------------------------------------------------------------------------
# Corollary 4.1: decision and witness in quadratic logspace
# ---------------------------------------------------------------------------

def model_space_bits(g: Hypergraph, h: Hypergraph) -> int:
    """The register allocation of :func:`pathnode_metered` at full depth.

    descriptor digits + per-stage files; the quantity experiments fit
    against ``a + b·log₂²(n)``.
    """
    n = instance_size(g, h)
    depth = max_depth_bound(h)
    per_digit = bits_needed(max_child_index(g))
    per_stage = (
        bits_needed(n ** 3)
        + bits_needed(255)
        + 4 * bits_needed(n)
    )
    return depth * (per_digit + per_stage)


def decide_logspace(g: Hypergraph, h: Hypergraph) -> DualityResult:
    """Corollary 4.1(1): decide ``Dual`` in ``DSPACE[log² n]``.

    Entry check, then scan the tree through ``next``/``pathnode`` only,
    looking for a ``fail`` leaf.  ``stats.peak_space_bits`` reports the
    metered model space at full depth (validated against the actual
    metered run of the deepest path).
    """
    method = "logspace"
    entry = prepare_instance(g, h)
    if not entry.ok:
        return not_dual_result(
            method, entry.failure, witness=entry.witness, detail=entry.detail
        )
    g_v, h_v = entry.g, entry.h
    swapped = len(h_v) > len(g_v)
    if swapped:
        g_v, h_v = h_v, g_v

    stats = DecisionStats()
    stats.extra["swapped"] = swapped
    deepest: PathDescriptor = ()
    first_fail: NodeAttributes | None = None
    for attrs in iter_tree_nodes(g_v, h_v):
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, attrs.depth)
        if attrs.depth > len(deepest):
            deepest = attrs.label
        if attrs.mark is Mark.FAIL and (
            first_fail is None or attrs.label < first_fail.label
        ):
            first_fail = attrs

    # Meter the deepest path under the Lemma 3.1 discipline.
    _attrs, meter = pathnode_metered(g_v, h_v, deepest)
    stats.peak_space_bits = meter.peak_bits

    if first_fail is None:
        return dual_result(method, stats)
    direction = "H wrt G" if swapped else "G wrt H"
    return not_dual_result(
        method,
        FailureKind.MISSING_TRANSVERSAL,
        witness=first_fail.witness,
        detail=f"fail leaf {first_fail.label}: new transversal of {direction}",
        path=first_fail.label,
        stats=stats,
    )


def find_new_transversal_logspace(
    g: Hypergraph, h: Hypergraph
) -> frozenset | None:
    """Corollary 4.1(2): a new transversal of ``G`` w.r.t. ``H``, or ``None``.

    Unlike :func:`decide_logspace` this never swaps sides, so the
    witness direction is fixed: the returned set (if any) is a
    transversal of ``G`` containing no edge of ``H``.  Entry violations
    where an ``H``-edge is not a transversal cannot yield such a witness
    and raise ``ValueError`` (the caller should use the full decider).
    """
    entry = prepare_instance(g, h)
    if not entry.ok:
        raise ValueError(
            f"instance outside the decomposition preconditions: {entry.detail}"
        )
    for attrs in iter_tree_nodes(entry.g, entry.h):
        if attrs.mark is Mark.FAIL:
            return attrs.witness
    return None
