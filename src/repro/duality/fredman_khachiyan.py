"""The Fredman–Khachiyan duality algorithms A and B.

Fredman and Khachiyan (J. Algorithms 1996; paper's reference [15]) gave
the first quasi-polynomial algorithms for ``Dual``.  The paper recalls
them as the baseline decomposition methods: algorithm **A** produces a
binary decomposition tree, algorithm **B** a non-binary tree with fewer
nodes and the celebrated ``n^{4χ(n)+O(1)}`` bound, where ``χ(χ) = n``.

Both algorithms decide whether the monotone DNFs given by edge families
``F`` and ``G`` are *dual* and, when they are not, return a **failing
assignment** σ with ``f(σ) = g(¬σ)``, from which the standard witnesses
derive:

* type ``00`` (``f(σ) = g(¬σ) = 0``): the false set ``V − σ`` is a *new
  transversal* of ``F`` w.r.t. ``G``;
* type ``11`` (``f(σ) = g(¬σ) = 1``): an ``F``-edge inside σ misses a
  ``G``-edge inside ``V − σ`` — a cross-intersection violation.

The recursion splits on a variable ``x`` (``f = x·f₁ ∨ f₀``):

* **A** checks both restrictions: ``(f₀, g₀ ∨ g₁)`` and ``(f₀ ∨ f₁, g₀)``,
  choosing ``x`` of maximal frequency.
* **B** replaces the second call, once the first succeeded, by one
  subproblem per term ``u ∈ g₁``: over ``V − {x} − u``, check duality of
  ``{E ∈ f₀ ∨ f₁ : E ∩ u = ∅}`` against ``min{E' − u : E' ∈ g₀}``.
  This is valid because (given the first call and cross-intersection)
  any failing assignment for ``(f₀ ∨ f₁, g₀)`` must satisfy some term of
  ``g₁`` on its false side; B uses it when every variable's frequency is
  below ``1/χ(v)`` (``v`` the volume ``|F|·|G|``), which makes ``|g₁|``
  small — exactly the case split behind the ``n^{4χ(n)+O(1)}`` bound.

Cross-intersection is checked once, at the root.  Every split preserves
it: an ``f₀`` edge avoids ``x``, so it meets ``E' − x`` iff it meets
``E'`` (the ``x = 0`` child ``(f₀, min(g₀ ∨ g₁))`` and, symmetrically,
the ``x = 1`` child ``(min(f₀ ∨ f₁), g₀)``); a B-child's ``F``-edges avoid
``u``, so they meet ``E' − u`` iff they meet ``E' ∈ g₀``.  The mask
recursion (and the shard planner, whose leaves all descend from a
checked root) therefore skips the test below depth 0; the frozenset
reference :func:`_decide` keeps the per-node test and is the oracle the
skip is tested against.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, filterfalse

from repro._util import minimize_family, vertex_key
from repro.complexity.bounds import chi
from repro.core import (
    VertexIndex,
    antichain_minima,
    column_counts,
    iter_bits,
    mask_sort_key,
    union_mask,
)
from repro.hypergraph import Hypergraph
from repro.duality.result import (
    DecisionStats,
    DualityResult,
    FailureKind,
    dual_result,
    not_dual_result,
)

# A failing assignment: ("00" | "11", frozenset of variables set to true).
FailingAssignment = tuple[str, frozenset]

_EMPTY = frozenset()


def _split(edges: frozenset[frozenset], x) -> tuple[frozenset, frozenset, frozenset]:
    """Decompose on ``x``: returns ``(F₀, F₁, min(F₀ ∪ F₁))``.

    ``F₀`` = edges avoiding ``x``; ``F₁`` = edges containing ``x``, with
    ``x`` removed; the third component is the edge family of ``f`` at
    ``x = 1``.
    """
    f0 = frozenset(e for e in edges if x not in e)
    f1 = frozenset(e - {x} for e in edges if x in e)
    return f0, f1, minimize_family(f0 | f1)


def _first_edge(edges: frozenset[frozenset]) -> frozenset:
    """Canonically-first edge (deterministic witness selection)."""
    return min(edges, key=lambda e: (len(e), sorted(map(vertex_key, e))))


def _weight(f: frozenset[frozenset], g: frozenset[frozenset]) -> float:
    """The FK mass ``Σ_F 2^{-|E|} + Σ_G 2^{-|E|}`` (≥ 1 for dual pairs)."""
    return sum(2.0 ** -len(e) for e in f) + sum(2.0 ** -len(e) for e in g)


def _low_weight_assignment(
    f: frozenset[frozenset], g: frozenset[frozenset]
) -> frozenset:
    """A type-00 assignment when the FK mass is < 1 (derandomised).

    Method of conditional expectations: decide variables one at a time,
    keeping the expected number of satisfied ``F``-terms plus satisfied
    mirrored ``G``-terms below 1.  Since the final expectation counts
    actual satisfied terms, none is satisfied.
    """
    f_alive = {e: len(e) for e in f}
    g_alive = {e: len(e) for e in g}
    true_set: set = set()
    variables = sorted({v for e in chain(f, g) for v in e}, key=vertex_key)
    for v in variables:
        weight_true = sum(
            2.0 ** -(c - (1 if v in e else 0)) for e, c in f_alive.items()
        ) + sum(2.0 ** -c for e, c in g_alive.items() if v not in e)
        weight_false = sum(
            2.0 ** -c for e, c in f_alive.items() if v not in e
        ) + sum(2.0 ** -(c - (1 if v in e else 0)) for e, c in g_alive.items())
        if weight_true <= weight_false:
            true_set.add(v)
            f_alive = {
                e: (c - 1 if v in e else c) for e, c in f_alive.items()
            }
            g_alive = {e: c for e, c in g_alive.items() if v not in e}
        else:
            f_alive = {e: c for e, c in f_alive.items() if v not in e}
            g_alive = {
                e: (c - 1 if v in e else c) for e, c in g_alive.items()
            }
    return frozenset(true_set)


def _most_frequent_variable(
    f: frozenset[frozenset], g: frozenset[frozenset]
) -> tuple:
    """The variable of maximal frequency (max of the two sides), with ties
    broken canonically.  Returns ``(variable, frequency)``."""
    counts_f: dict = {}
    counts_g: dict = {}
    for e in f:
        for v in e:
            counts_f[v] = counts_f.get(v, 0) + 1
    for e in g:
        for v in e:
            counts_g[v] = counts_g.get(v, 0) + 1
    best_v = None
    best_freq = -1.0
    for v in sorted(set(counts_f) | set(counts_g), key=vertex_key):
        freq = max(
            counts_f.get(v, 0) / len(f) if f else 0.0,
            counts_g.get(v, 0) / len(g) if g else 0.0,
        )
        if freq > best_freq:
            best_v, best_freq = v, freq
    return best_v, best_freq


def _base_case(
    f: frozenset[frozenset], g: frozenset[frozenset], stats: DecisionStats
) -> tuple[bool, FailingAssignment | None] | None:
    """Resolve constants, cross-intersection, mass, and single-term cases.

    Returns ``None`` when the instance needs recursion, otherwise a pair
    ``(is_dual, failing_assignment_or_None)``.
    """
    universe = frozenset(v for e in chain(f, g) for v in e)

    # Constants.  F simple with ∅ ∈ F means F == {∅}.
    if not f:  # f ≡ false
        stats.base_cases += 1
        if g == frozenset({_EMPTY}):
            return True, None
        if not g:
            return False, ("00", _EMPTY)
        return False, ("00", universe)
    if _EMPTY in f:  # f ≡ true
        stats.base_cases += 1
        if not g:
            return True, None
        return False, ("11", universe - _first_edge(g))
    if not g:  # g ≡ false, f non-constant
        stats.base_cases += 1
        return False, ("00", _EMPTY)
    if _EMPTY in g:  # g ≡ true, f non-constant
        stats.base_cases += 1
        return False, ("11", _first_edge(f))

    # Cross-intersection: every F-edge must meet every G-edge.  The
    # early-exit scan runs in hash order; on failure the witness is
    # re-selected canonically so the certificate is deterministic and
    # identical to the mask path's.
    if any(not e & e2 for e in f for e2 in g):
        stats.base_cases += 1
        offending = min(
            (e2 for e2 in g if any(not e & e2 for e in f)),
            key=lambda e2: (len(e2), sorted(map(vertex_key, e2))),
        )
        return False, ("11", universe - offending)

    # Single-term sides: f = single term t is dual exactly to the
    # singletons of t (given cross-intersection and simplicity).
    if len(f) == 1:
        stats.base_cases += 1
        (term,) = f
        singles = frozenset(frozenset({v}) for v in term)
        if g == singles:
            return True, None
        missing = sorted(
            (v for v in term if frozenset({v}) not in g), key=vertex_key
        )
        # Some singleton must be missing: if g contained all of them,
        # simplicity + cross-intersection would force g == singles.
        return False, ("00", universe - {missing[0]})
    if len(g) == 1:
        resolved = _base_case(g, f, stats)
        if resolved is None:
            return None
        is_dual, failing = resolved
        if failing is None:
            return is_dual, None
        kind, true_set = failing
        return is_dual, (kind, universe - true_set)

    # Fredman–Khachiyan mass: dual pairs satisfy mass ≥ 1.
    if _weight(f, g) < 1.0:
        stats.base_cases += 1
        return False, ("00", _low_weight_assignment(f, g))

    return None


def _decide(
    f: frozenset[frozenset],
    g: frozenset[frozenset],
    stats: DecisionStats,
    depth: int,
    use_b: bool,
) -> FailingAssignment | None:
    """Core recursion shared by A and B; returns a failing assignment or ``None``."""
    stats.nodes += 1
    stats.max_depth = max(stats.max_depth, depth)

    resolved = _base_case(f, g, stats)
    if resolved is not None:
        _is_dual, failing = resolved
        return failing

    x, freq = _most_frequent_variable(f, g)
    f0, _f1, f_at_1 = _split(f, x)
    g0, g1, g_at_1 = _split(g, x)

    # x = 0 branch: f|x=0 = f0 against g|x=1 = min(g0 ∪ g1).
    failing = _decide(f0, g_at_1, stats, depth + 1, use_b)
    if failing is not None:
        return failing

    volume = max(len(f) * len(g), 2)
    if use_b and freq < 1.0 / chi(volume) and g1:
        # B-branch: one subproblem per u ∈ g1 instead of the full
        # (f|x=1, g0) call.  Valid given the x=0 branch succeeded.
        for u in sorted(g1, key=lambda e: (len(e), sorted(map(vertex_key, e)))):
            f_prime = frozenset(e for e in f_at_1 if not e & u)
            g0_u = minimize_family(e2 - u for e2 in g0)
            failing = _decide(f_prime, g0_u, stats, depth + 1, use_b)
            if failing is not None:
                kind, true_set = failing
                return kind, true_set | {x}
        return None

    # x = 1 branch (algorithm A, and B's frequent-variable case):
    failing = _decide(f_at_1, g0, stats, depth + 1, use_b)
    if failing is not None:
        kind, true_set = failing
        return kind, true_set | {x}
    return None


# ---------------------------------------------------------------------------
# Mask-domain recursion (the bitset fast path)
# ---------------------------------------------------------------------------
# Mirrors of the frozenset helpers above with edges as integer masks over
# a shared VertexIndex.  Every free choice — frequent-variable selection,
# tie-breaking, witness selection, variable scan order — is resolved in
# the same canonical order (ascending bit position ⇔ ascending
# vertex_key), so both paths return the identical failing assignment.
# The frozenset originals stay as the reference the equivalence suite
# and the perf harness compare against.

# A mask-domain failing assignment: ("00" | "11", true-variable mask).
_MaskAssignment = tuple[str, int]


def _split_m(
    edges: frozenset[int], xbit: int
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """Mask twin of :func:`_split`: ``(F₀, F₁, min(F₀ ∪ F₁))``.

    ``edges`` is an antichain (every family of the recursion is), so
    ``F₀`` and ``F₁`` are too and no ``F₀`` edge lies inside an ``F₁``
    mask: ``min(F₀ ∪ F₁)`` is ``F₁`` plus the ``F₀`` edges that contain
    no ``F₁`` mask — no sort needed.
    """
    f0 = frozenset(filterfalse(xbit.__and__, edges))
    f1 = frozenset(map((~xbit).__and__, filter(xbit.__and__, edges)))
    # ``m ⊆ e`` ⇔ ``m & ~e == 0``.
    return f0, f1, f1.union(e for e in f0 if all(map((~e).__and__, f1)))


def _first_edge_m(edges: frozenset[int]) -> int:
    """Canonically-first mask (deterministic witness selection)."""
    return min(edges, key=mask_sort_key)


def _weight_m(f: frozenset[int], g: frozenset[int]) -> float:
    """The FK mass in the mask domain (popcount instead of ``len``)."""
    return sum(2.0 ** -e.bit_count() for e in f) + sum(
        2.0 ** -e.bit_count() for e in g
    )


def _low_weight_assignment_m(f: frozenset[int], g: frozenset[int]) -> int:
    """Mask twin of :func:`_low_weight_assignment` (same scan order)."""
    f_alive = {e: e.bit_count() for e in f}
    g_alive = {e: e.bit_count() for e in g}
    union = union_mask(chain(f, g))
    true_mask = 0
    for vbit in iter_bits(union):
        weight_true = sum(
            2.0 ** -(c - (1 if e & vbit else 0)) for e, c in f_alive.items()
        ) + sum(2.0 ** -c for e, c in g_alive.items() if not e & vbit)
        weight_false = sum(
            2.0 ** -c for e, c in f_alive.items() if not e & vbit
        ) + sum(
            2.0 ** -(c - (1 if e & vbit else 0)) for e, c in g_alive.items()
        )
        if weight_true <= weight_false:
            true_mask |= vbit
            f_alive = {
                e: (c - 1 if e & vbit else c) for e, c in f_alive.items()
            }
            g_alive = {e: c for e, c in g_alive.items() if not e & vbit}
        else:
            f_alive = {e: c for e, c in f_alive.items() if not e & vbit}
            g_alive = {
                e: (c - 1 if e & vbit else c) for e, c in g_alive.items()
            }
    return true_mask


def _most_frequent_variable_m(
    f: frozenset[int], g: frozenset[int]
) -> tuple[int, float]:
    """Mask twin of :func:`_most_frequent_variable`; returns ``(bit position,
    frequency)`` with ties broken by ascending position (the canonical
    vertex order), exactly like the frozenset original.  The counts are
    per-bit column scans over the variables either side mentions."""
    union = union_mask(f) | union_mask(g)
    counts_f, counts_g = column_counts(f, union), column_counts(g, union)
    n_f, n_g = len(f), len(g)
    best_bit = 0
    best_freq = -1.0
    for bit, count_f in counts_f.items():  # ascending bit position
        freq = max(
            count_f / n_f if n_f else 0.0,
            counts_g[bit] / n_g if n_g else 0.0,
        )
        if freq > best_freq:
            best_bit, best_freq = bit, freq
    return best_bit.bit_length() - 1, best_freq


def _base_case_m(
    f: frozenset[int],
    g: frozenset[int],
    stats: DecisionStats,
    check_cross: bool,
) -> tuple[bool, _MaskAssignment | None] | None:
    """Mask twin of :func:`_base_case` (``0`` is the empty edge).

    ``check_cross=False`` skips the cross-intersection test.  That is
    sound below a root that passed it, because every child of a
    cross-intersecting node is cross-intersecting: the ``x = 0`` child
    pairs ``f₀`` (edges avoiding ``x``) with masks ``E'`` or ``E' − x``
    of ``G`` edges, and an edge avoiding ``x`` meets ``E' − x`` iff it
    meets ``E'``; the ``x = 1`` child is the mirror image; a B-child
    pairs ``F``-edges avoiding ``u`` with masks ``E' − u``, ``E' ∈ g₀``,
    met iff ``E'`` is.  Minimalisation only drops edges.  So the test
    could never fire there, and verdicts, certificates and stats are
    unchanged.
    """
    universe = union_mask(chain(f, g))

    if not f:  # f ≡ false
        stats.base_cases += 1
        if g == frozenset({0}):
            return True, None
        if not g:
            return False, ("00", 0)
        return False, ("00", universe)
    if 0 in f:  # f ≡ true
        stats.base_cases += 1
        if not g:
            return True, None
        return False, ("11", universe & ~_first_edge_m(g))
    if not g:  # g ≡ false, f non-constant
        stats.base_cases += 1
        return False, ("00", 0)
    if 0 in g:  # g ≡ true, f non-constant
        stats.base_cases += 1
        return False, ("11", _first_edge_m(f))

    # Cross-intersection, with the same canonical witness re-selection
    # as the frozenset path (set iteration order differs between the
    # two domains; the min() makes the certificate identical).
    if check_cross:
        misses = [e2 for e2 in g if not all(map(e2.__and__, f))]
        if misses:
            stats.base_cases += 1
            return False, ("11", universe & ~min(misses, key=mask_sort_key))

    if len(f) == 1:
        stats.base_cases += 1
        (term,) = f
        singles = frozenset(iter_bits(term))
        if g == singles:
            return True, None
        missing_bit = next(b for b in iter_bits(term) if b not in g)
        return False, ("00", universe & ~missing_bit)
    if len(g) == 1:
        resolved = _base_case_m(g, f, stats, check_cross=False)
        if resolved is None:
            return None
        is_dual, failing = resolved
        if failing is None:
            return is_dual, None
        kind, true_mask = failing
        return is_dual, (kind, universe & ~true_mask)

    if _weight_m(f, g) < 1.0:
        stats.base_cases += 1
        return False, ("00", _low_weight_assignment_m(f, g))

    return None


def _decide_m(
    f: frozenset[int],
    g: frozenset[int],
    stats: DecisionStats,
    depth: int,
    use_b: bool,
) -> _MaskAssignment | None:
    """Mask twin of :func:`_decide` — the same recursion, ints throughout.

    Only the root (``depth == 0``) tests cross-intersection; see
    :func:`_base_case_m`.
    """
    stats.nodes += 1
    stats.max_depth = max(stats.max_depth, depth)

    resolved = _base_case_m(f, g, stats, check_cross=depth == 0)
    if resolved is not None:
        _is_dual, failing = resolved
        return failing

    for f_child, g_child, delta in fk_branches(f, g, use_b):
        failing = _decide_m(f_child, g_child, stats, depth + 1, use_b)
        if failing is not None:
            kind, true_mask = failing
            return kind, true_mask | delta
    return None


def fk_branches(
    f: frozenset[int], g: frozenset[int], use_b: bool
) -> Iterator[tuple[frozenset[int], frozenset[int], int]]:
    """The subcalls of an FK node that no base case resolves, lazily, in
    the serial visiting order: ``(f′, g′, delta_bit)`` where
    ``delta_bit`` is the variable the child sets true (``0`` for the
    ``x = 0`` branch).

    The ``x = 0`` branch comes first; then, for B with every frequency
    below ``1/χ(|F|·|G|)``, one subproblem per ``u ∈ g₁`` in canonical
    order, otherwise A's ``x = 1`` branch.  The recursion stops drawing
    at the first failing child, so unvisited B-children are never built;
    the shard planner takes them all.
    """
    position, freq = _most_frequent_variable_m(f, g)
    xbit = 1 << position
    f0, _f1, f_at_1 = _split_m(f, xbit)
    g0, g1, g_at_1 = _split_m(g, xbit)

    # x = 0 branch: f|x=0 = f0 against g|x=1 = min(g0 ∪ g1).
    yield f0, g_at_1, 0

    volume = max(len(f) * len(g), 2)
    if use_b and freq < 1.0 / chi(volume) and g1:
        # B-branch: one subproblem per u ∈ g1 instead of the full
        # (f|x=1, g0) call.  Valid given the x=0 branch succeeded.
        for u in sorted(g1, key=mask_sort_key):
            yield (
                frozenset(filterfalse(u.__and__, f_at_1)),
                frozenset(antichain_minima(map((~u).__and__, g0))),
                xbit,
            )
    else:
        # x = 1 branch (algorithm A, and B's frequent-variable case).
        yield f_at_1, g0, xbit


def _assignment_to_result(
    method: str,
    g: Hypergraph,
    h: Hypergraph,
    failing: FailingAssignment,
    stats: DecisionStats,
) -> DualityResult:
    """Translate a failing assignment into the standard certificates."""
    universe = g.vertices | h.vertices
    kind, true_set = failing
    false_set = frozenset(universe - true_set)
    if kind == "00":
        # false_set meets every G-edge and covers no H-edge.
        return not_dual_result(
            method,
            FailureKind.MISSING_TRANSVERSAL,
            witness=false_set,
            detail="failing assignment with f(σ) = g(¬σ) = 0",
            stats=stats,
        )
    offending = next(e for e in h.edges if e <= false_set)
    return not_dual_result(
        method,
        FailureKind.EXTRA_EDGE,
        witness=offending,
        detail="failing assignment with f(σ) = g(¬σ) = 1",
        stats=stats,
    )


def _decide_fk(
    g: Hypergraph, h: Hypergraph, use_b: bool, use_bitset: bool = True
) -> DualityResult:
    method = "fredman-khachiyan-B" if use_b else "fredman-khachiyan-A"
    g.require_simple("G")
    h.require_simple("H")
    stats = DecisionStats()
    if use_bitset:
        index = VertexIndex(g.vertices | h.vertices)
        failing_m = _decide_m(
            frozenset(index.encode(e) for e in g.edges),
            frozenset(index.encode(e) for e in h.edges),
            stats,
            depth=0,
            use_b=use_b,
        )
        failing = (
            None
            if failing_m is None
            else (failing_m[0], index.decode(failing_m[1]))
        )
    else:
        failing = _decide(
            frozenset(g.edges), frozenset(h.edges), stats, depth=0, use_b=use_b
        )
    if failing is None:
        return dual_result(method, stats)
    return _assignment_to_result(method, g, h, failing, stats)


def decide_fk_a(
    g: Hypergraph, h: Hypergraph, use_bitset: bool = True
) -> DualityResult:
    """Fredman–Khachiyan algorithm A: binary recursion on a frequent variable.

    Decides ``H = tr(G)`` for simple hypergraphs over a shared universe
    in ``n^{O(log² n)}``-ish time (A's bound is ``n^{O(log n)}`` with the
    original frequency analysis); certificates as in
    :mod:`repro.duality.result`.  ``use_bitset=False`` selects the
    frozenset reference recursion (identical verdicts and certificates).
    """
    return _decide_fk(g, h, use_b=False, use_bitset=use_bitset)


def decide_fk_b(
    g: Hypergraph, h: Hypergraph, use_bitset: bool = True
) -> DualityResult:
    """Fredman–Khachiyan algorithm B: the ``n^{4χ(n)+O(1)}`` refinement.

    Falls back on A's branching when a frequent variable exists and uses
    the per-``g₁``-term decomposition otherwise.  ``use_bitset=False``
    selects the frozenset reference recursion.
    """
    return _decide_fk(g, h, use_b=True, use_bitset=use_bitset)
