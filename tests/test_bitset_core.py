"""Bitset/frozenset equivalence: the mask kernels agree with the set code.

The bitset layer (:mod:`repro.core`) re-implements the library's hot
loops on integer masks.  These property-style tests pin the contract on
randomized instances from :mod:`repro.hypergraph.generators`:

* kernel level — minimalisation, maximalisation, antichain and
  transversality checks match :mod:`repro._util` /
  :mod:`repro.hypergraph.transversal` semantics;
* engine level — deciders running on masks return the *identical*
  :class:`DualityResult` (verdict and certificate) as the frozenset
  reference paths;
* application level — vertical-bitmap frequency counting equals the
  definitional row scan.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._util import is_antichain, maximize_family, minimize_family
from repro.core import (
    BitsetFamily,
    VertexIndex,
    antichain_minima,
    column_counts,
    covers_none,
    is_minimal_transversal_mask,
    iter_bits,
    mask_sort_key,
    masks_are_antichain,
    maximalize_masks,
    meets_all,
    minimalize_masks,
)
from repro.duality.boros_makino import majority_mask
from repro.duality.fredman_khachiyan import _base_case_m, _split_m, fk_branches
from repro.duality.result import DecisionStats
from repro.hypergraph import Hypergraph
from repro.hypergraph.generators import (
    hard_nondual_pair,
    matching_dual_pair,
    perturb_drop_edge,
    perturb_enlarge_edge,
    random_dual_pair,
    random_simple,
    standard_dual_suite,
)
from repro.hypergraph.operations import use_bitset_kernels
from repro.hypergraph.transversal import (
    is_minimal_transversal,
    is_new_transversal,
    is_transversal,
    minimalize_transversal,
    transversal_hypergraph,
    transversal_hypergraph_reference,
)
from repro.itemsets.datasets import dense_random, market_basket
from repro.itemsets.frequency import (
    frequency,
    frequency_scan,
    item_frequencies,
    support_map,
)


def random_families(count: int = 40, seed: int = 7):
    """Random (universe, family-of-frozensets) pairs, non-simple included."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        universe = list(range(n))
        edges = [
            frozenset(rng.sample(universe, rng.randint(0, n)))
            for _ in range(rng.randint(0, 10))
        ]
        yield universe, edges


class TestVertexIndex:
    def test_roundtrip_on_mixed_universe(self):
        universe = {1, 2, "a", "b", (0, "x")}
        index = VertexIndex(universe)
        for subset in (set(), {1}, {"a", (0, "x")}, universe):
            assert index.decode(index.encode(subset)) == frozenset(subset)

    def test_bit_order_is_canonical_vertex_order(self):
        from repro._util import vertex_key

        universe = [5, 3, "z", "aa", 10]
        index = VertexIndex(universe)
        assert list(index.vertices) == sorted(set(universe), key=vertex_key)

    def test_encode_within_clips_foreign_vertices(self):
        index = VertexIndex([1, 2, 3])
        assert index.encode_within([1, "ghost", 3]) == index.encode([1, 3])

    def test_mask_order_equals_edge_sort_key_order(self):
        from repro._util import sort_key

        for universe, edges in random_families(20, seed=13):
            index = VertexIndex(universe)
            by_mask = sorted(
                set(edges), key=lambda e: mask_sort_key(index.encode(e))
            )
            by_key = sorted(set(edges), key=sort_key)
            assert by_mask == by_key


@st.composite
def mask_families(draw):
    """A universe width in 0–200 and a family of masks over it (the empty
    mask and duplicates included)."""
    width = draw(st.integers(min_value=0, max_value=200))
    mask = st.one_of(st.just(0), st.integers(min_value=0, max_value=(1 << width) - 1))
    return width, draw(st.lists(mask, max_size=25))


def _positions_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """The definitional canonical key: popcount, then ascending positions."""
    return (mask.bit_count(), tuple(p for p in range(mask.bit_length()) if mask >> p & 1))


class TestMaskSortKey:
    """``mask_sort_key`` orders masks exactly as ``sort_key`` orders the
    decoded edges, and as the popcount-then-positions key it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(mask_families())
    @example((0, [0]))
    @example((0, []))
    @example((3, [0b011, 0b101, 0b110, 0, 0b111, 0b001]))
    @example((200, [1 << 199, 1, (1 << 200) - 1, 0, (1 << 199) | 1]))
    def test_sorted_and_min_follow_sort_key_on_decoded_edges(self, family):
        from repro._util import sort_key

        width, masks = family
        index = VertexIndex(range(width))
        edges = [index.decode(m) for m in masks]
        by_mask = [index.decode(m) for m in sorted(masks, key=mask_sort_key)]
        assert by_mask == sorted(edges, key=sort_key)
        assert sorted(masks, key=mask_sort_key) == sorted(masks, key=_positions_key)
        if masks:
            assert index.decode(min(masks, key=mask_sort_key)) == min(
                edges, key=sort_key
            )

    @settings(max_examples=200, deadline=None)
    @given(mask_families())
    @example((0, [0]))
    @example((4, [0b0011, 0b0111, 0b1000, 0b0110, 0]))
    def test_maximalize_masks_is_unchanged(self, family):
        _width, masks = family
        unique = set(masks)
        maximal = [
            m for m in unique if not any(m != o and m & o == m for o in unique)
        ]
        assert list(maximalize_masks(masks)) == sorted(maximal, key=_positions_key)


class TestKernelEquivalence:
    def test_minimalize_matches_minimize_family(self):
        for universe, edges in random_families():
            index = VertexIndex(universe)
            masks = minimalize_masks(index.encode(e) for e in edges)
            assert frozenset(index.decode(m) for m in masks) == minimize_family(
                edges
            )
            # Canonical ordering on top of the set equality.
            assert list(masks) == sorted(masks, key=mask_sort_key)

    def test_maximalize_matches_maximize_family(self):
        for universe, edges in random_families(seed=11):
            index = VertexIndex(universe)
            masks = maximalize_masks(index.encode(e) for e in edges)
            assert frozenset(index.decode(m) for m in masks) == maximize_family(
                edges
            )

    def test_antichain_check_matches(self):
        for universe, edges in random_families(seed=23):
            index = VertexIndex(universe)
            assert masks_are_antichain(
                index.encode(e) for e in edges
            ) == is_antichain(edges)

    def test_family_transversal_matches_reference(self):
        for seed in range(12):
            hg = random_simple(7, 5, seed=seed)
            family = BitsetFamily.from_sets(hg.edges, universe=hg.vertices)
            decoded = family.transversal_family().decode()
            expected = transversal_hypergraph_reference(hg)
            assert decoded == expected.edges


class TestTransversalEquivalence:
    def test_bitset_berge_equals_frozenset_berge(self):
        for name, g, _h in standard_dual_suite(max_matching=4, max_threshold=5):
            fast = transversal_hypergraph(g)
            slow = transversal_hypergraph_reference(g)
            assert fast == slow, name
            assert fast.edges == slow.edges, name  # same canonical order

    def test_orders_agree_between_impls(self):
        g = random_simple(8, 6, seed=3)
        for order in ("canonical", "small-first", "large-first", "interleaved"):
            assert transversal_hypergraph(
                g, order=order
            ) == transversal_hypergraph_reference(g, order=order)

    def test_predicates_against_definition(self):
        rng = random.Random(5)
        for seed in range(25):
            hg = random_simple(8, 5, seed=seed)
            candidate = frozenset(
                v for v in hg.vertices if rng.random() < 0.5
            )
            definitional = all(candidate & e for e in hg.edges)
            assert is_transversal(candidate, hg) == definitional
            minimal_def = definitional and all(
                any(candidate & e == {v} for e in hg.edges) for v in candidate
            )
            assert is_minimal_transversal(candidate, hg) == minimal_def

    def test_new_transversal_against_definition(self):
        for seed in range(10):
            g, h = random_dual_pair(6, 4, seed=seed)
            if not h.edges:
                continue
            broken = perturb_drop_edge(h)
            dropped = set(h.edges) - set(broken.edges)
            witness = next(iter(dropped))
            assert is_new_transversal(witness, g, broken)
            assert not is_new_transversal(witness, g, h)

    def test_minimalize_transversal_ignores_foreign_vertices(self):
        hg = Hypergraph([{1, 2}, {3, 4}])
        result = minimalize_transversal({1, 3, "ghost"}, hg)
        assert result <= hg.vertices
        assert is_minimal_transversal(result, hg)


class TestEngineEquivalence:
    """Mask and frozenset engine paths return identical DualityResults."""

    def _instances(self):
        for name, g, h in standard_dual_suite(max_matching=4, max_threshold=5):
            yield name, g, h
            if h.edges:
                yield name + "+drop", g, perturb_drop_edge(h)
                yield name + "+enlarge", g, perturb_enlarge_edge(h)
        for k in (2, 3):
            yield f"hard-{k}", *hard_nondual_pair(k)
        for seed in (11, 12, 13):
            yield f"random-{seed}", *random_dual_pair(7, 5, seed=seed)

    def _cross_failing_instances(self):
        """Simple pairs whose root fails cross-intersection."""
        g, h = matching_dual_pair(3)
        yield "matching+foreign", g, Hypergraph([*h.edges, {"z"}])
        yield "matching+singleton", g, Hypergraph([*h.edges, {0}]).minimized()
        for seed in range(6):
            yield (
                f"independent-{seed}",
                random_simple(6, 4, seed=seed),
                random_simple(6, 3, seed=seed + 100),
            )

    @pytest.mark.parametrize("use_b", (False, True))
    def test_fredman_khachiyan_paths_agree(self, use_b):
        """Verdict, certificate and stats: the mask path tests
        cross-intersection at the root only, the reference at every node."""
        from repro.duality.fredman_khachiyan import decide_fk_a, decide_fk_b

        decide = decide_fk_b if use_b else decide_fk_a
        crossing = list(self._cross_failing_instances())
        for name, g, h in (*self._instances(), *crossing):
            fast = decide(g, h, use_bitset=True)
            slow = decide(g, h, use_bitset=False)
            assert fast.verdict == slow.verdict, name
            assert fast.certificate == slow.certificate, name
            for counter in ("nodes", "max_depth", "base_cases"):
                assert getattr(fast.stats, counter) == getattr(
                    slow.stats, counter
                ), (name, counter)
        for name, g, h in crossing:
            result = decide(g, h)
            assert not result.is_dual, name
            if any(not e & e2 for e in g.edges for e2 in h.edges):
                assert result.stats.nodes == 1, name

    @pytest.mark.parametrize("method", ("bm", "logspace"))
    def test_decomposition_engines_unchanged_by_kernel_toggle(self, method):
        from repro.duality.engine import decide_duality

        for name, g, h in self._instances():
            fast = decide_duality(g, h, method=method)
            use_bitset_kernels(False)
            try:
                slow = decide_duality(g, h, method=method)
            finally:
                use_bitset_kernels(True)
            assert fast.verdict == slow.verdict, (name, method)
            assert fast.certificate == slow.certificate, (name, method)

    def test_all_engines_agree_on_randomized_instances(self):
        from repro.duality.engine import decide_duality

        methods = ("transversal", "berge", "fk-a", "fk-b", "bm", "logspace")
        for name, g, h in self._instances():
            verdicts = {
                m: decide_duality(g, h, method=m).verdict for m in methods
            }
            assert len(set(verdicts.values())) == 1, (name, verdicts)


class TestFrequencyEquivalence:
    def _relations(self):
        yield market_basket(n_items=10, n_rows=60, seed=3)
        yield dense_random(n_items=8, n_rows=40, density=0.4, seed=9)
        yield dense_random(n_items=12, n_rows=80, density=0.6, seed=10)

    def test_bitmap_frequency_equals_row_scan(self):
        rng = random.Random(1)
        for relation in self._relations():
            items = sorted(relation.items, key=repr)
            for _ in range(30):
                u = rng.sample(items, rng.randint(0, min(5, len(items))))
                assert frequency(relation, u) == frequency_scan(relation, u)

    def test_support_map_equals_row_scan(self):
        rng = random.Random(2)
        for relation in self._relations():
            items = sorted(relation.items, key=repr)
            queries = [
                frozenset(rng.sample(items, rng.randint(0, 3)))
                for _ in range(20)
            ]
            support = support_map(relation, queries)
            assert support == {
                u: frequency_scan(relation, u) for u in set(queries)
            }

    def test_item_frequencies_equal_row_scan(self):
        for relation in self._relations():
            assert item_frequencies(relation) == {
                a: frequency_scan(relation, {a}) for a in relation.items
            }

    def test_empty_itemset_counts_all_rows(self):
        relation = market_basket(n_items=6, n_rows=25, seed=4)
        assert frequency(relation, ()) == len(relation)


# ---------------------------------------------------------------------------
# Rewritten kernels against their brute-force definitions
# ---------------------------------------------------------------------------

#: Small mask families over 6 bits (the empty mask and empty family included).
MASKS = st.lists(st.integers(min_value=0, max_value=63), max_size=7)
MASK = st.integers(min_value=0, max_value=63)


def _union(masks) -> int:
    union = 0
    for mask in masks:
        union |= mask
    return union


def _is_transversal(candidate: int, masks) -> bool:
    return all(candidate & mask != 0 for mask in masks)


class TestKernelDefinitions:
    @settings(max_examples=200, deadline=None)
    @given(MASKS)
    def test_masks_are_antichain(self, masks):
        containment = any(
            a != b and a & b == a for a in masks for b in masks
        )
        assert masks_are_antichain(masks) == (not containment)

    @settings(max_examples=200, deadline=None)
    @given(MASK, MASKS)
    @example(0, [])
    @example(0, [3])
    @example(5, [])
    @example(1, [0, 1])
    def test_is_minimal_transversal_mask(self, candidate, masks):
        minimal = _is_transversal(candidate, masks) and not any(
            _is_transversal(candidate & ~bit, masks)
            for bit in iter_bits(candidate)
        )
        assert is_minimal_transversal_mask(candidate, masks) == minimal

    @settings(max_examples=200, deadline=None)
    @given(MASK, MASKS)
    def test_meets_all_and_covers_none(self, candidate, masks):
        assert meets_all(candidate, masks) == _is_transversal(candidate, masks)
        assert covers_none(candidate, masks) == (
            not any(mask & candidate == mask for mask in masks)
        )

    @settings(max_examples=200, deadline=None)
    @given(MASKS)
    def test_column_counts_and_majority(self, masks):
        counts = {
            1 << pos: sum(1 for mask in masks if mask >> pos & 1)
            for pos in range(6)
        }
        union = _union(masks)
        assert column_counts(masks) == {
            bit: count for bit, count in counts.items() if bit & union
        }
        assert list(column_counts(masks)) == sorted(column_counts(masks))
        assert column_counts(masks, 63) == counts
        assert majority_mask(masks) == _union(
            bit for bit, count in counts.items() if count > len(masks) / 2
        )

    @settings(max_examples=200, deadline=None)
    @given(MASKS, st.integers(min_value=0, max_value=5))
    def test_split_minimises_like_antichain_minima(self, masks, position):
        edges = frozenset(antichain_minima(masks))
        xbit = 1 << position
        f0, f1, f_at_1 = _split_m(edges, xbit)
        assert f0 == {e for e in edges if not e & xbit}
        assert f1 == {e & ~xbit for e in edges if e & xbit}
        assert f_at_1 == frozenset(antichain_minima(f0 | f1))


@st.composite
def _cross_intersecting_mask_pairs(draw):
    """A simple family ``f`` of non-empty masks and a simple family ``g``
    of transversals of ``f``: a simple, cross-intersecting pair."""
    nonempty = st.integers(min_value=1, max_value=63)
    f = frozenset(
        antichain_minima(draw(st.lists(nonempty, min_size=1, max_size=6)))
    )
    g_masks = []
    for seed in draw(st.lists(st.integers(0, 63), min_size=1, max_size=6)):
        for edge in sorted(f):
            if not seed & edge:
                seed |= edge & -edge  # add the edge's lowest bit
        g_masks.append(seed)
    return f, frozenset(antichain_minima(g_masks))


def _cross_intersecting(f, g) -> bool:
    return all(e & e2 for e in f for e2 in g)


class TestFkBranchInvariant:
    """Every split of the FK recursion keeps a simple, cross-intersecting
    pair simple and cross-intersecting — why the mask recursion tests
    cross-intersection at the root only."""

    @settings(max_examples=150, deadline=None)
    @given(_cross_intersecting_mask_pairs(), st.booleans())
    def test_children_stay_simple_and_cross_intersecting(self, pair, use_b):
        pending = [pair]
        visited = 0
        while pending and visited < 200:
            f, g = pending.pop()
            visited += 1
            assert masks_are_antichain(f) and masks_are_antichain(g)
            assert _cross_intersecting(f, g)
            stats = DecisionStats()
            if _base_case_m(f, g, stats, check_cross=False) is not None:
                continue
            assert stats.base_cases == 0
            for f_child, g_child, _delta in fk_branches(f, g, use_b):
                pending.append((f_child, g_child))
