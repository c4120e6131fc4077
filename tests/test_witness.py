"""Tests for witness classification and minimalization (Cor. 4.1 discussion)."""

from __future__ import annotations

import pytest

from repro.hypergraph import Hypergraph, transversal_hypergraph
from repro.hypergraph.generators import (
    hard_nondual_pair,
    matching_dual_pair,
    perturb_drop_edge,
    perturb_enlarge_edge,
)
from repro.hypergraph.transversal import is_minimal_transversal
from repro.duality import decide_duality
from repro.duality.witness import (
    WitnessRole,
    check_result_witness,
    classify_witness,
    explain,
    extract_missing_minimal_transversal,
    witness_direction_pair,
)

from tests.conftest import META_METHODS


class TestClassifyWitness:
    def test_new_transversal_of_g(self):
        g, h = matching_dual_pair(2)
        broken = perturb_drop_edge(h)
        missing = (set(h.edges) - set(broken.edges)).pop()
        assert classify_witness(g, broken, missing) is WitnessRole.NEW_TRANSVERSAL_OF_G

    def test_new_transversal_of_h(self):
        g, h = matching_dual_pair(2)
        broken_g = perturb_drop_edge(g)
        # With G missing an edge, some subset traverses H without
        # containing a G-edge... direction flips: classify from (broken_g, h).
        missing = (set(g.edges) - set(broken_g.edges)).pop()
        assert classify_witness(broken_g, h, missing) is WitnessRole.NEW_TRANSVERSAL_OF_H

    def test_extra_edge_of_h(self):
        g, h = matching_dual_pair(2)
        fat = perturb_enlarge_edge(h)
        fat_edge = max(fat.edges, key=len)
        assert classify_witness(g, fat, fat_edge) is WitnessRole.EXTRA_EDGE_OF_H

    def test_invalid(self):
        g, h = matching_dual_pair(2)
        assert classify_witness(g, h, frozenset({0})) is WitnessRole.INVALID


class TestResultValidation:
    def test_every_engine_witness_validates(self):
        from repro.duality import available_methods

        g, h = hard_nondual_pair(3)
        for method in available_methods():
            if method in META_METHODS:
                continue
            result = decide_duality(g, h, method=method)
            assert not result.is_dual
            assert check_result_witness(g, h, result), method

    def test_dual_results_pass_trivially(self):
        g, h = matching_dual_pair(2)
        result = decide_duality(g, h, method="bm")
        assert check_result_witness(g, h, result)

    def test_direction_pair(self):
        g, h = hard_nondual_pair(2)
        result = decide_duality(g, h, method="transversal")
        pair = witness_direction_pair(g, h, result)
        assert pair is not None

    def test_explain_strings(self):
        g, h = matching_dual_pair(2)
        assert "dual" in explain(g, h, decide_duality(g, h))
        g2, h2 = hard_nondual_pair(2)
        text = explain(g2, h2, decide_duality(g2, h2))
        assert "not dual" in text


class TestMinimalization:
    def test_extracts_missing_minimal_transversal(self):
        g, h = matching_dual_pair(3)
        broken = perturb_drop_edge(h, index=1)
        result = decide_duality(g, broken, method="logspace")
        witness = result.witness
        universe = g.vertices
        minimal = extract_missing_minimal_transversal(g, broken, witness)
        assert is_minimal_transversal(minimal, g.with_vertices(universe))
        assert minimal not in set(broken.edges)
        assert minimal in set(transversal_hypergraph(g).edges)

    def test_rejects_non_witness(self):
        g, h = matching_dual_pair(2)
        with pytest.raises(ValueError):
            extract_missing_minimal_transversal(g, h, frozenset({0}))

    def test_minimalization_idempotent_on_minimal(self):
        g, h = matching_dual_pair(2)
        broken = perturb_drop_edge(h)
        missing = (set(h.edges) - set(broken.edges)).pop()
        assert extract_missing_minimal_transversal(g, broken, missing) == missing
