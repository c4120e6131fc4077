"""End-to-end integration flows across modules.

Each test walks a realistic pipeline from raw input to verified output,
crossing at least two subpackages — the flows a downstream user of the
library would actually run.
"""

from __future__ import annotations

from repro.dnf import parse_dnf
from repro.hypergraph import Hypergraph, transversal_hypergraph
from repro.hypergraph import io as hgio
from repro.duality import decide_dnf_duality, decide_duality
from repro.duality.witness import extract_missing_minimal_transversal

from tests.conftest import META_METHODS


class TestDnfToWitnessFlow:
    def test_parse_decide_minimalise(self):
        f = parse_dnf("a b | c d")
        true_dual = f.dual_formula()
        # Drop one prime implicant of the dual and refute.
        wrong = Hypergraph(
            list(true_dual.hypergraph().edges)[:-1],
            vertices=true_dual.variables,
        )
        from repro.dnf import MonotoneDNF
        from repro.duality.witness import witness_direction_pair

        result = decide_dnf_duality(f, MonotoneDNF.from_hypergraph(wrong))
        assert not result.is_dual
        # The engine may report the witness in either direction (it
        # swaps sides for |H| > |G|); resolve it before minimalising.
        base, reference = witness_direction_pair(f.hypergraph(), wrong, result)
        missing = extract_missing_minimal_transversal(
            base, reference, result.witness
        )
        assert missing in set(transversal_hypergraph(base).edges)
        assert missing not in set(reference.edges)

    def test_fixed_direction_witness_via_logspace(self):
        # find_new_transversal_logspace never swaps: its witness always
        # speaks about tr(G) vs H, so the missing dual term is direct.
        from repro.duality.logspace import find_new_transversal_logspace

        f = parse_dnf("a b | c d")
        true_dual = f.dual_formula()
        wrong = Hypergraph(
            list(true_dual.hypergraph().edges)[:-1],
            vertices=true_dual.variables,
        )
        witness = find_new_transversal_logspace(f.hypergraph(), wrong)
        missing = extract_missing_minimal_transversal(
            f.hypergraph(), wrong, witness
        )
        assert missing in set(true_dual.hypergraph().edges)
        assert missing not in set(wrong.edges)

    def test_file_roundtrip_to_decision(self, tmp_path):
        g = Hypergraph([{0, 1}, {1, 2}, {0, 2}], vertices=range(3))
        path = tmp_path / "g.hg"
        hgio.dump(g, path)
        loaded = hgio.load(path)
        assert decide_duality(loaded, transversal_hypergraph(loaded)).is_dual


class TestMiningFlow:
    def test_transactions_to_borders_to_identification(self, tmp_path):
        from repro.itemsets import (
            decide_identification,
            enumerate_borders,
            io as txio,
        )
        from repro.itemsets.datasets import market_basket

        relation = market_basket(n_items=7, n_rows=25, seed=99)
        path = tmp_path / "baskets.txt"
        txio.dump(relation, path)
        reloaded = txio.load(path)
        assert reloaded == relation

        z = 4
        is_plus, is_minus, _ = enumerate_borders(reloaded, z, method="fk-b")
        outcome = decide_identification(reloaded, z, is_minus, is_plus)
        assert outcome.complete

    def test_witness_grows_into_new_border_set(self):
        from repro.itemsets import decide_identification, levelwise_borders
        from repro.itemsets.datasets import planted_borders
        from repro.itemsets.frequency import is_frequent

        relation, z, _ = planted_borders(n_items=6, z=2, seed=12)
        is_plus, is_minus = levelwise_borders(relation, z)
        if len(is_plus) <= 1:
            return
        partial = Hypergraph(list(is_plus.edges)[1:], vertices=relation.items)
        outcome = decide_identification(relation, z, is_minus, partial)
        assert not outcome.complete
        new_set = outcome.new_maximal_frequent or outcome.new_minimal_infrequent
        if outcome.new_maximal_frequent is not None:
            assert is_frequent(relation, new_set, z)
            assert new_set in set(is_plus.edges)


class TestKeysFlow:
    def test_armstrong_to_keys_to_additional_key(self):
        from repro.keys import (
            FDSchema,
            armstrong_relation,
            decide_additional_key,
            fd,
            minimal_keys,
        )

        schema = FDSchema("ABCD", [fd("AB", "C"), fd("C", "D"), fd("D", "A")])
        instance = armstrong_relation(schema)
        keys = minimal_keys(instance)
        assert keys == schema.candidate_keys()
        outcome = decide_additional_key(instance, keys, method="logspace")
        assert not outcome.exists

    def test_csv_like_flow(self):
        from repro.keys import RelationalInstance, enumerate_minimal_keys_incrementally

        instance = RelationalInstance(
            [
                {"id": i, "grp": i % 2, "tag": ("x" if i < 2 else "y")}
                for i in range(4)
            ]
        )
        keys = enumerate_minimal_keys_incrementally(instance, method="fk-a")
        assert frozenset({"id"}) in set(keys)


class TestCoterieFlow:
    def test_audit_repair_reaudit(self):
        from repro.coteries import dominating_coterie, grid_coterie

        grid = grid_coterie(2, 2)
        assert not grid.is_nondominated(method="guess-check")
        repaired = dominating_coterie(grid, method="bm")
        assert repaired.dominates(grid)
        # Iterating repair reaches a non-dominated coterie.
        current = repaired
        for _ in range(10):
            if current.is_nondominated():
                break
            current = dominating_coterie(current)
        assert current.is_nondominated()

    def test_votes_to_duality(self):
        from repro.coteries import coterie_from_votes

        coterie = coterie_from_votes({"a": 1, "b": 1, "c": 1, "d": 1, "e": 1})
        hg = coterie.hypergraph()
        assert decide_duality(hg, hg, method="fk-b").is_dual


class TestCrossEngineCertificates:
    def test_certificate_path_replays_across_engines(self):
        from repro.hypergraph.generators import hard_nondual_pair
        from repro.duality.guess_and_check import check_certificate

        g, h = hard_nondual_pair(3)
        result = decide_duality(g, h, method="guess-check")
        assert not result.is_dual
        gg, hh = (h, g) if len(h) > len(g) else (g, h)
        assert check_certificate(gg, hh, result.certificate.path)

    def test_all_engines_one_instance_full_pipeline(self):
        from repro.duality import available_methods, check_result_witness
        from repro.hypergraph.generators import random_dual_pair, perturb_drop_edge

        g, h = random_dual_pair(6, 4, seed=42)
        broken = perturb_drop_edge(h)
        for method in available_methods():
            if method in META_METHODS:
                continue
            result = decide_duality(g, broken, method=method)
            assert not result.is_dual, method
            assert check_result_witness(g, broken, result), method
