"""Failure injection: malformed inputs must fail loudly and precisely.

Every documented exception path is exercised: wrong types, violated
preconditions, inconsistent claims, budget violations, corrupted files.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    InconsistentBorderError,
    InvalidInstanceError,
    NotACoterieError,
    NotIrredundantError,
    NotSimpleError,
    ParseError,
    ReproError,
    SpaceBudgetExceeded,
    VertexError,
)
from repro.hypergraph import Hypergraph

from tests.conftest import META_METHODS


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for exc_type in (
            InconsistentBorderError,
            InvalidInstanceError,
            NotACoterieError,
            NotIrredundantError,
            NotSimpleError,
            ParseError,
            SpaceBudgetExceeded,
            VertexError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_inconsistent_border_is_invalid_instance(self):
        assert issubclass(InconsistentBorderError, InvalidInstanceError)

    def test_space_budget_error_payload(self):
        exc = SpaceBudgetExceeded(100, 64)
        assert exc.used_bits == 100
        assert exc.budget_bits == 64
        assert "100" in str(exc)


class TestDualityInputValidation:
    def test_non_simple_g_rejected_by_every_engine(self):
        from repro.duality import available_methods, decide_duality

        bad = Hypergraph([{1}, {1, 2}])
        good = Hypergraph([{1}], vertices={1, 2})
        for method in available_methods():
            if method in META_METHODS:
                continue
            with pytest.raises(NotSimpleError):
                decide_duality(bad, good, method=method)

    def test_non_simple_h_rejected(self):
        from repro.duality import decide_duality

        with pytest.raises(NotSimpleError):
            decide_duality(Hypergraph([{1}]), Hypergraph([{1}, {1, 2}]))

    def test_redundant_dnf_rejected(self):
        from repro.dnf import MonotoneDNF
        from repro.duality import decide_dnf_duality

        with pytest.raises(NotIrredundantError):
            decide_dnf_duality(
                MonotoneDNF([{1}, {1, 2}]), MonotoneDNF([{1}])
            )

    def test_find_new_transversal_requires_entry_conditions(self):
        from repro.duality.logspace import find_new_transversal_logspace
        from repro.hypergraph.generators import (
            matching_dual_pair,
            perturb_enlarge_edge,
        )

        g, h = matching_dual_pair(2)
        with pytest.raises(ValueError):
            find_new_transversal_logspace(g, perturb_enlarge_edge(h))


class TestSpaceBudget:
    def test_budget_enforced_mid_computation(self):
        from repro.machine import SpaceMeter
        from repro.duality.logspace import pathnode_metered
        from repro.hypergraph.generators import matching_dual_pair

        g, h = matching_dual_pair(3)
        g, h = (h, g) if len(h) > len(g) else (g, h)
        tight = SpaceMeter(budget_bits=4)
        with pytest.raises(SpaceBudgetExceeded):
            pathnode_metered(g, h, (1,), meter=tight)

    def test_sufficient_budget_passes(self):
        from repro.machine import SpaceMeter
        from repro.duality.logspace import model_space_bits, pathnode_metered
        from repro.hypergraph.generators import matching_dual_pair

        g, h = matching_dual_pair(3)
        g, h = (h, g) if len(h) > len(g) else (g, h)
        roomy = SpaceMeter(budget_bits=model_space_bits(g, h) + 64)
        attrs, meter = pathnode_metered(g, h, (1,), meter=roomy)
        assert attrs is not None
        assert meter.live_bits == 0


class TestItemsetValidation:
    def test_threshold_domain(self):
        from repro.itemsets import BooleanRelation, is_frequent

        rel = BooleanRelation([{"a"}], items={"a"})
        with pytest.raises(InvalidInstanceError):
            is_frequent(rel, {"a"}, 0)
        with pytest.raises(InvalidInstanceError):
            is_frequent(rel, {"a"}, 2)

    def test_claimed_borders_checked(self):
        from repro.hypergraph import Hypergraph as HG
        from repro.itemsets import BooleanRelation, decide_identification

        rel = BooleanRelation([{"a", "b"}] * 3, items={"a", "b"})
        bogus_frequent = HG([{"a"}], vertices={"a", "b"})  # not maximal
        with pytest.raises(InconsistentBorderError):
            decide_identification(rel, 1, HG.empty({"a", "b"}), bogus_frequent)

    def test_inverse_mining_rejects_non_antichain(self):
        from repro.itemsets.inverse import realize_maximal_frequent

        with pytest.raises(InvalidInstanceError):
            realize_maximal_frequent(Hypergraph([{1}, {1, 2}]), z=1)

    def test_transaction_parse_errors(self):
        from repro.itemsets import io as txio

        with pytest.raises(ParseError):
            txio.loads("% bogus: directive\n")
        with pytest.raises(ParseError):
            txio.loads("% items: a\na b\n")


class TestKeysValidation:
    def test_duplicate_rows_rejected(self):
        from repro.keys import RelationalInstance

        with pytest.raises(InvalidInstanceError):
            RelationalInstance([{"A": 1}, {"A": 1}])

    def test_row_schema_mismatch(self):
        from repro.keys import RelationalInstance

        with pytest.raises(InvalidInstanceError):
            RelationalInstance([{"A": 1}, {"B": 2}])

    def test_claimed_non_key_rejected(self):
        from repro.hypergraph import Hypergraph as HG
        from repro.keys import RelationalInstance, decide_additional_key

        inst = RelationalInstance([{"A": 1, "B": 1}, {"A": 1, "B": 2}])
        with pytest.raises(InvalidInstanceError):
            decide_additional_key(inst, HG([{"A"}], vertices=("A", "B")))

    def test_fd_unknown_attribute(self):
        from repro.keys import FDSchema, fd

        with pytest.raises(InvalidInstanceError):
            FDSchema("AB", [fd("A", "Q")])


class TestCoterieValidation:
    def test_each_axiom_violation(self):
        from repro.coteries import Coterie

        with pytest.raises(NotACoterieError):
            Coterie([])
        with pytest.raises(NotACoterieError):
            Coterie([set()])
        with pytest.raises(NotACoterieError):
            Coterie([{1}, {1, 2}])
        with pytest.raises(NotACoterieError):
            Coterie([{1}, {2}])

    def test_vote_threshold_violations(self):
        from repro.coteries import coterie_from_votes

        with pytest.raises(NotACoterieError):
            coterie_from_votes({"a": 1, "b": 1}, threshold=1)  # two disjoint winners
        with pytest.raises(NotACoterieError):
            coterie_from_votes({"a": 1}, threshold=9)


class TestFileFormatErrors:
    def test_hypergraph_bad_directive(self):
        from repro.hypergraph import io as hgio

        with pytest.raises(ParseError):
            hgio.loads("% nonsense: 1 2\n")

    def test_hypergraph_universe_violation(self):
        from repro.hypergraph import io as hgio

        with pytest.raises(ParseError):
            hgio.loads("% vertices: 1\n1 2\n")

    def test_dnf_parse_failures(self):
        from repro.dnf import parse_dnf

        for bad in ("", "a |", "| a", "a $ b"):
            with pytest.raises(ParseError):
                parse_dnf(bad)
