"""Cross-engine agreement: every decider answers like the truth table.

This is the load-bearing test module for the repository: the reference
deciders (truth table, transversal oracle) define the problem, and every
sophisticated engine (FK-A, FK-B, Boros–Makino, logspace, guess-check,
Berge) is checked against them on exhaustive small instances, the
structured dual families, controlled perturbations, and hypothesis-
generated instances — with witness validity enforced on every negative
answer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.hypergraph import Hypergraph, transversal_hypergraph
from repro.hypergraph.generators import (
    degenerate_pairs,
    hard_nondual_pair,
    matching_dual_pair,
    perturb_drop_edge,
    perturb_enlarge_edge,
    random_dual_pair,
    standard_dual_suite,
    threshold_dual_pair,
)
from repro.duality import (
    available_methods,
    check_result_witness,
    decide_duality,
)
from repro.duality.result import FailureKind

from tests.conftest import nonempty_simple_hypergraphs

ALL_METHODS = available_methods()
FAST_METHODS = [m for m in ALL_METHODS if m != "truth-table"]


@pytest.fixture(scope="module", autouse=True)
def _trained_auto_model():
    """``auto`` solves through a trained selector here, not a cold-start
    race of the whole portfolio; the cold-start path has its own tests
    in ``test_select.py``."""
    from repro.hypergraph import mask_payload
    from repro.obs.timings import structural_features
    from repro.select import fit_engine_model, reset_default_model, set_default_model

    rows = []
    for k in range(2, 8):
        g, h = matching_dual_pair(k)
        features = structural_features(mask_payload(g), mask_payload(h))
        fast, slow = ("fk-b", "bm") if k < 5 else ("bm", "fk-b")
        rows.append({"engine": fast, "elapsed_s": 0.001, **features})
        rows.append({"engine": slow, "elapsed_s": 0.05, **features})
    set_default_model(fit_engine_model(rows))
    yield
    reset_default_model()


@pytest.mark.parametrize("method", ALL_METHODS)
class TestAgainstGroundTruth:
    def test_dual_suite_accepted(self, method):
        for name, g, h in standard_dual_suite(max_matching=3, max_threshold=5):
            result = decide_duality(g, h, method=method)
            assert result.is_dual, f"{method} rejected dual pair {name}"

    def test_dropped_edge_rejected_with_valid_witness(self, method):
        for name, g, h in standard_dual_suite(max_matching=3, max_threshold=4):
            if len(h) <= 1:
                continue
            broken = perturb_drop_edge(h)
            result = decide_duality(g, broken, method=method)
            assert not result.is_dual, f"{method} accepted broken pair {name}"
            assert check_result_witness(g, broken, result), (
                f"{method} returned an invalid witness on {name}: "
                f"{result.certificate}"
            )

    def test_enlarged_edge_rejected(self, method):
        for name, g, h in standard_dual_suite(max_matching=2, max_threshold=4):
            if len(h) == 0:
                continue
            broken = perturb_enlarge_edge(h)
            result = decide_duality(g, broken, method=method)
            assert not result.is_dual, f"{method} accepted non-minimal H on {name}"
            assert check_result_witness(g, broken, result)

    def test_degenerate_pairs(self, method):
        for name, g, h, expected in degenerate_pairs():
            result = decide_duality(g, h, method=method)
            assert result.is_dual == expected, f"{method} wrong on {name}"

    def test_hard_nondual(self, method):
        g, h = hard_nondual_pair(3)
        result = decide_duality(g, h, method=method)
        assert not result.is_dual
        assert check_result_witness(g, h, result)

    def test_self_duality_of_majority(self, method):
        from repro.hypergraph.generators import self_dual_majority

        m = self_dual_majority(5)
        assert decide_duality(m, m, method=method).is_dual

    def test_matching_is_not_self_dual(self, method):
        g, _ = matching_dual_pair(2)
        result = decide_duality(g, g, method=method)
        assert not result.is_dual


@pytest.mark.parametrize("method", FAST_METHODS)
class TestHypothesisAgreement:
    @given(nonempty_simple_hypergraphs(max_vertices=5, max_edges=4))
    @settings(max_examples=30, deadline=None)
    def test_exact_dual_is_accepted(self, method, hg):
        h = transversal_hypergraph(hg)
        assert decide_duality(hg, h, method=method).is_dual

    @given(
        nonempty_simple_hypergraphs(max_vertices=5, max_edges=4),
        nonempty_simple_hypergraphs(max_vertices=5, max_edges=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_agreement_with_truth_table(self, method, g, h):
        expected = decide_duality(g, h, method="truth-table")
        actual = decide_duality(g, h, method=method)
        assert actual.is_dual == expected.is_dual
        if not actual.is_dual:
            assert check_result_witness(g, h, actual)


class TestResultShape:
    def test_dual_result_has_no_witness(self):
        g, h = matching_dual_pair(2)
        result = decide_duality(g, h, method="bm")
        assert result.is_dual
        assert result.witness is None
        assert bool(result)

    def test_nondual_result_carries_kind(self):
        g, h = hard_nondual_pair(2)
        result = decide_duality(g, h, method="bm")
        assert result.certificate.kind is FailureKind.MISSING_TRANSVERSAL
        assert result.certificate.path is not None

    def test_unknown_method_rejected(self):
        g, h = matching_dual_pair(1)
        with pytest.raises(ValueError):
            decide_duality(g, h, method="quantum")

    def test_stats_populated_by_bm(self):
        g, h = threshold_dual_pair(5, 3)
        result = decide_duality(g, h, method="bm")
        assert result.stats.nodes > 0
        assert result.stats.max_depth >= 1

    def test_logspace_reports_space(self):
        g, h = matching_dual_pair(3)
        result = decide_duality(g, h, method="logspace")
        assert result.stats.peak_space_bits > 0

    def test_guess_check_reports_guessed_bits(self):
        g, h = matching_dual_pair(3)
        result = decide_duality(g, h, method="guess-check")
        assert result.stats.guessed_bits > 0


class TestDnfInterface:
    def test_dnf_duality(self):
        from repro.dnf import parse_dnf
        from repro.duality import decide_dnf_duality

        f = parse_dnf("a b | c")
        g = parse_dnf("a c | b c")
        result = decide_dnf_duality(f, g)
        assert result.is_dual

    def test_redundant_dnf_rejected(self):
        from repro.dnf import MonotoneDNF
        from repro.duality import decide_dnf_duality
        from repro.errors import NotIrredundantError

        with pytest.raises(NotIrredundantError):
            decide_dnf_duality(MonotoneDNF([{1}, {1, 2}]), MonotoneDNF([{1}]))

    def test_is_self_dual(self):
        from repro.duality import is_self_dual
        from repro.hypergraph.generators import self_dual_majority

        assert is_self_dual(self_dual_majority(3))
        assert not is_self_dual(Hypergraph([{0, 1}]))


class TestBergeInstrumentation:
    def test_peak_intermediate_recorded(self):
        g, h = matching_dual_pair(4)
        result = decide_duality(g, h, method="berge")
        assert result.stats.extra["peak_intermediate"] >= len(h)

    def test_cap_raises(self):
        from repro.duality.berge import decide_by_berge

        g, h = matching_dual_pair(5)
        with pytest.raises(MemoryError):
            decide_by_berge(g, h, intermediate_cap=3)


class TestRandomDualPairs:
    @pytest.mark.parametrize("seed", range(6))
    def test_all_methods_accept(self, seed):
        g, h = random_dual_pair(6, 4, seed=seed)
        for method in FAST_METHODS:
            assert decide_duality(g, h, method=method).is_dual, method

    @pytest.mark.parametrize("seed", range(6))
    def test_all_methods_reject_perturbed(self, seed):
        g, h = random_dual_pair(6, 4, seed=seed)
        if len(h) <= 1:
            pytest.skip("dual too small to perturb")
        broken = perturb_drop_edge(h, index=seed)
        for method in FAST_METHODS:
            result = decide_duality(g, broken, method=method)
            assert not result.is_dual, method
            assert check_result_witness(g, broken, result), method


class TestUnknownMethodError:
    def test_error_lists_every_valid_method(self):
        from repro.duality.engine import available_methods

        g = Hypergraph([{1, 2}])
        h = Hypergraph([{1}, {2}])
        with pytest.raises(ValueError) as excinfo:
            decide_duality(g, h, method="no-such-engine")
        message = str(excinfo.value)
        assert "no-such-engine" in message
        for name in available_methods():
            assert repr(name) in message

    def test_error_suggests_the_closest_method(self):
        g = Hypergraph([{1, 2}])
        h = Hypergraph([{1}, {2}])
        with pytest.raises(ValueError, match=r"did you mean 'fk-a'\?"):
            decide_duality(g, h, method="fk_a")
