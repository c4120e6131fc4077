"""Tests for Section 5: guess-and-check certificates (Thm 5.1, Lemma 5.1)."""

from __future__ import annotations

import math

import pytest

from repro.hypergraph.generators import (
    hard_nondual_pair,
    matching_dual_pair,
    perturb_drop_edge,
    perturb_enlarge_edge,
    standard_dual_suite,
    threshold_dual_pair,
)
from repro.duality.guess_and_check import (
    certificate_for,
    check_certificate,
    check_certificate_metered,
    decide_guess_and_check,
)
from repro.duality.logspace import descriptor_bits, instance_size

from tests.conftest import count_project_calls, frozenset_reference


def _ordered(g, h):
    return (h, g) if len(h) > len(g) else (g, h)


class TestCertificates:
    def test_dual_instance_has_no_certificate(self):
        g, h = _ordered(*matching_dual_pair(3))
        assert certificate_for(g, h) is None

    def test_nondual_instance_has_verified_certificate(self):
        g, h = _ordered(*hard_nondual_pair(3))
        pi = certificate_for(g, h)
        assert pi is not None
        assert check_certificate(g, h, pi)

    def test_wrong_guesses_rejected(self):
        g, h = _ordered(*hard_nondual_pair(3))
        assert not check_certificate(g, h, (10 ** 9,))
        assert not check_certificate(g, h, (0,))

    def test_done_leaf_is_not_a_certificate(self):
        g, h = _ordered(*matching_dual_pair(2))
        # Every node of a dual instance's tree is done/nil — no
        # descriptor may check out.
        from repro.duality.logspace import iter_tree_nodes

        for attrs in iter_tree_nodes(g, h):
            assert not check_certificate(g, h, attrs.label)

    def test_invalid_instance_raises(self):
        g, h = matching_dual_pair(2)
        with pytest.raises(ValueError):
            check_certificate(g, perturb_enlarge_edge(h), ())

    def test_metered_check(self):
        g, h = _ordered(*hard_nondual_pair(3))
        pi = certificate_for(g, h)
        ok, meter = check_certificate_metered(g, h, pi)
        assert ok
        assert meter.peak_bits > 0
        assert meter.live_bits == 0


class TestDecider:
    def test_suite_agreement(self):
        for name, g, h in standard_dual_suite(max_matching=3, max_threshold=5):
            assert decide_guess_and_check(g, h).is_dual, name

    def test_rejections_carry_certificate_path(self):
        g, h = matching_dual_pair(3)
        broken = perturb_drop_edge(h)
        result = decide_guess_and_check(g, broken)
        assert not result.is_dual
        assert result.certificate.path is not None
        gg, hh = _ordered(g, broken)
        assert check_certificate(gg, hh, result.certificate.path)


class TestGuessSizeBound:
    def test_guessed_bits_reported_and_polylog(self):
        # Theorem 5.1: the guess is O(log² n) bits.
        for k in (2, 3, 4, 5):
            g, h = _ordered(*matching_dual_pair(k))
            result = decide_guess_and_check(g, h)
            n = instance_size(g, h)
            bound = 4 * (math.log2(n) ** 2) + 16
            assert 0 < result.stats.guessed_bits <= bound

    def test_guessed_bits_formula(self):
        g, h = _ordered(*threshold_dual_pair(5, 3))
        result = decide_guess_and_check(g, h)
        assert result.stats.guessed_bits == descriptor_bits(g, h)


class TestBitsetEquivalence:
    """The mask node kernel must replicate the frozenset walk exactly."""

    def _assert_equivalent(self, g, h):
        with count_project_calls() as fast_calls:
            fast = decide_guess_and_check(g, h)
        with count_project_calls() as reference_calls, frozenset_reference():
            reference = decide_guess_and_check(g, h)
        # Each run took its own node step: only the reference projects.
        assert fast_calls[0] == 0
        assert (reference_calls[0] > 0) == (fast.stats.nodes > 0)
        assert fast.verdict == reference.verdict
        assert fast.certificate == reference.certificate
        assert fast.stats.nodes == reference.stats.nodes
        assert fast.stats.guessed_bits == reference.stats.guessed_bits
        assert fast.stats.extra.get("swapped") == reference.stats.extra.get(
            "swapped"
        )

    def test_dual_suite(self):
        for _name, g, h in standard_dual_suite(max_matching=3, max_threshold=5):
            self._assert_equivalent(g, h)

    def test_perturbed_suite(self):
        for _name, g, h in standard_dual_suite(max_matching=3, max_threshold=4):
            if len(h) > 1:
                self._assert_equivalent(g, perturb_drop_edge(h))
                self._assert_equivalent(g, perturb_enlarge_edge(h))

    def test_hard_nondual(self):
        self._assert_equivalent(*hard_nondual_pair(3))

    def test_fuzzed_instances(self):
        from hypothesis import given, settings

        from tests.conftest import nonempty_simple_hypergraphs

        @given(
            nonempty_simple_hypergraphs(max_vertices=5, max_edges=4),
            nonempty_simple_hypergraphs(max_vertices=5, max_edges=4),
        )
        @settings(max_examples=40, deadline=None)
        def run(g, h):
            from repro.errors import NotSimpleError

            try:
                self._assert_equivalent(g, h)
            except NotSimpleError:
                pass  # both paths share prepare_instance; nothing to compare

        run()
