"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import strategies as st

from repro.hypergraph import Hypergraph

#: ``decide_duality`` methods that race or select other engines rather
#: than decide themselves; "every engine" loops skip them (their own
#: tests live in test_select.py, test_parallel.py and the conformance
#: auto tier).
META_METHODS = ("auto", "portfolio")


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

def edges_strategy(max_vertices: int = 6, max_edges: int = 5):
    """Random small families of edges over integer vertices."""
    vertex = st.integers(min_value=0, max_value=max_vertices - 1)
    edge = st.frozensets(vertex, min_size=0, max_size=max_vertices)
    return st.lists(edge, min_size=0, max_size=max_edges)


@st.composite
def hypergraphs(draw, max_vertices: int = 6, max_edges: int = 5):
    """Arbitrary (possibly non-simple) small hypergraphs."""
    edges = draw(edges_strategy(max_vertices, max_edges))
    return Hypergraph(edges, vertices=range(max_vertices))


@st.composite
def simple_hypergraphs(draw, max_vertices: int = 6, max_edges: int = 5):
    """Arbitrary *simple* small hypergraphs (minimised families)."""
    hg = draw(hypergraphs(max_vertices, max_edges))
    return hg.minimized()


@st.composite
def nonempty_simple_hypergraphs(draw, max_vertices: int = 6, max_edges: int = 5):
    """Simple hypergraphs with at least one nonempty edge and no empty edge."""
    vertex = st.integers(min_value=0, max_value=max_vertices - 1)
    edge = st.frozensets(vertex, min_size=1, max_size=max_vertices)
    edges = draw(st.lists(edge, min_size=1, max_size=max_edges))
    return Hypergraph(edges, vertices=range(max_vertices)).minimized()


# ---------------------------------------------------------------------------
# Common fixtures
# ---------------------------------------------------------------------------

@pytest.fixture
def triangle() -> Hypergraph:
    """The triangle graph K3 — self-dual as a 2-uniform hypergraph."""
    return Hypergraph([{0, 1}, {1, 2}, {0, 2}], vertices=range(3))


@pytest.fixture
def majority3() -> Hypergraph:
    """The 2-out-of-3 majority hypergraph (self-dual)."""
    return Hypergraph([{0, 1}, {1, 2}, {0, 2}], vertices=range(3))


@pytest.fixture
def m2_pair():
    """The dual pair (M_2, tr(M_2))."""
    from repro.hypergraph.generators import matching_dual_pair

    return matching_dual_pair(2)


# ---------------------------------------------------------------------------
# Kernel-path helpers
# ---------------------------------------------------------------------------

@contextmanager
def frozenset_reference():
    """Run the block on the tree engines' ``frozenset`` reference path."""
    from repro.hypergraph.operations import use_bitset_kernels

    previous = use_bitset_kernels(False)
    try:
        yield
    finally:
        use_bitset_kernels(previous)


@contextmanager
def count_project_calls():
    """Count the block's calls to ``operations.project``.

    Only the ``frozenset`` reference of the tree engines projects, so
    the count tells which node step a run took.  The logspace scope
    memos are cleared first: a scope answered from an earlier run's
    memo would otherwise project nothing.
    """
    from repro.duality import logspace
    from repro.hypergraph import operations

    logspace._finalize_scope.cache_clear()
    logspace._children_scopes.cache_clear()
    original = operations.project
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    operations.project = counted
    try:
        yield calls
    finally:
        operations.project = original
