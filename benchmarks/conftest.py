"""Shared workloads and reporting helpers for the experiment harness.

Every ``bench_e*.py`` module is one experiment (E1–E20, named in its
docstring): it *asserts* the paper's claim on a parameter sweep (so a
regression fails the suite, not just slows it) and *benchmarks* the
operation the claim is about.  Run the claims alone with
``pytest -o python_files='bench_*.py' benchmarks/ --benchmark-disable``
(as CI does); sweep tables are printed to stdout — run with
``pytest -o python_files='bench_*.py' benchmarks/ --benchmark-only -s``
to see them with timings.
"""

from __future__ import annotations

import pytest

from repro.hypergraph.generators import (
    graph_cover_pair,
    hard_nondual_pair,
    matching_dual_pair,
    path_graph_edges,
    perturb_drop_edge,
    random_dual_pair,
    threshold_dual_pair,
)


#: ``decide_duality`` methods that race or select other engines rather
#: than decide themselves; per-engine sweeps skip them (an untrained
#: ``auto`` would race the whole portfolio from a cold start).
META_METHODS = ("auto", "portfolio")


def ordered(g, h):
    """Apply the paper's ``|H| ≤ |G|`` input convention."""
    return (h, g) if len(h) > len(g) else (g, h)


def dual_workloads():
    """Named dual instances spanning the structural families."""
    loads = []
    for k in (2, 3, 4):
        loads.append((f"matching-{k}", *matching_dual_pair(k)))
    for n, k in ((5, 3), (6, 3), (7, 4)):
        loads.append((f"threshold-{n}-{k}", *threshold_dual_pair(n, k)))
    loads.append(("path-6", *graph_cover_pair(path_graph_edges(6))))
    for seed in (1, 2):
        loads.append((f"random-7-5-s{seed}", *random_dual_pair(7, 5, seed=seed)))
    return loads


def nondual_workloads():
    """Named non-dual instances with a known missing transversal."""
    loads = []
    for k in (2, 3, 4):
        g, h = matching_dual_pair(k)
        loads.append((f"matching-{k}-dropped", g, perturb_drop_edge(h, k)))
    for n, k in ((5, 3), (6, 3)):
        g, h = threshold_dual_pair(n, k)
        loads.append((f"threshold-{n}-{k}-dropped", g, perturb_drop_edge(h)))
    loads.append(("hard-3", *hard_nondual_pair(3)))
    return loads


def print_table(title: str, header: list[str], rows: list[tuple]) -> None:
    """Uniform sweep-table rendering for the experiment logs."""
    print(f"\n[{title}]")
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    print("  " + "  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  " + "  ".join(str(c).rjust(w) for c, w in zip(row, widths)))


@pytest.fixture(scope="session")
def duals():
    return dual_workloads()


@pytest.fixture(scope="session")
def nonduals():
    return nondual_workloads()
