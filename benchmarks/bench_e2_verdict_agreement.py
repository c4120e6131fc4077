"""E2 — Proposition 2.1(1): tree verdict ⟺ duality, across all engines.

Asserts that every engine answers every workload exactly like the
transversal oracle (the definitional ground truth), with valid
certificates on refutations, and benchmarks each engine on a shared
mid-size dual instance.
"""

from __future__ import annotations

import pytest

from repro.hypergraph.generators import matching_dual_pair
from repro.duality import available_methods, check_result_witness, decide_duality

from benchmarks.conftest import (
    META_METHODS,
    dual_workloads,
    nondual_workloads,
    print_table,
)

ENGINES = [
    m for m in available_methods() if m not in ("truth-table", *META_METHODS)
]


def test_verdict_agreement_table():
    rows = []
    for name, g, h in dual_workloads() + nondual_workloads():
        expected = decide_duality(g, h, method="transversal").is_dual
        verdicts = []
        for method in ENGINES:
            result = decide_duality(g, h, method=method)
            assert result.is_dual == expected, (name, method)
            if not result.is_dual:
                assert check_result_witness(g, h, result), (name, method)
            verdicts.append("dual" if result.is_dual else "refuted+witness")
        assert len(set(verdicts)) == 1
        rows.append((name, len(g), len(h), verdicts[0]))
    print_table(
        "E2: engine agreement (all engines concur on every row)",
        ["instance", "|G|", "|H|", "unanimous verdict"],
        rows,
    )


@pytest.mark.parametrize("method", ENGINES)
def test_benchmark_engine(benchmark, method):
    g, h = matching_dual_pair(4)
    result = benchmark(decide_duality, g, h, method=method)
    assert result.is_dual
