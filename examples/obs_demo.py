"""Observability in one walkthrough: traces, metrics, timing capture.

The three layers of :mod:`repro.obs` on a live serving stack:

1. **tracing** — a traced :class:`EngineService` request: one
   ``trace_id`` through cache lookup, queue wait, and the worker-side
   solve (in another process), rendered as a span tree and exported
   as Chrome trace-event JSON,
2. **end-to-end over TCP** — a ``DualityClient(trace=True)`` against a
   live server: the client mints the trace id, the server's span tree
   comes back on the response and nests under the client edge span,
3. **metrics** — the server's unified registry scraped over the
   ``metrics`` wire op as Prometheus text exposition, and the per-op /
   per-origin accounting in ``stats``,
4. **timing capture** — a JSONL log of every computed solve with
   structural features, the raw material for learned engine selection.

Run me::

    PYTHONPATH=src python examples/obs_demo.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.hypergraph.generators import (
    hard_nondual_pair,
    matching_dual_pair,
    threshold_dual_pair,
)
from repro.net import DualityClient, DualityServer
from repro.obs import (
    SpanContext,
    TraceSink,
    dump_chrome,
    format_tree,
    load_timings,
    new_trace_id,
    parse_exposition,
)
from repro.parallel import ResultCache
from repro.service import EngineService

workdir = Path(tempfile.mkdtemp(prefix="obs-demo-"))

# ---------------------------------------------------------------------------
# 1. A traced service request: one trace id into the worker and back
# ---------------------------------------------------------------------------

print("— a traced EngineService request —")
sink = TraceSink()
trace_id = new_trace_id()
with EngineService(method="fk-b", n_jobs=2, cache=ResultCache()) as service:
    ticket = service.submit(
        threshold_dual_pair(7, 4), trace=SpanContext(trace_id, None, sink)
    )
    response = ticket.result()
print(f"verdict: {response.result.verdict.value} (origin={response.origin})")
print(format_tree(sink.spans(trace_id)))
chrome_path = workdir / "service_trace.json"
dump_chrome(sink.spans(trace_id), chrome_path)
events = json.loads(chrome_path.read_text())["traceEvents"]
print(f"chrome export: {len(events)} events -> {chrome_path}\n")

# ---------------------------------------------------------------------------
# 2. End to end over TCP: client-minted ids, server spans merged under
#    the client edge
# ---------------------------------------------------------------------------

print("— tracing over the wire —")
instances = [
    threshold_dual_pair(6, 3),
    matching_dual_pair(3),
    hard_nondual_pair(3),
]
with DualityServer(
    method="fk-b", n_jobs=2, store=workdir / "verdicts.db"
) as server:
    with DualityClient(*server.address, trace=True) as client:
        responses = client.solve_many(instances)
        repeat = client.solve(*matching_dual_pair(3))  # a cache hit
        print(
            "verdicts:",
            ", ".join(r["verdict"] for r in responses),
            f"+ repeat (origin={repeat['origin']})",
        )
        print(format_tree(client.trace_sink.spans()))

    # ------------------------------------------------------------------
    # 3. Metrics: Prometheus exposition + per-op / per-origin stats
    # ------------------------------------------------------------------

    print("— metrics scrape —")
    with DualityClient(*server.address) as client:
        exposition = client.metrics()
        stats = client.stats()
    parsed = parse_exposition(exposition)  # validates as it parses
    for name in (
        "requests_total",
        "cache_hits_total",
        "solve_latency_seconds_count",
    ):
        print(f"  {name}: {parsed[name]}")
    print(f"  requests_by_op: {stats['requests_by_op']}")
    print(f"  responses_by_origin: {stats['responses_by_origin']}")
    print()

# ---------------------------------------------------------------------------
# 4. Timing capture: one featured JSONL row per computed solve
# ---------------------------------------------------------------------------

print("— timing capture —")
timings_path = workdir / "timings.jsonl"
with EngineService(method="fk-b", n_jobs=1, timings=timings_path) as service:
    for pair in instances:
        service.submit(pair).result()
rows = load_timings(timings_path)
print(f"{len(rows)} rows in {timings_path}:")
for row in rows:
    print(
        f"  engine={row['engine']} elapsed={row['elapsed_s'] * 1000:7.2f}ms "
        f"n={row['n_vertices']} |G|={row['g_edges']} |H|={row['h_edges']} "
        f"volume={row['volume']}"
    )
