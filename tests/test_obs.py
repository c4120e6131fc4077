"""Tests for the observability layer (:mod:`repro.obs`).

Four contracts:

* **tracing primitives** — spans round-trip their dict form, the sink
  is a bounded ring buffer that counts what it drops, ``span()`` is the
  shared null singleton while tracing is off (zero-cost-disabled), and
  the renderers (tree, Chrome trace events) are total on partial
  traces;
* **metrics** — counters/gauges/histograms expose valid Prometheus
  text, the histogram's percentile edge cases (empty window, single
  sample, wraparound) are defined rather than accidental, and
  ``snapshot_ms`` keeps the legacy latency-window shape;
* **trace propagation** — a client-minted trace id survives the wire,
  the service scheduler, and the process boundary into the worker, and
  comes back as one correctly-nested tree per request even when
  pipelined responses complete out of order;
* **accounting** — responses carry their ``origin`` (computed / cache /
  dedup) with dedup joiners reporting the primary's real elapsed, the
  async server tallies requests and errors per op, and the timing log
  records one structurally-featured JSONL row per computed solve.
"""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.cli import main
from repro.hypergraph import io as hgio
from repro.hypergraph.generators import (
    hard_nondual_pair,
    matching_dual_pair,
    threshold_dual_pair,
)
from repro.net import DualityClient, DualityServer
from repro.obs import (
    NULL_SPAN,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    SpanContext,
    TimingLog,
    TraceSink,
    disable_tracing,
    dump_chrome,
    enable_tracing,
    format_tree,
    load_timings,
    new_span_id,
    new_trace_id,
    parse_exposition,
    record_span,
    span,
    structural_features,
    to_chrome,
)
from repro.hypergraph import mask_payload
from repro.parallel import ResultCache, solve_many
from repro.service import EngineService


def _write_instance(path, pair) -> str:
    hgio.dump_many(list(pair), path)
    return str(path)


# ---------------------------------------------------------------------------
# Tracing primitives
# ---------------------------------------------------------------------------

class TestSpan:
    def test_ids_are_distinct_and_well_formed(self):
        trace_ids = {new_trace_id() for _ in range(64)}
        span_ids = {new_span_id() for _ in range(64)}
        assert len(trace_ids) == 64 and len(span_ids) == 64
        assert all(len(t) == 16 for t in trace_ids)
        assert all(len(s) == 8 for s in span_ids)

    def test_dict_round_trip(self):
        item = Span("t" * 16, "phase", parent_id="p" * 8, tags={"k": 1})
        item.finish()
        clone = Span.from_dict(item.to_dict())
        assert clone.to_dict() == item.to_dict()
        assert clone.duration_s == pytest.approx(item.duration_s)

    def test_sink_is_a_ring_buffer_that_counts_drops(self):
        sink = TraceSink(maxlen=4)
        for n in range(10):
            root = Span("t" * 16, f"s{n}")
            root.finish()
            sink.record(root)
        assert len(sink) == 4
        assert sink.dropped == 6
        assert [item.name for item in sink.spans()] == ["s6", "s7", "s8", "s9"]

    def test_sink_filters_by_trace_id_and_accepts_dicts(self):
        sink = TraceSink()
        mine, other = new_trace_id(), new_trace_id()
        sink.record(Span(mine, "a").finish())
        sink.extend([Span(other, "b").finish().to_dict()])
        assert [item.name for item in sink.spans(mine)] == ["a"]
        assert sorted(sink.trace_ids()) == sorted([mine, other])

    def test_span_is_null_singleton_while_disabled(self):
        disable_tracing()
        assert span("anything") is NULL_SPAN
        with span("still-nothing") as live:
            live.set_tag("ignored", 1)  # must not raise
        assert span("and-again") is span("and-again")  # the one shared object

    def test_global_sink_records_and_nests_ambient_spans(self):
        sink = enable_tracing()
        try:
            with span("outer", phase="x"):
                with span("inner"):
                    pass
        finally:
            disable_tracing()
        by_name = {item.name: item for item in sink.spans()}
        assert set(by_name) == {"outer", "inner"}
        assert by_name["inner"].trace_id == by_name["outer"].trace_id
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].tags == {"phase": "x"}

    def test_record_span_attaches_to_the_given_context(self):
        sink = TraceSink()
        ctx = SpanContext(new_trace_id(), "ff00ff00", sink)
        recorded = record_span(ctx, "queue-wait", 10.0, 10.5, waited=True)
        assert recorded.parent_id == "ff00ff00"
        assert recorded.duration_s == pytest.approx(0.5)
        assert sink.spans(ctx.trace_id)[0].tags == {"waited": True}

    def test_format_tree_renders_orphans_as_roots(self):
        trace = new_trace_id()
        child = Span(trace, "child", parent_id="00000000").finish()
        text = format_tree([child])
        assert "child" in text and trace in text
        assert format_tree([]) == "(no spans recorded)"

    def test_chrome_export_shape(self, tmp_path):
        root = Span(new_trace_id(), "root").finish()
        leaf = Span(root.trace_id, "leaf", parent_id=root.span_id).finish()
        doc = to_chrome([root, leaf])
        assert {event["ph"] for event in doc["traceEvents"]} == {"X"}
        for event in doc["traceEvents"]:
            assert {"name", "cat", "ts", "dur", "pid", "tid"} <= set(event)
        out = tmp_path / "trace.json"
        dump_chrome([root, leaf], out)
        assert json.loads(out.read_text())["traceEvents"] == doc["traceEvents"]


# ---------------------------------------------------------------------------
# Metrics: counters, gauges, histograms, exposition
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_empty_window_is_defined(self):
        hist = Histogram("h_seconds", "h")
        assert hist.percentile(0.5) is None
        snap = hist.snapshot()
        assert snap["count"] == 0
        assert snap["p50"] is None and snap["p99"] is None and snap["mean"] is None
        assert hist.snapshot_ms()["p50_ms"] is None
        # No quantile samples on an empty window, but _sum/_count scrape.
        suffixes = [suffix for suffix, _l, _v in hist.samples()]
        assert suffixes == ["_sum", "_count"]

    def test_single_sample_is_every_percentile(self):
        hist = Histogram("h_seconds", "h")
        hist.observe(0.25)
        for q in (0.5, 0.9, 0.99):
            assert hist.percentile(q) == pytest.approx(0.25)
        snap = hist.snapshot()
        assert snap["count"] == 1 and snap["mean"] == pytest.approx(0.25)

    def test_wraparound_window_keeps_recent_cumulative_totals(self):
        hist = Histogram("h_seconds", "h", window=4)
        for value in range(100):  # 0..99; only 96..99 survive the window
            hist.observe(float(value))
        snap = hist.snapshot()
        assert snap["count"] == 100  # cumulative over the metric's life
        assert snap["mean"] == pytest.approx((96 + 97 + 98 + 99) / 4)
        assert hist.percentile(0.5) in (97.0, 98.0)
        assert hist.percentile(0.99) == 99.0

    def test_snapshot_ms_keeps_the_legacy_latency_shape(self):
        hist = Histogram("h_seconds", "h")
        for value in (0.010, 0.020, 0.030):
            hist.observe(value)
        snap = hist.snapshot_ms()
        assert {"count", "p50_ms", "p99_ms", "mean_ms"} <= set(snap)
        assert snap["p50_ms"] == pytest.approx(20.0)
        assert snap["mean_ms"] == pytest.approx(20.0)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            Histogram("h_seconds", "h", window=0)

    def test_observe_is_thread_safe(self):
        hist = Histogram("h_seconds", "h", window=64)
        threads = [
            threading.Thread(
                target=lambda: [hist.observe(0.001) for _ in range(500)]
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.snapshot()["count"] == 2000


class TestMetricsRegistry:
    def test_counter_rejects_negative_and_tracks_labels(self):
        counter = Counter("ops_total", "ops", ("op",))
        counter.inc(op="solve")
        counter.inc(2, op="ping")
        with pytest.raises(ValueError):
            counter.inc(-1, op="solve")
        assert counter.value(op="solve") == 1
        assert counter.total() == 3
        assert counter.as_dict() == {"ping": 2, "solve": 1}

    def test_gauge_callback_errors_scrape_as_nan(self):
        def boom():
            raise RuntimeError("scrape-time failure")

        gauge = Gauge("depth", "d", fn=boom)
        ((_suffix, _labels, value),) = list(gauge.samples())
        assert math.isnan(value)

    def test_registry_create_or_get_and_type_mismatch(self):
        registry = MetricsRegistry()
        counter = registry.counter("a_total", "a")
        assert registry.counter("a_total", "a") is counter
        with pytest.raises(ValueError):
            registry.gauge("a_total", "now a gauge?")
        assert registry.get("a_total") is counter
        assert len(registry) == 1

    def test_exposition_round_trips_through_the_parser(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "requests", ("op",)).inc(3, op="solve")
        registry.gauge("open_conns", "open").set(2)
        hist = registry.histogram("lat_seconds", "latency")
        hist.observe(0.5)
        parsed = parse_exposition(registry.expose())
        assert parsed["req_total"]['{op="solve"}'] == 3
        assert parsed["open_conns"][""] == 2
        assert parsed["lat_seconds_count"][""] == 1
        assert parsed["lat_seconds"]['{quantile="0.5"}'] == pytest.approx(0.5)

    def test_exposition_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("weird_total", "w", ("path",)).inc(
            path='a"b\\c\nnewline'
        )
        parsed = parse_exposition(registry.expose())
        (label_string,) = parsed["weird_total"]
        assert '\\"' in label_string and "\\n" in label_string

    def test_parser_rejects_malformed_exposition(self):
        for bad in ("just words\n", "name_only\n", "x{unclosed 1\n"):
            with pytest.raises(ValueError):
                parse_exposition(bad)

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "c").inc()
        registry.histogram("h_seconds", "h").observe(1.0)
        json.dumps(registry.snapshot())  # must not raise


# ---------------------------------------------------------------------------
# Response origin accounting (computed / cache / dedup)
# ---------------------------------------------------------------------------

class TestOrigins:
    def test_cache_hit_origin_and_counts(self):
        pair = matching_dual_pair(3)
        with EngineService(method="fk-b", cache=ResultCache()) as service:
            first = service.submit(pair).result()
            second = service.submit(pair).result()
            stats = service.stats()
        assert (first.origin, second.origin) == ("computed", "cache")
        assert (first.cached, second.cached) == (False, True)
        assert stats["by_origin"] == {"computed": 1, "cache": 1, "dedup": 0}

    def test_dedup_joiner_reports_the_primary_elapsed(self):
        # A slow instance at n_jobs=2: the duplicates arrive while the
        # first submit is still computing, so they join it in flight
        # instead of hitting the cache afterwards.
        pair = threshold_dual_pair(13, 7)  # ~0.5 s under fk-b
        with EngineService(method="fk-b", n_jobs=2, cache=ResultCache()) as service:
            tickets = [service.submit(pair, collect=False) for _ in range(3)]
            responses = [ticket.result() for ticket in tickets]
            stats = service.stats()
        origins = sorted(response.origin for response in responses)
        assert origins == ["computed", "dedup", "dedup"]
        primary = next(r for r in responses if r.origin == "computed")
        assert primary.elapsed_s > 0.0
        for response in responses:
            # The fix under test: joiners report the primary's real
            # solve time, not the 0.0 they used to.
            assert response.elapsed_s == pytest.approx(primary.elapsed_s)
            assert response.is_dual == primary.is_dual
        assert stats["by_origin"]["dedup"] == 2

    def test_origin_travels_the_wire(self, tmp_path):
        pair = matching_dual_pair(2)
        with DualityServer(method="fk-b", store=tmp_path / "s.db") as server:
            with DualityClient(*server.address) as client:
                first = client.solve(*pair)
                second = client.solve(*pair)
                stats = client.stats()
        assert first["origin"] == "computed"
        assert second["origin"] == "cache" and second["cached"] is True
        assert stats["responses_by_origin"] == {
            "computed": 1,
            "cache": 1,
            "dedup": 0,
        }


# ---------------------------------------------------------------------------
# Trace propagation: client edge → server phases → worker process
# ---------------------------------------------------------------------------

class TestTracePropagation:
    def test_service_trace_reaches_the_worker_process(self):
        sink = TraceSink()
        trace_id = new_trace_id()
        ctx = SpanContext(trace_id, None, sink)
        with EngineService(method="fk-b", n_jobs=2) as service:
            response = service.submit(
                threshold_dual_pair(6, 3), trace=ctx
            ).result()
        assert response.is_dual
        spans = {item.name: item for item in sink.spans(trace_id)}
        assert {"cache-lookup", "queue-wait", "worker-solve"} <= set(spans)
        # The worker span was recorded in another process and
        # piggybacked home on the result.
        import os

        assert spans["worker-solve"].pid != os.getpid()
        assert spans["engine:fk-b"].parent_id == spans["worker-solve"].span_id

    def test_client_minted_trace_id_spans_the_whole_tree(self):
        pair = threshold_dual_pair(6, 3)
        with DualityServer(method="fk-b", n_jobs=2) as server:
            with DualityClient(*server.address, trace=True) as client:
                response = client.solve(*pair)
        assert response["dual"] is True
        spans = client.trace_sink.spans()
        assert len({item.trace_id for item in spans}) == 1
        by_name = {item.name: item for item in spans}
        for phase in (
            "client-request",
            "server",
            "parse",
            "cache-lookup",
            "queue-wait",
            "worker-solve",
            "serialize",
        ):
            assert phase in by_name, f"missing span {phase!r}"
        # One properly-nested tree: server under the client edge, every
        # service phase under the server span, the engine in the worker.
        edge = by_name["client-request"]
        assert by_name["server"].parent_id == edge.span_id
        for phase in ("parse", "cache-lookup", "queue-wait", "worker-solve"):
            assert by_name[phase].parent_id == by_name["server"].span_id
        assert by_name["engine:fk-b"].parent_id == by_name["worker-solve"].span_id
        # And it exports as valid Chrome trace-event JSON.
        doc = to_chrome(spans)
        assert len(doc["traceEvents"]) == len(spans)

    def test_pipelined_out_of_order_traces_stay_separate(self):
        # Mixed instance sizes at n_jobs=2 → completion order differs
        # from send order; every response must still carry exactly its
        # own request's spans, nested under its own client edge.
        instances = [
            threshold_dual_pair(7, 4),
            matching_dual_pair(2),
            hard_nondual_pair(3),
            matching_dual_pair(3),
        ]
        with DualityServer(method="fk-b", n_jobs=2) as server:
            with DualityClient(*server.address, trace=True) as client:
                responses = client.solve_many(instances)
        assert [r["ok"] for r in responses] == [True] * len(instances)
        spans = client.trace_sink.spans()
        trace_ids = {item.trace_id for item in spans}
        assert trace_ids == {r["trace"]["id"] for r in responses}
        assert len(trace_ids) == len(instances)
        for trace_id in trace_ids:
            members = client.trace_sink.spans(trace_id)
            by_name = {item.name: item for item in members}
            assert {"client-request", "server", "worker-solve"} <= set(by_name)
            assert by_name["server"].parent_id == by_name["client-request"].span_id

    def test_untraced_requests_carry_no_trace_payload(self):
        pair = matching_dual_pair(2)
        with DualityServer(method="fk-b") as server:
            with DualityClient(*server.address) as client:
                response = client.solve(*pair)
        assert "trace" not in response

    def test_tracing_does_not_perturb_verdicts(self):
        instances = [
            matching_dual_pair(3),
            hard_nondual_pair(3),
            threshold_dual_pair(6, 3),
        ]
        with DualityServer(method="fk-b") as server:
            with DualityClient(*server.address) as plain_client:
                plain = plain_client.solve_many(instances)
            with DualityClient(*server.address, trace=True) as traced_client:
                traced = traced_client.solve_many(instances)
        for before, after in zip(plain, traced):
            assert before["verdict"] == after["verdict"]
            assert before["witness"] == after["witness"]


# ---------------------------------------------------------------------------
# Server-side metrics & per-op accounting on the wire
# ---------------------------------------------------------------------------

class TestServerMetrics:
    def test_metrics_op_returns_valid_exposition(self, tmp_path):
        pair = matching_dual_pair(2)
        with DualityServer(method="fk-b", store=tmp_path / "s.db") as server:
            with DualityClient(*server.address) as client:
                client.solve(*pair)
                client.solve(*pair)  # cache hit
                exposition = client.metrics()
        parsed = parse_exposition(exposition)
        assert parsed["requests_total"]['{op="solve"}'] == 2
        assert parsed["solve_latency_seconds_count"][""] == 2
        assert parsed["cache_hits_total"][""] == 1
        assert parsed["cache_misses_total"][""] == 1
        assert parsed["pool_workers"][""] >= 1

    def test_stats_tallies_requests_and_errors_per_op(self):
        good = matching_dual_pair(2)
        with DualityServer(method="fk-b") as server:
            with DualityClient(*server.address) as client:
                client.solve(*good)
                client.ping()
                from repro.net import RequestError

                with pytest.raises(RequestError):
                    client.solve(*good, method="no-such-engine")
                stats = client.stats()
        assert stats["requests_by_op"]["solve"] == 1
        assert stats["requests_by_op"]["ping"] == 1
        assert stats["requests_by_op"]["stats"] == 1
        assert stats["errors_by_op"] == {"solve": 1}
        # The plain totals stay consistent with the per-op tallies.
        assert stats["requests_served"] == sum(stats["requests_by_op"].values())
        assert stats["errors"] == sum(stats["errors_by_op"].values())

    def test_slow_request_log_is_structured_json(self, capsys):
        pair = matching_dual_pair(2)
        with DualityServer(method="fk-b", slow_ms=0.0) as server:
            with DualityClient(*server.address) as client:
                client.solve(*pair)
        err = capsys.readouterr().err
        lines = [json.loads(line) for line in err.splitlines() if line.strip()]
        slow = [line for line in lines if line.get("event") == "slow_request"]
        assert slow, f"no slow_request line in stderr: {err!r}"
        assert slow[0]["elapsed_ms"] >= 0
        assert "worker-solve" in slow[0]["spans_ms"]


# ---------------------------------------------------------------------------
# Per-engine timing capture
# ---------------------------------------------------------------------------

class TestTimings:
    def test_structural_features_are_cheap_scans(self):
        g, h = threshold_dual_pair(6, 3)
        features = structural_features(mask_payload(g), mask_payload(h))
        assert features["n_vertices"] == 6
        assert features["g_edges"] == len(g) and features["h_edges"] == len(h)
        assert features["g_max_edge"] == max(len(e) for e in g.edges)
        assert features["h_max_degree"] >= 1
        assert features["volume"] == len(g) * len(h)

    def test_timing_log_records_and_loads(self, tmp_path):
        path = tmp_path / "timings.jsonl"
        with TimingLog(path) as log:
            log.record("fk-b", 0.5, features={"n_vertices": 4}, dual=True)
            log.record("bm", 0.25, shard=2, trace_id="ab" * 8)
            assert log.records_written == 2
        rows = load_timings(path)
        assert [row["engine"] for row in rows] == ["fk-b", "bm"]
        assert rows[0]["n_vertices"] == 4 and rows[0]["dual"] is True
        assert rows[1]["shard"] == 2 and rows[1]["trace_id"] == "ab" * 8

    def test_load_timings_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "timings.jsonl"
        path.write_text(
            '{"engine": "fk-b", "elapsed_s": 1.0}\n'
            "not json at all\n"
            '{"engine": "bm", "elapsed_s": 2.0}\n',
            encoding="utf-8",
        )
        rows = load_timings(path)
        assert [row["engine"] for row in rows] == ["fk-b", "bm"]

    def test_solve_many_writes_one_row_per_computed_instance(self, tmp_path):
        path = tmp_path / "timings.jsonl"
        instances = [matching_dual_pair(2), threshold_dual_pair(6, 3)]
        items = solve_many(instances, method="fk-b", timings=path)
        assert all(item.is_dual for item in items)
        rows = load_timings(path)
        assert len(rows) == 2
        for row in rows:
            assert row["engine"] == "fk-b"
            assert row["elapsed_s"] > 0
            assert row["n_vertices"] > 0 and row["volume"] > 0

    def test_service_timing_rows_include_portfolio_engines(self, tmp_path):
        path = tmp_path / "timings.jsonl"
        with EngineService(method="portfolio", n_jobs=1, timings=path) as service:
            service.submit(matching_dual_pair(2)).result()
        rows = load_timings(path)
        assert any(row["engine"] == "portfolio" for row in rows)
        portfolio_rows = [row for row in rows if row.get("role") == "portfolio"]
        assert portfolio_rows, "per-engine portfolio timings missing"
        assert any(row.get("winner") for row in portfolio_rows)

    def test_cache_hits_are_not_recorded_as_solves(self, tmp_path):
        path = tmp_path / "timings.jsonl"
        pair = matching_dual_pair(3)
        with EngineService(
            method="fk-b", cache=ResultCache(), timings=path
        ) as service:
            service.submit(pair).result()
            service.submit(pair).result()  # cache hit: no new row
            assert service.stats()["timings_recorded"] == 1
        assert len(load_timings(path)) == 1


# ---------------------------------------------------------------------------
# The trace CLI
# ---------------------------------------------------------------------------

class TestTraceCli:
    def test_trace_command_prints_tree_and_exports_chrome(
        self, tmp_path, capsys
    ):
        instance = _write_instance(
            tmp_path / "m3.hg", matching_dual_pair(3)
        )
        out = tmp_path / "trace.json"
        status = main(
            ["trace", instance, "--repeat", "2", "--trace-out", str(out)]
        )
        captured = capsys.readouterr().out
        assert status == 0
        assert "origin=computed" in captured and "origin=cache" in captured
        assert "worker-solve" in captured and "cache-lookup" in captured
        doc = json.loads(out.read_text())
        assert doc["traceEvents"], "empty Chrome export"

    def test_client_metrics_flag_scrapes_without_stdin(self, tmp_path, capsys):
        with DualityServer(method="fk-b") as server:
            host, port = server.address
            status = main(["client", f"{host}:{port}", "--metrics"])
        captured = capsys.readouterr().out
        assert status == 0
        parsed = parse_exposition(captured)
        assert "requests_total" in parsed
