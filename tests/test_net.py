"""Tests for the TCP front end (:mod:`repro.net`).

The contracts:

* **correctness over the wire** — N concurrent clients against one
  server get verdicts bit-for-bit identical to serial
  ``decide_duality`` (witnesses through the lossless codec included);
* **fault isolation** — a client disconnecting mid-request, a client
  abandoning its response, and a malformed or oversized request line
  each cost at most their own connection, never the server or the
  other clients;
* **crash-safe persistence** — a server with ``store=`` appends each
  computed verdict to the store's journal before it answers, so a
  verdict a client has seen survives the process; a later server on
  the same file answers it as a cache hit, and a service session that
  dies after ``drain`` loses nothing.  A corrupt or unreadable store
  file degrades to misses with a warning and never blocks startup, and
  a cache hit writes nothing.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.duality import decide_duality
from repro.hypergraph import Hypergraph
from repro.hypergraph import io as hgio
from repro.hypergraph.generators import (
    disjoint_union_pair,
    hard_nondual_pair,
    matching_dual_pair,
    perturb_drop_edge,
    threshold_dual_pair,
)
from repro.net import (
    AsyncDualityClient,
    AsyncDualityServer,
    DualityClient,
    DualityServer,
    LineTooLong,
    ProtocolError,
    RequestError,
    decode_hypergraph,
    encode_hypergraph,
    parse_address,
)
from repro.net.protocol import parse_request, parse_response
from repro.parallel import ResultCache, solve_many
from repro.parallel.batch import load_instance
from repro.parallel.codec import decode_vertex_set
from repro.service import EngineService
from repro.store import VerdictStore

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"


def _corpus_paths() -> list[Path]:
    return sorted(CORPUS_DIR.glob("*.hg"))


def _instances():
    return [
        matching_dual_pair(3),
        threshold_dual_pair(7, 4),
        hard_nondual_pair(3),
        (
            lambda pair: (pair[0], perturb_drop_edge(pair[1]))
        )(disjoint_union_pair(matching_dual_pair(2), matching_dual_pair(1))),
    ]


def _reference_fields(g, h, method="fk-b") -> dict:
    """The wire-comparable projection of a serial decide_duality call."""
    result = decide_duality(g, h, method=method)
    cert = result.certificate
    return {
        "verdict": result.verdict.value,
        "kind": cert.kind.name if cert.kind is not None else None,
        "witness": cert.witness,
        "path": list(cert.path) if cert.path is not None else None,
    }


def _response_fields(response: dict) -> dict:
    return {
        "verdict": response["verdict"],
        "kind": response["kind"],
        "witness": decode_vertex_set(response["witness"]),
        "path": response["path"],
    }


# ---------------------------------------------------------------------------
# Protocol building blocks
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_hypergraph_round_trip_is_lossless(self):
        pairs = _instances()
        for g, h in pairs:
            for hg in (g, h):
                wire = json.loads(json.dumps(encode_hypergraph(hg)))
                back = decode_hypergraph(wire)
                assert back == hg
                assert back.vertices == hg.vertices  # isolated ones too

    def test_tuple_labels_survive_with_exact_types(self):
        g, _h = disjoint_union_pair(matching_dual_pair(2), matching_dual_pair(1))
        back = decode_hypergraph(encode_hypergraph(g))
        assert back == g
        assert all(
            any(type(v) is tuple for v in edge) for edge in back.edges
        )

    def test_parse_request_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_request(b"this is not json")
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_request(b"[1, 2, 3]")
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_request(b'{"op": "explode"}')
        # Nested past the JSON decoder's recursion limit.
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_request(b"[" * 100000 + b"]" * 100000)

    def test_parse_response_rejects_deep_nesting(self):
        with pytest.raises(ProtocolError, match="malformed response"):
            parse_response(b"[" * 100000 + b"]" * 100000)

    @pytest.mark.parametrize(
        "line",
        (
            b'{"id": 1e400, "op": "ping"}',
            b'{"id": -1e400, "op": "ping"}',
            b'{"id": NaN, "op": "ping"}',
            b'{"id": Infinity, "op": "ping"}',
            b'{"id": 1, "op": "ping", "x": [-Infinity]}',
        ),
    )
    def test_parse_request_rejects_non_finite_numbers(self, line):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_request(line)

    def test_parse_request_keeps_finite_floats(self):
        assert parse_request(b'{"id": 2.5e3, "op": "ping"}')["id"] == 2500.0

    def test_decode_hypergraph_rejects_malformed_payloads(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            decode_hypergraph([1, 2])
        with pytest.raises(ProtocolError, match="malformed hypergraph"):
            decode_hypergraph({"edges": [["?", 0]]})
        # A null edge and an edge outside the declared universe fail in
        # the Hypergraph constructor, not in the codec.
        with pytest.raises(ProtocolError, match="malformed hypergraph"):
            decode_hypergraph({"edges": [None]})
        with pytest.raises(ProtocolError, match="outside the declared"):
            decode_hypergraph(
                {"edges": [[["i", 5]]], "vertices": [["i", 1]]}
            )
        # Tuple labels nested past the interpreter's recursion limit.
        label = ["i", 1]
        for _ in range(2000):
            label = ["t", [label]]
        with pytest.raises(ProtocolError, match="malformed hypergraph"):
            decode_hypergraph({"edges": [[label]]})

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7171") == ("127.0.0.1", 7171)
        assert parse_address(":9000") == ("127.0.0.1", 9000)
        for bad in ("nohost", "host:", "host:port", ""):
            with pytest.raises(ValueError, match="HOST:PORT"):
                parse_address(bad)


#: Arbitrary JSON values: what a request line or a payload field can hold.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=25,
)


class TestProtocolProperties:
    """Every JSON value either decodes or raises :class:`ProtocolError`:
    nothing else may reach the server's per-line error handling."""

    @given(JSON_VALUES.map(json.dumps))
    @example("[" * 100000 + "]" * 100000)  # past the decoder's recursion
    @settings(max_examples=300, deadline=None)
    def test_parse_request_returns_a_dict_or_raises_protocol_error(self, line):
        try:
            request = parse_request(line.encode("utf-8"))
        except ProtocolError:
            return
        assert isinstance(request, dict)

    @given(JSON_VALUES | st.fixed_dictionaries({"edges": JSON_VALUES}))
    @example({"edges": [None]})
    @example({"edges": [[["i", 5]]], "vertices": [["i", 1]]})
    @example({"edges": [[["F", 10**400]]]})
    @settings(max_examples=300, deadline=None)
    def test_decode_hypergraph_returns_a_hypergraph_or_raises(self, value):
        try:
            hg = decode_hypergraph(value)
        except ProtocolError:
            return
        assert isinstance(hg, Hypergraph)


# ---------------------------------------------------------------------------
# The server: correctness over the wire
# ---------------------------------------------------------------------------

class TestServerCorrectness:
    def test_solve_matches_serial_bit_for_bit(self):
        with DualityServer(method="fk-b") as server:
            with DualityClient(*server.address) as client:
                for g, h in _instances():
                    response = client.solve(g, h)
                    assert _response_fields(response) == _reference_fields(g, h)

    def test_concurrent_clients_get_serial_identical_verdicts(self, tmp_path):
        instances = _instances()
        references = [_reference_fields(g, h) for g, h in instances]
        errors: list[BaseException] = []

        with DualityServer(method="fk-b", store=tmp_path / "s.db") as server:
            host, port = server.address

            def one_client(order: int) -> None:
                try:
                    with DualityClient(host, port) as client:
                        # Each client hits the instances in a different
                        # rotation so requests interleave on the server.
                        indices = [
                            (order + k) % len(instances)
                            for k in range(len(instances))
                        ]
                        for index in indices:
                            g, h = instances[index]
                            response = client.solve(g, h)
                            assert (
                                _response_fields(response) == references[index]
                            ), f"client {order}, instance {index}"
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)

            threads = [
                threading.Thread(target=one_client, args=(order,))
                for order in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stats = server.stats()

        assert not errors, errors
        assert stats["connections_accepted"] == 4
        assert stats["requests_served"] == 4 * len(_instances())
        # The shared cache answered the repeats: at most one miss per
        # distinct instance ever reached the shared pool.
        assert stats["cache_misses"] == len(_instances())

    def test_solve_many_pipelines_in_order(self):
        instances = _instances()
        with DualityServer(method="bm") as server:
            with DualityClient(*server.address) as client:
                responses = client.solve_many(instances)
        for (g, h), response in zip(instances, responses):
            assert response["ok"]
            assert _response_fields(response) == _reference_fields(g, h, "bm")

    def test_per_request_method_override(self):
        g, h = matching_dual_pair(3)
        with DualityServer(method="fk-b") as server:
            with DualityClient(*server.address) as client:
                default = client.solve(g, h)
                overridden = client.solve(g, h, method="bm")
                stats = client.stats()
        assert default["method"] == decide_duality(g, h, method="fk-b").method
        assert overridden["method"] == decide_duality(g, h, method="bm").method
        assert sorted(stats["methods_served"]) == ["bm", "fk-b"]

    def test_portfolio_method_is_served_uncached(self, tmp_path):
        # A portfolio winner is timing-dependent, so the server must
        # serve it past the shared cache, not through it.
        g, h = matching_dual_pair(3)
        with DualityServer(store=tmp_path / "store.db") as server:
            with DualityClient(*server.address) as client:
                first = client.solve(g, h, method="portfolio")
                second = client.solve(g, h, method="portfolio")
        assert first["dual"] is True and second["dual"] is True
        assert first["cached"] is False and second["cached"] is False

    def test_server_side_path_and_client_side_path(self, tmp_path):
        g, h = matching_dual_pair(2)
        path = tmp_path / "m2.hg"
        hgio.dump_many([g, h], path)
        with DualityServer() as server:
            with DualityClient(*server.address) as client:
                inline = client.solve_path(path)  # read here, shipped inline
                server_side = client.solve_server_path(path)
        assert inline["dual"] is True
        assert server_side["dual"] is True
        assert server_side["source"] == str(path)

    def test_ping_and_shutdown_request(self):
        server = DualityServer().start()
        with DualityClient(*server.address) as client:
            assert client.ping()
            reply = client.shutdown_server()
            assert reply["shutting_down"]
        server.wait()
        assert server._stopped.is_set()
        server.shutdown()  # idempotent after the fact

    def test_server_lifecycle_edges(self):
        server = DualityServer()
        with pytest.raises(RuntimeError, match="not started"):
            server.address
        server.shutdown()  # never started: still releases the pool
        assert server.pool.closed
        with pytest.raises(RuntimeError, match="shut down"):
            server.start()

    def test_start_is_idempotent(self):
        with DualityServer() as server:
            address = server.address
            assert server.start().address == address

    def test_client_after_close_refuses(self):
        with DualityServer() as server:
            client = DualityClient(*server.address)
            client.close()
            client.close()  # idempotent
            assert client.closed
            with pytest.raises(RuntimeError, match="closed"):
                client.ping()


# ---------------------------------------------------------------------------
# The server: fault isolation
# ---------------------------------------------------------------------------

class TestServerFaultIsolation:
    def test_solver_error_is_a_request_error_not_a_teardown(self):
        not_simple = Hypergraph([frozenset({0}), frozenset({0, 1})])
        h = Hypergraph([frozenset({0})])
        with DualityServer() as server:
            with DualityClient(*server.address) as client:
                with pytest.raises(RequestError, match="simple"):
                    client.solve(not_simple, h)
                with pytest.raises(RequestError, match="unknown duality method"):
                    client.solve(*matching_dual_pair(2), method="quantum")
                with pytest.raises(RequestError):
                    client.solve_server_path("no/such/file.hg")
                # The same connection still answers real work.
                assert client.solve(*matching_dual_pair(2))["dual"] is True

    def test_solve_many_reports_errors_inline(self):
        not_simple = Hypergraph([frozenset({0}), frozenset({0, 1})])
        h = Hypergraph([frozenset({0})])
        good = matching_dual_pair(2)
        with DualityServer() as server:
            with DualityClient(*server.address) as client:
                responses = client.solve_many([good, (not_simple, h), good])
        assert [r["ok"] for r in responses] == [True, False, True]
        assert "simple" in responses[1]["error"]["message"]

    def test_mid_request_disconnect_leaves_server_serving(self):
        g, h = matching_dual_pair(3)
        with DualityServer() as server:
            host, port = server.address
            # A client that dies mid-request: half a JSON line, no
            # terminator, then a hard close.
            raw = socket.create_connection((host, port))
            raw.sendall(b'{"op": "solve", "g": {"edges": [')
            raw.close()
            # A client that sends a full request and vanishes before
            # reading its answer.
            raw = socket.create_connection((host, port))
            raw.sendall(b'{"op": "ping"}\n')
            raw.close()
            time.sleep(0.3)  # let the handlers observe both corpses
            with DualityClient(host, port) as client:
                assert client.solve(g, h)["dual"] is True

    def test_malformed_line_answers_error_and_keeps_serving(self):
        g, h = matching_dual_pair(3)
        with DualityServer() as server:
            host, port = server.address
            with DualityClient(host, port) as victim, DualityClient(
                host, port
            ) as bystander:
                victim._sock.sendall(b"definitely not json\n")
                line = victim._reader.readline()
                error = json.loads(line)
                assert error["ok"] is False
                assert error["error"]["type"] == "ProtocolError"
                # Framing stayed line-aligned: the same connection
                # recovers, and other clients never noticed.
                assert victim.ping()
                assert bystander.solve(g, h)["dual"] is True

    def test_non_finite_number_answers_strict_json_error(self):
        def strict(token):
            raise AssertionError(f"non-finite {token} on the wire")

        with DualityServer() as server:
            with DualityClient(*server.address) as client:
                for line in (b'{"id": 1e400, "op": "ping"}\n', b'{"id": NaN}\n'):
                    client._sock.sendall(line)
                    error = json.loads(
                        client._reader.readline(), parse_constant=strict
                    )
                    assert error["ok"] is False
                    assert error["id"] is None
                    assert error["error"]["type"] == "ProtocolError"
                assert client.ping()

    def test_deeply_nested_line_answers_one_error_line(self):
        # 200 KB, far under the line ceiling, but nested past the JSON
        # decoder's recursion limit.
        nested = b"[" * 100000 + b"]" * 100000 + b"\n"
        with DualityServer() as server:
            with DualityClient(*server.address) as client:
                client._sock.sendall(nested)
                error = json.loads(client._reader.readline())
                assert error["ok"] is False
                assert error["id"] is None
                assert error["error"]["type"] == "ProtocolError"
                # Exactly one line: the next answer is the ping's.
                assert client.ping()

    def test_ill_formed_hypergraph_answers_protocol_error(self):
        bad_payloads = (
            {"edges": [None]},
            {"edges": [[["i", 5]]], "vertices": [["i", 1]]},
        )
        with DualityServer() as server:
            with DualityClient(*server.address) as client:
                for bad in bad_payloads:
                    response = client.request(
                        {"op": "solve", "g": bad, "h": {"edges": []}}
                    )
                    assert response["ok"] is False
                    assert response["error"]["type"] == "ProtocolError"
                assert client.solve(*matching_dual_pair(2))["dual"] is True

    def test_oversized_line_is_refused_and_the_connection_closed(self):
        with DualityServer(max_line_bytes=256) as server:
            host, port = server.address
            raw = socket.create_connection((host, port))
            raw.sendall(b"x" * 1024)  # no newline, over the ceiling
            wire = raw.makefile("rb")
            error = json.loads(wire.readline())
            assert error["ok"] is False
            assert error["error"]["type"] == "LineTooLong"
            # The server hangs up (no resync point past a truncation)…
            assert wire.readline() == b""
            raw.close()
            # …but keeps serving fresh connections.
            with DualityClient(host, port) as client:
                assert client.ping()

    def test_line_reader_length_ceiling(self):
        left, right = socket.socketpair()
        try:
            from repro.net.protocol import LineReader

            reader = LineReader(right, max_line_bytes=64)
            left.sendall(b"a" * 128)
            with pytest.raises(LineTooLong):
                reader.readline()
        finally:
            left.close()
            right.close()


# ---------------------------------------------------------------------------
# The concurrent scheduler on the wire
# ---------------------------------------------------------------------------

SLOW_PAIR = threshold_dual_pair(13, 7)  # ~0.5 s under fk-b
FAST_PAIRS = [
    matching_dual_pair(3),
    threshold_dual_pair(7, 4),
    matching_dual_pair(2),
]


class TestConcurrentScheduling:
    def test_fast_clients_finish_before_a_slow_instance(self):
        """Acceptance: 4 clients, one of them on a deliberately slow
        instance — the other clients' fast requests complete before it
        (no head-of-line blocking), and every verdict stays bit-for-bit
        identical to serial decide_duality."""
        slow_reference = _reference_fields(*SLOW_PAIR)
        fast_references = [_reference_fields(g, h) for g, h in FAST_PAIRS]
        finished: dict[str, float] = {}
        responses: dict[str, dict] = {}
        errors: list[BaseException] = []

        with DualityServer(method="fk-b", n_jobs=2) as server:
            host, port = server.address

            def slow_client() -> None:
                try:
                    with DualityClient(host, port, timeout=120) as client:
                        responses["slow"] = client.solve(*SLOW_PAIR)
                        finished["slow"] = time.monotonic()
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            def fast_client(index: int) -> None:
                try:
                    with DualityClient(host, port, timeout=120) as client:
                        g, h = FAST_PAIRS[index]
                        responses[f"fast-{index}"] = client.solve(g, h)
                        finished[f"fast-{index}"] = time.monotonic()
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            slow = threading.Thread(target=slow_client)
            slow.start()
            # Only release the fast clients once the slow request is
            # provably inside the scheduler — the stats op answering
            # *while a solve is in flight* is itself the lock-free
            # property the old server did not have.
            with DualityClient(host, port) as probe:
                deadline = time.monotonic() + 30
                while probe.stats()["requests_inflight"] < 1:
                    assert time.monotonic() < deadline, "slow solve never started"
                    time.sleep(0.01)
            fast_threads = [
                threading.Thread(target=fast_client, args=(index,))
                for index in range(len(FAST_PAIRS))
            ]
            for thread in fast_threads:
                thread.start()
            for thread in fast_threads:
                thread.join(timeout=120)
            slow.join(timeout=120)

        assert not errors, errors
        for index, reference in enumerate(fast_references):
            assert _response_fields(responses[f"fast-{index}"]) == reference
            assert finished[f"fast-{index}"] < finished["slow"], (
                f"fast client {index} was head-of-line blocked"
            )
        assert _response_fields(responses["slow"]) == slow_reference

    def test_one_connection_answers_out_of_order(self):
        """A fast request pipelined *behind* a slow one on the same
        connection is answered first — out-of-order on the wire, with
        the echoed id as the correlation key."""
        with DualityServer(method="fk-b", n_jobs=2) as server:
            host, port = server.address
            raw = socket.create_connection((host, port), timeout=120)
            try:
                for request_id, (g, h) in ((100, SLOW_PAIR), (200, FAST_PAIRS[0])):
                    raw.sendall(
                        json.dumps(
                            {
                                "id": request_id,
                                "op": "solve",
                                "g": encode_hypergraph(g),
                                "h": encode_hypergraph(h),
                            }
                        ).encode("utf-8")
                        + b"\n"
                    )
                wire = raw.makefile("rb")
                first = json.loads(wire.readline())
                second = json.loads(wire.readline())
            finally:
                raw.close()
        assert [first["id"], second["id"]] == [200, 100]
        assert first["ok"] and second["ok"]
        assert _response_fields(first) == _reference_fields(*FAST_PAIRS[0])
        assert _response_fields(second) == _reference_fields(*SLOW_PAIR)

    def test_solve_many_reorders_arrivals_into_input_order(self):
        instances = [SLOW_PAIR, *FAST_PAIRS]
        with DualityServer(method="fk-b", n_jobs=2) as server:
            with DualityClient(*server.address, timeout=120) as client:
                responses = client.solve_many(instances)
        assert [r["ok"] for r in responses] == [True] * len(instances)
        for (g, h), response in zip(instances, responses):
            assert _response_fields(response) == _reference_fields(g, h)


# ---------------------------------------------------------------------------
# Bounded result cache (LRU)
# ---------------------------------------------------------------------------

class TestResultCacheLRU:
    @pytest.fixture(scope="class")
    def result(self):
        (item,) = solve_many([matching_dual_pair(3)], method="fk-b")
        return item.result

    def test_unbounded_by_default(self, result):
        cache = ResultCache()
        for n in range(100):
            cache.put(f"key-{n}", result)
        assert len(cache) == 100 and cache.evictions == 0

    def test_put_evicts_least_recently_used(self, result):
        cache = ResultCache(max_entries=3)
        for key in ("a", "b", "c", "d"):
            cache.put(key, result)
        assert len(cache) == 3
        assert "a" not in cache and "d" in cache
        assert cache.evictions == 1

    def test_get_refreshes_recency(self, result):
        cache = ResultCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(key, result)
        assert cache.get("a") is result  # "a" is now the most recent…
        cache.put("d", result)
        assert "a" in cache and "b" not in cache  # …so "b" was evicted

    def test_put_refreshes_recency(self, result):
        cache = ResultCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(key, result)
        cache.put("a", result)  # overwrite refreshes, not duplicates
        assert len(cache) == 3
        cache.put("d", result)
        assert "a" in cache and "b" not in cache

    def test_rejects_nonsensical_cap(self):
        with pytest.raises(ValueError, match="positive"):
            ResultCache(max_entries=0)


# ---------------------------------------------------------------------------
# Crash-safe persistence
# ---------------------------------------------------------------------------

class TestCrashSafePersistence:
    def test_cache_persists_across_server_generations(self, tmp_path):
        store_path = tmp_path / "net-store.db"
        g, h = matching_dual_pair(3)
        with DualityServer(store=store_path) as server:
            with DualityClient(*server.address) as client:
                assert client.solve(g, h)["cached"] is False
                # Journal-appended before the answer — before shutdown.
                probe = VerdictStore(store_path)
                assert len(probe) == 1
                probe.close()
        with DualityServer(store=store_path) as server:
            with DualityClient(*server.address) as client:
                assert client.solve(g, h)["cached"] is True

    def test_corrupt_cache_file_degrades_to_misses_with_a_warning(
        self, tmp_path
    ):
        path = tmp_path / "cache.json"
        for damage in ('{"truncated": ', "[1, 2, 3]"):
            path.write_text(damage, encoding="utf-8")
            with pytest.warns(RuntimeWarning, match="unreadable"):
                store = VerdictStore(path)
            assert len(store) == 0
            store.close()

        # A damaged file must never block server startup.
        path.unlink()
        path.write_text('{"truncated": ', encoding="utf-8")
        with pytest.warns(RuntimeWarning):
            with DualityServer(method="fk-b", store=path) as server:
                with DualityClient(*server.address) as client:
                    assert client.solve(*matching_dual_pair(2))["dual"] is True
        # …and the session left a working store at the path.
        store = VerdictStore(path)
        assert len(store) == 1
        store.close()

    def test_non_dict_cache_entry_is_skipped_not_fatal(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        cache_path.write_text('{"key": "not an entry"}', encoding="utf-8")
        store = VerdictStore(cache_path)  # legacy import on open
        assert store.imported == 0 and len(store) == 0
        assert store.get("key") is None
        store.close()

    def test_session_killed_after_drain_loses_nothing(self, tmp_path):
        """Regression: verdicts used to persist only in close(), so a
        crashed session lost everything it computed."""
        store_path = tmp_path / "store.db"
        service = EngineService(method="fk-b", store=store_path)
        service.submit(matching_dual_pair(3))
        service.submit(hard_nondual_pair(3))
        originals = service.drain()
        # The session "crashes" here: no close(), no atexit, nothing.
        del service

        with EngineService(method="fk-b", store=store_path) as second:
            second.submit(matching_dual_pair(3))
            second.submit(hard_nondual_pair(3))
            replayed = second.drain()
            assert second.pool.tasks_completed == 0  # all hits
        for original, replay in zip(originals, replayed):
            assert replay.cached
            assert replay.result.verdict == original.result.verdict
            assert replay.result.certificate == original.result.certificate

    def test_cache_hit_appends_no_journal_bytes_and_no_puts(self, tmp_path):
        with EngineService(method="fk-b", store=tmp_path / "s.db") as service:
            service.solve(*matching_dual_pair(2))
            puts = service.store.puts
            journal = service.store.journal_bytes()
            service.solve(*matching_dual_pair(2))  # a pure cache hit
            assert service.store.puts == puts
            assert service.store.journal_bytes() == journal


# ---------------------------------------------------------------------------
# The CLI: serve --listen and client, end to end over the golden corpus
# ---------------------------------------------------------------------------

class TestNetCli:
    @pytest.fixture
    def running_server(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--listen",
                "127.0.0.1:0",
                "--cache",
                str(tmp_path / "cli-cache.json"),
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        banner = json.loads(server.stdout.readline())
        address = f"127.0.0.1:{banner['listening']['port']}"
        yield server, address, env
        if server.poll() is None:
            server.terminate()
            server.wait(timeout=15)

    def test_client_cli_against_corpus_matches_serial(self, running_server):
        server, address, env = running_server
        paths = _corpus_paths()[:4]
        out = subprocess.run(
            [sys.executable, "-m", "repro", "client", address, *map(str, paths)],
            capture_output=True,
            text=True,
            env=env,
            timeout=240,
        )
        lines = [json.loads(line) for line in out.stdout.strip().splitlines()]
        assert len(lines) == len(paths)
        for path, line in zip(paths, lines):
            g, h = load_instance(path)
            assert _response_fields(line) == _reference_fields(g, h)
            assert line["source"] == str(path)
        expected = 0 if all(line["dual"] for line in lines) else 1
        assert out.returncode == expected

    def test_client_cli_exits_nonzero_on_error_responses(
        self, running_server, tmp_path
    ):
        """A server-side {"ok": false} error response must fail the
        client's exit status, not just print a line (regression: a batch
        with one bad instance used to look like success to scripts)."""
        server, address, env = running_server
        good = tmp_path / "good.hg"
        hgio.dump_many(matching_dual_pair(3), good)
        # Parses fine, but G is not simple: the *server* rejects it.
        bad = tmp_path / "not-simple.hg"
        bad.write_text("0\n0 1\n==\n0\n", encoding="utf-8")
        out = subprocess.run(
            [sys.executable, "-m", "repro", "client", address, str(good), str(bad)],
            capture_output=True,
            text=True,
            env=env,
            timeout=240,
        )
        lines = [json.loads(line) for line in out.stdout.strip().splitlines()]
        assert out.returncode != 0
        by_source = {line["source"]: line for line in lines}
        assert by_source[str(good)]["dual"] is True
        assert "simple" in by_source[str(bad)]["error"]
        # A file the client cannot read fails the run the same way.
        out = subprocess.run(
            [
                sys.executable, "-m", "repro", "client", address,
                str(good), str(tmp_path / "missing.hg"),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=240,
        )
        assert out.returncode != 0

    def test_client_shutdown_stops_the_server_gracefully(self, running_server):
        server, address, env = running_server
        out = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "client",
                address,
                str(_corpus_paths()[0]),
                "--shutdown",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=240,
        )
        assert out.returncode in (0, 1)
        assert server.wait(timeout=30) == 0

    def test_sigint_shuts_the_server_down_cleanly(self, running_server):
        server, _address, _env = running_server
        server.send_signal(signal.SIGINT)
        assert server.wait(timeout=30) == 0

    def test_listen_rejects_instance_arguments(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="repro client"):
            main(["serve", "--listen", "127.0.0.1:0", "whatever.hg"])


# ---------------------------------------------------------------------------
# The event-loop server: auth, backpressure, the async client
# ---------------------------------------------------------------------------

def _recv_lines(sock: socket.socket, count: int, timeout: float = 120.0):
    """Read exactly ``count`` newline-terminated JSON objects raw."""
    sock.settimeout(timeout)
    buffer = b""
    lines = []
    while len(lines) < count:
        while b"\n" not in buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise AssertionError(
                    f"EOF after {len(lines)} of {count} lines"
                )
            buffer += chunk
        line, _, buffer = buffer.partition(b"\n")
        lines.append(json.loads(line))
    return lines


def _recv_eof(sock: socket.socket, timeout: float = 30.0) -> None:
    sock.settimeout(timeout)
    leftovers = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            assert not leftovers.strip(), leftovers
            return
        leftovers += chunk


class TestAuth:
    TOKEN = "swordfish-7"

    def test_first_frame_must_authenticate_on_the_raw_wire(self):
        with DualityServer(auth_token=self.TOKEN) as server:
            # Any first frame that is not a valid auth op — here a
            # perfectly well-formed ping — gets one clean error line
            # and a disconnect, and never reaches the scheduler.
            raw = socket.create_connection(server.address, timeout=30)
            try:
                raw.sendall(b'{"id": 1, "op": "ping"}\n')
                (line,) = _recv_lines(raw, 1)
                assert line == {
                    "id": 1,
                    "ok": False,
                    "error": {
                        "type": "AuthError",
                        "message": line["error"]["message"],
                    },
                }
                _recv_eof(raw)
            finally:
                raw.close()
            # A wrong token: same treatment.
            raw = socket.create_connection(server.address, timeout=30)
            try:
                raw.sendall(b'{"id": 2, "op": "auth", "token": "nope"}\n')
                (line,) = _recv_lines(raw, 1)
                assert line["ok"] is False
                assert line["error"]["type"] == "AuthError"
                _recv_eof(raw)
            finally:
                raw.close()
            # The right token opens the session; everything works after.
            raw = socket.create_connection(server.address, timeout=30)
            try:
                raw.sendall(
                    json.dumps(
                        {"id": 3, "op": "auth", "token": self.TOKEN}
                    ).encode()
                    + b"\n"
                )
                (line,) = _recv_lines(raw, 1)
                assert line == {"id": 3, "ok": True, "authenticated": True}
                raw.sendall(b'{"id": 4, "op": "ping"}\n')
                (line,) = _recv_lines(raw, 1)
                assert line["pong"] is True
            finally:
                raw.close()

    def test_clients_authenticate_and_solve(self, tmp_path):
        g, h = matching_dual_pair(3)
        reference = _reference_fields(g, h)
        with DualityServer(auth_token=self.TOKEN) as server:
            host, port = server.address
            with DualityClient(
                host, port, timeout=60, auth_token=self.TOKEN
            ) as client:
                assert _response_fields(client.solve(g, h)) == reference
            with pytest.raises(RequestError, match="AuthError"):
                DualityClient(host, port, timeout=60, auth_token="wrong")

            async def drive() -> dict:
                async with AsyncDualityClient(
                    host, port, timeout=60, auth_token=self.TOKEN
                ) as client:
                    return await client.solve(g, h)

            assert _response_fields(asyncio.run(drive())) == reference

            async def rejected() -> None:
                async with AsyncDualityClient(
                    host, port, timeout=60, auth_token="wrong"
                ):
                    pass

            with pytest.raises(RequestError, match="AuthError"):
                asyncio.run(rejected())
            # Auth failures count as errors, not served requests, and
            # the server keeps serving.
            assert server.stats()["errors"] >= 2
            assert server.stats()["auth_required"] is True

    def test_tokenless_server_ignores_auth(self):
        with DualityServer() as server:
            host, port = server.address
            with DualityClient(
                host, port, timeout=60, auth_token="anything"
            ) as client:
                assert client.ping() is True
            assert server.stats()["auth_required"] is False


class TestBackpressure:
    def test_slow_reader_cannot_exceed_the_inflight_cap(self):
        """A client that firehoses requests and never reads holds at
        most ``max_inflight`` solves in the server — observed on the
        raw wire via a second connection's stats polling — and still
        gets every verdict once it starts reading."""
        # Distinct instances so in-flight dedup cannot collapse them.
        pairs = [
            threshold_dual_pair(12, 6),
            threshold_dual_pair(12, 7),
            threshold_dual_pair(11, 6),
            threshold_dual_pair(11, 5),
            threshold_dual_pair(10, 5),
        ]
        references = [_reference_fields(g, h) for g, h in pairs]
        with DualityServer(method="fk-b", max_inflight=2) as server:
            host, port = server.address
            raw = socket.create_connection((host, port), timeout=120)
            try:
                for index, (g, h) in enumerate(pairs):
                    raw.sendall(
                        json.dumps(
                            {
                                "id": index,
                                "op": "solve",
                                "g": encode_hypergraph(g),
                                "h": encode_hypergraph(h),
                            }
                        ).encode("utf-8")
                        + b"\n"
                    )
                # ... and do NOT read: the responses (and the unread
                # requests) must not pile up server-side beyond the cap.
                max_per_connection = 0
                with DualityClient(host, port, timeout=60) as probe:
                    deadline = time.monotonic() + 120
                    while True:
                        stats = probe.stats()
                        per_conn = stats["inflight_per_connection"]
                        if per_conn:
                            max_per_connection = max(
                                max_per_connection, *per_conn.values()
                            )
                        if stats["requests_served"] >= len(pairs):
                            break
                        assert time.monotonic() < deadline
                        time.sleep(0.005)
                assert max_per_connection <= 2, (
                    f"inflight cap breached: {max_per_connection}"
                )
                # The cap was actually reached (the pipeline was deep
                # enough to need pausing), not just never approached.
                assert max_per_connection == 2
                # Reading now yields every verdict, out of order or
                # not, matched by id and bit-for-bit serial.
                responses = _recv_lines(raw, len(pairs))
                by_id = {response["id"]: response for response in responses}
                for index, reference in enumerate(references):
                    assert _response_fields(by_id[index]) == reference
            finally:
                raw.close()
            assert server.stats()["max_inflight"] == 2


class TestAsyncClient:
    def test_round_trips_match_serial(self):
        instances = _instances()
        references = [_reference_fields(g, h) for g, h in instances]

        async def drive(host: str, port: int) -> None:
            async with AsyncDualityClient(host, port, timeout=120) as client:
                assert await client.ping() is True
                for (g, h), reference in zip(instances, references):
                    assert _response_fields(await client.solve(g, h)) == reference
                stats = await client.stats()
                assert stats["connections_open"] == 1
                assert stats["requests_served"] >= len(instances)

        with DualityServer(method="fk-b") as server:
            host, port = server.address
            asyncio.run(drive(host, port))

    def test_solve_many_streams_past_any_window(self):
        """A 40-request batch — deeper than the sync client's window
        and the default per-connection cap is irrelevant to it — comes
        back in input order, every verdict bit-for-bit serial."""
        base = _instances()
        instances = [base[index % len(base)] for index in range(40)]
        references = [_reference_fields(g, h) for g, h in instances]

        async def drive(host: str, port: int) -> list[dict]:
            async with AsyncDualityClient(host, port, timeout=120) as client:
                return await client.solve_many(instances)

        with DualityServer(method="fk-b", max_inflight=4) as server:
            host, port = server.address
            responses = asyncio.run(drive(host, port))
        assert len(responses) == len(instances)
        for response, reference in zip(responses, references):
            assert response["ok"] is True
            assert _response_fields(response) == reference

    def test_solve_many_reports_errors_inline(self):
        good = matching_dual_pair(3)
        not_simple = Hypergraph([{0}, {0, 1}], vertices=range(2))
        instances = [good, (not_simple, not_simple), good]

        async def drive(host: str, port: int) -> list[dict]:
            async with AsyncDualityClient(host, port, timeout=120) as client:
                return await client.solve_many(instances)

        with DualityServer(method="fk-b") as server:
            responses = asyncio.run(drive(*server.address))
        assert responses[0]["ok"] is True and responses[2]["ok"] is True
        assert responses[1]["ok"] is False
        assert "simple" in responses[1]["error"]["message"]


class _OneAnswerServer(threading.Thread):
    """A fake server that answers the first request, then cuts the
    connection — the deterministic stand-in for a server dying (or
    shutting down) mid-pipeline."""

    def __init__(self, expected_requests: int) -> None:
        super().__init__(daemon=True)
        self._expected = expected_requests
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]

    def run(self) -> None:
        conn, _peer = self._listener.accept()
        with conn:
            # Drain the whole pipeline first (an abrupt close with
            # unread bytes would RST and could destroy the one answer
            # in flight — this test needs the deterministic half).
            buffer = b""
            while buffer.count(b"\n") < self._expected:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                buffer += chunk
            first, _, _rest = buffer.partition(b"\n")
            request = json.loads(first)
            conn.sendall(
                json.dumps(
                    {"id": request.get("id"), "ok": True, "pong": True}
                ).encode()
                + b"\n"
            )
            # Clean close with the rest of the pipeline unanswered.
        self._listener.close()


class TestDisconnectMidPipeline:
    def test_sync_solve_many_returns_promptly_with_inline_errors(self):
        fake = _OneAnswerServer(expected_requests=3)
        fake.start()
        host, port = fake.address
        pairs = [matching_dual_pair(2)] * 3
        client = DualityClient(host, port, timeout=120)
        started = time.monotonic()
        responses = client.solve_many(pairs)
        elapsed = time.monotonic() - started
        # Promptly — on the disconnect, not after the 120 s timeout.
        assert elapsed < 30
        assert len(responses) == 3
        assert responses[0]["ok"] is True
        for response in responses[1:]:
            assert response["ok"] is False
            assert response["error"]["type"] == "ConnectionError"
        assert client.closed

    def test_async_solve_many_returns_promptly_with_inline_errors(self):
        fake = _OneAnswerServer(expected_requests=3)
        fake.start()
        host, port = fake.address
        pairs = [matching_dual_pair(2)] * 3

        async def drive() -> tuple[list[dict], bool]:
            client = AsyncDualityClient(host, port, timeout=120)
            await client.connect()
            responses = await client.solve_many(pairs)
            return responses, client.closed

        started = time.monotonic()
        responses, closed = asyncio.run(drive())
        elapsed = time.monotonic() - started
        assert elapsed < 30
        assert responses[0]["ok"] is True
        for response in responses[1:]:
            assert response["ok"] is False
            assert response["error"]["type"] == "ConnectionError"
        assert closed


class _FlakyProxy(threading.Thread):
    """A TCP proxy that kills its first connection after relaying
    ``cut_after`` response lines, then relays later connections
    transparently — a deterministic flaky network in front of a real
    server."""

    def __init__(self, upstream: tuple, cut_after: int = 1) -> None:
        super().__init__(daemon=True)
        self._upstream = upstream
        self._cut_after = cut_after
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self.connections = 0

    def run(self) -> None:
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            cut = self._cut_after if self.connections == 1 else None
            threading.Thread(
                target=self._relay, args=(conn, cut), daemon=True
            ).start()

    def _relay(self, conn: socket.socket, cut: int | None) -> None:
        try:
            up = socket.create_connection(self._upstream)
        except OSError:
            conn.close()
            return

        def pump_up() -> None:
            try:
                while True:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    up.sendall(chunk)
            except OSError:
                pass
            try:
                up.shutdown(socket.SHUT_WR)
            except OSError:
                pass

        threading.Thread(target=pump_up, daemon=True).start()
        sent_lines = 0
        try:
            while True:
                chunk = up.recv(65536)
                if not chunk:
                    break
                newlines = chunk.count(b"\n")
                if cut is not None and sent_lines + newlines >= cut:
                    # Forward up to (and including) the cut-th newline,
                    # then kill both ends mid-pipeline.
                    stop = -1
                    for _ in range(cut - sent_lines):
                        stop = chunk.find(b"\n", stop + 1)
                    conn.sendall(chunk[: stop + 1])
                    break
                sent_lines += newlines
                conn.sendall(chunk)
        except OSError:
            pass
        finally:
            # shutdown, not just close: the pump threads still hold the
            # file descriptions open (blocked in recv), so a bare close
            # would never send the FIN this test's cut depends on.
            for sock in (conn, up):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                sock.close()

    def close(self) -> None:
        self._listener.close()


class TestReconnectMidPipeline:
    """``solve_many(..., reconnect=N)`` rides over a dropped connection:
    already-arrived answers are kept, outstanding requests are resent on
    a fresh connection, and the batch completes bit-for-bit.  (With the
    default ``reconnect=0`` the drop stays terminal — the contract
    :class:`TestDisconnectMidPipeline` pins.)"""

    def test_sync_solve_many_reconnects_and_completes(self):
        pairs = _instances()
        with DualityServer(method="fk-b") as server:
            proxy = _FlakyProxy(server.address, cut_after=1)
            proxy.start()
            host, port = proxy.address
            try:
                with DualityClient(host, port, timeout=60) as client:
                    responses = client.solve_many(pairs, reconnect=2)
            finally:
                proxy.close()
            assert proxy.connections >= 2  # the retry really reconnected
            assert len(responses) == len(pairs)
            for (g, h), response in zip(pairs, responses):
                assert response["ok"] is True, response
                assert _response_fields(response) == _reference_fields(g, h)

    def test_async_solve_many_reconnects_and_completes(self):
        pairs = _instances()
        with DualityServer(method="fk-b") as server:
            proxy = _FlakyProxy(server.address, cut_after=1)
            proxy.start()
            host, port = proxy.address

            async def drive() -> list[dict]:
                client = AsyncDualityClient(host, port, timeout=60)
                await client.connect()
                try:
                    return await client.solve_many(pairs, reconnect=2)
                finally:
                    await client.close()

            try:
                responses = asyncio.run(drive())
            finally:
                proxy.close()
            assert proxy.connections >= 2
            assert len(responses) == len(pairs)
            for (g, h), response in zip(pairs, responses):
                assert response["ok"] is True, response
                assert _response_fields(response) == _reference_fields(g, h)


class TestStatsCounters:
    def test_stats_reports_backpressure_cache_and_latency(self, tmp_path):
        g, h = matching_dual_pair(3)
        with DualityServer(
            store=tmp_path / "store.db", cache_max_entries=1
        ) as server:
            host, port = server.address
            with DualityClient(host, port, timeout=60) as client:
                client.solve(g, h)
                client.solve(g, h)  # a cache hit
                client.solve(*threshold_dual_pair(7, 4))  # evicts (cap 1)
                stats = client.stats()
            assert stats["max_inflight"] == server.max_inflight
            assert stats["connections_open"] == 1
            assert stats["inflight_per_connection"] == {}
            assert stats["requests_inflight"] == 0
            assert stats["cache_hits"] == 1
            assert stats["cache_misses"] == 2
            assert stats["cache_evictions"] == 1
            latency = stats["latency"]
            # Only computed verdicts are timed (2 misses; the hit is
            # answered at submit and never reaches the pool).
            assert latency["count"] == 3
            assert latency["p50_ms"] is not None
            assert latency["p99_ms"] >= latency["p50_ms"] > 0.0


# ---------------------------------------------------------------------------
# Connection-count stress (opt in: pytest -m stress)
# ---------------------------------------------------------------------------

def _raise_fd_limit(needed: int) -> bool:
    import resource

    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft >= needed:
        return True
    try:
        resource.setrlimit(
            resource.RLIMIT_NOFILE, (min(needed, hard), hard)
        )
    except (ValueError, OSError):
        return False
    return resource.getrlimit(resource.RLIMIT_NOFILE)[0] >= needed


@pytest.mark.stress
class TestConnectionScale:
    CONNECTIONS = 1000
    WAVE = 200

    def test_1k_connections_ping_and_solve(self, tmp_path):
        """One event loop holds 1000 live connections: every one of
        them pings, every one of them gets a verdict, and the server
        reports them all open at once."""
        # ~2 fds per connection server-side + 1 client-side, plus slack.
        if not _raise_fd_limit(4 * self.CONNECTIONS + 256):
            pytest.skip("cannot raise RLIMIT_NOFILE high enough")
        g, h = matching_dual_pair(2)
        reference = _reference_fields(g, h)

        async def drive(host: str, port: int) -> dict:
            clients: list[AsyncDualityClient] = []
            try:
                while len(clients) < self.CONNECTIONS:
                    wave = [
                        AsyncDualityClient(host, port, timeout=120)
                        for _ in range(
                            min(self.WAVE, self.CONNECTIONS - len(clients))
                        )
                    ]
                    await asyncio.gather(*(c.connect() for c in wave))
                    clients.extend(wave)
                pongs = await asyncio.gather(*(c.ping() for c in clients))
                assert all(pongs)
                stats = await clients[0].stats()
                assert stats["connections_open"] == self.CONNECTIONS
                responses = await asyncio.gather(
                    *(c.solve(g, h) for c in clients)
                )
                for response in responses:
                    assert _response_fields(response) == reference
                return await clients[0].stats()
            finally:
                for start in range(0, len(clients), self.WAVE):
                    await asyncio.gather(
                        *(
                            c.close()
                            for c in clients[start : start + self.WAVE]
                        )
                    )

        with DualityServer(method="fk-b", store=tmp_path / "s.db") as server:
            host, port = server.address
            stats = asyncio.run(drive(host, port))
        assert stats["connections_accepted"] == self.CONNECTIONS
        # 1000 identical instances, one computation: the cache and the
        # in-flight dedup absorbed the rest.
        assert stats["cache_misses"] == 1
        assert stats["requests_served"] >= 2 * self.CONNECTIONS
