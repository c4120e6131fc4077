"""Command-line interface: ``monotone-dual`` / ``python -m repro``.

Subcommands::

    dual       decide duality of two hypergraph files (.hg)
    batch      solve many duality instance files through a worker pool
    serve      persistent engine service: stream instances, get JSON verdicts
               (--listen HOST:PORT serves them over TCP instead)
    client     send instances to a 'serve --listen' server, verdicts back
    store      inspect / compact / import a durable verdict store
    model      fit / inspect / cross-validate the learned engine selector
    trace      solve one instance with tracing on and print the span tree
    tr         print the minimal transversals of a hypergraph file
    tree       print the Boros–Makino decomposition tree
    pathnode   resolve one path descriptor (Lemma 4.2)
    borders    mine itemset borders from a transaction file
    keys       list the minimal keys of a CSV relation
    coterie    check a quorum file for the coterie axioms and domination
    classify   tractability classification of a hypergraph (paper §6)
    rules      association rules from the frequent itemsets
    selfdual   check tr(H) = H (the coterie-core self-duality test)
    learn      learn a monotone function with membership queries (ref [26])
    diagnose   model-based circuit diagnosis (refs [41, 24])
    abduce     minimal abductive explanations over a Horn theory (ref [10])
    envelope   Horn envelope of a model list (refs [33, 19])
    figure1    print the regenerated Figure 1
    chi        print χ(n) and the FK bound exponent

All subcommands read the plain-text formats of
:mod:`repro.hypergraph.io` and :mod:`repro.itemsets.io` and print
human-readable reports to stdout; exit status is 0 for "yes"-style
answers (dual / non-dominated / complete) and 1 otherwise, so the tool
scripts cleanly.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from repro._util import format_set, vertex_key
from repro.hypergraph import io as hgio
from repro.hypergraph import transversal_hypergraph


def _print_family(title: str, edges) -> None:
    print(f"{title} ({len(tuple(edges))} sets):")
    for edge in edges:
        print(f"  {format_set(edge)}")


def _export_model(args: argparse.Namespace) -> None:
    """Make ``--model`` the process-wide default selector artifact.

    ``set_default_model`` loads it eagerly (a broken artifact fails the
    command, not the first solve), and the environment variable lets
    spawned worker processes resolve the same artifact lazily.
    """
    model = getattr(args, "model", None)
    if model is None:
        return
    import os

    from repro.select import MODEL_ENV, set_default_model

    set_default_model(model)
    os.environ[MODEL_ENV] = str(model)


def _cmd_dual(args: argparse.Namespace) -> int:
    from repro.duality import decide_duality, explain

    _export_model(args)
    g = hgio.load(args.g)
    h = hgio.load(args.h)
    jobs = args.jobs
    if args.method == "portfolio" and jobs == 1:
        # The point of the portfolio is the race: default to one worker
        # per engine rather than the run-everything sequential fallback.
        jobs = -1
    result = decide_duality(g, h, method=args.method, n_jobs=jobs)
    print(explain(g, h, result))
    if not result.is_dual and result.certificate.path is not None:
        print(f"certificate path descriptor: {list(result.certificate.path)}")
    auto = result.stats.extra.get("auto")
    if auto is not None:
        print(
            f"auto selection: {auto['engine']} "
            f"(mode={auto['mode']}, confidence={auto['confidence']})"
        )
    portfolio = result.stats.extra.get("portfolio")
    if portfolio is not None:
        timings = ", ".join(
            f"{engine}={t * 1000:.1f}ms" if t is not None else f"{engine}=-"
            for engine, t in portfolio["timings_s"].items()
        )
        print(f"portfolio winner: {portfolio['winner']} ({timings})")
    return 0 if result.is_dual else 1


def _store_path(args: argparse.Namespace) -> Path | None:
    """The durable-store path: ``--store``, or its legacy ``--cache`` alias.

    Since PR 8 both flags open a :class:`~repro.store.VerdictStore` —
    a pre-existing ``cache.json`` at the path is imported automatically
    on first open, so old invocations keep their verdicts.
    """
    store = getattr(args, "store", None)
    cache = getattr(args, "cache", None)
    if store is not None and cache is not None:
        raise SystemExit(
            "pass either --store or --cache (its legacy alias), not both"
        )
    return store if store is not None else cache


def _cmd_batch(args: argparse.Namespace) -> int:
    import time

    from repro.parallel import ResultCache, solve_many
    from repro.store import VerdictStore

    _export_model(args)
    store_path = _store_path(args)
    store = VerdictStore(store_path) if store_path else None
    cache = ResultCache(backend=store) if store is not None else None
    try:
        start = time.perf_counter()
        items = solve_many(
            args.instances,
            method=args.method,
            n_jobs=args.jobs,
            cache=cache,
            timings=args.timings,
        )
        wall = time.perf_counter() - start
        width = max(len(Path(src).name) for src in map(str, args.instances))
        for item in items:
            name = Path(item.source).name if item.source else "<inline>"
            verdict = "dual    " if item.is_dual else "NOT dual"
            suffix = (
                "  [cached]" if item.cached else f"  {item.elapsed_s * 1000:8.1f}ms"
            )
            print(f"  {name:<{width}}  {verdict}{suffix}")
        n_dual = sum(1 for item in items if item.is_dual)
        summary = (
            f"{len(items)} instances ({n_dual} dual, {len(items) - n_dual} not), "
            f"method={args.method}, jobs={args.jobs}, wall {wall:.3f}s"
        )
        if cache is not None:
            summary += f", cache hits/misses {cache.hits}/{cache.misses}"
            summary += f", store holds {len(store)} verdicts"
        print(summary)
    finally:
        if store is not None:
            store.close()
    return 0 if n_dual == len(items) else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """The ``serve`` mode: the request scheduler over warm workers.

    Instance files given on the command line are scheduled as one
    overlapping batch (verdicts print in input order); with none (or
    ``-``), paths are read line by line from stdin and each is answered
    as soon as it arrives — the workers and the result cache stay warm
    in between, so a long-running client pays the spawn cost once.  One
    JSON verdict per line on stdout.  A missing or malformed instance
    file, or a solver-side error, yields an error line for *that*
    request and the session keeps serving — per-request tickets mean a
    bad instance can never take the rest of a batch down with it.

    With ``--listen HOST:PORT`` the service binds a TCP socket instead:
    any number of ``repro client`` sessions (or raw JSON-lines writers)
    share the one warm pool and the one crash-safe cache until SIGINT
    or a client ``shutdown`` request stops it gracefully.
    """
    import json

    from repro.service import EngineService, response_to_json

    if getattr(args, "auto", False):
        args.method = "auto"
    _export_model(args)
    if args.listen:
        return _serve_listen(args)
    if args.method in ("portfolio", "auto") and _store_path(args) is not None:
        raise SystemExit(
            f"serve --method {args.method} cannot verdict-cache race "
            "outcomes; drop --store/--cache (a --listen server with "
            "--store still records timing rows durably — it just skips "
            "verdict caching for this method)"
        )

    sources = [str(p) for p in args.instances if str(p) != "-"]
    use_stdin = not sources or any(str(p) == "-" for p in args.instances)

    backend = _peer_backend(args)
    exit_status = 0
    with EngineService(
        method=args.method,
        n_jobs=args.jobs,
        store=_store_path(args),
        cache_max_entries=args.cache_max,
        timings=args.timings,
        shard_backend=backend,
    ) as service:
        def emit_error(source: str, exc: Exception) -> None:
            nonlocal exit_status
            print(
                json.dumps({"source": source, "error": str(exc)}),
                flush=True,
            )
            exit_status = 1

        def await_ticket(source: str, ticket) -> None:
            nonlocal exit_status
            try:
                response = ticket.result()
            except Exception as exc:
                emit_error(source, exc)
                return
            print(json.dumps(response_to_json(response)), flush=True)
            if not response.is_dual:
                exit_status = 1

        def serve_one(source: str) -> None:
            # A failure at submit (unreadable file) or at solve time
            # (engine preconditions, not-simple inputs) is this
            # request's error line; the session keeps serving.
            try:
                ticket = service.submit(source, collect=False)
            except Exception as exc:
                emit_error(source, exc)
                return
            await_ticket(source, ticket)

        # Schedule the whole command line first — at n_jobs > 1 the
        # instances overlap on the pool — then emit in input order.
        tickets = []
        for source in sources:
            try:
                tickets.append((source, service.submit(source, collect=False)))
            except Exception as exc:
                emit_error(source, exc)
        for source, ticket in tickets:
            await_ticket(source, ticket)
        if use_stdin:
            # Ctrl-C and a closed stdout pipe are both normal ends of a
            # streaming session, not tracebacks; whatever was answered
            # (and cached) so far stands, and the context manager still
            # flushes the cache and releases the pool.
            try:
                for raw in sys.stdin:
                    line = raw.strip()
                    if not line or line.startswith("#"):
                        continue
                    serve_one(line)
            except KeyboardInterrupt:
                pass
            except BrokenPipeError:
                exit_status = 1
        if args.stats:
            try:
                stats = service.stats()
                if backend is not None:
                    stats["peers"] = backend.stats()
                print(json.dumps({"stats": stats}), flush=True)
            except BrokenPipeError:
                # stdout died mid-session; the stats line goes with it.
                exit_status = 1
    if backend is not None:
        backend.close()
    return exit_status


def _peer_backend(args: argparse.Namespace):
    """The ``--peers`` fleet backend for the stdin serve mode (``None``
    without the flag; ``--listen`` builds its own inside the server)."""
    if not getattr(args, "peers", None):
        return None
    from repro.parallel.backends import PeerBackend

    if args.hedge_ms is None:
        hedge_after = PeerBackend.DEFAULT_HEDGE_AFTER
    else:
        hedge_after = args.hedge_ms / 1000.0 if args.hedge_ms > 0 else None
    return PeerBackend(
        [addr.strip() for addr in args.peers.split(",") if addr.strip()],
        auth_token=args.peer_auth_token,
        hedge_after=hedge_after,
    )


def _serve_listen(args: argparse.Namespace) -> int:
    """The ``serve --listen`` mode: the TCP front end, SIGINT to stop."""
    import json

    from repro.net import DualityServer, parse_address

    if args.instances:
        raise SystemExit(
            "serve --listen takes no instance arguments; "
            "send instances with 'repro client' instead"
        )
    host, port = parse_address(args.listen)
    server = DualityServer(
        host=host,
        port=port,
        method=args.method,
        n_jobs=args.jobs,
        store=_store_path(args),
        cache_max_entries=args.cache_max,
        auth_token=args.auth_token,
        slow_ms=args.slow_ms,
        trace_requests=args.trace,
        timings=args.timings,
        peers=(
            [a.strip() for a in args.peers.split(",") if a.strip()]
            if args.peers
            else None
        ),
        peer_auth_token=args.peer_auth_token,
        hedge_ms=args.hedge_ms,
        **(
            {"max_inflight": args.max_inflight}
            if args.max_inflight is not None
            else {}
        ),
    )
    server.start()
    bound_host, bound_port = server.address
    try:
        print(
            json.dumps({"listening": {"host": bound_host, "port": bound_port}}),
            flush=True,
        )
        server.wait()  # until a client 'shutdown' request …
    except KeyboardInterrupt:
        pass  # … or Ctrl-C; either way shut down gracefully below
    finally:
        server.shutdown()
    if args.stats:
        print(json.dumps({"stats": server.stats()}), flush=True)
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    """The ``client`` mode: ship instances to a ``serve --listen`` server.

    Instance files are read on *this* machine and sent inline through
    the lossless codec, so the server needs no shared filesystem.
    Command-line files are pipelined as one batch (the server's
    scheduler overlaps them; verdicts print in input order); stdin
    paths are answered one per line as they arrive.  One JSON verdict
    (or error) line per instance on stdout.  Exit status 0 when every
    instance is dual, **nonzero** when any is non-dual or any line is
    an error — a server-side ``{"ok": false}`` response included, so
    scripts can trust the status (the ``repro dual`` convention).
    """
    import json

    from repro.hypergraph import instance_key, pair_digest
    from repro.net import DualityClient, ProtocolError, RequestError
    from repro.parallel.batch import load_instance
    from repro.store import VerdictStore, result_from_json

    store = VerdictStore(args.store) if args.store else None
    paths = [str(p) for p in args.instances if str(p) != "-"]
    use_stdin = not paths or any(str(p) == "-" for p in args.instances)
    if args.metrics and not args.instances:
        # A bare '--metrics' is a scrape, not a solve session: don't
        # sit on stdin waiting for instance paths that never come.
        use_stdin = False
    want_trace = bool(args.trace or args.trace_out)

    exit_status = 0
    try:
        client = DualityClient(
            args.address,
            timeout=args.timeout,
            auth_token=args.auth_token,
            trace=want_trace,
        )
    except (OSError, ValueError, RequestError) as exc:
        # No server (or a bad address, or a rejected token) is an error
        # line and status 1, not a traceback — scripts probe liveness
        # with this.
        if store is not None:
            store.close()
        print(json.dumps({"error": f"connect {args.address}: {exc}"}), flush=True)
        return 1
    with client:
        def emit_error(path: str, detail: str) -> None:
            nonlocal exit_status
            print(json.dumps({"source": path, "error": detail}), flush=True)
            exit_status = 1

        def store_hit(pair) -> dict | None:
            """A local verdict for this exact labelled instance, if the
            side store holds one — engine-bound, so only with an
            explicit --method (the server's default is not known here).
            """
            if store is None or args.method is None:
                return None
            key = instance_key(*pair, args.method)
            entry = store.get_entry(key)
            if entry is None:
                return None
            return {
                "ok": True,
                "key": key,
                "method": entry["method"],
                "verdict": entry["verdict"],
                "dual": entry["verdict"] == "dual",
                "cached": True,
                "origin": "store-local",
                "elapsed_ms": 0.0,
                "kind": entry["kind"],
                "witness": entry["witness"],
                "path": entry["path"],
                "detail": entry.get("detail", ""),
            }

        def store_write_back(response: dict, digest: str | None) -> None:
            """Persist a server verdict into the local side store."""
            if store is None or response.get("origin") == "store-local":
                return
            key = response.get("key")
            if not key:
                return
            entry = {
                "verdict": response.get("verdict"),
                "method": response.get("method"),
                "kind": response.get("kind"),
                "witness": response.get("witness"),
                "detail": response.get("detail", ""),
                "path": response.get("path"),
            }
            try:
                # Only store entries that replay: a witness outside the
                # codec (repr-degraded on the wire) must not poison the
                # store with an undecodable row.
                result_from_json(dict(entry))
            except Exception:  # noqa: BLE001 - best-effort side store
                return
            store.put_entry(key, entry, digest=digest)

        def emit_response(
            path: str, response: dict, digest: str | None = None
        ) -> None:
            nonlocal exit_status
            if not response.get("ok"):
                info = response.get("error") or {}
                emit_error(
                    path,
                    f"{info.get('type', 'Error')}: {info.get('message', '')}",
                )
                return
            store_write_back(response, digest)
            response["source"] = path
            print(json.dumps(response), flush=True)
            if not response.get("dual"):
                exit_status = 1

        def serve_one(path: str) -> None:
            pair = None
            digest = None
            if store is not None:
                try:
                    pair = load_instance(path)
                except (OSError, ValueError) as exc:
                    emit_error(path, str(exc))
                    return
                digest = pair_digest(*pair)
                hit = store_hit(pair)
                if hit is not None:
                    emit_response(path, hit)
                    return
            try:
                response = client.solve_path(path, method=args.method)
            except (RequestError, OSError, ValueError) as exc:
                emit_error(path, str(exc))
                return
            emit_response(path, response, digest)

        def serve_pipelined(batch: list[str]) -> None:
            # One pipelined batch: every loadable file goes out before
            # the first answer is awaited, so the server's scheduler
            # overlaps them; an unreadable file costs only its own
            # error line.  Verdicts print in input order, side-store
            # hits answered locally in place.
            loaded = []
            for path in batch:
                try:
                    loaded.append((path, load_instance(path)))
                except (OSError, ValueError) as exc:
                    emit_error(path, str(exc))
            if not loaded or client.closed:
                return
            results: dict[int, tuple[dict, str | None]] = {}
            to_send = []
            for idx, (path, pair) in enumerate(loaded):
                digest = pair_digest(*pair) if store is not None else None
                hit = store_hit(pair)
                if hit is not None:
                    results[idx] = (hit, None)
                else:
                    to_send.append((idx, pair, digest))
            if to_send:
                responses = client.solve_many(
                    [pair for _idx, pair, _digest in to_send],
                    method=args.method,
                )
                for (idx, _pair, digest), response in zip(to_send, responses):
                    results[idx] = (response, digest)
            for idx, (path, _pair) in enumerate(loaded):
                if idx in results:
                    response, digest = results[idx]
                    emit_response(path, response, digest)

        try:
            # A receive failure closes the client (the stream has no
            # trustworthy next frame); stop asking once that happens.
            serve_pipelined(paths)
            if use_stdin:
                for raw in sys.stdin:
                    line = raw.strip()
                    if not line or line.startswith("#"):
                        continue
                    if client.closed:
                        break
                    serve_one(line)
            if args.stats and not client.closed:
                print(json.dumps({"stats": client.stats()}), flush=True)
            if args.metrics and not client.closed:
                # Prometheus text exposition straight to stdout — pipe
                # it into a file or a pushgateway as-is.
                print(client.metrics(), end="", flush=True)
        except KeyboardInterrupt:
            pass
        except BrokenPipeError:
            exit_status = 1
        except (RequestError, ProtocolError, OSError) as exc:
            # A dead or desynced connection ends the session with an
            # error line, never a traceback.
            print(json.dumps({"error": str(exc)}), flush=True)
            exit_status = 1
        if want_trace and client.trace_sink is not None:
            from repro.obs import dump_chrome, format_tree

            spans = client.trace_sink.spans()
            if args.trace:
                # The tree goes to stderr so stdout stays one JSON
                # verdict per line for scripts.
                print(format_tree(spans), file=sys.stderr)
            if args.trace_out:
                dump_chrome(spans, args.trace_out)
                print(
                    f"wrote {len(spans)} spans to {args.trace_out} "
                    "(chrome://tracing / about:tracing)",
                    file=sys.stderr,
                )
        if args.shutdown and not client.closed:
            try:
                client.shutdown_server()
            except (RequestError, ProtocolError, OSError) as exc:
                # e.g. a second --shutdown racing a server already
                # closing; report it, don't crash over it.
                print(json.dumps({"error": f"shutdown: {exc}"}), flush=True)
                exit_status = 1
    if store is not None:
        store.close()
    return exit_status


def _cmd_store(args: argparse.Namespace) -> int:
    """The ``store`` mode: inspect and maintain a durable verdict store.

    ``stats`` prints the store's JSON health snapshot; ``compact``
    folds the journal into SQLite and truncates it; ``import`` loads a
    legacy ``cache.json`` into the store.  Opening the store already
    auto-imports a legacy JSON file sitting at the store path itself.
    """
    import json

    from repro.store import VerdictStore

    if args.action == "import" and args.legacy is None:
        raise SystemExit("store import needs the legacy cache.json path")
    store = VerdictStore(args.path)
    try:
        if args.action == "stats":
            print(json.dumps(store.stats(), indent=1))
        elif args.action == "compact":
            folded = store.compact()
            print(
                json.dumps(
                    {
                        "compacted": folded,
                        "entries": len(store),
                        "journal_bytes": store.journal_bytes(),
                    }
                )
            )
        elif args.action == "import":
            imported = store.import_json(args.legacy)
            print(json.dumps({"imported": imported, "entries": len(store)}))
    finally:
        store.close()
    return 0


def _model_rows(args: argparse.Namespace) -> list:
    """The training corpus: timing rows from ``--store`` and/or
    ``--timings`` (both TimingLog-shaped; concatenating them is fine)."""
    rows: list = []
    if args.store is not None:
        from repro.store import VerdictStore

        store = VerdictStore(args.store)
        try:
            rows.extend(store.load_timings())
        finally:
            store.close()
    for path in args.timings or ():
        from repro.obs.timings import load_timings

        rows.extend(load_timings(path))
    if not rows:
        raise SystemExit(
            "no timing rows: pass --store STORE.sqlite and/or --timings "
            "FILE.jsonl (run e.g. 'repro batch ... --method portfolio "
            "--timings FILE' first to accumulate them)"
        )
    return rows


def _cmd_model(args: argparse.Namespace) -> int:
    """The ``model`` mode: fit / inspect / cross-validate the selector.

    ``fit`` trains the :class:`~repro.select.EngineModel` (with the
    embedded shard :class:`~repro.select.CostModel`) from recorded
    timing rows and writes the JSON artifact; ``show`` prints an
    artifact's engines, training metadata, and strongest per-engine
    feature weights; ``eval`` runs deterministic k-fold
    cross-validation on the rows and reports held-out accuracy and
    mean regret in seconds.
    """
    import json

    from repro.select import (
        VECTOR_NAMES,
        EngineModel,
        ModelDataError,
        cross_validate,
        fit_engine_model,
    )

    if args.action == "fit":
        rows = _model_rows(args)
        engines = (
            tuple(e.strip() for e in args.engines.split(",") if e.strip())
            if args.engines
            else None
        )
        try:
            model = fit_engine_model(
                rows,
                engines=engines,
                iterations=args.iterations,
                with_cost=not args.no_cost,
            )
        except ModelDataError as exc:
            raise SystemExit(f"model fit: {exc}")
        model.save(args.out)
        print(
            json.dumps(
                {
                    "model": str(args.out),
                    "engines": list(model.engines),
                    "cost_model": model.cost is not None,
                    **model.meta,
                },
                indent=1,
            )
        )
    elif args.action == "show":
        model = EngineModel.load(args.artifact)
        top_weights = {}
        for engine, row in zip(model.engines, model.weights):
            ranked = sorted(
                zip(VECTOR_NAMES, row), key=lambda item: -abs(item[1])
            )
            top_weights[engine] = {
                name: round(weight, 4) for name, weight in ranked[:5]
            }
        print(
            json.dumps(
                {
                    "artifact": str(args.artifact),
                    "engines": list(model.engines),
                    "vector_dim": len(VECTOR_NAMES),
                    "cost_model": model.cost is not None,
                    "meta": model.meta,
                    "top_weights": top_weights,
                },
                indent=1,
            )
        )
    elif args.action == "eval":
        rows = _model_rows(args)
        try:
            report = cross_validate(rows, folds=args.folds)
        except ModelDataError as exc:
            raise SystemExit(f"model eval: {exc}")
        print(json.dumps(report, indent=1))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """The ``trace`` mode: one traced solve, span tree on stdout.

    Runs the instance through the same :class:`EngineService` path as
    ``repro serve`` with a per-request trace context, so the printed
    tree shows the real service phases — parse, cache lookup, queue
    wait, the worker-side solve (with the engine span inside it), and
    for ``--repeat`` runs the cache-hit/dedup shape of the later
    requests.  ``--trace-out`` additionally writes the spans as Chrome
    trace-event JSON for ``chrome://tracing`` / Perfetto.
    """
    from repro.obs import (
        Span,
        SpanContext,
        TraceSink,
        dump_chrome,
        format_tree,
        new_trace_id,
    )
    from repro.parallel import ResultCache
    from repro.service import EngineService

    # An in-memory cache so --repeat actually shows the cache-hit span
    # shape (a portfolio's verdict is timing-dependent, hence uncacheable).
    cache = (
        ResultCache() if args.repeat > 1 and args.method != "portfolio" else None
    )
    sink = TraceSink()
    with EngineService(
        method=args.method, n_jobs=args.jobs, cache=cache
    ) as service:
        for attempt in range(max(1, args.repeat)):
            trace_id = new_trace_id()
            root = Span(trace_id, "trace-request", tags={"request": attempt})
            ctx = SpanContext(trace_id, root.span_id, sink)
            ticket = service.submit(str(args.instance), trace=ctx)
            response = ticket.result()
            root.finish()
            sink.record(root)
            verdict = "dual" if response.is_dual else "NOT dual"
            print(
                f"{args.instance}: {verdict} "
                f"(method={response.result.method}, "
                f"origin={response.origin}, "
                f"{response.elapsed_s * 1000:.1f}ms)"
            )
    print()
    print(format_tree(sink.spans()))
    if args.trace_out:
        dump_chrome(sink.spans(), args.trace_out)
        print(
            f"\nwrote {len(sink)} spans to {args.trace_out} "
            "(chrome://tracing / about:tracing)"
        )
    return 0 if response.is_dual else 1


def _cmd_tr(args: argparse.Namespace) -> int:
    g = hgio.load(args.g)
    tr = transversal_hypergraph(g)
    _print_family("tr(G)", tr.edges)
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    from repro.duality.boros_makino import tree_for
    from repro.duality.tree import Mark

    g = hgio.load(args.g)
    h = hgio.load(args.h)
    if len(h) > len(g):
        g, h = h, g
        print("(sides swapped to satisfy |H| <= |G|)")
    tree = tree_for(g, h)
    print(
        f"T(G,H): {tree.node_count()} nodes, depth {tree.depth()}, "
        f"max branching {tree.max_branching()}"
    )
    for node in tree.nodes():
        attrs = node.attrs
        indent = "  " * attrs.depth
        mark = attrs.mark.value
        extra = (
            f"  t={format_set(attrs.witness)}" if attrs.mark is Mark.FAIL else ""
        )
        print(
            f"{indent}{list(attrs.label)} |S|={len(attrs.scope)} [{mark}]{extra}"
        )
    return 0 if tree.all_done() else 1


def _cmd_pathnode(args: argparse.Namespace) -> int:
    from repro.duality.logspace import pathnode

    g = hgio.load(args.g)
    h = hgio.load(args.h)
    if len(h) > len(g):
        g, h = h, g
    pi = tuple(int(x) for x in args.descriptor.split(",")) if args.descriptor else ()
    attrs = pathnode(g, h, pi)
    if attrs is None:
        print("wrongpath")
        return 1
    print(f"label: {list(attrs.label)}")
    print(f"scope: {format_set(attrs.scope)}")
    print(f"mark:  {attrs.mark.value}")
    print(f"t:     {format_set(attrs.witness)}")
    return 0


def _cmd_borders(args: argparse.Namespace) -> int:
    from repro.itemsets import enumerate_borders
    from repro.itemsets import io as txio

    relation = txio.load(args.transactions)
    is_plus, is_minus, trace = enumerate_borders(
        relation, args.threshold, method=args.method
    )
    _print_family("maximal frequent itemsets IS+", is_plus.edges)
    _print_family("minimal infrequent itemsets IS-", is_minus.edges)
    print(f"(dualize-and-advance steps: {trace.additions()})")
    return 0


def _cmd_keys(args: argparse.Namespace) -> int:
    from repro.keys import RelationalInstance, minimal_keys

    with open(args.csv, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        print("empty relation", file=sys.stderr)
        return 1
    instance = RelationalInstance(rows)
    keys = minimal_keys(instance)
    _print_family("minimal keys", keys.edges)
    return 0


def _cmd_coterie(args: argparse.Namespace) -> int:
    from repro.errors import NotACoterieError
    from repro.coteries import Coterie, dominating_coterie

    hg = hgio.load(args.quorums)
    try:
        coterie = Coterie(hg.edges, universe=hg.vertices)
    except NotACoterieError as exc:
        print(f"not a coterie: {exc}")
        return 1
    nd = coterie.is_nondominated(method=args.method)
    print(f"coterie with {len(coterie)} quorums: ", end="")
    if nd:
        print("non-dominated (tr(H) = H)")
        return 0
    print("DOMINATED")
    dom = dominating_coterie(coterie, method=args.method)
    if dom is not None:
        _print_family("a dominating coterie", dom.quorums)
    return 1


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.hypergraph.structure import tractability_report

    hg = hgio.load(args.g)
    report = tractability_report(hg)
    print(f"alpha-acyclic:      {report.alpha_acyclic}")
    print(f"conformal:          {report.conformal}")
    print(f"primal degeneracy:  {report.degeneracy}")
    print(f"rank (max |E|):     {report.rank}")
    print(f"verdict:            {report.verdict}")
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    from repro.itemsets import io as txio
    from repro.itemsets.rules import mine_rules

    relation = txio.load(args.transactions)
    rules = mine_rules(
        relation, args.threshold, min_confidence=args.min_confidence
    )
    print(f"{len(rules)} association rules (confidence >= {args.min_confidence}):")
    for rule in rules:
        print(f"  {rule}")
    return 0


def _cmd_selfdual(args: argparse.Namespace) -> int:
    from repro.duality.self_duality import is_self_dual_hypergraph

    hg = hgio.load(args.g)
    if is_self_dual_hypergraph(hg, method=args.method):
        print(f"self-dual: tr(H) = H ({len(hg)} edges)")
        return 0
    print("NOT self-dual (tr(H) ≠ H)")
    return 1


def _cmd_learn(args: argparse.Namespace) -> int:
    from repro.dnf import parse_dnf
    from repro.learning import MembershipOracle, learn_monotone_function

    dnf = parse_dnf(args.dnf)
    oracle = MembershipOracle.from_dnf(dnf)
    learned = learn_monotone_function(oracle, method=args.method)
    _print_family("minimal true points (the DNF)", learned.minimal_true_points.edges)
    _print_family("maximal false points", learned.maximal_false_points.edges)
    print(f"learned CNF: {learned.cnf().to_text()}")
    print(
        f"(membership queries: {learned.queries}, "
        f"duality checks: {learned.duality_checks})"
    )
    return 0


def _parse_signal_list(text: str) -> dict[str, bool]:
    values: dict[str, bool] = {}
    for chunk in text.split(","):
        if not chunk:
            continue
        if "=" not in chunk:
            raise SystemExit(f"expected name=0/1 pairs, got {chunk!r}")
        name, bit = chunk.split("=", 1)
        values[name.strip()] = bit.strip() not in ("0", "false", "False")
    return values


_CIRCUITS = {
    "full-adder": "full_adder",
    "comparator": "one_bit_comparator",
    "two-bit-adder": "two_bit_adder",
}


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro import diagnosis

    circuit = getattr(diagnosis, _CIRCUITS[args.circuit])()
    inputs = _parse_signal_list(args.inputs)
    if args.observe:
        observed = _parse_signal_list(args.observe)
        problem = diagnosis.CircuitDiagnosisProblem(circuit, inputs, observed)
    else:
        faults = _parse_signal_list(args.fault)
        problem = diagnosis.CircuitDiagnosisProblem.observe_fault(
            circuit, inputs, faults
        )
        print(f"simulated observation: {problem.observed_outputs}")
    if not problem.is_faulty_observation():
        print("observation is consistent: nothing to diagnose")
        return 0
    conflicts = diagnosis.minimal_conflicts(problem)
    _print_family("minimal conflict sets", conflicts.edges)
    diagnoses = diagnosis.minimal_diagnoses(problem, method="hstree")
    _print_family("minimal diagnoses", diagnoses.edges)
    check = diagnosis.verify_diagnosis_completeness(
        conflicts, diagnoses, method=args.method
    )
    print(f"completeness re-checked by Dual engine {args.method!r}: {check.is_dual}")
    return 0


def _cmd_abduce(args: argparse.Namespace) -> int:
    from repro.abduction import (
        AbductionProblem,
        minimal_explanations,
        necessary_hypotheses,
        relevant_hypotheses,
    )
    from repro.logic import parser as hornio

    theory = hornio.load(args.theory)
    hypotheses = args.hypotheses.split(",")
    problem = AbductionProblem(theory, hypotheses, args.query)
    explanations = minimal_explanations(problem, method=args.method)
    _print_family(
        f"minimal explanations of {args.query!r}", explanations.edges
    )
    print(f"necessary: {format_set(necessary_hypotheses(explanations))}")
    print(f"relevant:  {format_set(relevant_hypotheses(explanations))}")
    return 0 if len(explanations) else 1


def _cmd_envelope(args: argparse.Namespace) -> int:
    from repro.envelopes import envelope_is_exact, horn_envelope
    from repro.logic import parser as hornio

    models = []
    for raw in Path(args.models).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line == "-":
            models.append(frozenset())
        elif line:
            models.append(frozenset(line.split()))
    atoms = set().union(*models) if models else set()
    if args.atoms:
        atoms |= set(args.atoms.split(","))
    theory = horn_envelope(models, atoms=atoms)
    print(hornio.dumps(theory), end="")
    exact = envelope_is_exact(models, atoms=atoms)
    print(f"# envelope is {'exact' if exact else 'a strict approximation'}")
    return 0


def _cmd_figure1(_args: argparse.Namespace) -> int:
    from repro.complexity import figure1_report

    print(figure1_report(), end="")
    return 0


def _cmd_chi(args: argparse.Namespace) -> int:
    from repro.complexity import chi, fk_time_bound_log, quasi_polynomial_exponent

    n = float(args.n)
    print(f"chi({args.n}) = {chi(n):.6f}")
    print(f"FK exponent 4*chi+1 = {quasi_polynomial_exponent(n):.6f}")
    print(f"log2 of FK bound n^(4chi+1) = {fk_time_bound_log(n):.2f} bits of work")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing and docs generation)."""
    parser = argparse.ArgumentParser(
        prog="monotone-dual",
        description=(
            "Monotone duality in quadratic logspace (Gottlob, PODS 2013) "
            "and its database applications."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dual", help="decide whether H = tr(G)")
    p.add_argument("g", type=Path, help="G hypergraph file (.hg)")
    p.add_argument("h", type=Path, help="H hypergraph file (.hg)")
    p.add_argument(
        "--method",
        default="bm",
        help=(
            "duality engine (default: bm; 'portfolio' races several, "
            "'auto' picks one with the learned selector)"
        ),
    )
    p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help=(
            "worker processes for sharded solving (default: 1; "
            "--method portfolio defaults to one racer per engine)"
        ),
    )
    p.add_argument(
        "--model",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "selector artifact from 'repro model fit' for --method auto "
            "(default: the REPRO_AUTO_MODEL environment variable)"
        ),
    )
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser(
        "batch",
        help="solve many duality instance files (G == H per file)",
        description=(
            "Each instance file holds two hypergraphs in .hg format "
            "separated by a '==' line; instances stream through a worker "
            "pool with an optional canonical-hash result cache."
        ),
    )
    p.add_argument(
        "instances", nargs="+", type=Path, help="instance files (.hg, G == H)"
    )
    p.add_argument("--method", default="fk-b", help="duality engine (default: fk-b)")
    p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes (default: 1; -1 = all cores)",
    )
    p.add_argument(
        "--store",
        type=Path,
        default=None,
        help=(
            "durable verdict store (journal + SQLite): verdicts are "
            "read through it and every new one is persisted with an "
            "O(1) fsync'd append; a legacy cache.json at the path is "
            "imported automatically"
        ),
    )
    p.add_argument(
        "--cache",
        type=Path,
        default=None,
        help="legacy alias for --store (old JSON caches are imported)",
    )
    p.add_argument(
        "--timings",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "append one JSON line per solved instance to FILE: engine, "
            "elapsed seconds, and cheap structural features (edge "
            "counts, max degree, ...) for offline engine-selection study"
        ),
    )
    p.add_argument(
        "--model",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "selector artifact from 'repro model fit' for --method auto "
            "(exported to the workers via REPRO_AUTO_MODEL)"
        ),
    )
    p.set_defaults(fn=_cmd_batch)

    p = sub.add_parser(
        "serve",
        help="persistent engine service: instances in, JSON verdicts out",
        description=(
            "Answer duality instances over a persistent worker pool.  "
            "Instance files (.hg, G == H) given as arguments are solved "
            "as one batch; without arguments (or with '-') instance "
            "paths are read from stdin one per line and answered as "
            "they arrive.  With --listen HOST:PORT the service binds a "
            "TCP socket instead and any number of 'repro client' "
            "sessions share the one warm pool (Ctrl-C or a client "
            "shutdown request stops it gracefully: in-flight requests "
            "drain, the cache flushes, the pool closes).  Workers spawn "
            "once per serve session; the optional cache persists "
            "verdicts across sessions — saved atomically after every "
            "computed verdict, and a damaged cache file degrades to "
            "misses at startup instead of failing.  Output is one JSON "
            "object per verdict."
        ),
    )
    p.add_argument(
        "instances",
        nargs="*",
        type=Path,
        help="instance files (.hg, G == H); none or '-' = read paths from stdin",
    )
    p.add_argument("--method", default="fk-b", help="duality engine (default: fk-b)")
    p.add_argument(
        "--auto",
        action="store_true",
        help=(
            "shorthand for --method auto: per-instance learned engine "
            "selection (cold start degrades to the portfolio race)"
        ),
    )
    p.add_argument(
        "--model",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "selector artifact from 'repro model fit' for --auto "
            "(exported to the workers via REPRO_AUTO_MODEL; default: "
            "that environment variable)"
        ),
    )
    p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="persistent worker processes (default: 1; -1 = all cores)",
    )
    p.add_argument(
        "--store",
        type=Path,
        default=None,
        help=(
            "durable verdict store (journal + SQLite in WAL mode): "
            "every computed verdict is one fsync'd append before it is "
            "reported, several server processes can share one store "
            "file, and per-engine timings land in its timings table; a "
            "legacy cache.json at the path is imported automatically"
        ),
    )
    p.add_argument(
        "--cache",
        type=Path,
        default=None,
        help="legacy alias for --store (old JSON caches are imported)",
    )
    p.add_argument(
        "--cache-max",
        type=int,
        default=None,
        metavar="N",
        help=(
            "cap the result cache at N entries with LRU eviction "
            "(default: unbounded)"
        ),
    )
    p.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help=(
            "serve over TCP instead of stdin/stdout (port 0 = pick a "
            "free port; the bound address is printed as the first line)"
        ),
    )
    p.add_argument(
        "--async",
        dest="async_server",
        action="store_true",
        help=(
            "use the asyncio event-loop server for --listen (the "
            "default — and only — server since the bake-in; the flag "
            "is kept for compatibility)"
        ),
    )
    p.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help=(
            "require every --listen connection to authenticate its "
            "first frame with this shared secret (an 'auth' op); a "
            "wrong or missing token gets one error line and a "
            "disconnect"
        ),
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help=(
            "per-connection backpressure cap for --listen: stop "
            "reading a connection once it has N solves in flight "
            "(default: the server's cap, 64)"
        ),
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print a final JSON stats line (requests, hits, pool health)",
    )
    p.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "--listen only: log a structured JSON line to stderr (with "
            "per-phase span timings) for every request slower than MS "
            "milliseconds"
        ),
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help=(
            "--listen only: trace every request server-side (clients "
            "still only get spans back when they ask with a 'trace' "
            "field); mostly useful together with --slow-ms"
        ),
    )
    p.add_argument(
        "--timings",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "append one JSON timing line per computed verdict to FILE "
            "(engine, elapsed, structural features)"
        ),
    )
    p.add_argument(
        "--peers",
        default=None,
        metavar="HOST:PORT,...",
        help=(
            "coordinator mode: fan parallel-method shards out to these "
            "worker servers (comma-separated 'repro serve --listen' "
            "addresses) over the solve_shard op, with hedged retries; "
            "merged verdicts stay bit-for-bit serial.  Workers "
            "authenticate with --peer-auth-token"
        ),
    )
    p.add_argument(
        "--peer-auth-token",
        default=None,
        metavar="TOKEN",
        help=(
            "shared secret for the outgoing --peers connections (a "
            "fleet usually shares one token with --auth-token)"
        ),
    )
    p.add_argument(
        "--hedge-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "--peers only: duplicate a shard onto another peer once it "
            "has been in flight MS milliseconds; first resolution wins "
            "(default: 250; 0 disables hedging deadlines)"
        ),
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "client",
        help="send duality instances to a 'repro serve --listen' server",
        description=(
            "Connect to a running 'repro serve --listen HOST:PORT' "
            "server and decide instances over it.  Instance files are "
            "read locally and shipped inline (no shared filesystem "
            "needed); without arguments (or with '-') paths are read "
            "from stdin one per line.  One JSON verdict per line, "
            "exit status 0 iff every instance is dual."
        ),
    )
    p.add_argument("address", help="server address, HOST:PORT")
    p.add_argument(
        "instances",
        nargs="*",
        type=Path,
        help="instance files (.hg, G == H); none or '-' = read paths from stdin",
    )
    p.add_argument(
        "--method",
        default=None,
        help="per-request engine override (default: the server's engine)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="socket timeout in seconds (default: 60)",
    )
    p.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="shared secret for a server started with --auth-token",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print the server's JSON stats line after the instances",
    )
    p.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the server to shut down gracefully afterwards",
    )
    p.add_argument(
        "--metrics",
        action="store_true",
        help=(
            "print the server's metrics as Prometheus text exposition "
            "after the instances (with no instance arguments: scrape "
            "and exit instead of reading stdin)"
        ),
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help=(
            "trace every solve end-to-end (client edge + server "
            "phases + worker solve) and print the span trees to "
            "stderr when done"
        ),
    )
    p.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "write the collected spans as Chrome trace-event JSON to "
            "FILE (implies tracing; open in chrome://tracing or "
            "Perfetto)"
        ),
    )
    p.add_argument(
        "--store",
        type=Path,
        default=None,
        help=(
            "local durable verdict store: server verdicts are written "
            "back to it, and (with an explicit --method) instances it "
            "already holds are answered locally without a round trip "
            "(origin 'store-local')"
        ),
    )
    p.set_defaults(fn=_cmd_client)

    p = sub.add_parser(
        "store",
        help="inspect / compact / import a durable verdict store",
        description=(
            "Maintenance for the journal+SQLite verdict store that "
            "'serve --store', 'batch --store', and 'client --store' "
            "share.  'stats' prints a JSON health snapshot (entries, "
            "timings, journal size, hit counters); 'compact' folds the "
            "append journal into the SQLite tables and truncates it; "
            "'import LEGACY.json' loads a legacy whole-file JSON "
            "cache into the store (opening a store whose path holds a "
            "legacy cache.json already imports it automatically)."
        ),
    )
    p.add_argument("action", choices=("stats", "compact", "import"))
    p.add_argument("path", type=Path, help="store file (SQLite database)")
    p.add_argument(
        "legacy",
        nargs="?",
        type=Path,
        default=None,
        help="legacy cache.json to import (import action only)",
    )
    p.set_defaults(fn=_cmd_store)

    p = sub.add_parser(
        "model",
        help="fit / inspect / cross-validate the learned engine selector",
        description=(
            "Train the transparent logistic engine selector (and its "
            "embedded shard cost model) from the timing rows that "
            "'--timings FILE' and 'serve --store' runs accumulate, "
            "inspect a fitted artifact, or cross-validate the rows.  "
            "The JSON artifact feeds --method auto ('dual', 'batch', "
            "'serve --auto') directly via --model FILE or the "
            "REPRO_AUTO_MODEL environment variable."
        ),
    )
    msub = p.add_subparsers(dest="action", required=True)
    mp = msub.add_parser(
        "fit", help="train a selector artifact from timing rows"
    )
    mp.add_argument(
        "--store",
        type=Path,
        default=None,
        help="durable verdict store whose timings table supplies rows",
    )
    mp.add_argument(
        "--timings",
        type=Path,
        action="append",
        default=None,
        metavar="FILE",
        help="timing JSONL file (repeatable; combined with --store rows)",
    )
    mp.add_argument(
        "--out",
        type=Path,
        default=Path("engine-model.json"),
        metavar="FILE",
        help="artifact path to write (default: engine-model.json)",
    )
    mp.add_argument(
        "--engines",
        default=None,
        metavar="A,B,...",
        help="restrict the selector to these engines (default: all timed)",
    )
    mp.add_argument(
        "--iterations",
        type=int,
        default=300,
        help="gradient-descent iterations (default: 300)",
    )
    mp.add_argument(
        "--no-cost",
        action="store_true",
        help="skip fitting the embedded shard cost model",
    )
    mp.set_defaults(fn=_cmd_model)
    mp = msub.add_parser(
        "show", help="print an artifact's engines, metadata, and weights"
    )
    mp.add_argument("artifact", type=Path, help="model JSON artifact")
    mp.set_defaults(fn=_cmd_model)
    mp = msub.add_parser(
        "eval", help="k-fold cross-validate the selector on timing rows"
    )
    mp.add_argument(
        "--store",
        type=Path,
        default=None,
        help="durable verdict store whose timings table supplies rows",
    )
    mp.add_argument(
        "--timings",
        type=Path,
        action="append",
        default=None,
        metavar="FILE",
        help="timing JSONL file (repeatable; combined with --store rows)",
    )
    mp.add_argument(
        "--folds",
        type=int,
        default=3,
        help="cross-validation folds (default: 3)",
    )
    mp.set_defaults(fn=_cmd_model)

    p = sub.add_parser(
        "trace",
        help="solve one instance with tracing on and print the span tree",
        description=(
            "Decide one instance file (.hg, G == H) through the engine "
            "service with a per-request trace, then print the span "
            "tree: parse, cache lookup, queue wait, the worker-side "
            "solve with its engine span, serialize.  --repeat N solves "
            "the same instance N times so the cache-hit shape of the "
            "later requests is visible next to the computed first one."
        ),
    )
    p.add_argument("instance", type=Path, help="instance file (.hg, G == H)")
    p.add_argument("--method", default="fk-b", help="duality engine (default: fk-b)")
    p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes (default: 1)",
    )
    p.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="solve the instance N times (N>=2 shows the cache-hit path)",
    )
    p.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write Chrome trace-event JSON to FILE",
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("tr", help="print minimal transversals")
    p.add_argument("g", type=Path)
    p.set_defaults(fn=_cmd_tr)

    p = sub.add_parser("tree", help="print the Boros–Makino tree")
    p.add_argument("g", type=Path)
    p.add_argument("h", type=Path)
    p.set_defaults(fn=_cmd_tree)

    p = sub.add_parser("pathnode", help="resolve a path descriptor (Lemma 4.2)")
    p.add_argument("g", type=Path)
    p.add_argument("h", type=Path)
    p.add_argument(
        "descriptor",
        nargs="?",
        default="",
        help="comma-separated child indices, e.g. '2,1' (empty = root)",
    )
    p.set_defaults(fn=_cmd_pathnode)

    p = sub.add_parser("borders", help="mine itemset borders (Prop. 1.1)")
    p.add_argument("transactions", type=Path, help="transaction file")
    p.add_argument("threshold", type=int, help="strict threshold z")
    p.add_argument("--method", default="bm")
    p.set_defaults(fn=_cmd_borders)

    p = sub.add_parser("keys", help="minimal keys of a CSV relation (Prop. 1.2)")
    p.add_argument("csv", type=Path)
    p.set_defaults(fn=_cmd_keys)

    p = sub.add_parser("coterie", help="non-domination check (Prop. 1.3)")
    p.add_argument("quorums", type=Path, help="quorum file (.hg)")
    p.add_argument("--method", default="bm")
    p.set_defaults(fn=_cmd_coterie)

    p = sub.add_parser(
        "classify", help="tractability classification (paper §6)"
    )
    p.add_argument("g", type=Path, help="hypergraph file (.hg)")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("rules", help="association rules from frequent itemsets")
    p.add_argument("transactions", type=Path)
    p.add_argument("threshold", type=int)
    p.add_argument("--min-confidence", type=float, default=0.6)
    p.set_defaults(fn=_cmd_rules)

    p = sub.add_parser("selfdual", help="is tr(H) = H? (coterie core check)")
    p.add_argument("g", type=Path, help="hypergraph file (.hg)")
    p.add_argument("--method", default="bm")
    p.set_defaults(fn=_cmd_selfdual)

    p = sub.add_parser(
        "learn", help="learn a monotone function with membership queries"
    )
    p.add_argument("dnf", help="hidden function as DNF text, e.g. 'a b | c'")
    p.add_argument("--method", default="bm")
    p.set_defaults(fn=_cmd_learn)

    p = sub.add_parser("diagnose", help="model-based circuit diagnosis")
    p.add_argument("circuit", choices=sorted(_CIRCUITS))
    p.add_argument(
        "--inputs", required=True, help="primary inputs, e.g. a=1,b=0,cin=0"
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--observe", help="observed outputs, e.g. x2=0,o1=0")
    group.add_argument("--fault", help="inject faults, e.g. x1=0")
    p.add_argument("--method", default="bm")
    p.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser(
        "abduce", help="minimal abductive explanations over a Horn theory"
    )
    p.add_argument("theory", type=Path, help="Horn theory file (body -> head)")
    p.add_argument("query", help="atom to explain")
    p.add_argument(
        "--hypotheses", required=True, help="comma-separated abducible atoms"
    )
    p.add_argument("--method", default="bm")
    p.set_defaults(fn=_cmd_abduce)

    p = sub.add_parser(
        "envelope", help="Horn envelope of a model list (KPS construction)"
    )
    p.add_argument(
        "models",
        type=Path,
        help="file with one model per line ('-' = empty model)",
    )
    p.add_argument("--atoms", default="", help="extra atoms, comma-separated")
    p.set_defaults(fn=_cmd_envelope)

    p = sub.add_parser("figure1", help="regenerate Figure 1")
    p.set_defaults(fn=_cmd_figure1)

    p = sub.add_parser("chi", help="print chi(n) and the FK bound")
    p.add_argument("n", type=float)
    p.set_defaults(fn=_cmd_chi)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
