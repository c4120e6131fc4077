"""The TCP front end: one warm server, many concurrent clients.

The network subsystem in one walkthrough:

1. a :class:`DualityServer` (the asyncio event-loop server — every
   connection is a coroutine, not a thread) on a loopback port, one
   warm :class:`EnginePool` and one result cache over a durable verdict
   store, shared by every connection,
2. several concurrent :class:`DualityClient` sessions shipping
   instances inline through the lossless codec (no shared filesystem
   needed), verdicts bit-for-bit identical to serial ``decide_duality``,
3. per-request engine overrides and a pipelined ``solve_many`` batch,
4. the cache answering repeats across *different* clients, and
5. a graceful ``shutdown`` request: in-flight work drains, the store
   closes, the pool closes — and a second server over the same store
   answers everything from it.

Run me::

    PYTHONPATH=src python examples/net_demo.py
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

from repro.duality import decide_duality
from repro.hypergraph.generators import (
    hard_nondual_pair,
    matching_dual_pair,
    threshold_dual_pair,
)
from repro.net import DualityClient, DualityServer

INSTANCES = [
    ("matching-3", *matching_dual_pair(3)),
    ("threshold-7-4", *threshold_dual_pair(7, 4)),
    ("hard-nondual-3", *hard_nondual_pair(3)),
]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "verdicts.db"

        print("== one server, one warm pool, one durable verdict store ==")
        with DualityServer(method="fk-b", store=store_path) as server:
            host, port = server.address
            print(f"serving on {host}:{port}")

            # -- several clients at once, each checking its verdicts ----
            def one_client(order: int) -> None:
                with DualityClient(host, port) as client:
                    for name, g, h in INSTANCES[order:] + INSTANCES[:order]:
                        response = client.solve(g, h)
                        reference = decide_duality(g, h, method="fk-b")
                        agree = response["dual"] == reference.is_dual
                        print(
                            f"  client {order}: {name:<16} dual={response['dual']!s:<5} "
                            f"cached={response['cached']!s:<5} serial-agrees={agree}"
                        )

            threads = [
                threading.Thread(target=one_client, args=(order,))
                for order in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            # -- per-request engine override and a pipelined batch ------
            with DualityClient(host, port) as client:
                name, g, h = INSTANCES[0]
                bm = client.solve(g, h, method="bm")
                print(f"override: {name} via {bm['method']} -> dual={bm['dual']}")
                batch = client.solve_many([(g, h) for _n, g, h in INSTANCES])
                print(f"solve_many: {[r['dual'] for r in batch]}")
                stats = client.stats()
                print(
                    f"server stats: requests={stats['requests_served']} "
                    f"cache hits/misses={stats['cache_hits']}/{stats['cache_misses']} "
                    f"pool generations={stats['pool_generations']}"
                )
                client.shutdown_server()
            server.wait()
        print(f"shut down gracefully; store on disk: {store_path.exists()}")

        print("\n== a second server generation over the same store ==")
        with DualityServer(method="fk-b", store=store_path) as server:
            with DualityClient(*server.address) as client:
                for name, g, h in INSTANCES:
                    response = client.solve(g, h)
                    print(f"  {name:<16} cached={response['cached']}")


if __name__ == "__main__":
    main()
