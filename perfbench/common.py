"""Shared pieces of the layer-budget benchmark: seeded, memo-proof inputs,
order statistics, and process-tree accounting from ``/proc``.

Nothing here imports the program at module import time except through
:func:`use_checkout`, which puts the checkout's ``src`` directory first on
``sys.path`` (the benchmark runs the source tree it sits in, never an
installed copy).
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Samples that must lie beyond a reported p99 (nearest rank).
TAIL_SAMPLES = 10
MIN_P99_SAMPLES = 100 * TAIL_SAMPLES


def use_checkout() -> None:
    """Import the program from ``<checkout>/src``; exit 2 if it is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for program subprocesses: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def timed_launch(args: list[str], timeout: float = 60.0) -> float:
    """Seconds from launching program subprocess ``args`` until it has
    exited with status 0.

    ``subprocess.run(timeout=...)`` polls for the exit in sleeps of up to
    50 ms, which quantises the figure; this blocks in ``waitpid`` and
    kills the child from a timer if it overruns.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, env=child_env())
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"setup launch exited with status {code}")
    return elapsed


# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def p99_checked(values) -> float:
    """p99 of a sample in time order, each window leaving ``TAIL_SAMPLES``
    beyond it.

    The samples are cut into consecutive windows of at least
    ``MIN_P99_SAMPLES``; the result is the median of the windows' p99s
    (with fewer than two windows' worth, simply the p99).  A host stall
    of a fraction of a second then moves one window, not the figure.
    """
    windows = len(values) // MIN_P99_SAMPLES
    if windows < 1:
        raise RuntimeError(
            f"{len(values)} samples cannot support a p99 "
            f"(need {MIN_P99_SAMPLES} for {TAIL_SAMPLES} beyond it)"
        )
    size = len(values) // windows
    return median(
        [percentile(values[i * size : (i + 1) * size], 0.99) for i in range(windows)]
    )


# ---------------------------------------------------------------------------
# Memo-proof instances
# ---------------------------------------------------------------------------


class Labeller:
    """Order-preserving relabellings, one fresh label set per call.

    Vertex ``v`` of an instance becomes ``salt * 1000 + rank(v)``, with
    ``rank`` its position in the library's canonical vertex order and a
    six-digit ``salt`` that never repeats within a run.  All labels have
    nine digits, so the canonical order (which compares ``repr``) of the
    new labels equals the old one: every engine walks the same tree and
    counts the same nodes, while every instance key — and so every
    process-wide memo entry — is new.
    """

    SALTS = 900_000

    def __init__(self, rng: random.Random) -> None:
        self._next = rng.randrange(self.SALTS)
        self._used = 0

    def fresh(self, g, h):
        from repro._util import vertex_key
        from repro.hypergraph import Hypergraph

        if self._used >= self.SALTS:
            raise RuntimeError("label salts exhausted")
        salt = 100_000 + (self._next + self._used) % self.SALTS
        self._used += 1
        universe = sorted(g.vertices | h.vertices, key=vertex_key)
        if len(universe) > 1000:
            raise ValueError("relabelling supports at most 1000 vertices")
        label = {v: salt * 1000 + rank for rank, v in enumerate(universe)}
        labels = frozenset(label.values())

        def moved(hg):
            return Hypergraph(
                (frozenset(label[v] for v in edge) for edge in hg.edges),
                vertices=labels,
            )

        return moved(g), moved(h)


def build_family(name: str):
    """``(G, H, dual)`` for a family name of the workload mixes.

    ``m<k>``: matching ``k`` and its dual; ``t<n>-<k>``: all k-subsets of
    n and their dual; ``r<n>-<e>/<s>``: a random simple hypergraph (n
    vertices, e edges, generator seed s) and its exact dual; a trailing
    ``~`` drops the middle edge of H, which makes the pair non-dual;
    ``x<k>``: the generators' canonical non-dual matching pair.

    The dropped edge and the random pairs are fixed, not drawn from the
    run's seed: where the engines meet the missing transversal, and how
    large a random pair's dual is (3 to 15 edges for 8 vertices and 6
    edges), decide how much of the tree they walk, so a seeded choice
    would make a run's cost depend on the seed.  The seed relabels the
    instances and orders the calls.
    """
    from repro.hypergraph import generators as gen

    drop = name.endswith("~")
    base = name.rstrip("~")
    kind, spec = base[0], base[1:]
    if kind == "m":
        g, h = gen.matching_dual_pair(int(spec))
    elif kind == "t":
        n, k = map(int, spec.split("-"))
        g, h = gen.threshold_dual_pair(n, k)
    elif kind == "r":
        size, seed = spec.split("/")
        n, e = map(int, size.split("-"))
        g, h = gen.random_dual_pair(n, e, seed=int(seed))
    elif kind == "x":
        g, h = gen.hard_nondual_pair(int(spec))
        return g, h, False
    else:
        raise ValueError(f"unknown instance family {name!r}")
    if drop:
        h = gen.perturb_drop_edge(h, index=len(h.edges) // 2)
    return g, h, not drop


# ---------------------------------------------------------------------------
# Process-tree accounting (no psutil: /proc and getrusage only)
# ---------------------------------------------------------------------------

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except OSError:
        return None
    # Fields after the parenthesised command name (which may hold spaces).
    return raw[raw.rindex(")") + 2 :].split()


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant (by a scan of ``/proc``)."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parent_of[int(entry)] = int(fields[1])
    tree, frontier = [root], [root]
    while frontier:
        parents = set(frontier)
        frontier = [pid for pid, ppid in parent_of.items() if ppid in parents]
        tree.extend(frontier)
    return tree


def tree_cpu_s(root: int) -> float:
    """User+system CPU of the live tree under ``root``, reaped children
    included (``cutime``/``cstime``)."""
    total = 0
    for pid in process_tree(root):
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime, cutime, cstime: fields 14-17 of stat(5).
            total += sum(int(x) for x in fields[11:15])
    return total * _TICK_S


def tree_peak_rss_mb(root: int) -> float:
    """Sum of every live tree member's peak resident set (``VmHWM``)."""
    total_kb = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
