"""Per-solve timing capture: the data feed for learned engine selection.

ROADMAP direction 3 wants to *predict* the winning engine from cheap
structural features instead of racing the whole portfolio.  That model
needs training data, and until now every solve's timing evaporated
when the call returned (the portfolio racer's ``stats.extra`` is the
closest thing, and it is per-call ephemeral).

:class:`TimingLog` is an append-only JSONL recorder: one line per
solve with the engine, elapsed wall time, verdict, and
:func:`structural_features` of the instance — all derivable from the
mask payloads already travelling through the service in **one scan**
(no frozenset materialisation, no extra passes).  Appends are
thread-safe and O(1); the file is a plain log that
:func:`load_timings` reads back tolerantly (corrupt tail lines from a
crash are skipped, like the result cache's loader).
"""

from __future__ import annotations

import json
import os
import threading
import time


def _popcount(mask: int) -> int:
    return mask.bit_count()


def _side_features(masks) -> dict:
    """Edge count, size extremes, and per-vertex max degree of one side.

    A single pass over the edge masks; degrees accumulate in one
    integer-keyed dict built from bit positions, so the cost is
    O(sum of edge sizes) — the same order as merely reading the payload.
    """
    n_edges = 0
    total = 0
    max_size = 0
    min_size = 0
    degrees: dict[int, int] = {}
    for mask in masks:
        n_edges += 1
        size = _popcount(mask)
        total += size
        if size > max_size:
            max_size = size
        if min_size == 0 or size < min_size:
            min_size = size
        remaining = mask
        while remaining:
            low = remaining & -remaining
            bit = low.bit_length() - 1
            degrees[bit] = degrees.get(bit, 0) + 1
            remaining ^= low
    return {
        "edges": n_edges,
        "total_size": total,
        "max_edge": max_size,
        "min_edge": min_size,
        "max_degree": max(degrees.values()) if degrees else 0,
    }


def structural_features(g_payload, h_payload, deep: bool = False) -> dict:
    """Cheap instance features from mask payloads: one scan per side.

    ``g_payload``/``h_payload`` are ``(vertices, masks)`` pairs as
    produced by :func:`repro.hypergraph.canonical.mask_payload`.  The
    returned dict is flat and JSON-safe; ``volume`` is the planner's
    ``|G|*|H|`` work estimate, included so recorded timings can be
    judged against the crude model they are meant to replace.

    ``deep=True`` adds duality-tree-shape features from **one**
    Boros–Makino root expansion (branch-pair count, max/mean child
    volume, a depth estimate) — the quantities the Gottlob–Malizia
    upper bounds are phrased in, and what a shard cost model needs.
    The deep probe materialises the instance and runs one ``expand``,
    so the default cheap path never pays for it.
    """
    g_vertices, g_masks = g_payload
    h_vertices, h_masks = h_payload
    g = _side_features(g_masks)
    h = _side_features(h_masks)
    features = {
        "n_vertices": len(g_vertices) or len(h_vertices),
        "g_edges": g["edges"],
        "h_edges": h["edges"],
        "g_total_size": g["total_size"],
        "h_total_size": h["total_size"],
        "g_max_edge": g["max_edge"],
        "h_max_edge": h["max_edge"],
        "g_min_edge": g["min_edge"],
        "h_min_edge": h["min_edge"],
        "g_max_degree": g["max_degree"],
        "h_max_degree": h["max_degree"],
        "volume": g["edges"] * h["edges"],
    }
    if deep:
        features.update(_deep_features(g_payload, h_payload))
    return features


def _deep_features(g_payload, h_payload) -> dict:
    """Duality-tree-shape features from one planner probe (BM root
    expansion, mirroring :func:`repro.parallel.planner.plan_bm`'s
    prologue).  Failures — non-simple sides, entry-condition
    violations — degrade to zeros: feature capture must never break a
    solve, and "the tree has no branches" is itself a signal.
    """
    import math

    zeros = {
        "bm_branches": 0,
        "bm_max_child_volume": 0,
        "bm_mean_child_volume": 0.0,
        "bm_depth_est": 0.0,
    }
    try:
        from repro.duality.boros_makino import MaskNodes
        from repro.duality.conditions import prepare_instance
        from repro.duality.tree import Mark
        from repro.hypergraph import from_mask_payload

        entry = prepare_instance(
            from_mask_payload(g_payload), from_mask_payload(h_payload)
        )
        if not entry.ok:
            return zeros
        g_v, h_v = entry.g, entry.h
        if len(h_v) > len(g_v):  # plan_bm's size-order swap
            g_v, h_v = h_v, g_v
        nodes = MaskNodes(g_v, h_v)
        mark, children = nodes.step(nodes.universe)
        if mark is not Mark.NIL:
            return zeros  # single-node tree: a root that is a leaf
        volumes = [nodes.volume(child) for child in children]
        branches = len(children)
        max_volume = max(volumes)
        # Depth estimate: levels until the biggest child's volume is
        # divided down to 1, assuming the root's branching repeats.
        if max_volume > 1:
            base = branches if branches > 1 else 2
            depth_est = 1.0 + math.log(max_volume) / math.log(base)
        else:
            depth_est = 1.0
        return {
            "bm_branches": branches,
            "bm_max_child_volume": max_volume,
            "bm_mean_child_volume": round(sum(volumes) / branches, 3),
            "bm_depth_est": round(depth_est, 3),
        }
    except Exception:  # noqa: BLE001 - observation must not break solves
        return zeros


class TimingLog:
    """Thread-safe append-only JSONL recorder of per-solve timings.

    Each :meth:`record` writes one self-contained JSON line::

        {"ts": ..., "engine": "fk_b", "elapsed_s": 0.0123,
         "dual": true, "shard": null, "n_vertices": 9, "g_edges": 4, ...}

    The file handle is opened lazily and kept open; ``flush()`` after
    every line keeps the log crash-tolerant at the cost of a syscall —
    negligible next to any solve.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._fh = None
        self.records_written = 0

    def record(
        self,
        engine: str,
        elapsed_s: float,
        *,
        features: dict | None = None,
        dual=None,
        shard=None,
        trace_id: str | None = None,
        **extra,
    ) -> None:
        row = {"ts": round(time.time(), 6), "engine": engine,
               "elapsed_s": round(float(elapsed_s), 9)}
        if dual is not None:
            row["dual"] = bool(dual)
        if shard is not None:
            row["shard"] = shard
        if trace_id is not None:
            row["trace_id"] = trace_id
        if features:
            row.update(features)
        if extra:
            row.update(extra)
        line = json.dumps(row, separators=(",", ":")) + "\n"
        with self._lock:
            if self._fh is None:
                directory = os.path.dirname(self.path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(line)
            self._fh.flush()
            self.records_written += 1

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "TimingLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_timings(path: str | os.PathLike) -> list[dict]:
    """Read a timing log back; corrupt lines (crash tails) are skipped."""
    rows: list[dict] = []
    try:
        with open(os.fspath(path), encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except ValueError:
                    continue
                if isinstance(row, dict):
                    rows.append(row)
    except OSError:
        return []
    return rows
