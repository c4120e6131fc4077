"""Synthetic dataset generators (the offline substitute for public data).

The public itemset benchmarks (mushroom, retail, chess, …) are not
reachable in this offline environment, and the paper itself runs no
experiments on them — Proposition 1.1 is purely structural.  These
generators produce Boolean relations that exercise the same code paths,
plus one family real data cannot provide: *planted borders*, where the
exact maximal-frequent family is chosen up front, giving the experiments
a ground truth to compare against.

All generators take explicit seeds, so every relation they build is
reproducible.
"""

from __future__ import annotations

import random

from repro._util import maximize_family
from repro.errors import InvalidInstanceError
from repro.hypergraph import Hypergraph
from repro.itemsets.relation import BooleanRelation


def market_basket(
    n_items: int = 12,
    n_rows: int = 60,
    n_patterns: int = 4,
    pattern_size: int = 4,
    noise: float = 0.05,
    seed: int = 0,
) -> BooleanRelation:
    """A simplified IBM-Quest-style basket generator.

    Draws ``n_patterns`` random "purchase patterns"; each row picks one
    pattern, keeps each of its items with probability 0.9, and adds each
    non-pattern item with probability ``noise``.  Produces the skewed,
    overlapping co-occurrence structure real baskets have.
    """
    if pattern_size > n_items:
        raise InvalidInstanceError("pattern_size cannot exceed n_items")
    rng = random.Random(seed)
    items = [f"i{k:02d}" for k in range(n_items)]
    patterns = [
        rng.sample(items, pattern_size) for _ in range(max(1, n_patterns))
    ]
    rows = []
    for _ in range(n_rows):
        pattern = rng.choice(patterns)
        row = {a for a in pattern if rng.random() < 0.9}
        row |= {a for a in items if a not in pattern and rng.random() < noise}
        rows.append(row)
    return BooleanRelation(rows, items=items)


def dense_random(
    n_items: int = 10,
    n_rows: int = 40,
    density: float = 0.5,
    seed: int = 0,
) -> BooleanRelation:
    """Independent Bernoulli(density) bits — the unstructured control case."""
    if not 0.0 <= density <= 1.0:
        raise InvalidInstanceError("density must lie in [0, 1]")
    rng = random.Random(seed)
    items = [f"i{k:02d}" for k in range(n_items)]
    rows = [
        {a for a in items if rng.random() < density} for _ in range(n_rows)
    ]
    return BooleanRelation(rows, items=items)


def planted_borders(
    maximal_frequent: list[set] | None = None,
    n_items: int = 8,
    z: int = 2,
    seed: int = 0,
) -> tuple[BooleanRelation, int, Hypergraph]:
    """A relation whose maximal frequent family is *chosen in advance*.

    Construction: for each planted set ``P``, add ``z + 1`` identical
    rows equal to ``P``.  Then ``f(U) ≥ z + 1 > z`` iff ``U`` is inside
    some planted set... provided no union effect pushes other sets over
    the threshold, which the construction rules out because distinct
    planted sets contribute to ``f(U)`` only when ``U`` lies inside
    their intersection — already inside a planted set.  Hence
    ``IS⁺ = max(planted)`` exactly.

    Requires ``z + 1`` copies per set to clear the *strict* threshold;
    an itemset not below any planted set has frequency 0.

    Returns ``(relation, z, expected_is_plus)``.
    """
    rng = random.Random(seed)
    items = [f"i{k:02d}" for k in range(n_items)]
    if maximal_frequent is None:
        universe = list(items)
        picks = []
        for _ in range(3):
            size = rng.randint(2, max(2, n_items // 2))
            picks.append(set(rng.sample(universe, size)))
        maximal_frequent = picks
    planted = [frozenset(p) for p in maximal_frequent]
    for p in planted:
        if not p <= set(items):
            raise InvalidInstanceError(
                "planted sets must use items i00..i{n-1} within n_items"
            )
    if z < 1:
        raise InvalidInstanceError("z must be >= 1")

    rows: list[frozenset] = []
    for p in planted:
        rows.extend([p] * (z + 1))
    relation = BooleanRelation(rows, items=items)
    expected = Hypergraph(maximize_family(planted), vertices=items)
    return relation, z, expected


def contrast_pair(
    n_items: int = 8, z: int = 2, seed: int = 0
) -> tuple[BooleanRelation, int]:
    """A relation with both wide and narrow frequent sets (border stress).

    Mixes one broad planted set with several small overlapping ones, so
    the border has members of very different sizes — the shape where the
    complement/transversal bridge is easiest to get wrong.
    """
    rng = random.Random(seed)
    items = [f"i{k:02d}" for k in range(n_items)]
    broad = frozenset(items[: max(3, n_items // 2)])
    narrow = [
        frozenset(rng.sample(items, 2)) for _ in range(3)
    ]
    rows: list[frozenset] = []
    rows.extend([broad] * (z + 1))
    for p in narrow:
        rows.extend([p] * (z + 1))
    return BooleanRelation(rows, items=items), z


def single_pattern(
    n_items: int = 6, z: int = 1
) -> tuple[BooleanRelation, int]:
    """Degenerate relation: all rows identical (border edge cases)."""
    items = [f"i{k:02d}" for k in range(n_items)]
    row = frozenset(items[: n_items // 2])
    return BooleanRelation([row] * (z + 1), items=items), z


def categorical_onehot(
    n_attributes: int = 4,
    n_values: int = 3,
    n_rows: int = 40,
    skew: float = 0.6,
    seed: int = 0,
) -> BooleanRelation:
    """A one-hot-encoded categorical relation (mushroom-style shape).

    Each of ``n_attributes`` categorical attributes takes one of
    ``n_values`` values per row (value 0 drawn with probability
    ``skew``, the rest uniformly), encoded as items ``a{i}={v}`` with
    **exactly one item per attribute group per row**.  This is the shape
    of the classical UCI itemset benchmarks: minimal infrequent sets
    include cross-category value pairs, and no within-group pair is
    ever frequent — structure plain Bernoulli data lacks.
    """
    if n_values < 2:
        raise InvalidInstanceError("categorical data needs >= 2 values")
    if not 0.0 < skew < 1.0:
        raise InvalidInstanceError("skew must lie in (0, 1)")
    rng = random.Random(seed)
    items = [
        f"a{i}={v}" for i in range(n_attributes) for v in range(n_values)
    ]
    rows = []
    for _ in range(n_rows):
        row = set()
        for i in range(n_attributes):
            if rng.random() < skew:
                value = 0
            else:
                value = rng.randint(1, n_values - 1)
            row.add(f"a{i}={value}")
        rows.append(row)
    return BooleanRelation(rows, items=items)
