"""Quantitative bounds from the paper: ``χ(n)``, FK runtime, log²-space curves.

Section 1 (known complexity results) recalls that Fredman and Khachiyan
showed ``Dual ∈ DTIME[n^{4χ(n)+O(1)}]``, where ``χ(n)`` is defined by

    χ(n)^χ(n) = n,

and notes ``χ(n) ∼ log n / log log n = o(log n)``.  This module computes
these quantities exactly enough for the experiment harness to plot the
paper's bound envelopes against measured work.
"""

from __future__ import annotations

import math
from functools import lru_cache


@lru_cache(maxsize=4096)
def chi(n: float) -> float:
    """The inverse of ``x ↦ x^x`` at ``n``: the unique ``x ≥ 1`` with ``x^x = n``.

    Defined for ``n ≥ 1``; ``chi(1) = 1``.  Solved by bisection on the
    strictly increasing function ``x log x`` (200 iterations give far more
    than double precision needs).  Memoised: Fredman–Khachiyan B asks
    for ``χ`` of an integer volume at every node, and volumes repeat.
    """
    if n < 1:
        raise ValueError("chi(n) is defined for n >= 1")
    if n == 1:
        return 1.0
    target = math.log(n)
    lo, hi = 1.0, 2.0
    while hi * math.log(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid * math.log(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def chi_asymptotic(n: float) -> float:
    """The first-order asymptotic ``log n / log log n`` (for comparison plots)."""
    if n <= math.e:
        raise ValueError("asymptotic form needs log log n > 0, i.e. n > e")
    return math.log(n) / math.log(math.log(n))


def fk_time_bound(n: float, constant: float = 1.0) -> float:
    """The Fredman–Khachiyan envelope ``n^{4χ(n) + c}``.

    Returned as a float; for large ``n`` use :func:`fk_time_bound_log`
    to avoid overflow.
    """
    return n ** (4.0 * chi(n) + constant)


def fk_time_bound_log(n: float, constant: float = 1.0) -> float:
    """``log₂`` of the FK envelope — overflow-safe for plotting."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 0.0
    return (4.0 * chi(n) + constant) * math.log2(n)


def quasi_polynomial_exponent(n: float) -> float:
    """The ``o(log n)`` exponent ``4χ(n)+O(1)`` itself (with the O(1) as 1)."""
    return 4.0 * chi(n) + 1.0


def quadratic_logspace_bits(n: int, a: float = 0.0, b: float = 1.0) -> float:
    """The space envelope ``a + b·log₂²(n)`` of Theorem 4.1 (in bits)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return a + b * (math.log2(n) ** 2)


def guess_bits_bound(n_vertices: int, n_g_edges: int, n_h_edges: int) -> int:
    """Exact bit count to guess one path descriptor (Theorem 5.1's guess).

    A path descriptor is a sequence of ≤ ``⌊log₂ |H|⌋`` integers, each in
    ``[1, |V|·|G|]``, so ``⌊log₂ |H|⌋ · ⌈log₂(|V|·|G| + 1)⌉`` bits suffice
    — which is ``O(log² n)``.
    """
    if n_h_edges <= 0 or n_g_edges <= 0 or n_vertices <= 0:
        return 0
    depth = int(math.floor(math.log2(n_h_edges))) if n_h_edges > 1 else 0
    per_level = math.ceil(math.log2(n_vertices * n_g_edges + 1))
    return depth * per_level


def chi_table(values: list[int] | None = None) -> list[tuple[int, float, float]]:
    """Rows ``(n, χ(n), 4χ(n)+1)`` for the paper's bound discussion.

    Default sample spans the instance sizes the experiments use up to
    astronomically large ``n`` to show how slowly ``χ`` grows.
    """
    if values is None:
        values = [2, 10, 100, 10**3, 10**6, 10**9, 10**12, 10**15]
    return [(n, chi(n), quasi_polynomial_exponent(n)) for n in values]
