"""Section 5: the guess-and-check bound ``GC(log² n, [[LOGSPACE_pol]]^log)``.

Theorem 5.1 places the *complement* of ``Dual`` in the guess-and-check
class: to refute duality it suffices to

1. **guess** a path descriptor π — ``O(log² n)`` bits (the guess), and
2. **check** that ``pathnode(I, π)`` is a leaf marked ``fail`` — a
   ``[[LOGSPACE_pol]]^log`` computation followed by a LOGSPACE test
   (Lemma 5.1).

This module provides the checker (:func:`check_certificate`), a prover
that produces certificates for non-dual instances
(:func:`certificate_for`), and a decider that simulates the
nondeterministic guess by exhaustive enumeration with space re-use —
which is precisely how Theorem 5.2 embeds the class into
``DSPACE[log² n]``.
"""

from __future__ import annotations

from repro.hypergraph import Hypergraph
from repro.machine.meter import SpaceMeter
from repro.duality.conditions import prepare_instance
from repro.duality.logspace import (
    PathDescriptor,
    descriptor_bits,
    is_valid_descriptor,
    iter_tree_nodes,
    pathnode,
    pathnode_metered,
)
from repro.duality.result import (
    DecisionStats,
    DualityResult,
    FailureKind,
    dual_result,
    not_dual_result,
)
from repro.duality.tree import Mark


def check_certificate(
    g: Hypergraph, h: Hypergraph, pi: PathDescriptor
) -> bool:
    """Lemma 5.1's check: does ``pathnode(I, π)`` output a ``fail`` leaf?

    The instance must satisfy the decomposition entry conditions (the
    guess-and-check machine receives a validated instance).  Descriptors
    outside ``PD(I)`` simply fail the check (they are wrong guesses, not
    errors).
    """
    entry = prepare_instance(g, h)
    if not entry.ok:
        raise ValueError(
            f"instance outside the decomposition preconditions: {entry.detail}"
        )
    if not is_valid_descriptor(entry.g, entry.h, tuple(pi)):
        return False
    attrs = pathnode(entry.g, entry.h, tuple(pi))
    return attrs is not None and attrs.mark is Mark.FAIL


def check_certificate_metered(
    g: Hypergraph, h: Hypergraph, pi: PathDescriptor
) -> tuple[bool, SpaceMeter]:
    """The certificate check with the Lemma 3.1 register discipline metered."""
    entry = prepare_instance(g, h)
    if not entry.ok:
        raise ValueError(
            f"instance outside the decomposition preconditions: {entry.detail}"
        )
    attrs, meter = pathnode_metered(entry.g, entry.h, tuple(pi))
    return (attrs is not None and attrs.mark is Mark.FAIL), meter


def certificate_for(
    g: Hypergraph, h: Hypergraph
) -> PathDescriptor | None:
    """A certificate (fail-leaf path descriptor) for a non-dual instance.

    The "prover" side of Theorem 5.1: returns the label of the first
    ``fail`` leaf of ``T(G, H)``, or ``None`` when the instance is dual
    (no certificate exists — Proposition 2.1(1)+(4)).
    """
    entry = prepare_instance(g, h)
    if not entry.ok:
        raise ValueError(
            f"instance outside the decomposition preconditions: {entry.detail}"
        )
    for attrs in iter_tree_nodes(entry.g, entry.h):
        if attrs.mark is Mark.FAIL:
            return attrs.label
    return None


def decide_guess_and_check(g: Hypergraph, h: Hypergraph) -> DualityResult:
    """Decide ``Dual`` by simulating the ``GC(log² n, ·)`` machine.

    All possible guesses are enumerated under space re-use (the
    Theorem 5.2 simulation argument); the first accepting certificate
    refutes duality.  ``stats.guessed_bits`` records the guess size —
    ``⌊log|H|⌋·⌈log(|V||G|+1)⌉`` bits, the paper's ``O(log² n)``.

    The witness attached to a NOT_DUAL verdict is the fail leaf's
    ``t(α)``, re-derived from the certificate by ``pathnode`` — i.e. the
    verdict is *checked*, not trusted from the enumeration.

    The walk is :func:`~repro.duality.logspace.iter_tree_nodes`, so it
    runs on the mask node kernel unless ``use_bitset_kernels(False)``
    selects the ``frozenset`` reference procedures; both return
    identical verdicts, certificates, and node counts.
    """
    method = "guess-check"
    entry = prepare_instance(g, h)
    if not entry.ok:
        return not_dual_result(
            method, entry.failure, witness=entry.witness, detail=entry.detail
        )
    g_v, h_v = entry.g, entry.h
    swapped = len(h_v) > len(g_v)
    if swapped:
        g_v, h_v = h_v, g_v

    stats = DecisionStats(guessed_bits=descriptor_bits(g_v, h_v))
    stats.extra["swapped"] = swapped
    direction = "H wrt G" if swapped else "G wrt H"

    # Enumerate candidate guesses.  Pruned enumeration visits exactly the
    # valid descriptors; every skipped guess is one pathnode would map to
    # wrongpath, so the accept/reject behaviour matches the exhaustive
    # simulation bit for bit.
    for attrs in iter_tree_nodes(g_v, h_v):
        stats.nodes += 1
        if attrs.mark is Mark.FAIL:
            certificate = attrs.label
            verified = pathnode(g_v, h_v, certificate)
            assert verified is not None and verified.mark is Mark.FAIL
            return not_dual_result(
                method,
                FailureKind.MISSING_TRANSVERSAL,
                witness=verified.witness,
                detail=(
                    f"accepted certificate {certificate}: new transversal "
                    f"of {direction}"
                ),
                path=certificate,
                stats=stats,
            )
    return dual_result(method, stats)
