"""Forwarder election: partial-dominant-pruning cover targets + greedy cover.

A relaying node v picks, among its own neighbours, a minimal set whose
neighbourhoods cover the 2-hop nodes not already taken care of by the hops
heard transmitting the packet.  There is one rule, applied to a hop set:
the multi-previous-hop variant passes every hop heard, classic partial
dominant pruning (PDP) is the same rule over the single first hop, and a
source's election is the rule over no hop at all.
"""
from __future__ import annotations

from typing import NamedTuple

from .config import Pruning
from .model import NeighborView, NodeSet, members, two_hop_set

_PDP = Pruning.PDP  # bound once: a read through the enum class is slow


class CoverProblem(NamedTuple):
    universe: NodeSet
    candidates: dict[int, NodeSet]  # candidate relay -> the universe part it covers


def cover_target(view: NeighborView, hops: NodeSet) -> NodeSet:
    """2-hop nodes still uncovered after every hop in ``hops`` transmitted and
    elected its own relays.

    U(v) = N(N(v)) - N(v) - U_i N(i) - U_i N(N(i) & N(v)) over i in hops,
    minus v and the hops themselves.  Hops with unknown advertised sets only
    remove themselves; with no hop this is the full 2-hop fringe.  The
    U_i N(N(i) & N(v)) term is one ``union_of`` over (U_i N(i)) & N(v), since
    a union of neighbourhoods distributes over OR.
    """
    return _target(view, hops)[1]


def _target(view: NeighborView, hops: NodeSet) -> tuple[NodeSet, NodeSet]:
    """The union U_i N(i) of the hops' advertised sets, and
    :func:`cover_target` computed from it."""
    neigh_of = view.neigh_of
    advertised = 0
    for i in members(hops):
        advertised |= neigh_of.get(i, 0)
    covered = advertised | view.union_of(advertised & view.one_hop)
    return advertised, two_hop_set(view) & ~view.one_hop & ~hops & ~covered


def greedy_set_cover(problem: CoverProblem) -> tuple[NodeSet, NodeSet]:
    """Greedy cover: repeatedly pick the candidate covering the most uncovered
    nodes, breaking ties towards the lowest node id.

    Returns (picked, uncovered); uncovered is nonempty when the candidates
    cannot reach part of the universe.
    """
    uncovered = problem.universe
    picked = 0
    useful = sorted(problem.candidates.items())
    while uncovered:
        best, best_gain = None, 0
        for cand in useful:
            gain = (cand[1] & uncovered).bit_count()
            if gain > best_gain:
                best, best_gain = cand, gain
        if best is None:
            break
        useful.remove(best)
        picked |= 1 << best[0]
        uncovered &= ~best[1]
    return picked, uncovered


def build_problem(view: NeighborView, hops: NodeSet, heard: NodeSet) -> CoverProblem:
    """Cover problem for relaying a packet pruned against ``hops``.

    Candidates are the 1-hop neighbours outside the hops' advertised sets,
    excluding every hop ``heard`` transmitting the packet, that cover some
    of the universe.
    """
    advertised, universe = _target(view, hops)
    candidates = {}
    if universe:
        neigh_of = view.neigh_of
        pool = view.one_hop & ~heard & ~(1 << view.owner) & ~advertised
        while pool:
            low = pool & -pool
            c = low.bit_length() - 1
            cov = neigh_of.get(c, low) & universe
            if cov:
                candidates[c] = cov
            pool ^= low
    return CoverProblem(universe, candidates)


def elect_forwarders(
    view: NeighborView, prev_hops: NodeSet, mode: Pruning, first_hop: int
) -> tuple[NodeSet, NodeSet]:
    """Pick relays for a packet this node is about to transmit.

    PDP prunes against ``first_hop``, the hop the packet was first received
    from; the multi-previous variant against all of ``prev_hops``.
    Returns (forwarders, uncovered).
    """
    hops = 1 << first_hop if mode is _PDP else prev_hops
    return greedy_set_cover(build_problem(view, hops, prev_hops))


def elect_source_forwarders(view: NeighborView) -> tuple[NodeSet, NodeSet]:
    """Forwarder election for a node originating a packet: cover the full
    2-hop fringe with any of the 1-hop neighbours."""
    return greedy_set_cover(build_problem(view, 0, 0))
