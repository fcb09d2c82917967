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
from .model import NeighborView, NodeSet, bit, members, two_hop_set


class CoverProblem(NamedTuple):
    universe: NodeSet
    candidates: dict[int, NodeSet]  # candidate relay -> the universe part it covers


def cover_target(view: NeighborView, hops: NodeSet) -> NodeSet:
    """2-hop nodes still uncovered after every hop in ``hops`` transmitted and
    elected its own relays.

    U(v) = N(N(v)) - N(v) - U_i N(i) - U_i N(N(i) & N(v)) over i in hops,
    minus v and the hops themselves.  Hops with unknown advertised sets only
    remove themselves; with no hop this is the full 2-hop fringe.
    """
    v = view.owner
    target = two_hop_set(view) & ~view.one_hop & ~bit(v) & ~hops
    for i in members(hops):
        n_i = view.neigh_of.get(i)
        if n_i is None:
            continue
        target &= ~n_i
        for x in members(n_i & view.one_hop):
            target &= ~view.neighbors_of(x)
    return target


def greedy_set_cover(problem: CoverProblem) -> tuple[NodeSet, NodeSet]:
    """Greedy cover: repeatedly pick the candidate covering the most uncovered
    nodes, breaking ties towards the lowest node id.

    Returns (picked, uncovered); uncovered is nonempty when the candidates
    cannot reach part of the universe.
    """
    uncovered = problem.universe
    picked = 0
    useful = {c: cov & uncovered for c, cov in problem.candidates.items()}
    while uncovered:
        best, best_gain = -1, 0
        for c in sorted(useful):
            gain = (useful[c] & uncovered).bit_count()
            if gain > best_gain:
                best, best_gain = c, gain
        if best < 0:
            break
        picked |= bit(best)
        uncovered &= ~useful.pop(best)
    return picked, uncovered


def build_problem(view: NeighborView, hops: NodeSet, heard: NodeSet) -> CoverProblem:
    """Cover problem for relaying a packet pruned against ``hops``.

    Candidates are the 1-hop neighbours outside the hops' advertised sets,
    excluding every hop ``heard`` transmitting the packet.
    """
    universe = cover_target(view, hops)
    discount = 0
    for i in members(hops):
        discount |= view.neigh_of.get(i, 0)
    pool = view.one_hop & ~discount & ~heard & ~bit(view.owner)
    candidates = {
        c: view.neighbors_of(c) & universe for c in members(pool)
    }
    return CoverProblem(universe, candidates)


def elect_forwarders(
    view: NeighborView, prev_hops: NodeSet, mode: Pruning, first_hop: int
) -> tuple[NodeSet, NodeSet]:
    """Pick relays for a packet this node is about to transmit.

    PDP prunes against ``first_hop``, the hop the packet was first received
    from; the multi-previous variant against all of ``prev_hops``.
    Returns (forwarders, uncovered).
    """
    hops = bit(first_hop) if mode is Pruning.PDP else prev_hops
    return greedy_set_cover(build_problem(view, hops, prev_hops))


def elect_source_forwarders(view: NeighborView) -> tuple[NodeSet, NodeSet]:
    """Forwarder election for a node originating a packet: cover the full
    2-hop fringe with any of the 1-hop neighbours."""
    return greedy_set_cover(build_problem(view, 0, 0))
