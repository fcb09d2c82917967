"""Cover targets, greedy election and their set-algebra reference versions."""
import random

import pytest
from hypothesis import example, given, strategies as st

from nobcr.config import Pruning
from nobcr.forwarding import (
    CoverProblem,
    build_problem,
    cover_target,
    elect_forwarders,
    elect_source_forwarders,
    greedy_set_cover,
)
from nobcr.model import NeighborView, bit, members

from oracles import (
    brute_min_cover,
    from_ids,
    greedy_cover_sets,
    harmonic,
    multiprev_target_sets,
    pdp_target_sets,
    random_geometric,
)


def converged_view(owner, adj):
    """View of ``owner`` with every neighbour's advertisement in place."""
    v = NeighborView(owner=owner)
    for u in adj[owner]:
        v.note_hello(u, from_ids(adj[u]), now=0.0, horizon=1e9)
    return v


def partial_view(owner, adj, rng):
    """View missing a random subset of the neighbour advertisements."""
    v = NeighborView(owner=owner)
    for u in adj[owner]:
        if rng.random() < 0.7:
            v.note_hello(u, from_ids(adj[u]), now=0.0, horizon=1e9)
    return v


# --------------------------------------------------------------------------
# Worked topologies
# --------------------------------------------------------------------------


def test_chain_elects_the_next_hop():
    # 0 - 1 - 2 - 3; node 1 relays a packet received from 0
    adj = [{1}, {0, 2}, {1, 3}, {2}]
    v = converged_view(1, adj)
    assert cover_target(v, bit(0)) == bit(3)
    fwd, uncovered = elect_forwarders(v, from_ids({0}), Pruning.PDP, first_hop=0)
    assert fwd == bit(2) and uncovered == 0


def test_clique_needs_no_forwarders():
    adj = [{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}]
    v = converged_view(1, adj)
    assert cover_target(v, bit(0)) == 0
    fwd, uncovered = elect_forwarders(v, from_ids({0}), Pruning.PDP, first_hop=0)
    assert fwd == 0 and uncovered == 0


def test_unknown_prev_hop_discounts_only_itself():
    adj = [{1}, {0, 2}, {1, 3}, {2}]
    v = NeighborView(owner=1)
    v.note_hello(2, from_ids(adj[2]), now=0.0, horizon=1e9)
    # packet heard from 0 before any hello from it: N(0) is unknown
    assert cover_target(v, bit(0)) == bit(3)


def test_no_hop_is_the_source_case():
    # a source prunes against nothing: the whole 2-hop fringe is the target
    # and every neighbour may be a candidate; 0 and 3 cover none of it
    adj = [{1}, {0, 2, 3}, {1, 4}, {1}, {2}]
    v = converged_view(1, adj)
    assert cover_target(v, 0) == bit(4)
    problem = build_problem(v, 0, 0)
    assert problem.candidates == {2: bit(4)}
    assert greedy_set_cover(problem) == elect_source_forwarders(v) == (bit(2), 0)


def test_empty_universe_builds_no_candidates():
    # in a triangle the source's neighbours already cover everything
    adj = [{1, 2}, {0, 2}, {0, 1}]
    v = converged_view(0, adj)
    assert build_problem(v, 0, 0) == CoverProblem(0, {})
    assert build_problem(v, bit(1), bit(1)) == CoverProblem(0, {})


def test_second_hop_shrinks_target():
    # star around 1 with one fringe node behind each spoke; hearing 2 relay
    # as well discounts 2's neighbourhood from what 1 still has to cover
    adj = [{1, 4}, {0, 2, 3}, {1, 5}, {1, 6}, {0}, {2}, {3}]
    v = converged_view(1, adj)
    t_one = cover_target(v, from_ids({0}))
    t_two = cover_target(v, from_ids({0, 2}))
    assert t_one == from_ids({5, 6})  # 4 was already covered by hop 0
    assert t_two == bit(6)
    assert t_two & ~t_one == 0


def test_source_election_covers_two_hop_fringe():
    adj = [{1}, {0, 2}, {1, 3}, {2}]
    v = converged_view(0, adj)
    fwd, uncovered = elect_source_forwarders(v)
    assert fwd == bit(1) and uncovered == 0


# --------------------------------------------------------------------------
# Formula equivalence against the set-based versions
# --------------------------------------------------------------------------


def _view_as_sets(v):
    one_hop = set(members(v.one_hop))
    neigh_of = {u: set(members(adv)) for u, adv in v.neigh_of.items()}
    return one_hop, neigh_of


@pytest.mark.parametrize("make_view", [converged_view, partial_view])
def test_cover_targets_match_set_oracle(make_view):
    rng = random.Random(42)
    for _ in range(400):
        n = rng.randint(4, 30)
        _, adj = random_geometric(rng, n, side=100.0, radius=45.0)
        owner = rng.randrange(n)
        if not adj[owner]:
            continue
        if make_view is partial_view:
            v = make_view(owner, adj, rng)
        else:
            v = make_view(owner, adj)
        one_hop, neigh_of = _view_as_sets(v)
        prev = rng.choice(sorted(adj[owner]))
        got = cover_target(v, bit(prev))
        want = pdp_target_sets(owner, one_hop, neigh_of, prev)
        assert set(members(got)) == want
        hops = {prev} | set(rng.sample(sorted(adj[owner]), rng.randint(0, len(adj[owner]))))
        got_m = cover_target(v, from_ids(hops))
        want_m = multiprev_target_sets(owner, one_hop, neigh_of, hops)
        assert set(members(got_m)) == want_m


@st.composite
def hop_views(draw):
    """Owner 0 on a random graph, advertisements from a random subset of its
    neighbours, and a random hop set, which may hold nodes it never heard."""
    n = draw(st.integers(2, 12))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    adj = [set() for _ in range(n)]
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    known = draw(st.sets(st.sampled_from(sorted(adj[0])))) if adj[0] else set()
    hops = draw(st.sets(st.integers(1, n - 1)))
    return adj, known, hops


# hops 1, 2 and 3 of owner 0; hop 2 is a neighbour whose advertisement is unknown
SEVERAL_HOPS_ONE_UNKNOWN = (
    [{1, 2, 3}, {0, 2, 4}, {0, 1, 5}, {0, 6}, {1, 7}, {2}, {3, 7}, {4, 6}],
    {1, 3},
    {1, 2, 3},
)


@given(hop_views())
@example(SEVERAL_HOPS_ONE_UNKNOWN)
def test_cover_target_matches_set_oracle_over_hop_sets(case):
    adj, known, hops = case
    v = NeighborView(owner=0, one_hop=from_ids(adj[0]),
                     neigh_of={u: from_ids(adj[u]) for u in known})
    one_hop, neigh_of = _view_as_sets(v)
    assert set(members(cover_target(v, from_ids(hops)))) == multiprev_target_sets(0, one_hop, neigh_of, hops)
    for u in hops:
        assert set(members(cover_target(v, bit(u)))) == pdp_target_sets(0, one_hop, neigh_of, u)


def test_multiprev_target_never_exceeds_pdp_target():
    rng = random.Random(9)
    for _ in range(1000):
        n = rng.randint(4, 25)
        _, adj = random_geometric(rng, n, side=100.0, radius=40.0)
        owner = rng.randrange(n)
        if not adj[owner]:
            continue
        v = converged_view(owner, adj)
        u = rng.choice(sorted(adj[owner]))
        extra = rng.sample(sorted(adj[owner]), rng.randint(0, len(adj[owner])))
        hops = from_ids({u}) | from_ids(extra)
        assert cover_target(v, hops) & ~cover_target(v, bit(u)) == 0


# --------------------------------------------------------------------------
# Greedy cover
# --------------------------------------------------------------------------


def test_greedy_breaks_ties_towards_lowest_id():
    problem = CoverProblem(
        universe=from_ids({1, 2, 3, 4}),
        candidates={5: from_ids({1, 2}), 3: from_ids({3, 4}), 7: from_ids({1, 2})},
    )
    picked, uncovered = greedy_set_cover(problem)
    assert picked == from_ids({3, 5}) and uncovered == 0


def test_greedy_reports_unreachable_remainder():
    problem = CoverProblem(
        universe=from_ids({1, 2, 9}),
        candidates={0: from_ids({1}), 4: from_ids({2})},
    )
    picked, uncovered = greedy_set_cover(problem)
    assert picked == from_ids({0, 4})
    assert uncovered == bit(9)


def test_greedy_empty_universe_picks_nothing():
    picked, uncovered = greedy_set_cover(CoverProblem(0, {2: bit(1)}))
    assert picked == 0 and uncovered == 0


def test_greedy_matches_set_oracle_whatever_the_candidate_order():
    # candidates arrive in shuffled insertion order, and some cover nothing
    # of the universe: an empty set, or only nodes outside it
    rng = random.Random(7)
    for _ in range(500):
        universe = set(rng.sample(range(16), rng.randint(0, 12)))
        candidates = {
            c: set(rng.sample(range(20), rng.randint(0, 6)))
            for c in rng.sample(range(24), rng.randint(0, 10))
        }
        shuffled = list(candidates.items())
        rng.shuffle(shuffled)
        picked, uncovered = greedy_set_cover(
            CoverProblem(from_ids(universe), {c: from_ids(cov) for c, cov in shuffled})
        )
        want_picked, want_uncovered = greedy_cover_sets(universe, candidates)
        assert set(members(picked)) == want_picked
        assert set(members(uncovered)) == want_uncovered


def test_greedy_complete_and_within_logarithmic_bound():
    rng = random.Random(3)
    for _ in range(600):
        u_size = rng.randint(0, 12)
        universe = set(rng.sample(range(12), u_size))
        candidates = {
            c: set(rng.sample(sorted(universe), rng.randint(0, u_size)))
            for c in rng.sample(range(20), rng.randint(0, 10))
        }
        picked, uncovered = greedy_set_cover(
            CoverProblem(from_ids(universe), {c: from_ids(s) for c, s in candidates.items()})
        )
        best = brute_min_cover(universe, candidates)
        if best is None:
            covered_all = set()
            for s in candidates.values():
                covered_all |= s
            assert set(members(uncovered)) == universe - covered_all
        else:
            assert uncovered == 0
            if universe:
                assert picked.bit_count() <= harmonic(len(universe)) * max(1, len(best))
            else:
                assert picked == 0


# --------------------------------------------------------------------------
# Candidate pools
# --------------------------------------------------------------------------


def test_candidate_pool_excludes_prev_hops_and_their_coverage():
    adj = [{1, 4}, {0, 2, 3}, {1, 5}, {1, 6}, {0}, {2}, {3}]
    v = converged_view(1, adj)
    problem = build_problem(v, bit(0), bit(0))
    # hop 0 itself and anything inside its advertised set are out
    assert set(problem.candidates) == {2, 3}
    problem = build_problem(v, from_ids({0, 2}), from_ids({0, 2}))
    assert set(problem.candidates) == {3}
    # PDP prunes against the first hop only, but a later hop heard
    # transmitting the packet still cannot be elected
    problem = build_problem(v, bit(0), from_ids({0, 2}))
    assert set(problem.candidates) == {3}


def test_elected_forwarders_cover_what_they_claim():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(5, 30)
        _, adj = random_geometric(rng, n, side=100.0, radius=50.0)
        owner = rng.randrange(n)
        if not adj[owner]:
            continue
        v = converged_view(owner, adj)
        u = rng.choice(sorted(adj[owner]))
        for mode in (Pruning.PDP, Pruning.MULTIPREV):
            fwd, uncovered = elect_forwarders(v, from_ids({u}), mode, first_hop=u)
            target = cover_target(v, bit(u))
            covered = 0
            for f in members(fwd):
                covered |= v.union_of(bit(f))
            assert target & ~(covered | uncovered) == 0
            assert fwd & from_ids({u, owner}) == 0
