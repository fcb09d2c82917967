"""Event engine: determinism, radio model, mobility, hello convergence."""
import math

import pytest
from hypothesis import given, settings, strategies as st

from nobcr.config import Coding, ScenarioConfig, Termination
from nobcr.engine import Radio, Simulation, Waypoint, substream
from nobcr.metrics import SimLog
from nobcr.model import bit, members

from oracles import (
    PerReceiverPruning,
    from_ids,
    overlapping_pairs,
    uniform_speed_time_average,
)


def cfg(**kw):
    base = dict(
        n_nodes=5,
        area_side=500.0,
        sim_duration=10.0,
        n_sources=1,
        collisions=False,
        mac_jitter=0.0,
        hello_enabled=False,
        coding=Coding.NONE,
        rad_max=0.2,
        seed=1,
    )
    base.update(kw)
    return ScenarioConfig(**base)


CHAIN = [bit(1), bit(0) | bit(2), bit(1) | bit(3), bit(2) | bit(4), bit(3)]


# --------------------------------------------------------------------------
# Substreams
# --------------------------------------------------------------------------


def test_substreams_are_reproducible_and_distinct():
    a = substream(1, "rad", 0).random()
    assert substream(1, "rad", 0).random() == a
    assert substream(1, "rad", 1).random() != a
    assert substream(1, "mac", 0).random() != a
    assert substream(2, "rad", 0).random() != a


# --------------------------------------------------------------------------
# Radio model
# --------------------------------------------------------------------------


def test_static_adjacency_threshold_inclusive():
    positions = [(0.0, 0.0), (250.0, 0.0), (501.0, 0.0)]
    adj = Radio(cfg(n_nodes=3, tx_range=250.0), positions=positions).adjacency
    assert adj[0] == bit(1)  # exactly at range still counts
    assert adj[1] == bit(0)  # 251 m exceeds it
    assert adj[2] == 0


def _recorded_receivers(sim):
    """Wrap the radio's receiver lookup; return the list it appends
    (sender, t0, mask, ids) to for every broadcast."""
    sends = []
    receivers = sim.radio.receivers

    def recording(sender, t0):
        mask, ids = receivers(sender, t0)
        sends.append((sender, t0, mask, ids))
        return mask, ids

    sim.radio.receivers = recording
    return sends


def _recorded_sizes(sim):
    """Wrap the radio's send; return the list it appends (sender, nbytes) to
    for every broadcast."""
    sizes = []
    send = sim.radio.send

    def recording(sender, now, nbytes):
        sizes.append((sender, nbytes))
        return send(sender, now, nbytes)

    sim.radio.send = recording
    return sizes


def test_static_receiver_ids_are_the_adjacency_members():
    sim = Simulation(cfg(n_nodes=30, area_side=600.0, n_sources=3, seed=4))
    sends = _recorded_receivers(sim)
    sim.run()
    assert sends
    for sender, _, mask, ids in sends:
        assert mask == sim.radio.adjacency[sender]
        assert ids == tuple(members(sim.radio.adjacency[sender]))


def test_mobile_receiver_ids_are_the_nodes_in_range():
    config = cfg(n_nodes=25, area_side=700.0, n_sources=4, sim_duration=8.0, mac_jitter=0.01,
                 speed_min=1.0, speed_max=15.0, pause_time=0.5, hello_enabled=True, seed=6)
    sim = Simulation(config)
    sends = _recorded_receivers(sim)
    sim.run()
    walkers = [
        Waypoint(substream(config.seed, "mob", i), config.area_side, config.speed_min,
                 config.speed_max, config.pause_time, -config.mobility_warmup)
        for i in range(config.n_nodes)
    ]
    assert len(sends) > 100
    for sender, t0, mask, ids in sends:
        where = [w.position(t0) for w in walkers]
        in_range = [j for j in range(config.n_nodes)
                    if j != sender and math.dist(where[sender], where[j]) <= config.tx_range]
        assert list(ids) == in_range
        assert mask == from_ids(in_range)


def test_chain_relays_end_to_end():
    config = cfg(sim_duration=5.0)
    sim = Simulation(config, adjacency=CHAIN, injections=[(1.0, 0, 1)])
    m = sim.run()
    assert m.generated == 1
    assert m.deliveries == 4
    assert m.delivery_ratio() == 1.0
    assert m.data_tx >= 4  # source plus a relay per hop


def test_simultaneous_transmissions_collide_at_common_receiver():
    # 0 and 2 both start at t=1.0 with zero jitter; 1 hears an overlap
    path = [bit(1), bit(0) | bit(2), bit(1)]
    config = cfg(n_nodes=3, n_sources=2, collisions=True, sim_duration=5.0)
    sim = Simulation(config, adjacency=path, injections=[(1.0, 0, 1), (1.0, 2, 1)])
    m = sim.run()
    assert m.collision_losses == 2
    assert m.deliveries == 0

    config_off = cfg(n_nodes=3, n_sources=2, collisions=False, sim_duration=5.0)
    sim2 = Simulation(config_off, adjacency=path, injections=[(1.0, 0, 1), (1.0, 2, 1)])
    m2 = sim2.run()
    assert m2.collision_losses == 0
    assert m2.deliveries == 4  # both packets cross node 1 to the far side


def test_offset_transmissions_do_not_collide():
    path = [bit(1), bit(0) | bit(2), bit(1)]
    config = cfg(n_nodes=3, n_sources=2, collisions=True, sim_duration=5.0, rad_max=0.0)
    # 256+16 bytes at 2 Mb/s is ~1.1 ms of airtime; 5 ms apart is clean
    sim = Simulation(config, adjacency=path, injections=[(1.0, 0, 1), (1.005, 2, 1)])
    m = sim.run()
    assert m.collision_losses == 0
    assert m.delivery_ratio() == 1.0


def test_hello_size_grows_with_neighbours():
    # a star: hub 0 advertises itself and three neighbours, each leaf two ids
    star = [bit(1) | bit(2) | bit(3), bit(0), bit(0), bit(0)]
    config = cfg(n_nodes=4, n_sources=0, hello_enabled=True, sim_duration=3.0)
    sim = Simulation(config, adjacency=star)
    sizes = _recorded_sizes(sim)
    sim.run()
    assert sizes
    assert {sender: nbytes for sender, nbytes in sizes} == {0: 8 + 4 * 4, 1: 16, 2: 16, 3: 16}


class FixedDraw:
    """Stands in for a MAC jitter stream: draws return ``values`` in turn,
    then repeat the last one."""

    def __init__(self, *values):
        self.values = list(values)

    def uniform(self, a, b):
        return self.values.pop(0) if len(self.values) > 1 else self.values[0]


def _radio(adjacency, **kw):
    """A radio with collisions on, where a byte lasts 1 ms on the air."""
    return Radio(cfg(n_nodes=len(adjacency), collisions=True, bandwidth_bps=8000, **kw),
                 adjacency=adjacency)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a reception pruned at a receiver by a broadcast starting after its end "
    "is missed by a broadcast sent later that starts earlier",
)
def test_out_of_start_order_overlap_collides():
    # a star: 0, 1 and 2 each hear only hub 3; all three send 4 bytes at
    # now=0 in id order, so B (node 1, +18 ms) is sent between A (+10 ms)
    # and C (+11 ms)
    radio = _radio([bit(3), bit(3), bit(3), bit(0) | bit(1) | bit(2)], mac_jitter=0.02)
    for sender, jitter in enumerate([0.010, 0.018, 0.011]):
        radio.mac_rngs[sender] = FixedDraw(jitter)
    entries = [radio.send(sender, 0.0, 4)[2] for sender in range(3)]
    expected = overlapping_pairs([(t0, t1) for t0, t1, _, _ in entries])
    assert expected == {0, 2}  # A and C overlap at the hub
    assert {k for k, entry in enumerate(entries) if entry[3] >> 3 & 1} == expected


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="each send starts at now plus a fresh MAC jitter whatever the sender "
    "still has on the air, so one node's back-to-back sends can overlap",
)
def test_one_sender_never_overlaps_itself():
    # node 1 sends 4 bytes after 2.5 ms of jitter, then 4 more at 4 ms at once
    radio = _radio([bit(1), bit(0) | bit(2), bit(1)], mac_jitter=0.02)
    radio.mac_rngs[1] = FixedDraw(0.0025, 0.0)
    entries = [radio.send(1, now, 4)[2] for now in (0.0, 0.004)]
    assert overlapping_pairs([(t0, t1) for t0, t1, _, _ in entries]) == set()


def _airtime_values(low):
    # whole numbers make equal ends and starts common; floats fill in between
    return st.one_of(st.sampled_from([low, 1.0, 2.0]), st.floats(low, 3.0))


def _byte_counts():
    # at 1 ms a byte, the same durations as _airtime_values(0.25) in seconds
    return st.one_of(st.sampled_from([250, 1000, 2000]), st.integers(250, 3000))


@settings(deadline=None)
@given(
    n=st.integers(1, 12),
    steps=st.lists(
        st.tuples(_airtime_values(0.0), _airtime_values(0.0), _byte_counts(),
                  st.integers(0, (1 << 12) - 1)),
        max_size=40,
    ),
)
def test_on_air_flags_what_the_per_receiver_rule_flags(n, steps):
    # step k is sent by its own node n + k, heard by the step's mask
    adjacency = [0] * n + [mask & ((1 << n) - 1) for _, _, _, mask in steps]
    radio = _radio(adjacency, mac_jitter=3.0)
    reference = PerReceiverPruning(n)
    entries, boxes, read_at_end = [], [], {}
    now = 0.0
    for k, (gap, jitter, nbytes, _) in enumerate(steps):
        now += gap
        for j, e in enumerate(entries):
            if e[1] <= now and j not in read_at_end:
                read_at_end[j] = e[3]  # the engine reads the mask at t1
        radio.mac_rngs[n + k] = FixedDraw(jitter)
        sent = radio.send(n + k, now, nbytes)
        if sent is None:
            continue  # no one hears it: nothing goes on the air
        t1, ids, entry = sent
        entries.append(entry)
        boxes.append(reference.add(entry[0], t1, set(ids)))
    flagged = {(k, r) for k, e in enumerate(entries) for r in members(e[3])}
    expected = {(k, r) for k, box in enumerate(boxes) for r, flag in box.items() if flag[0]}
    assert flagged == expected
    assert all(entries[k][3] == mask for k, mask in read_at_end.items())


# --------------------------------------------------------------------------
# Determinism
# --------------------------------------------------------------------------


def full_featured_config(seed=3):
    return ScenarioConfig(
        n_nodes=30,
        area_side=700.0,
        sim_duration=25.0,
        n_sources=6,
        pkt_rate=2.0,
        speed_min=1.0,
        speed_max=8.0,
        pause_time=1.0,
        termination=Termination.MCU,
        coding=Coding.LIGHTWEIGHT,
        sample_storage=True,
        seed=seed,
    )


def test_identical_runs_produce_identical_summaries():
    first = Simulation(full_featured_config()).run().summary()
    second = Simulation(full_featured_config()).run().summary()
    assert first == second
    assert first["generated"] > 0 and first["deliveries"] > 0


def test_seed_changes_the_outcome():
    a = Simulation(full_featured_config(seed=3)).run().summary()
    b = Simulation(full_featured_config(seed=4)).run().summary()
    assert a != b


# --------------------------------------------------------------------------
# Hello protocol
# --------------------------------------------------------------------------


def test_hellos_converge_to_true_adjacency():
    config = ScenarioConfig(
        n_nodes=20,
        area_side=600.0,
        sim_duration=6.0,
        n_sources=0,
        collisions=False,
        hello_enabled=True,
        seed=11,
    )
    sim = Simulation(config)
    adj = sim.radio.adjacency
    m = sim.run()
    assert m.hello_tx >= 20 * 5
    for node in sim.nodes:
        assert node.view.one_hop == adj[node.id]
        for u in members(node.view.one_hop):
            assert node.view.neigh_of[u] == adj[u]


def test_hello_loss_expires_view_entries():
    # two nodes drift apart: their entries must age out of the views
    config = cfg(n_nodes=2, n_sources=0, hello_enabled=True, sim_duration=12.0,
                 speed_min=40.0, speed_max=40.0, area_side=3000.0, tx_range=100.0)
    sim = Simulation(config)
    m = sim.run()
    # with 3000 m of area and 100 m range, two fast walkers cannot stay
    # adjacent for the whole run; whenever they were, entries expired later
    for node in sim.nodes:
        if node.view.one_hop:
            other = 1 - node.id
            assert node.view.last_heard[other] >= 12.0 - 2.0


# --------------------------------------------------------------------------
# Mobility
# --------------------------------------------------------------------------


def test_waypoint_stays_inside_the_area():
    traj = Waypoint(substream(5, "mob", 0), 300.0, 1.0, 10.0, 2.0, t0=-50.0)
    for i in range(4000):
        x, y = traj.position(i * 0.25)
        assert -1e-9 <= x <= 300.0 + 1e-9
        assert -1e-9 <= y <= 300.0 + 1e-9


def test_waypoint_position_is_time_consistent():
    traj = Waypoint(substream(8, "mob", 3), 500.0, 2.0, 6.0, 1.0, t0=0.0)
    probe = [traj.position(t) for t in (40.0, 10.0, 40.0, 0.0, 10.0)]
    assert probe[0] == probe[2]
    assert probe[1] == probe[4]


def test_waypoint_position_is_pure_on_leg_boundaries():
    """A query exactly on a leg boundary reads the earlier leg, wherever the
    walker's previous answer fell: the end of a move and the start of the
    pause after it differ in the last bits."""
    def walker():
        return Waypoint(substream(8, "mob", 3), 500.0, 2.0, 6.0, 1.0, t0=0.0)

    traj = walker()
    traj.position(2000.0)
    for leg in traj._legs[1:]:
        traj.position((leg[0] + leg[1]) / 2)
        assert traj.position(leg[0]) == walker().position(leg[0])


@settings(deadline=None)
@given(
    seed=st.integers(0, 10_000),
    pause=st.one_of(st.just(0.0), st.floats(0.1, 5.0)),
    data=st.data(),
)
def test_waypoint_answers_any_query_order_as_a_fresh_walker(seed, pause, data):
    """One walker queried forward, backward, repeatedly, on leg boundaries
    and one float beside them answers each time as a fresh walker on the
    same stream does: the previous leg and the bisection agree."""
    def walker():
        return Waypoint(substream(seed, "mob", 0), 200.0, 5.0, 20.0, pause, t0=-5.0)

    queried = walker()
    walked = walker()
    walked.position(300.0)  # its legs reach past any first query
    boundaries = [b for leg in walked._legs for b in leg[:2]]
    t = 0.0
    for _ in range(data.draw(st.integers(1, 40))):
        step = data.draw(st.sampled_from(["forward", "back", "repeat", "boundary", "beside"]))
        if step == "forward":
            t += data.draw(st.floats(0.0, 30.0))
        elif step == "back":
            t = max(-5.0, t - data.draw(st.floats(0.0, 30.0)))
        elif step != "repeat":
            t = data.draw(st.sampled_from(boundaries))
            if step == "beside":
                t = math.nextafter(t, data.draw(st.sampled_from([-math.inf, math.inf])))
        assert queried.position(t) == walker().position(t)


def test_waypoint_speed_matches_harmonic_average():
    """Sampled path speed converges to the time average of the speed draw,
    computed by quadrature; 5% tolerance on a long trajectory."""
    traj = Waypoint(substream(2, "mob", 1), 1000.0, 2.0, 12.0, 0.0, t0=0.0)
    dt = 0.5
    total = 0.0
    x0, y0 = traj.position(0.0)
    horizon = 100_000
    for i in range(1, int(horizon / dt)):
        x1, y1 = traj.position(i * dt)
        total += math.hypot(x1 - x0, y1 - y0)
        x0, y0 = x1, y1
    measured = total / horizon
    expected = uniform_speed_time_average(2.0, 12.0)
    assert measured == pytest.approx(expected, rel=0.05)


@settings(deadline=None)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 10_000),
    speed_min=st.floats(0.1, 5.0),
    speed_span=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    pause=st.one_of(st.just(0.0), st.floats(0.1, 5.0)),
    data=st.data(),
)
def test_mobile_receivers_equal_the_brute_force_set(n, seed, speed_min, speed_span, pause, data):
    """Walkers are pure in ``t``, and the radio's receivers, from sure
    receivers and tested candidates, equal an exact test of every node,
    whatever order the queries come in."""
    config = cfg(n_nodes=n, n_sources=0, area_side=400.0, tx_range=150.0, seed=seed,
                 mac_jitter=0.02, speed_min=speed_min, speed_max=speed_min + speed_span,
                 pause_time=pause, mobility_warmup=5.0, hello_enabled=True)
    radio = Radio(config)
    span = config.tx_range / (20 * config.speed_max)  # the radio's anchor span
    r2 = config.tx_range ** 2

    def walkers():
        return [
            Waypoint(substream(seed, "mob", i), config.area_side, config.speed_min,
                     config.speed_max, config.pause_time, -config.mobility_warmup)
            for i in range(n)
        ]

    queried = walkers()  # answers every query in sequence
    boundaries = walkers()  # only read for leg starts and ends
    t = 0.0
    for _ in range(data.draw(st.integers(1, 40))):
        step = data.draw(st.sampled_from(["forward", "drift", "back", "jump", "start", "end"]))
        if step == "drift":  # as far as the anchor span allows, so walkers move the most
            t += span * data.draw(st.floats(0.5, 1.0))
        elif step == "forward":  # often within one jitter, so a back step can cross a boundary
            t += data.draw(st.one_of(st.floats(0.0, config.mac_jitter), st.floats(0.0, 4.0)))
        elif step == "back":  # a relay's MAC jitter can place it before the last broadcast
            t = max(0.0, t - data.draw(st.floats(0.0, config.mac_jitter)))
        elif step == "jump":  # farther than the anchor span, either way
            sign = data.draw(st.sampled_from([-1, 1]))
            t = max(0.0, t + sign * span * data.draw(st.floats(1.01, 4.0)))
        else:
            walker = boundaries[data.draw(st.integers(0, n - 1))]
            field = 0 if step == "start" else 1
            while walker._legs[-1][field] < t:
                walker.position(walker._legs[-1][1] + 1.0)
            # the boundaries nearest t, behind it too: a step back exactly onto
            # the start of the leg the last query fell on
            nearest = sorted((leg[field] for leg in walker._legs), key=lambda b: abs(b - t))
            near = st.one_of(st.just(0.0), st.floats(-config.mac_jitter, config.mac_jitter))
            t = max(0.0, data.draw(st.sampled_from(nearest[:3])) + data.draw(near))
        where = [w.position(t) for w in walkers()]
        assert [w.position(t) for w in queried] == where
        sender = data.draw(st.integers(0, n - 1))
        xs, ys = where[sender]
        in_range = [j for j, (x, y) in enumerate(where)
                    if j != sender and (xs - x) * (xs - x) + (ys - y) * (ys - y) <= r2]
        mask, ids = radio.receivers(sender, t)
        assert list(ids) == in_range
        assert mask == from_ids(in_range)


def test_pause_time_freezes_the_walker():
    traj = Waypoint(substream(9, "mob", 2), 200.0, 5.0, 5.0, 5.0, t0=0.0)
    samples = [traj.position(i * 0.5) for i in range(2000)]
    stationary = sum(1 for a, b in zip(samples, samples[1:]) if a == b)
    assert stationary > 100  # pauses are a visible fraction of the walk


# --------------------------------------------------------------------------
# Traffic and logging
# --------------------------------------------------------------------------


def test_recurring_traffic_respects_cutoff():
    config = cfg(
        n_nodes=6,
        n_sources=3,
        sim_duration=20.0,
        hello_enabled=True,
        collisions=False,
    )
    m = Simulation(config).run()
    # each source starts within (3, 4] and repeats every 1 s through t=15
    assert m.generated == 3 * 12


def test_event_log_captures_protocol_steps():
    log = SimLog()
    config = cfg(sim_duration=5.0)
    sim = Simulation(config, adjacency=CHAIN, injections=[(1.0, 0, 1)], log=log)
    sim.run()
    assert log.filter(kind="gen")
    kinds = {e[2] for e in log.entries}
    assert "tx" in kinds and "buffer" in kinds
