"""Whole-run coverage oracle on an ideal channel.

With collisions and hellos off and every view converged from the start,
nothing but the protocol stands between a packet and the nodes its source
can reach.  Every variant must then deliver every packet to every node that
a breadth-first search from the source reaches in the static topology.
"""
from collections import Counter

import pytest

from nobcr.config import ScenarioConfig
from nobcr.engine import Simulation
from nobcr.metrics import SimLog
from nobcr.model import PacketId, members
from nobcr.presets import VARIANTS

from oracles import bfs_reachable

# Large and long enough to expose the coded-redundancy coverage defect: at
# 25 nodes and 10 s the affected variants happen to miss nothing.
IDEAL = ScenarioConfig(
    n_nodes=40,
    area_side=700,
    sim_duration=40,
    n_sources=8,
    pkt_rate=2.0,
    collisions=False,
    hello_enabled=False,
    seed=1,
)

GRATIS_HOPS_PRUNE = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: gratis transmitters are credited as pruning previous hops",
)
# Variants that lose packets on an ideal channel, and why.  C/U under an
# assessment delay is the classic criterion's own weakness (the reordering
# loss that MC/U avoids), not a fault of the simulator.
KNOWN_LOSSES = {
    "nobcr": GRATIS_HOPS_PRUNE,
    "nobcr-table": GRATIS_HOPS_PRUNE,
    "pdp-cu-rad": pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="C/U drops a buffered packet once a larger sequence number is heard",
    ),
}


def _missed(variant):
    """(packet, node) pairs reachable from the packet's source but never delivered."""
    log = SimLog()
    sim = Simulation(VARIANTS[variant].apply(IDEAL), log=log)
    metrics = sim.run()
    adj = [set(members(mask)) for mask in sim.radio.adjacency]
    generated: dict[int, int] = {}
    for _, source, _, _ in log.filter(kind="gen"):
        generated[source] = generated.get(source, 0) + 1
    assert sum(generated.values()) == metrics.generated > 0
    missed = []
    for source, count in generated.items():
        reachable = bfs_reachable(adj, source) - {source}
        for sn in range(1, count + 1):  # sequence numbers run 1, 2, ... per source
            pid = PacketId(source, sn)
            missed += [(pid, v) for v in sorted(reachable - metrics.delivered_nodes(pid))]
    return missed


@pytest.mark.parametrize(
    "variant", [pytest.param(name, marks=KNOWN_LOSSES.get(name, ())) for name in VARIANTS]
)
def test_ideal_channel_reaches_every_reachable_node(variant):
    assert _missed(variant) == []


@pytest.mark.parametrize("variant", ["pdp-mu", "codeb"])
def test_mu_sends_no_packet_natively_twice(variant):
    """Under M/U a node's own send marks every neighbour as a holder, so on an
    ideal channel no node relays one packet natively a second time."""
    log = SimLog()
    Simulation(VARIANTS[variant].apply(IDEAL), log=log).run()
    sends: Counter = Counter()
    for _, node, _, headers in log.filter(kind="tx"):
        sends.update((node, h.pid) for h in headers if not h.gratis)
    assert sends
    assert sum(n - 1 for n in sends.values()) == 0


@pytest.mark.parametrize("seed", range(1, 7))
@pytest.mark.parametrize("variant", ["nobcr", "nobcr-nocr", "nobcr-table", "codeb"])
def test_every_coded_send_decodes_on_arrival(variant, seed):
    """On an ideal channel every encoded reception decodes when it arrives.
    A deferred one ends as a late decode, a decode failure or a packet still
    banked when the run ends, so those three must sum to zero."""
    config = VARIANTS[variant].apply(IDEAL.replace(seed=seed))
    sim = Simulation(config)
    metrics = sim.run()
    deferred = metrics.decode_late + metrics.decode_failures + sum(len(n.bank) for n in sim.nodes)
    if deferred:
        log = SimLog()
        Simulation(config, log=log).run()
        records = "\n".join(
            line for line, e in zip(log.lines(), log.entries) if e[2] == "decode-defer"
        )
        pytest.fail(f"{variant} seed {seed}: {deferred} deferred decodes\n{records}")
