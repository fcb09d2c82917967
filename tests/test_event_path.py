"""The per-event path pays only for protocol work.

Two rules keep interpreter overhead off every reception: a run without an
event log builds no record, and no handler reads an enum member through its
class (``EnumType`` defines ``__getattr__``, which puts such a read on
CPython's slow attribute path).

Every ``self.log.add`` in a handler sits behind ``self.log is not None``, so
an unguarded one raises ``AttributeError`` in a run without a log; the
enum-read test below runs every variant through every layer without one, so
it checks the first rule too.
"""
import pytest

from nobcr import forwarding, node, termination
from nobcr.config import ScenarioConfig
from nobcr.engine import Simulation
from nobcr.presets import VARIANTS

# collisions, hellos and mobility on, so every layer of a run is exercised
SHORT = ScenarioConfig(
    n_nodes=25,
    area_side=600,
    sim_duration=15,
    n_sources=4,
    pkt_rate=2.0,
    speed_min=1.0,
    speed_max=5.0,
    seed=2,
)


def config(variant: str) -> ScenarioConfig:
    return VARIANTS[variant].apply(SHORT)


class NoMembers:
    """Stands in for an enum class: every attribute read but a dunder raises."""

    def __init__(self, name: str):
        self.name = name

    def __getattribute__(self, attr):
        if attr.startswith("__"):
            return object.__getattribute__(self, attr)
        raise AssertionError(f"{object.__getattribute__(self, 'name')}.{attr} read during a run")


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_a_run_reads_no_enum_member_through_its_class(monkeypatch, variant):
    want = Simulation(config(variant)).run().summary()
    sim = Simulation(config(variant))
    for module in (termination, node, forwarding):
        for name in ("Termination", "Decision", "Coding", "Pruning"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, NoMembers(name))
    assert sim.run().summary() == want
