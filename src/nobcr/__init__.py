"""Energy-efficient network-wide broadcast simulator.

Bitmap duplicate termination, estimated-receiver XOR coding, gratis
redundancy packets and multi-previous-hop pruning, with the classic
counter/mark based flooding baselines for comparison.
"""

from .config import Coding, ConfigError, Pruning, ScenarioConfig, Termination
from .engine import Simulation
from .metrics import Metrics, SimLog
from .model import PacketId
from .presets import PRESETS, VARIANTS
from .scenario import ScriptError, load_script, run_scenario

__version__ = "0.1.0"

__all__ = [
    "Coding",
    "ConfigError",
    "Metrics",
    "PRESETS",
    "PacketId",
    "Pruning",
    "ScenarioConfig",
    "ScriptError",
    "SimLog",
    "Simulation",
    "Termination",
    "VARIANTS",
    "load_script",
    "run_scenario",
    "__version__",
]
