"""orgsim: a deterministic simulator for small reconfigurable robot fleets.

Three module classes with different locomotion and joint envelopes dock
into rigid organisms, pool battery charge over their docked edges, and
chase wall power that moves around on a schedule. Everything is discrete
time, integer energy, and seeded; identical inputs reproduce identical
event logs bit for bit.
"""

from .config import ScenarioConfig, load_scenario, load_scenario_file, validate_scenario
from .control import (ActionProposal, Actuate, Dock, Drive, Idle, Message,
                      MessageBus, Observation, Recharge, Rejected,
                      ToggleCoprocessor, Tow, Undock, guard_action, select_action)
from .docking import DockPhase, DockPort, Face, advance_dock, attempt_align, undock
from .energy import (EnergyLedger, Tariff, classify_deaths, recharge,
                     share_energy)
from .errors import (CommandError, ConfigError, FrameworkError,
                     InvariantBreach, ProtocolError, ReplayError,
                     SimulationError)
from .geometry import Pose
from .harness import (RunMetrics, Simulation, replay_file, replay_log,
                      run_scenario, sweep)
from .organism import (Organism, OrganismRegistry, organism_move,
                       reach_height)
from .robot_model import (DriveKind, Health, ModuleClass, ModuleSpec,
                          ModuleState, actuate_joint, locomotion_step,
                          make_module_spec, new_module_state)
from .world import Arena, Socket, SocketScheduler, TerrainClass, parse_arena

__version__ = "0.1.0"

__all__ = [
    "ActionProposal", "Actuate", "Arena", "CommandError", "ConfigError",
    "Dock", "DockPhase", "DockPort", "Drive", "DriveKind", "EnergyLedger",
    "Face", "FrameworkError", "Health", "Idle", "InvariantBreach", "Message",
    "MessageBus", "ModuleClass", "ModuleSpec", "ModuleState", "Observation",
    "Organism", "OrganismRegistry", "Pose", "ProtocolError", "Recharge",
    "Rejected", "ReplayError", "RunMetrics", "ScenarioConfig",
    "SimulationError", "Simulation", "Socket", "SocketScheduler", "Tariff",
    "TerrainClass", "ToggleCoprocessor", "Tow", "Undock", "actuate_joint",
    "advance_dock", "attempt_align", "classify_deaths", "guard_action",
    "load_scenario", "load_scenario_file", "locomotion_step",
    "make_module_spec",
    "new_module_state", "organism_move", "parse_arena", "reach_height",
    "recharge", "replay_file", "replay_log", "run_scenario", "select_action",
    "share_energy", "sweep", "undock", "validate_scenario",
]
