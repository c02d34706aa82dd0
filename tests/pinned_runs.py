"""The whole runs whose digest and event count the tests pin, in one table.

Three are benchmark workloads at their config seed, read from
perfbench/workloads.json, which this module only reads. The other two are
pinned here. A change that alters behaviour on purpose re-pins with
perfbench/pin.py and then edits the two entries below, nothing else.
"""

import json
from pathlib import Path
from typing import NamedTuple

from orgsim.config import ScenarioConfig, load_scenario_file

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = json.loads((ROOT / "perfbench" / "workloads.json")
                       .read_text(encoding="utf-8"))["workloads"]


class PinnedRun(NamedTuple):
    scenario: str          # configs/<scenario>.cfg
    seed: int
    ticks: int
    pinned: list           # [digest, events]

    def load(self) -> ScenarioConfig:
        """The run's scenario, loaded afresh."""
        return load_scenario_file(ROOT / "configs" / f"{self.scenario}.cfg")


def _workload(name: str) -> PinnedRun:
    spec = WORKLOADS[name]
    seed = spec["config_seed"]
    return PinnedRun(Path(spec["config"]).stem, seed, spec["ticks"],
                     spec["pinned"][str(seed)])


COLONY = _workload("colony")
CROWD = _workload("crowd")                    # 65 merges
IDLE_FIELD = _workload("idle_field")
# survival_zero with hazard_rate 0.0003 and 12,000 J batteries (see
# test_harness._hazard_blocks_cfg): nearly four blocks of hazard draws
HAZARD_BLOCKS = PinnedRun("survival_zero", 7, 2200, ["7219456189120713", 31])
DISPOSAL_OPEN = PinnedRun("disposal_open", 3, 432,   # 2 merges, 2 splits
                          ["95413e9143b7c30e", 21])
