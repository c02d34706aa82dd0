"""Every seed pinned in perfbench/workloads.json still gives its pinned run.

The benchmark counts a repetition whose digest or event count differs from
its pin as failed, so a change meant to leave behaviour alone must reproduce
all of them. This reads the table and changes nothing in it.
"""

import pytest

from orgsim.config import load_scenario_file
from orgsim.harness import Simulation
from tests.pinned_runs import ROOT, WORKLOADS

pytestmark = pytest.mark.slow

PINS = [pytest.param(name, int(seed), pinned, id=f"{name}-{seed}")
        for name, spec in WORKLOADS.items()
        for seed, pinned in spec["pinned"].items()]


@pytest.fixture(scope="module")
def configs():
    return {name: load_scenario_file(ROOT / spec["config"])
            for name, spec in WORKLOADS.items()}


@pytest.mark.parametrize("workload, seed, pinned", PINS)
def test_pinned_seed_reproduces(configs, workload, seed, pinned):
    metrics = Simulation(configs[workload], seed).run(WORKLOADS[workload]["ticks"])
    assert [metrics.digest, metrics.events] == pinned
    assert metrics.residual_j == 0.0
