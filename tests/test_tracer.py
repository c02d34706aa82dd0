"""The seams perfbench/tracer.py wraps: the names it patches on
`orgsim.harness` and the calls it counts on a traced run.

The tracer works from outside the package, by name, so a call that moves
out of the harness would leave its layer reading zero without failing.
"""

import importlib
import importlib.util
from pathlib import Path

from orgsim import harness
from orgsim.config import load_scenario_file

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def test_the_harness_binds_every_name_the_tracer_wraps():
    # each wrapped name is the function its layer is named after
    for attr, layer in tracer._MODULE_FUNCTIONS.items():
        module_name, function_name = layer.split(".")
        module = importlib.import_module(f"orgsim.{module_name}")
        assert attr == function_name, layer
        assert vars(harness).get(attr) is getattr(module, function_name), attr
    for attr in ("build_controllers", "Simulation"):
        assert callable(vars(harness).get(attr)), attr


def test_a_traced_run_counts_the_sensing_calls():
    cfg = load_scenario_file(ROOT / "configs" / "desk_challenge.cfg")
    plain = harness.Simulation(cfg, 11).run(50)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = harness.Simulation(cfg, 11).run(50)
    finally:
        restored = tr.uninstall()
    assert restored
    assert [traced.digest, traced.events] == [plain.digest, plain.events]
    for name in ("world.sense_sockets", "world.line_of_sight",
                 "harness.observe", "control.step_controllers"):
        assert tr.calls[name] > 0, name
    # ten modules, each with controllers, all alive for 50 ticks
    assert tr.calls["harness.observe"] == 10 * 50
