"""Pin the digest and event count of every benchmark seed from the current code.

    python3 perfbench/pin.py

Run from the root of a checkout. For each workload in `workloads.json` it
simulates the seeds of benchmark runs `--seed 0` to `--seed RUNS-1` for the
workload's tick count, and writes `[digest, events]` per seed back into the
table. Only a change that alters behaviour on purpose re-pins, and says why.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
TABLE = BENCH_DIR / "workloads.json"
RUNS = 16
sys.path.insert(0, str(Path.cwd() / "src"))

from orgsim.config import load_scenario_file  # noqa: E402
from orgsim.harness import Simulation  # noqa: E402

from run import sim_seeds  # noqa: E402


def pin(spec: dict, runs: int) -> dict[str, list]:
    cfg = load_scenario_file(spec["config"])
    if cfg.seed != spec["config_seed"] or cfg.module_count != spec["modules"]:
        raise SystemExit(f"{spec['config']} no longer has seed "
                         f"{spec['config_seed']} and {spec['modules']} modules")
    pinned = {}
    for seed in (s for n in range(runs) for s in sim_seeds(spec, n)):
        metrics = Simulation(cfg, seed).run(spec["ticks"])
        if metrics.residual_j != 0.0:
            raise SystemExit(f"seed {seed}: ledger residual {metrics.residual_j!r}")
        pinned[str(seed)] = [metrics.digest, metrics.events]
    return pinned


def main() -> None:
    table = json.loads(TABLE.read_text())
    for name, spec in table["workloads"].items():
        spec["pinned"] = pin(spec, RUNS)
        print(f"{name}: pinned {len(spec['pinned'])} seeds", file=sys.stderr)
    text = json.dumps(table, indent=2)
    # one line per pinned seed: "11": ["f5bc4be3517cc0e3", 42]
    text = re.sub(r'\[\s+("[0-9a-f]+"),\s+(\d+)\s+\]', r"[\1, \2]", text)
    TABLE.write_text(text + "\n")


if __name__ == "__main__":
    main()
