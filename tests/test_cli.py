"""The command line across interpreters: what one process runs or logs,
another reproduces, whatever string-hash seed either one was given."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def orgsim(hash_seed: int, *argv) -> list[str]:
    """The stdout lines of `python -m orgsim.cli *argv` in a new interpreter
    whose string hashes are salted with `hash_seed`."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "PYTHONHASHSEED": str(hash_seed), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "orgsim.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


# a sweep runs its seeds back to back in one process, each after the first
# on the map parsed for the first, which is the scenario's config seed
@pytest.mark.parametrize("scenario, ticks, first, last", [
    ("desk_challenge", 200, 11, 12), ("hazard_field", 50, 0, 3),
    ("full_scale", 20, 42, 43), ("hazard_field", 2000, 0, 0),
    ("disposal_open", 432, 3, 3),
], ids=str)
def test_each_sweep_seed_reruns_and_replays_in_another_process(
        scenario, ticks, first, last, tmp_path):
    cfg = ROOT / "configs" / f"{scenario}.cfg"
    swept = orgsim(1, "sweep", "--config", cfg, "--seeds", f"{first}..{last}",
                   "--ticks", ticks, "--out", tmp_path)
    for seed, line in zip(range(first, last + 1), swept, strict=True):
        assert line.startswith(f"seed {seed}: ")
        digest = line.split()[-1]
        run = orgsim(2, "run", "--config", cfg, "--ticks", ticks,
                     *(["--seed", seed] if seed != first else []))
        assert f"digest {digest}" in run
        log = tmp_path / f"seed_{seed}" / "events.log"
        assert orgsim(2, "replay", "--log", log) == [
            f"replay ok: {ticks} ticks, digest {digest}"]
