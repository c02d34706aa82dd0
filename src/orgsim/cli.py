"""Command line front end: run, validate, replay, sweep.

Exit codes: 0 success, 1 usage or runtime error, 2 validation findings,
3 invariant breach during a run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_scenario_file, validate_scenario
from .errors import InvariantBreach, ReplayError, SimulationError
from .harness import replay_file, run_scenario, sweep


def _parse_seed_range(text: str) -> list[int]:
    lo, dots, hi = text.partition("..")
    try:
        seeds = [int(part) for part in ((lo, hi) if dots else text.split(","))]
    except ValueError:
        raise ValueError(f"--seeds wants A..B or a comma list of integers, "
                         f"got {text!r}") from None
    if not dots:
        return seeds
    a, b = seeds
    if b < a:
        raise ValueError(f"empty seed range {text!r}")
    return list(range(a, b + 1))


def _load_valid(path: Path, out=None):
    """Load and validate a scenario file. Print each finding to `out`
    (sys.stderr as it is at call time when None) and return None if there
    are any, else the config."""
    cfg = load_scenario_file(path)
    findings = validate_scenario(cfg)
    for f in findings:
        print(f"finding: {f}", file=sys.stderr if out is None else out)
    return None if findings else cfg


def _cmd_run(args) -> int:
    cfg = _load_valid(args.config)
    if cfg is None:
        return 2
    metrics = run_scenario(cfg, seed=args.seed, ticks=args.ticks,
                           out_dir=args.out)
    sys.stdout.write(metrics.to_text())
    return 0


def _cmd_validate(args) -> int:
    cfg = _load_valid(args.config, sys.stdout)
    if cfg is None:
        return 2
    print(f"ok: {cfg.name} ({cfg.module_count} modules, "
          f"{cfg.total_ticks} ticks)")
    return 0


def _cmd_replay(args) -> int:
    metrics = replay_file(args.log)
    print(f"replay ok: {metrics.ticks} ticks, digest {metrics.digest}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_valid(args.config)
    if cfg is None:
        return 2
    seeds = _parse_seed_range(args.seeds)
    results = sweep(cfg, seeds, ticks=args.ticks, out_dir=args.out)
    for m in results:
        print(f"seed {m.seed}: survivors {m.survivors} "
              f"coverage {m.coverage:.4f} residual_j {m.residual_j!r} "
              f"digest {m.digest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="orgsim",
        description="Deterministic desk-scale simulator for reconfigurable "
                    "robot module collectives.")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario seed")
    run.add_argument("--config", required=True, type=Path)
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")
    run.add_argument("--ticks", type=int, default=None,
                     help="override the tick count")
    run.add_argument("--out", type=Path, default=None,
                     help="directory for events.log and metrics.txt")
    run.set_defaults(fn=_cmd_run)

    val = sub.add_parser("validate", help="check a scenario without running")
    val.add_argument("--config", required=True, type=Path)
    val.set_defaults(fn=_cmd_validate)

    rep = sub.add_parser("replay", help="re-run a log and verify every line")
    rep.add_argument("--log", required=True, type=Path)
    rep.set_defaults(fn=_cmd_replay)

    sw = sub.add_parser("sweep", help="run several seeds serially")
    sw.add_argument("--config", required=True, type=Path)
    sw.add_argument("--seeds", required=True,
                    help="range A..B inclusive, or comma list")
    sw.add_argument("--ticks", type=int, default=None)
    sw.add_argument("--out", type=Path, default=None)
    sw.set_defaults(fn=_cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvariantBreach as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 3
    except (ReplayError, SimulationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
