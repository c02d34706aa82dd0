"""orgsim benchmark: host time of whole runs on three pinned workloads.

    python3 perfbench/run.py --workload colony --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Run from the root of a checkout; the package is imported from `src/`. A run
of `--seed n` simulates the workload's scenario with seeds `c+4n` to
`c+4n+3`, where `c` is the scenario file's own seed, so `--seed 0` starts
with it. Repetitions run one after another in round-robin order, each in a
fresh interpreter, until `--seconds` are spent (at least one round). Every
repetition must reproduce the digest and event count pinned for its seed in
`workloads.json`; the repetitions of an unpinned seed must agree on them.
The ledger must close exactly and `events.log` and `metrics.txt` must
exist.

With `--trace 0` the end-to-end metrics are reported: median `run_s`, the
same as `us_per_module_tick`, median `setup_s`, median `peak_rss_mib`,
`run_heap_peak_mib` of the first repetition, and `fail_ratio` (the `failed`
over `attempted` of the result line). Times are wall times scaled by the
reference kernel of `reference.py`; the unscaled medians are printed too,
in parentheses. With
`--trace 1` each round runs every seed once plain and once traced
(`tracer.py`), and the per-layer metrics of the traced repetitions are
reported. Each metric is printed as a table line with its unit and sample
count n; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
REP = BENCH_DIR / "rep.py"
OUT_DIR = Path(".bench_out")
SEEDS_PER_RUN = 4
SETUP_REPEATS = 9
REP_TIMEOUT_S = 120


def sim_seeds(spec: dict, seed: int) -> list[int]:
    """The simulation seeds of benchmark run `--seed seed` of a workload."""
    first = spec["config_seed"] + seed * SEEDS_PER_RUN
    return [first + k for k in range(SEEDS_PER_RUN)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_rep(request: dict) -> dict:
    """One repetition in a fresh interpreter; a dict with `problems`."""
    out = Path(request["out"])
    shutil.rmtree(out, ignore_errors=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(REP), json.dumps(request)],
            capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"seed": request["seed"],
                "problems": [f"no result within {REP_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        return {"seed": request["seed"],
                "problems": [f"exit {proc.returncode}: {tail}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(name: str, spec: dict, seed: int, seconds: float,
            trace: bool) -> tuple[list[dict], list[dict]]:
    """Repeat the workload for `seconds`; (plain reps, traced reps)."""
    out = OUT_DIR / name
    request = {"config": spec["config"], "ticks": spec["ticks"],
               "out": str(out / "run"), "setup_repeats": SETUP_REPEATS}
    plain, traced = [], []
    started = perf_counter()
    rounds: list[float] = []
    while True:
        round_start = perf_counter()
        for s in sim_seeds(spec, seed):
            modes = [False, True] if trace else [False]
            if len(rounds) % 2:
                modes.reverse()
            for traced_mode in modes:
                rep = run_rep({**request, "seed": s, "trace": traced_mode,
                               "heap": not trace and not plain,
                               "spans": str(out / f"spans_seed{s}.json")})
                (traced if traced_mode else plain).append(rep)
        # the heap run happens once; later rounds do not pay for it
        heap_s = sum(r.get("heap_wall_s", 0.0) for r in plain) if not rounds else 0.0
        rounds.append(perf_counter() - round_start - heap_s)
        elapsed = perf_counter() - started
        if elapsed + statistics.mean(rounds) > seconds:
            break
    shutil.rmtree(out / "run", ignore_errors=True)
    return plain, traced


def judge(spec: dict, reps: list[dict]) -> None:
    """Append to each rep's `problems` what makes it a failed run."""
    by_seed: dict[int, list[dict]] = {}
    for rep in reps:
        by_seed.setdefault(rep["seed"], []).append(rep)
        if "digest" not in rep:
            continue
        if rep["modules"] != spec["modules"] or rep["ticks"] != spec["ticks"]:
            rep["problems"].append(
                f"ran {rep['modules']} modules for {rep['ticks']} ticks")
        pinned = spec["pinned"].get(str(rep["seed"]))
        if pinned is not None and [rep["digest"], rep["events"]] != pinned:
            rep["problems"].append(
                f"digest {rep['digest']} events {rep['events']}, pinned "
                f"{pinned[0]} events {pinned[1]}")
    for seed, group in by_seed.items():
        if str(seed) in spec["pinned"]:
            continue
        ran = [r for r in group if "digest" in r]
        outcomes = {(r["digest"], r["events"]) for r in ran}
        if len(outcomes) > 1:
            for rep in ran:
                rep["problems"].append(
                    f"seed {seed} repetitions disagree: {sorted(map(str, outcomes))}")


def _line(workload: str, metric: str, values: list[float], unit: str) -> str:
    q1, med, q3 = quartiles(values)
    return (f"{workload:<10} {metric:<44} median {med:<12.6g} "
            f"q1 {q1:<12.6g} q3 {q3:<12.6g} {unit:<6} n={len(values)}")


def end_to_end(name: str, spec: dict, plain: list[dict]) -> dict:
    ok = [r for r in plain if "run_s" in r]
    module_ticks = spec["modules"] * spec["ticks"]
    series = {
        "run_s": ([r["run_s"] for r in ok], "s"),
        "us_per_module_tick": ([r["run_s"] * 1e6 / module_ticks for r in ok],
                               "us"),
        "setup_s": ([r["setup_s"] for r in ok], "s"),
        "peak_rss_mib": ([r["peak_rss_mib"] for r in ok], "MiB"),
        "run_heap_peak_mib": ([r["run_heap_peak_mib"] for r in ok
                               if "run_heap_peak_mib" in r], "MiB"),
    }
    metrics = {}
    for metric, (values, unit) in series.items():
        if values:
            print(_line(name, metric, values, unit))
            metrics[metric] = {"value": statistics.median(values), "unit": unit}
    for info in ("run_wall_s", "setup_wall_s", "reference_s"):
        if ok:
            print(_line(name, f"({info})", [r[info] for r in ok], "s"))
    return metrics


def per_layer(name: str, plain: list[dict], traced: list[dict]) -> dict:
    ok = [r for r in traced if "layers" in r]
    if not ok:
        return {}
    metrics = {}
    for metric, (_, unit) in ok[0]["layers"].items():
        values = [r["layers"][metric][0] for r in ok]
        print(_line(name, metric, values, unit))
        metrics[metric] = {"value": statistics.median(values), "unit": unit}
    plain_s = [r["run_s"] for r in plain if "run_s" in r]
    if plain_s:
        traced_s = [r["run_s"] for r in ok]
        ratio = statistics.median(traced_s) / statistics.median(plain_s)
        print(f"{name:<10} {'trace.overhead_ratio':<44} median {ratio:<12.6g} "
              f"(traced {statistics.median(traced_s):.4f} s over plain "
              f"{statistics.median(plain_s):.4f} s) ratio  n={len(ok)}")
        metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics


def run_workload(name: str, spec: dict, seed: int, seconds: float,
                 trace: bool) -> tuple[int, int, dict]:
    plain, traced = measure(name, spec, seed, seconds, trace)
    reps = plain + traced
    judge(spec, reps)
    for s in sim_seeds(spec, seed):
        group = [r for r in plain if r["seed"] == s and "run_s" in r]
        if group:
            print(f"{name:<10} seed {s:<6} digest {group[0]['digest']} "
                  f"events {group[0]['events']:<6} "
                  f"{'pinned' if str(s) in spec['pinned'] else 'unpinned'} "
                  f"run_s median {statistics.median(r['run_s'] for r in group):.4f} "
                  f"n={len(group)}")
    failed = 0
    for rep in reps:
        if rep["problems"]:
            failed += 1
            print(f"{name:<10} FAILED seed {rep['seed']}: "
                  f"{'; '.join(rep['problems'])}")
    metrics = (per_layer(name, plain, traced) if trace
               else end_to_end(name, spec, plain))
    if not trace:
        print(f"{name:<10} {'fail_ratio':<44} value  {failed / len(reps):<12.6g} "
              f"({failed} of {len(reps)} failed)    ratio  n={len(reps)}")
    return len(reps), failed, metrics


def missing_inputs(table: dict) -> list[str]:
    needed = [Path("src/orgsim/__init__.py")]
    needed += [Path(spec["config"]) for spec in table["workloads"].values()]
    return [str(p) for p in needed if not p.is_file()]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="workload name from workloads.json, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--table", type=Path, default=BENCH_DIR / "workloads.json",
                   help="workload table with the pinned digests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must not be negative")

    table = json.loads(args.table.read_text())
    workloads = table["workloads"]
    names = list(workloads) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads]
    if unknown:
        p.error(f"unknown workload {unknown[0]!r}; known: {', '.join(workloads)}")
    missing = missing_inputs(table)
    if missing:
        print(f"error: run from the root of an orgsim checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2

    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(name, workloads[name], args.seed, args.seconds,
                               bool(args.trace))
        attempted += a
        failed += f
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{name}/{k}": v for k, v in m.items()})
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
