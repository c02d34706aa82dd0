"""Quick self-test of the benchmark: every metric printed, failures counted.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes well under a minute. It pins each
workload at a handful of ticks, runs every workload plain and traced, and
checks that each metric `BENCHMARK.json` names is printed as a table line
with its unit and n and is in the result line with its unit. Then it
corrupts one pinned digest and checks that `fail_ratio` becomes nonzero,
and checks on made-up repetitions that `judge` counts each bad one once.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from pin import pin
from run import BENCH_DIR, OUT_DIR, judge

SHORT_TICKS = 3


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def bench(table: Path, trace: int, workload: str = "all") -> tuple[int, list[str], dict]:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "0", "--trace", str(trace),
            "--table", str(table)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    check(bool(lines), f"no output from {' '.join(argv)}: {proc.stderr}")
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def check_metrics(lines: list[str], result: dict | None, workloads,
                  wanted) -> None:
    """Each wanted metric printed once per workload with its unit and n, and
    in the result line unless `result` is None."""
    for name in workloads:
        for metric in wanted:
            unit = metric["unit"]
            printed = [line.split() for line in lines
                       if line.split()[:2] == [name, metric["name"]]]
            check(len(printed) == 1, f"{name} {metric['name']} not printed once")
            check(unit in printed[0] and printed[0][-1].startswith("n="),
                  f"{name} {metric['name']} printed without unit {unit} and n")
            key = f"{name}/{metric['name']}"
            check(result is None or result["metrics"].get(key, {}).get("unit") == unit,
                  f"{key} missing from the result line or not in {unit}")


def check_judge() -> None:
    """A pinned seed is judged by its pin alone; a crashed repetition fails
    by itself and takes no part in an unpinned seed's agreement check."""
    spec = {"modules": 10, "ticks": 3, "pinned": {"1": ["aa", 5]}}

    def ran(seed, digest):
        return {"seed": seed, "digest": digest, "events": 5, "modules": 10,
                "ticks": 3, "problems": []}

    crashed = [{"seed": s, "problems": ["exit 1"]} for s in (1, 2)]
    reps = [ran(1, "aa"), ran(1, "bb"), ran(2, "cc"), ran(2, "cc"),
            ran(3, "dd"), ran(3, "ee")] + crashed
    judge(spec, reps)
    failed = [bool(r["problems"]) for r in reps]
    check(failed == [False, True, False, False, True, True, True, True],
          f"judge failed {failed}")
    check(all(len(r["problems"]) == 1 for r in reps if r["problems"]),
          "judge counted a bad repetition twice")


def main() -> None:
    check_judge()
    declared = json.loads(Path("BENCHMARK.json").read_text())
    table = json.loads((BENCH_DIR / "workloads.json").read_text())
    workloads = table["workloads"]
    for spec in workloads.values():
        spec["ticks"] = SHORT_TICKS
        spec["pinned"] = pin(spec, runs=1)
    scratch = OUT_DIR / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    short = scratch / "table.json"
    short.write_text(json.dumps(table))

    for trace, wanted in ((0, declared["end_to_end"]), (1, declared["per_layer"])):
        code, lines, result = bench(short, trace)
        check(code == 0 and result["correct"] and result["failed"] == 0,
              f"--trace {trace} on the current code failed: {lines}")
        check_metrics(lines, result, workloads, wanted)
        if trace == 0:
            # fail_ratio is `failed` over `attempted` of the result line
            check_metrics(lines, None, workloads,
                          [{"name": "fail_ratio", "unit": "ratio"}])

    colony = table["workloads"]["colony"]
    seed = str(colony["config_seed"])      # the first seed of `--seed 0`
    digest, events = colony["pinned"][seed]
    colony["pinned"][seed] = [
        digest[:-1] + ("0" if digest[-1] != "0" else "1"), events]
    short.write_text(json.dumps(table))
    code, lines, result = bench(short, 0, "colony")
    fail_ratio = [line.split() for line in lines
                  if line.split()[:2] == ["colony", "fail_ratio"]]
    check(code != 0 and not result["correct"] and result["failed"] > 0
          and float(fail_ratio[0][3]) > 0,
          "a corrupted pinned digest did not make fail_ratio nonzero")
    print("selftest ok")


if __name__ == "__main__":
    main()
