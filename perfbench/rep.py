"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py '<json request>'

Run from the root of a checkout; `run.py` starts it once per repetition so
that peak memory is per run. The request names the scenario file, seed,
tick count, output directory, how many times to repeat set-up, whether to
trace, where a traced run writes its spans, and whether to measure the
run's heap. The result is one JSON line on stdout. Every time in it is wall
time scaled by the reference kernel (`reference.py`), timed around each
section; the unscaled wall times come along as `*_wall_s`.

The heap measurement runs the same seed once more, untimed, under
`tracemalloc` started just before `run_scenario`: its peak counts only what
the run itself allocates (the simulation, the event log, the output text),
not the interpreter and imports that dominate `peak_rss_mib`. Tracing
allocations slows a run about tenfold, so `run.py` asks for it once per
benchmark run.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import orgsim  # noqa: E402
from orgsim.config import load_scenario_file  # noqa: E402
from orgsim.harness import Simulation, run_scenario  # noqa: E402
from orgsim.rng import fnv1a64  # noqa: E402
from reference import NOMINAL_S, reference_s  # noqa: E402


def _setup_times(config: Path, seed: int,
                 repeats: int) -> tuple[float, float, float]:
    """Median seconds of load_scenario_file, of Simulation construction and
    of the two together."""
    load_s, init_s, both_s = [], [], []
    for _ in range(repeats):
        t0 = perf_counter()
        cfg = load_scenario_file(config)
        t1 = perf_counter()
        Simulation(cfg, seed)
        t2 = perf_counter()
        load_s.append(t1 - t0)
        init_s.append(t2 - t1)
        both_s.append(t2 - t0)
    return tuple(statistics.median(s) for s in (load_s, init_s, both_s))


def _check_outputs(out: Path, digest: str) -> list[str]:
    """What is wrong with the files the run wrote, if anything."""
    problems = []
    log, metrics = out / "events.log", out / "metrics.txt"
    if not log.is_file():
        problems.append("events.log missing")
    elif f"{fnv1a64(log.read_bytes()):016x}" != digest:
        problems.append("events.log does not hash to the run digest")
    if not metrics.is_file():
        problems.append("metrics.txt missing")
    elif f"digest {digest}" not in metrics.read_text().splitlines():
        problems.append("metrics.txt lacks the run digest")
    return problems


def _heap_run(cfg, seed: int, ticks: int, out: Path) -> tuple[str, float]:
    """Digest and peak MiB allocated of a second, untimed run of the seed."""
    import tracemalloc     # here, so that it does not count in peak_rss_mib
    gc.collect()
    tracemalloc.start()
    try:
        metrics = run_scenario(cfg, seed, ticks, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return metrics.digest, peak / 2**20


def main(request: dict) -> dict:
    package = Path(orgsim.__file__).resolve()
    if not package.is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"orgsim imported from {package}, not this checkout")
    config = ROOT / request["config"]
    seed, ticks = request["seed"], request["ticks"]
    out = ROOT / request["out"]

    reference_s()                      # first call pays for warming up
    ref_a = reference_s()
    load_s, init_s, setup_s = _setup_times(config, seed, request["setup_repeats"])
    ref_b = reference_s()
    cfg = load_scenario_file(config)
    tracer = None
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    gc.collect()
    try:
        t0 = perf_counter()
        metrics = run_scenario(cfg, seed, ticks, out)
        run_s = perf_counter() - t0
    finally:
        restored = tracer.uninstall() if tracer is not None else True
    ref_c = reference_s()
    setup_scale = 2 * NOMINAL_S / (ref_a + ref_b)
    run_scale = 2 * NOMINAL_S / (ref_b + ref_c)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = _check_outputs(out, metrics.digest)
    if metrics.residual_j != 0.0:
        problems.append(f"ledger residual {metrics.residual_j!r} J")
    if not restored:
        problems.append("tracer left a wrapper in place")
    result = {
        "seed": seed, "ticks": metrics.ticks, "modules": cfg.module_count,
        "digest": metrics.digest, "events": metrics.events,
        "run_s": run_s * run_scale, "setup_s": setup_s * setup_scale,
        "run_wall_s": run_s, "setup_wall_s": setup_s,
        "reference_s": (ref_a + ref_b + ref_c) / 3,
        "peak_rss_mib": peak_rss_mib, "problems": problems,
    }
    if request["heap"]:
        t0 = perf_counter()
        heap_digest, result["run_heap_peak_mib"] = _heap_run(cfg, seed, ticks, out)
        result["heap_wall_s"] = perf_counter() - t0
        if heap_digest != metrics.digest:
            problems.append(f"heap run gave digest {heap_digest}")
    if tracer is not None:
        from tracer import layer_metrics
        layers = {name: (value * run_scale if unit in ("s", "us") else value,
                         unit)
                  for name, (value, unit) in layer_metrics(tracer, run_s).items()}
        layers["config.load_scenario_file_s"] = (load_s * setup_scale, "s")
        layers["harness.simulation_init_s"] = (init_s * setup_scale, "s")
        result["layers"] = layers
        tracer.write_spans(ROOT / request["spans"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
