"""Run one workload of the supcalc benchmark and print its metrics.

    python3 perfbench/run.py --workload laws --seed 1 --seconds 60 --trace 0

Run from the repository root; supcalc is imported from ``src/``.  One
client in one single-threaded process drives a closed loop: the next item
starts when the previous one has finished.

``--trace 0`` measures for ``--seconds`` (and at least 100 items, so that
the p90 has at least ten samples beyond it) and reports the end-to-end
metrics.  Times are scaled to a reference host speed, measured by a fixed
calibration loop run between items (see ``calibrate``); the unscaled wall
times are printed beside them.  ``--trace 1`` runs each item of a fixed
list once untraced and once with the layer tracer installed, reports the
per-layer metrics and writes the spans to
``perfbench/traces/<workload>.json``; its length does not depend on
``--seconds``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
WARMUP_ITEMS = 3
WARMUP_SEED = 0  # the same warm-up items for every seed keep setup_s comparable
MIN_ITEMS = 100
MAX_TIMED_S = 150  # stop short of 100 items rather than overrun the run limit

# Items in the traced run's fixed list: a few seconds untraced each.
TRACE_ITEMS = {"laws": 32, "confluence": 128, "forks": 14, "semantics": 140}

# Host speed drifts: on a shared 2-vCPU host this process ran up to half
# slower for tens of seconds at a time, in CPU time (time.process_time) just
# as in wall time.  So each item is bracketed by runs of a fixed loop (see
# ``calibrate``) and its time is scaled by CAL_REF_S / (the loop's mean time
# before and after it).  CAL_REF_S is about the loop's time inside a run on
# that host when it was quiet, so that scaled times read close to wall times.
CAL_REF_S = 0.4e-3
CAL_REPEATS = 3  # loop runs per calibration between items
SETUP_CAL_REPEATS = 25  # and around a set-up, which is timed only thrice

UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fresh_import():
    """Import supcalc from ``src/``, dropping any earlier import first so
    that every set-up pays the import."""
    if not (SRC / "supcalc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no supcalc sources under {SRC}")
    for name in [n for n in sys.modules
                 if n == "supcalc" or n.startswith("supcalc.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    sc = importlib.import_module("supcalc")
    if Path(sc.__file__).resolve().parent != SRC / "supcalc":
        sys.exit(f"perfbench: imported supcalc from {sc.__file__}, not {SRC}")
    return sc


def _cal_loop() -> Fraction:
    """Fixed interpreter work of the same kind as the workloads': Fraction
    arithmetic, tuples and a small dict.  Nothing in it calls supcalc."""
    acc, seen = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(i, i + 2)
        seen[i % 13] = (acc, i)
    return acc


def calibrate(repeats: int = CAL_REPEATS) -> float:
    """The calibration loop's time now, in seconds: the median of a few
    runs, so that one interrupted run does not count.  The garbage
    collector is off meanwhile, so that the size of the program's heap
    does not change the loop's time."""
    times = []
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            _cal_loop()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """``seconds`` measured between two calibrations, at reference speed."""
    return seconds * 2 * CAL_REF_S / (cal_before + cal_after)


class Runner:
    """Runs items and counts the ones whose verdict is wrong or that raise."""

    def __init__(self, workload):
        self.workload = workload
        self.failed = 0
        self.reported = False  # only the first failure is printed

    def __call__(self, item) -> float:
        start = time.perf_counter()
        try:
            ok = self.workload.run(item)
        except Exception:  # a raising item is a failed item; keep going
            ok = False
            if not self.reported:
                traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        if not ok:
            self.failed += 1
            if not self.reported:
                print(f"perfbench: wrong verdict on {str(item)[:300]}",
                      file=sys.stderr)
                self.reported = True
        return elapsed


def set_up(name: str, seed: int):
    """Import, build the inputs and run the warm-up items; return the
    workload and its runner."""
    sc = fresh_import()
    workload = workloads.WORKLOADS[name](sc, seed)
    runner = Runner(workload)
    for item in workload.make_plan(WARMUP_SEED, WARMUP_ITEMS):
        runner(item)
    return workload, runner


def timed_run(workload, runner, seconds: float) -> tuple[dict, int]:
    plan, wall, cal = workload.plan, [], [calibrate()]
    i = 0
    start = time.perf_counter()
    while True:
        wall.append(runner(plan[i % len(plan)]))
        cal.append(calibrate())
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_TIMED_S or (elapsed >= seconds
                                       and len(wall) >= MIN_ITEMS):
            break
    latencies = [scaled(w, cal[k], cal[k + 1]) for k, w in enumerate(wall)]
    p90 = statistics.quantiles(latencies, n=10)[8]
    n = len(latencies)
    attempted = n + WARMUP_ITEMS
    print(f"samples: {n} items, {sum(x > p90 for x in latencies)} beyond p90")
    print(f"fail_ratio = {runner.failed / attempted} "
          f"({runner.failed} of {attempted} items, warm-up included)")
    print(f"calibration loop: median {statistics.median(cal) * 1000:.4f} ms, "
          f"reference {CAL_REF_S * 1000:.4f} ms")
    print(f"unscaled: items_per_s = {n / sum(wall):.6g} 1/s, "
          f"item_ms_p50 = {statistics.median(wall) * 1000:.6g} ms, "
          f"item_ms_p90 = {statistics.quantiles(wall, n=10)[8] * 1000:.6g} ms")
    return {
        "items_per_s": n / sum(latencies),
        "item_ms_p50": statistics.median(latencies) * 1000,
        "item_ms_p90": p90 * 1000,
        "ok_ratio": 1 - runner.failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, attempted


def traced_run(name: str, seed: int, workload, runner) -> tuple[dict, int]:
    plan = workload.plan
    items = [plan[k % len(plan)] for k in range(TRACE_ITEMS[name])]
    # each item runs untraced and then traced, back to back, so that a
    # change in machine speed during the run hits both sides alike
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    for k, item in enumerate(items):
        untraced += runner(item)
        tracer.item = k
        tracer.install(workload.sc)
        try:
            traced += runner(item)
        finally:
            tracer.uninstall()
    calls = tracer.layer_calls()
    idle = [layer for layer in tracing.PREDICTED_LAYERS[name]
            if not calls.get(layer)]
    if idle:
        sys.exit(f"perfbench: predicted layers recorded no calls on {name}: "
                 f"{', '.join(idle)}")
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"{name}.json",
                {"workload": name, "seed": seed, "items": len(items)})
    print(f"layer calls: {json.dumps(calls, sort_keys=True)}")
    return tracer.metrics(traced / untraced), WARMUP_ITEMS + 2 * len(items)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        cal_before = calibrate(SETUP_CAL_REPEATS)
        start = time.perf_counter()
        workload, runner = set_up(args.workload, args.seed)
        elapsed = time.perf_counter() - start
        setup_times.append(scaled(elapsed, cal_before,
                                  calibrate(SETUP_CAL_REPEATS)))

    if args.trace:
        values, attempted = traced_run(args.workload, args.seed, workload,
                                       runner)
        units = tracing.METRICS
    else:
        values, attempted = timed_run(workload, runner, args.seconds)
        values["setup_s"] = statistics.median(setup_times)
        units = UNITS
    for key in units:
        print(f"{args.workload} {key} = {values[key]:.6g} {units[key]}")
    failed = runner.failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
