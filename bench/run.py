"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {table1,scan30,edit60} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ./src, in this
process, on one thread (BLAS/OpenMP pools are pinned to 1 before numpy
loads).  With --trace 0 the run repeats untraced passes until S seconds
have passed and at least two passes ran, and reports BENCHMARK.json's
end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics, and writes the last traced
pass's spans to bench/out/.  Untraced passes and set-up are timed in
reference-host seconds (hostclock.py).  Every pass's output is checked
against the acceptance gates and the stored references in bench/refs/.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import hostclock  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 7
MIN_PASSES = 2


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["table1", "scan30", "edit60"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="internal: time one set-up in this fresh process and print it")
    return ap.parse_args(argv)


def probe_setup(args: argparse.Namespace) -> None:
    """Imports, input construction and one warm call, as a fresh CLI run pays
    them, in reference-host seconds.  Nothing imported before the clock
    starts loads numpy or the package."""
    hostclock.kernel()   # the first run of the kernel in a process is slower
    with hostclock.Ticker() as ticker:
        importlib.import_module("pinstacks.cli")
        workloads.WORKLOADS[args.workload](args.seed).warm()
    print(ticker.reference_seconds())


def setup_seconds(args: argparse.Namespace) -> float:
    """Median set-up time over fresh processes, in reference-host seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def host_facts() -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def run_passes(workload, refs: dict, seconds: float, tracer=None) -> list[dict]:
    """Timed passes until they have taken the budget and number at least
    MIN_PASSES; with a tracer, untraced and traced passes alternate.

    An untraced pass runs under a hostclock.Ticker: its "seconds" are
    reference-host seconds and "wall" its wall time without the kernel runs.
    A traced pass runs without one (the kernel would land inside spans) and
    has only a "wall" time."""
    kinds = [False] if tracer is None else [False, True]
    passes: list[dict] = []
    begin = perf_counter()
    while True:
        traced = kinds[len(passes) % len(kinds)]
        if traced:
            tracer.reset()
            tracer.install()
            t0 = perf_counter()
            try:
                raw = workload.run_pass()
            finally:
                dt = perf_counter() - t0
                tracer.uninstall()
            done = {"traced": True, "wall": dt}
        else:
            with hostclock.Ticker() as ticker:
                raw = workload.run_pass()
            done = {"traced": False, "seconds": ticker.reference_seconds(),
                    "wall": ticker.work_seconds(), "slowdown": ticker.slowdown()}
        done["outcome"] = workload.check(raw, refs)
        if traced:
            done["layers"] = layer_metrics(tracer.spans)
        passes.append(done)
        if len(passes) >= MIN_PASSES and perf_counter() - begin >= seconds:
            return passes


COUNTS = ("calls", "resonance_calls", "greens_per_scatter", "kept_ratio",
          "points", "failed")


def layer_summary(passes: list[dict], problems: list[str]) -> dict:
    """Median of each per-layer time over traced passes; counts must repeat."""
    traced = [p["layers"] for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    out = {}
    for name in traced[0]:
        values = [t[name] for t in traced]
        if name.rsplit(".", 1)[1] not in COUNTS:
            out[name] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
        out[name] = values[0]
    wall = statistics.median(p["wall"] for p in untraced)
    out["trace.overhead_s"] = (statistics.median(p["wall"] for p in passes if p["traced"])
                               - wall)
    out["solve.wall_s"] = wall
    out["host.slowdown"] = statistics.median(p["slowdown"] for p in untraced)
    return out


def end_to_end(passes: list[dict], setup_s: float, floors: dict) -> dict:
    outcomes = [p["outcome"] for p in passes]
    out = {
        "setup_s": setup_s,
        "solve_s": statistics.median(p["seconds"] for p in passes),
        "ops_ok_per_s": statistics.median(p["outcome"].ok / p["seconds"] for p in passes),
        "ok_frac": sum(o.ok for o in outcomes) / sum(o.attempted for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for metric in workloads.ERROR_METRICS:
        # a workload that never computes the quantity reports the floor
        seen = [o.errors[metric] for o in outcomes if metric in o.errors]
        out[metric] = max([floors[metric], *seen])
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pinstacks" / "__init__.py").is_file():
        print(f"error: no pinstacks sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe_setup:
        probe_setup(args)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_s = None if args.trace else setup_seconds(args)

    import pinstacks

    if not Path(pinstacks.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported pinstacks from {pinstacks.__file__}", file=sys.stderr)
        return 2
    refs = workloads.load_refs()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm()
    tracer = Tracer() if args.trace else None
    passes = run_passes(workload, refs, args.seconds, tracer)

    problems = [q for p in passes for q in p["outcome"].problems]
    host = host_facts()
    if args.trace:
        values = layer_summary(passes, problems)
        wanted = spec["per_layer"]
        path = BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "host": host})
    else:
        values = end_to_end(passes, setup_s, workloads.floors(refs))
        wanted = spec["end_to_end"]

    print(f"host {json.dumps(host)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced)")
    untraced = [p for p in passes if not p["traced"]]
    print(f"  untraced passes: wall {statistics.median(p['wall'] for p in untraced):.4g} s "
          f"without kernel runs, host slowdown "
          f"{statistics.median(p['slowdown'] for p in untraced):.3g}")
    for note in dict.fromkeys(n for p in passes for n in p["outcome"].notes):
        print(f"  note: {note}")
    for problem in dict.fromkeys(problems):
        print(f"  WRONG: {problem}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, v in metrics.items():
        print(f"  {name:<40} {v['value']:<24.10g} {v['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["outcome"].attempted for p in passes),
        "failed": sum(p["outcome"].failed for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
