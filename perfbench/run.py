"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload enum-og7 --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` of the same checkout; nothing is
installed.  ``--trace 0`` repeats untraced passes for ``--seconds`` and
prints the end-to-end metrics; ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics.  ``--smoke`` lowers every order
cap so a run takes seconds.  The last line of standard output is the result
object; the lines before it record the seed, the pass count and, with
tracing, every (function, parent) row.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_PROBES = 7

_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = [sys.argv[1]]\n"
    "from perfbench import calibrate\n"
    "before = calibrate.measure()\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(1, sys.argv[2])\n"
    "from perfbench import workloads\n"
    "workloads.WORKLOADS[sys.argv[3]].setup(int(sys.argv[4]), sys.argv[5] == '1')\n"
    "t1 = time.perf_counter()\n"
    "print(t1 - t0, (before + calibrate.measure()) / 2)\n"
)

#: Functions whose calls and self time the traced run reports.
TIMED_LAYERS = (
    "canon.refine_partition", "canon.marked_bytes", "canon.canonical_form",
    "graphs.connected_without", "graphs.odd_reach_within", "graphs.odd_girth",
    "graphs.list_threads", "graphs.max_thread_length", "graphs.graph6",
    "hom.find_homomorphism.search", "hom.find_homomorphism.hom",
    "hom.find_homomorphism.witness", "hom.find_homomorphism.bench",
    "hom.is_core", "hom.chromatic_number",
    "witness.find_odd_k4", "witness.find_odd_k32", "witness.gerards_dichotomy_check",
)


def setup_seconds(workload, seed, smoke):
    """Median time to import the package and build the inputs, in fresh interpreters.

    Each probe times the calibration loop before and after set-up and scales
    its set-up time by the mean.  The probe imports ``perfbench.calibrate``
    (standard library only) before the clock starts, so only the package,
    the workload module and the inputs are timed.
    """
    from perfbench import calibrate

    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", _PROBE, ROOT, SRC, workload, str(seed), "1" if smoke else "0"],
            check=True, capture_output=True, text=True, timeout=120)
        setup, loop = map(float, out.stdout.split())
        times.append(setup * calibrate.NOMINAL_S / loop)
    return statistics.median(times)


def tail_mean(values, share=0.05):
    """Mean of the slowest ``share`` of the values, at least one of them."""
    k = max(1, round(len(values) * share))
    return statistics.mean(sorted(values)[-k:])


def timed_metrics(passes, setup_s):
    lat = [x * p.scale for p in passes for x in p.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall * p.scale for p in passes), "s"),
        "ops_per_s": (statistics.median(p.ops / (p.wall * p.scale) for p in passes), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (
            statistics.median(tail_mean(p.latencies) * p.scale for p in passes) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_metrics(workload, tracer, untraced, traced, extra):
    """Per-layer metrics, as means per traced pass in nominal seconds."""
    n = len(traced)
    out = {}
    for name in TIMED_LAYERS:
        calls, _, own = tracer.totals(name)
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.self_s"] = (own / n, "s")
    classes = statistics.mean(p.ops for p in traced) if workload.kind == "search" else 0
    children = statistics.mean(p.children for p in traced)
    serial_wall = statistics.median(p.wall * p.scale for p in untraced)
    traced_wall = statistics.median(p.wall * p.scale for p in traced)
    out.update({
        "search.self_s": (tracer.totals("search.eta_search")[2] / n, "s"),
        "search.classes": (classes, "count"),
        "search.children_tried": (children, "count"),
        "search.accept_ratio": (classes / children if children else 0, "ratio"),
        "search.frontier_graphs": (extra.get("frontier", 0), "count"),
        "search.parallel_speedup": (serial_wall / extra["jobs_wall"] if extra else 0, "ratio"),
        "canon.marked_bytes_per_child": (
            tracer.totals("canon.marked_bytes")[0] / n / children if children else 0, "ratio"),
        "hom.solver_calls_per_class": (
            tracer.totals("hom.find_homomorphism.search")[0] / n / classes if classes else 0,
            "ratio"),
        "witness.path_nodes": (statistics.mean(p.path_nodes for p in traced), "count"),
        "cli.table1_s": (tracer.totals("cli.main")[1] / n, "s"),
        "trace.overhead": (traced_wall / serial_wall - 1, "ratio"),
        "trace.wall_s": (statistics.mean(p.wall * p.scale for p in traced), "s"),
    })
    return out


def run(workload_name, seed, seconds, trace, smoke=False):
    """Run one workload; returns (result object, detail lines)."""
    from perfbench import calibrate, workloads
    from perfbench.tracing import Tracer

    workload = workloads.WORKLOADS[workload_name]
    checks = workloads.Checks(workload_name)
    api = workloads.entry_points()
    setup_s = None if trace else setup_seconds(workload_name, seed, smoke)
    state = workload.setup(seed, smoke)
    detail = {"workload": workload_name, "seed": seed, "smoke": smoke,
              "inputs": "exhaustive and deterministic; the seed is unused"
              if workload.kind == "search" else "relabellings drawn from the seed per pass"}
    ticker = calibrate.Ticker()

    def one(index, serial=False, tracer=None):
        ticker.take()
        if tracer is None:
            p = workload.run_pass(api, state, seed, index, serial=serial)
        else:
            with tracer:
                for owner, attr, name in workloads.bindings(api):
                    tracer.wrap(owner, attr, name)
                p = workload.run_pass(api, state, seed, index, serial=serial)
        p.scale = ticker.scale()
        workload.check(state, p, checks)
        return p

    lines = []
    t0 = perf_counter()
    with ticker:
        if not trace:
            passes = []
            while not passes or perf_counter() - t0 < seconds:
                passes.append(one(len(passes)))
            metrics = timed_metrics(passes, setup_s)
        else:
            extra = {}
            if workload.kind == "search" and workload.jobs > 1:
                # The budget never reaches the parallel workers, so children and
                # layer times come from serial, unsplit passes of the same config;
                # this pass gives the jobs wall time and the frontier size.
                p = one(0)
                extra["jobs_wall"] = p.wall * p.scale
                split = workload.split_order(state)
                extra["frontier"] = next(r.enumerated for r in p.outputs.records if r.n == split)
            total = Tracer()
            untraced, passes = [], []
            while not passes or perf_counter() - t0 < seconds:
                untraced.append(one(len(passes), serial=True))
                tracer = Tracer()
                passes.append(one(len(passes), serial=True, tracer=tracer))
                total.absorb(tracer, passes[-1].scale)
            metrics = traced_metrics(workload, total, untraced, passes, extra)
            detail["absent"] = sorted({name for _, _, name in workloads.bindings(api)}
                                      - total.present)
            lines.append(json.dumps({"trace_pairs": total.pairs()}))
    detail["passes"] = len(passes)
    detail["speed_scale"] = statistics.median(p.scale for p in passes)
    detail["failed_ratio"] = checks.failed / checks.attempted
    lines.insert(0, json.dumps(detail))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny order caps, for self-tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "oddhom", "__init__.py")):
        print(f"perfbench: no oddhom package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    import oddhom

    if not os.path.abspath(oddhom.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported oddhom from {oddhom.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
