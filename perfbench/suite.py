"""Run every workload over several seeds and summarise the end-to-end spread.

    python3 perfbench/suite.py                       # all workloads, seeds 1..10
    python3 perfbench/suite.py --workloads kinds_small --seeds 1 2 3 4 5
    python3 perfbench/suite.py --traced 2 --baseline perfbench/baseline.json

Each run is ``perfbench/run.py`` in its own process, exactly as a single
benchmark run. For every end-to-end figure (the metrics of BENCHMARK.json
plus the per-study wall times and ``failed_frac``) it prints the median,
the quartiles (``statistics.quantiles(n=4)``) and the spread: the distance
between the quartiles as a share of the median. A spread above a third of
the metric's bound is flagged. ``--traced N`` adds N traced runs per
workload on seed 42 and checks that their counts repeat exactly.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from run import unit_of  # noqa: E402

TRACE_SEED = 42


def bench(workload, seed, seconds, trace):
    """One run.py run; returns (result line, full record)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".perfbench_out", "results",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return line, json.load(fh)


def is_count(name):
    """Counts, byte totals and ratios of counts: exact, so they must repeat."""
    return unit_of(name) in ("count", "B", "ratio")


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", nargs="+", default=list(workloads.NAMES))
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    p.add_argument("--baseline", default=None, help="write the summary to this JSON file")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    env = None
    for w in args.workloads:
        figures, failed, attempted = {}, [], 0
        for seed in args.seeds:
            line, record = bench(w, seed, seconds, 0)
            env = record["environment"]
            attempted += line["attempted"]
            failed += [[seed] + f for f in record["raw"]["checks"]["failed"]]
            for name, value in record["end_to_end"].items():
                figures.setdefault(name, []).append(value)
        entry = {"why": workloads.WHY[w], "seeds": args.seeds,
                 "iterations_per_run": record["iterations"],
                 "end_to_end": {}, "failed_frac": len(failed) / max(attempted, 1),
                 "checks_attempted": attempted, "failed_checks": failed}
        print(f"\n{w}  ({len(args.seeds)} runs, {seconds:g} s each)")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, values in figures.items():
            s = spread(values) if len(values) > 1 else {"median": values[0], "q1": values[0],
                                                        "q3": values[0], "spread": 0.0,
                                                        "values": values}
            s["unit"] = unit_of(name)
            entry["end_to_end"][name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
                flag = "  SPREAD ABOVE BOUND/3"
            print(f"  {name:22s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.4f} {bound if bound is not None else '':>6} {s['unit']}{flag}")
        print(f"  failed_frac {entry['failed_frac']:g} ({len(failed)} of {attempted} checks)")
        for f in failed:
            print(f"    FAILED seed {f[0]} {f[1]}: {f[2]}")
        if args.traced:
            entry.update(traced(w, seconds, args.traced))
        summary[w] = entry

    if args.baseline:
        out = {"commit": env and env.get("commit"), "environment": env,
               "run_seconds": seconds, "workloads": summary, "layer_map": workloads.LAYER_MAP}
        with open(args.baseline, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.baseline}")


def traced(w, seconds, runs):
    layers, counts, failed = [], [], []
    for _ in range(runs):
        line, record = bench(w, TRACE_SEED, seconds, 1)
        failed += record["raw"]["checks"]["failed"]
        layer = record["raw"]["per_layer"]
        layers.append(layer)
        counts.append({k: v for k, v in layer.items() if is_count(k)})
    repeat = all(c == counts[0] for c in counts)
    table = {k: v if is_count(k) else statistics.median(m[k] for m in layers)
             for k, v in layers[0].items()}
    print(f"  traced ({runs} runs, seed {TRACE_SEED}); counts repeat exactly: {repeat}; "
          f"failed checks: {len(failed)}")
    for name, detail in failed:
        print(f"    FAILED {name}: {detail}")
    for k in sorted(table):
        print(f"    {k:40s} {table[k]:14.6g} {unit_of(k)}")
    return {"per_layer": table, "per_layer_counts_repeat": repeat, "traced_failed_checks": failed}


if __name__ == "__main__":
    main()
