"""masscale benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload plate_spectrum --seed 42 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each run starts fresh single-threaded processes (BLAS threads pinned to 1):
several that only set up, for ``setup_s``, and one that sets up, runs the
workload until ``--seconds`` have passed (at least once), checks every
output against ``perfbench/reference`` and, with ``--trace 1``, runs it
again with every masscale layer wrapped in spans.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines above
it name every metric with its unit, list failed checks and give the
environment; the full result is also written to
``.perfbench_out/results/``. ``perfbench/suite.py`` runs all workloads.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 3  # set-up-only processes per run, besides the workload process
TIME_LIMIT_S = 170.0


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(args, workdir, deadline, name, extra=()):
    result = os.path.join(workdir, f"{name}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir, "--result", result, *extra]
    timeout = max(deadline - time.monotonic(), 1.0)
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{name} process failed with exit code {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(setup, res):
    """End-to-end metrics of one run (medians over iterations / set-ups)."""
    m = {
        "run_s": statistics.median(res["run_s"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    for study, values in res["study_s"].items():
        if study != "element_spectrum":  # ~15 ms: inside run_s only
            m[f"study.{study}_s"] = statistics.median(values)
    return m


def unit_of(name):
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_us"):
        return "us"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="write perfbench/reference/<workload>.json from this run")
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "masscale", "__init__.py")):
        sys.exit(f"no masscale sources under {os.path.join(ROOT, 'src')}: "
                 "run from the root of a masscale checkout")
    spec = _spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    out_root = os.path.join(ROOT, ".perfbench_out")
    workdir = os.path.join(out_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.workload in workloads.CLI_WORKLOADS:
            with open(os.path.join(workdir, "config.json"), "w") as fh:
                json.dump(workloads.config_document(args.workload, args.seed), fh, indent=1)
        setup = [run_child(args, workdir, deadline, f"setup{i}", ["--setup-only"])["setup_s"]
                 for i in range(SETUP_PROBES)]
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record_reference:
            os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
            extra += ["--record-reference",
                      os.path.join(HERE, "reference", f"{args.workload}.json")]
        res = run_child(args, workdir, deadline, "workload", extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup.append(res["setup_s"])
    if not res["run_s"]:
        sys.exit(f"{args.workload} did not complete a single pass: {res['checks']['failed']}")

    e2e = end_to_end(setup, res)
    failed = res["checks"]["failed"]
    attempted = res["checks"]["attempted"]
    env = dict(res["environment"], commit=git_commit(), seed=args.seed, workload=args.workload)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "iterations": res["iterations"], "end_to_end": e2e, "raw": res,
              "environment": env}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {res['iterations']}  setups {len(setup)}")
    for name, value in e2e.items():
        print(f"  {name:34s} {value:14.6g} {unit_of(name)}")
    print(f"  {'failed_frac':34s} {len(failed) / max(attempted, 1):14.6g} ratio"
          f"  ({len(failed)} of {attempted} checks)")
    for name, detail in failed:
        print(f"  FAILED {name}: {detail}")
    if args.trace:
        for name, value in sorted(res.get("per_layer", {}).items()):
            print(f"  {name:34s} {value:14.6g} {unit_of(name)}")
    print("env " + json.dumps(env, sort_keys=True))

    os.makedirs(os.path.join(out_root, "results"), exist_ok=True)
    with open(os.path.join(out_root, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    if args.trace and "per_layer" not in res:
        sys.exit("the traced run produced no spans; see the failed checks above")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = res.get("per_layer", {}) if args.trace else e2e
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
