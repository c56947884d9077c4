"""One workload in one fresh process; started by run.py, not by hand.

Set-up (imports, and the config load for CLI workloads) is timed from the
first statement. Then the workload runs untraced, repeatedly, until
``--seconds`` have passed (at least once); each iteration's outputs are
checked. With ``--trace 1`` the same loop runs again with every masscale
layer wrapped, its outputs are compared byte for byte with the untraced
ones, and the per-layer metrics are derived from the spans.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def _parse():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record-reference", default=None)
    return p.parse_args()


ARGS = _parse()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

IS_CLI = ARGS.workload in workloads.CLI_WORKLOADS
STUDIES = workloads.studies_of(workloads.CLI_WORKLOADS[ARGS.workload]) if IS_CLI else None
CONFIG_PATH = os.path.join(ARGS.workdir, "config.json")

# ---- set-up: what a fresh process pays before its first study ----
import numpy as np  # noqa: E402
import scipy  # noqa: E402

masscale = importlib.import_module("masscale")
if IS_CLI:
    import masscale.cli  # noqa: E402

    CFG = masscale.cli.load_config(CONFIG_PATH)
SETUP_S = time.perf_counter() - T0

if not os.path.abspath(masscale.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"masscale imported from {masscale.__file__}, not from this checkout")

import resource  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402


def environment():
    import click

    blas = None
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    except (TypeError, AttributeError):  # numpy < 1.26 has no mode="dicts"
        pass
    if blas:  # build-time install directories say nothing about the run
        blas = {k: v for k, v in blas.items() if "directory" not in k}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": click.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def _chunked_abs_sum(a, rows=256):
    return float(sum(np.abs(a[i:i + rows]).sum() for i in range(0, a.shape[0], rows)))


class ModelObserver:
    """Records model_build outputs outside the timed region."""

    def __init__(self, digests):
        self.obs = {}
        self.digests = {} if digests else None

    def __call__(self, name, value, mesh=None):
        if not isinstance(value, np.ndarray):
            self.obs[name] = {"value": float(value)}
            return
        vals = {"abs_sum": _chunked_abs_sum(value), "trace": float(np.trace(value))}
        if name.endswith(".K"):
            rbm = masscale.fem.rigid_body_modes(mesh.coords)
            vals["rbm_residual"] = float(
                np.linalg.norm(value @ rbm) / (np.linalg.norm(value) * np.linalg.norm(rbm))
            )
        if name.endswith(".M"):
            mat = workloads.STEEL
            volume = np.prod([e * 1e-3 for e in workloads.MODEL_EXTENTS_MM])
            mass = float(np.trace(value)) / 3.0
            vals["mass_error"] = abs(mass - mat["density"] * volume) / (mat["density"] * volume)
        self.obs[name] = vals
        if self.digests is not None:
            self.digests[name] = tracing._digest(value)


def run_iteration(out_dir, tr, digests):
    """One pass of the workload: (run_s, study times, checked outputs, raw outputs).

    The raw outputs (file bytes, or matrix digests for model_build) are
    kept only when ``digests`` is set, for the traced-vs-untraced check.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    if IS_CLI:
        CFG.output_dir = out_dir
        tr.active = True
        start = time.perf_counter()
        try:
            manifest = masscale.cli.execute(CFG, STUDIES)
        finally:
            run_s = time.perf_counter() - start
            tr.active = False
        snap = checks.snapshot(out_dir)
        return run_s, manifest["wall_clock_s"], snap, _file_bytes(out_dir) if digests else None
    observer = ModelObserver(digests)
    elapsed = [0.0]

    def step(fn, *args, **kwargs):
        tr.active = True
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed[0] += time.perf_counter() - start
            tr.active = False

    workloads.model_build(masscale, observer, step)
    return elapsed[0], {}, observer.obs, observer.digests


def _file_bytes(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "manifest.json":  # timings and the output directory differ by design
            doc = json.loads(data)
            doc.pop("wall_clock_s")
            doc["outputs"] = [os.path.basename(f) for f in doc["outputs"]]
            data = json.dumps(doc, sort_keys=True).encode()
        out[name] = data
    return out


def reference_path():
    return os.path.join(HERE, "reference", f"{ARGS.workload}.json")


def phase(out_dir, tr, reference, digests, seconds, min_iterations=1):
    """Repeat the workload until ``seconds`` have passed and ``min_iterations`` ran."""
    runs, studies, all_checks, per_iter = [], [], [], []
    kept = None
    start = time.perf_counter()
    while True:
        tr.reset()
        try:
            run_s, study_s, outputs, raw = run_iteration(out_dir, tr, digests)
        except Exception as exc:  # a failing operation is a failed check, not a crash
            all_checks.append(("exception", False, f"{type(exc).__name__}: {exc}"))
            break
        runs.append(run_s)
        studies.append(study_s)
        if reference is not None:
            check = checks.check_cli if IS_CLI else checks.check_model
            all_checks.extend(check(outputs, reference))
        kept = (outputs, raw)
        if tr.spans:
            per_iter.append(tracing.summarize(tr, run_s, out_dir if IS_CLI else None))
            all_checks.append(("trace.nesting", tracing.check_nesting(tr), "spans overlap"))
            m = per_iter[-1]
            covered = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS + ("trace",))
            all_checks.append(("trace.accounting", abs(covered - run_s) <= 1e-6 * max(run_s, 1.0),
                               f"layer self times {covered:.6f} s != run_s {run_s:.6f} s"))
        if time.perf_counter() - start >= seconds and len(runs) >= min_iterations:
            break
    return runs, studies, all_checks, per_iter, kept


def main():
    result = {"setup_s": SETUP_S}
    if ARGS.setup_only:
        _write(result)
        return
    result["environment"] = environment()
    reference = None
    if ARGS.record_reference is None:
        with open(reference_path()) as fh:
            reference = json.load(fh)
    tr = tracing.Tracer()
    trace = bool(ARGS.trace)
    # The end-to-end run takes the workload's minimum iteration count; the
    # traced run needs its untraced half only for the overhead.
    runs, studies, run_checks, _, kept = phase(
        os.path.join(ARGS.workdir, "untraced"), tr, reference, trace, ARGS.seconds,
        1 if trace else workloads.MIN_ITERATIONS.get(ARGS.workload, 1),
    )
    if ARGS.record_reference is not None:
        outputs = kept[0]
        ref = checks.reference_of_model(outputs) if not IS_CLI else outputs
        with open(ARGS.record_reference, "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
    result.update(
        iterations=len(runs),
        run_s=runs,
        study_s={k: [s[k] for s in studies] for k in (studies[0] if studies else {})},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if trace and runs:
        restore = tracing.instrument(tr)
        try:
            if IS_CLI:  # the config load happens in set-up; time it once, traced
                tr.reset()
                tr.active = True
                masscale.cli.load_config(CONFIG_PATH)
                tr.active = False
                load_config_s = tracing.summarize(tr, 0.0)["cli.load_config.s"]
            t_runs, _, t_checks, per_iter, t_kept = phase(
                os.path.join(ARGS.workdir, "traced"), tr, reference, True, ARGS.seconds
            )
        finally:
            restore()
        run_checks.extend(t_checks)
        if per_iter:
            run_checks.extend(_integrity(kept[1], t_kept[1], per_iter))
            layer = {k: statistics.median([m[k] for m in per_iter]) if _is_time(k) else v
                     for k, v in per_iter[0].items()}
            if IS_CLI:
                layer["cli.load_config.s"] = load_config_s
            layer["trace.overhead_s"] = statistics.median(t_runs) - statistics.median(runs)
            result["traced_run_s"] = t_runs
            result["per_layer"] = layer
    result["checks"] = {"attempted": len(run_checks),
                        "failed": [[n, d] for n, ok, d in run_checks if not ok]}
    _write(result)


def _is_time(name):
    return name.endswith(".s") or name.endswith("_s") or name.endswith("_us")


def _integrity(untraced, traced, per_iter):
    """Traced outputs byte-identical to untraced; counts equal across iterations."""
    out = []
    for name in sorted(set(untraced) | set(traced)):
        same = untraced.get(name) == traced.get(name)
        out.append((f"trace.identical.{name}", same, "traced output differs from untraced"))
    counts = [{k: v for k, v in m.items() if not _is_time(k)} for m in per_iter]
    out.append(("trace.counts_repeat", all(c == counts[0] for c in counts),
                "counts differ between traced iterations"))
    return out


def _write(result):
    with open(ARGS.result, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
