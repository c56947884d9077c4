"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The determinism test runs kinds_small traced twice (about 30 s).
"""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from suite import is_count  # noqa: E402


def _bench(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_two_traced_runs_give_identical_counts():
    counts = []
    for _ in range(2):
        proc = _bench("--workload", "kinds_small", "--seed", "3", "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert line["correct"] and line["failed"] == 0
        path = os.path.join(ROOT, ".perfbench_out", "results", "kinds_small-seed3-trace1.json")
        with open(path) as fh:
            layer = json.load(fh)["raw"]["per_layer"]
        counts.append({k: v for k, v in layer.items() if is_count(k)})
    assert counts[0] == counts[1]
    for name in ("linalg.generalized_eig.calls", "linalg.full_eig.n3", "linalg.eig_repeat_frac",
                 "fem.element_blocks.calls", "analysis.bounds.checked", "cli.emit.bytes"):
        assert counts[0][name] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "kinds_small", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_instrument_wraps_cross_module_names_and_restores():
    import masscale
    import masscale.analysis
    import masscale.cli
    import masscale.integrator
    import masscale.linalg

    original = masscale.linalg.generalized_eig
    original_init = masscale.integrator.MassSolver.__init__
    tr = tracing.Tracer()
    restore = tracing.instrument(tr)
    try:
        assert masscale.analysis.generalized_eig is not original
        assert masscale.analysis.generalized_eig is masscale.linalg.generalized_eig
        assert masscale.integrator.cholesky is masscale.linalg.cholesky
        assert masscale.cli._STUDIES["spectrum"] is masscale.cli.study_spectrum
        import numpy as np

        k = np.array([[2.0, -1.0], [-1.0, 2.0]])
        tr.active = True
        masscale.analysis.generalized_eig(masscale.MatrixPair(k, np.eye(2)))
        masscale.analysis.generalized_eig(masscale.MatrixPair(k, np.eye(2)))
        tr.active = False
        m = tracing.summarize(tr, run_s=sum(s[2] - s[1] for s in tr.spans if s[3] is None))
        assert m["linalg.generalized_eig.calls"] == 2
        assert m["linalg.eig_repeat_frac"] == 0.5
        assert m["linalg.diag_path_frac"] == 1.0
        assert m["linalg.full_eig.n3"] == 16
        assert tracing.check_nesting(tr)
    finally:
        restore()
    assert masscale.analysis.generalized_eig is original
    assert masscale.integrator.MassSolver.__init__ is original_init


def test_self_times_account_for_the_run():
    clock = iter([0.0, 1.0, 2.0, 5.0, 6.0, 9.0]).__next__
    tr = tracing.Tracer(clock=clock)
    outer = tr.begin("cli.study_spectrum")  # 0 .. 9
    inner = tr.begin("linalg.sym_eig")  # 1 .. 6
    probe = tr.begin("trace.inspect")  # 2 .. 5
    tr.end(probe)
    tr.end(inner)
    tr.end(outer)
    m = tracing.summarize(tr, run_s=10.0)
    assert m["trace.self_s"] == 3.0
    assert m["linalg.self_s"] == 2.0
    assert m["cli.self_s"] == 4.0 + 1.0  # own self time plus the uncovered second
    covered = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS + ("trace",))
    assert covered == pytest.approx(10.0)


def test_spectrum_comparison_ignores_rigid_body_round_off():
    ref = {"s.json": {"original_values": [1e-5, -2e-6, 3.0e4, 1.0e6], "dt": 2.0}}
    out = {"s.json": {"original_values": [-4e-6, 5e-6, 3.0e4 * (1 + 5e-9), 1.0e6], "dt": 2.0}}
    assert all(ok for _, ok, _ in checks.check_cli(out, ref))
    out["s.json"]["original_values"][2] = 3.0e4 * (1 + 5e-8)
    assert not all(ok for _, ok, _ in checks.check_cli(out, ref))


def test_bound_and_verdict_rules():
    doc = {"bounds_x.json": {"a": {"value": 1.0, "lower": 0.5, "upper": None, "holds": False}},
           "stability_brackets.json": {"none": [{"classification": "stable", "dt": 1.0},
                                                {"classification": "inconclusive", "dt": 1.1}]}}
    results = {name: ok for name, ok, _ in checks.check_cli(doc, {})}
    assert results["bounds_x.json.a.holds"] is False
    assert results["stability_brackets.json.none.verdicts"] is False
    assert checks._close(math.nan, math.nan, 1e-8)
