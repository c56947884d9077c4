"""Output checks against the reference recorded at the seed commit.

A *check* is one compared item: a scalar, an array or CSV column, a flag,
a file's presence, a bound that must hold, or a stability verdict. Each
returns ``(name, ok, detail)``; ``failed_frac`` is the share that failed.

Tolerances: eigenvalue-derived numbers agree to 1e-8 relative; entries
of a full spectrum below the program's rigid-body cutoff (1e-8 of the
largest value) are round-off, so there both values need only lie below
the cutoff. ``model_build`` matrix sums agree to 1e-12 relative.
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

REL = 1e-8
REL_MODEL = 1e-12
RIGID_CUTOFF = 1e-8
RBM_TOL = 1e-10  # ||K R|| / (||K|| ||R||) for the rigid-body modes R
VERDICTS = ("stable", "unstable")  # expected at step factors 0.99 and 1.05
SEED_DEPENDENT = ("growth_factor", "steps_run")  # integrator outputs that follow the seed


def _num(text):
    try:
        return int(text)
    except ValueError:
        return float(text)


def snapshot(out_dir):
    """Parsed outputs of a CLI run: JSON documents, CSV files as columns."""
    snap = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith(".json") and name != "config.json":
            with open(path) as fh:
                snap[name] = json.load(fh)
        elif name.endswith(".csv"):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            snap[name] = {h: [_num(r[j]) for r in rows[1:]] for j, h in enumerate(rows[0])}
    manifest = snap.pop("manifest.json", None)
    if manifest is not None:
        snap["manifest.json"] = {"outputs": sorted(os.path.basename(p) for p in manifest["outputs"])}
    return snap


def _close(a, b, rel):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    if a == b:
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _close_array(out, ref, rel, floor=0.0):
    if len(out) != len(ref):
        return False, f"length {len(out)} != {len(ref)}"
    a = np.asarray(out, dtype=float)
    b = np.asarray(ref, dtype=float)
    with np.errstate(invalid="ignore"):
        ok = (a == b) | (np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b)))
    ok |= (np.isnan(a) & np.isnan(b)) | ((np.abs(a) < floor) & (np.abs(b) < floor))
    if ok.all():
        return True, ""
    i = int(np.argmin(ok))
    return False, f"[{i}] {out[i]!r} != {ref[i]!r}"


def _compare(path, out, ref, checks):
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            checks.append((path, False, "not an object"))
            return
        for key, value in ref.items():
            if key in SEED_DEPENDENT:
                continue
            if key not in out:
                checks.append((f"{path}.{key}", False, "missing"))
            else:
                _compare(f"{path}.{key}", out[key], value, checks)
        return
    if isinstance(ref, list) and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in ref):
        floor = 0.0
        if path.rsplit(".", 1)[-1] in ("original_values", "scaled_values") and ref:
            floor = RIGID_CUTOFF * max(abs(v) for v in ref)
        ok, detail = _close_array(out, ref, REL, floor) if isinstance(out, list) else (False, "not a list")
        checks.append((path, ok, detail))
        return
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            checks.append((path, False, "list shape differs"))
            return
        for i, (o, r) in enumerate(zip(out, ref)):
            _compare(f"{path}[{i}]", o, r, checks)
        return
    if isinstance(ref, (bool, str)) or ref is None:
        checks.append((path, out == ref, f"{out!r} != {ref!r}"))
        return
    ok = isinstance(out, (int, float)) and not isinstance(out, bool) and _close(out, ref, REL)
    checks.append((path, ok, f"{out!r} != {ref!r}"))


def check_cli(snap, ref):
    """Compare a CLI run's outputs with the reference and apply the fixed rules."""
    checks = []
    for name, ref_doc in ref.items():
        if name not in snap:
            checks.append((name, False, "missing output"))
            continue
        _compare(name, snap[name], ref_doc, checks)
    for name, doc in snap.items():
        if name.startswith("bounds_"):
            for source, rec in doc.items():
                checks.append((f"{name}.{source}.holds", rec.get("holds") is True, "bound does not hold"))
        if name == "stability_brackets.json":
            for label, verdicts in doc.items():
                got = tuple(v["classification"] for v in verdicts)
                checks.append((f"{name}.{label}.verdicts", got == VERDICTS, f"{got} != {VERDICTS}"))
    return checks


def check_model(obs, ref):
    """Compare model_build observations (matrix sums, rates) with the reference."""
    checks = []
    for name, ref_vals in ref.items():
        if name not in obs:
            checks.append((name, False, "missing output"))
            continue
        for key, value in ref_vals.items():
            got = obs[name].get(key)
            ok = got is not None and _close(got, value, REL_MODEL)
            checks.append((f"{name}.{key}", ok, f"{got!r} != {value!r}"))
    for name, vals in obs.items():
        if "rbm_residual" in vals:
            checks.append((f"{name}.rbm_residual", vals["rbm_residual"] <= RBM_TOL,
                           f"{vals['rbm_residual']:.3g} > {RBM_TOL:g}"))
        if "mass_error" in vals:
            checks.append((f"{name}.total_mass", vals["mass_error"] <= REL_MODEL,
                           f"relative error {vals['mass_error']:.3g}"))
    return checks


def reference_of_model(obs):
    """The part of model_build observations that goes into the reference."""
    return {
        name: {k: v for k, v in vals.items() if k in ("abs_sum", "trace", "value")}
        for name, vals in obs.items()
    }
