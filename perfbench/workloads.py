"""The four benchmark workloads: their inputs, their reasons and their bodies.

Three workloads are CLI experiments: a config document that ``run.py``
writes from the seed and that the child process loads with
``masscale.cli.load_config`` and runs with ``masscale.cli.execute``. The
fourth, ``model_build``, drives the library API (mesh, element blocks,
assembly, local scalings) with no eigensolve.

The seed reaches the program only as the config's ``seed`` (the
integrator's initial state); every other input is fixed by the workload.
"""
from __future__ import annotations

STEEL = {"young_modulus_gpa": 207.0, "poisson_ratio": 0.3, "density": 7800.0}

WHY = {
    "plate_spectrum": "paper plate, n=2400: spectrum and bounds need all n eigenvalues, so dense linalg dominates",
    "beam_dynamics": "n=720 beam: the integrator dominates (diagonal and dense mass solves), and a sweep needs only lambda_max and kappa",
    "kinds_small": "n=360, every scaling kind: hundreds of small solves, about 50 output files and a large setup share",
    "model_build": "library API, no eigensolve: fem and scaling dominate and dense n^2 storage sets peak memory",
}

_ALL_KINDS = [
    {"kind": "cms", "alpha": 4.0},
    {"kind": "uniform_lft", "mu": 2.0},
    {"kind": "stiffness_proportional_lft", "mu": 2e-14},
    {"kind": "polynomial_sms", "c": 1.5e-28},
    {"kind": "global_deflation", "rank": 10},
    {"kind": "local_deflation_s1", "rank": 3, "alpha": 4.0},
    {"kind": "local_deflation_s2", "rank": 2},
    {"kind": "olovsson", "beta": 10.0},
    {"kind": "hoffmann", "beta": 10.0},
    {"kind": "eig_stabilization", "rank": 3, "epsilon": 1e-6},
]

# The element-local kinds, as model_build applies them.
LOCAL_KINDS = [
    s for s in _ALL_KINDS
    if s["kind"] in ("cms", "local_deflation_s1", "local_deflation_s2", "olovsson",
                     "hoffmann", "eig_stabilization")
]

_STUDY_ORDER = ("element_spectrum", "spectrum", "bounds", "sweep", "integrate")


def _cli(counts, extents_mm, scalings, studies, sweep=None):
    doc = {
        "material": dict(STEEL),
        "geometry": {"mesh": {"node_counts": list(counts), "extents_mm": list(extents_mm)}},
        "scalings": scalings,
        "studies": {name: True for name in studies},
    }
    if sweep is not None:
        doc["sweep"] = sweep
    return doc


CLI_WORKLOADS = {
    "plate_spectrum": _cli(
        (40, 5, 4), (200, 20, 2), [{"kind": "olovsson", "beta": 10.0}], ("spectrum", "bounds")
    ),
    "beam_dynamics": _cli(
        (20, 4, 3),
        (100, 15, 2),
        [{"kind": "none"}, {"kind": "olovsson", "beta": 10.0}, {"kind": "global_deflation", "rank": 20}],
        ("sweep", "integrate"),
        sweep={"kind": "olovsson", "parameter": "beta", "values": [1, 10, 100, 1000]},
    ),
    "kinds_small": _cli(
        (10, 4, 3),
        (50, 15, 2),
        _ALL_KINDS,
        ("element_spectrum", "spectrum", "bounds", "sweep"),
        sweep={"kind": "local_deflation_s2", "parameter": "rank", "values": list(range(1, 13))},
    ),
}

# model_build meshes: the paper plate and a refinement with the same extents.
MODEL_MESHES = {"plate": (40, 5, 4), "refined": (60, 7, 4)}
MODEL_EXTENTS_MM = (200, 20, 2)

NAMES = tuple(WHY)

# The two short workloads repeat within one run so that a run measures 15 to
# 30 s, as one pass of plate_spectrum or beam_dynamics does. On a shared
# 2-core machine, single 3 s and 8 s passes spread by 8 % between runs.
MIN_ITERATIONS = {"kinds_small": 8, "model_build": 2}


def config_document(name, seed):
    """The config a CLI workload runs with the given seed."""
    doc = dict(CLI_WORKLOADS[name])
    doc["seed"] = int(seed)
    return doc


def studies_of(doc):
    """Enabled studies of a config document, in the CLI's run order."""
    return [s for s in _STUDY_ORDER if doc["studies"].get(s)]


def model_build(masscale, observe, step):
    """Run the model_build series through the library API.

    ``step(fn, *args, **kw)`` calls ``fn`` inside the timed region and
    returns its result; ``observe(name, value)`` runs outside it and
    records what the correctness checks need.
    """
    fem, scaling, analysis = masscale.fem, masscale.scaling, masscale.analysis
    material = fem.Material(
        STEEL["young_modulus_gpa"] * 1e9, STEEL["poisson_ratio"], STEEL["density"]
    )
    extents = tuple(v * 1e-3 for v in MODEL_EXTENTS_MM)
    for tag, counts in MODEL_MESHES.items():
        mesh = step(fem.build_structured_mesh, counts, extents)
        blocks = step(fem.element_blocks, mesh, material)
        n = mesh.dof_count
        k = step(fem.assemble, blocks, "stiffness", n)
        m = step(fem.assemble, blocks, "lumped", n)
        pair = step(masscale.MatrixPair, k, m)
        del k, m
        observe(f"{tag}.K", pair.a, mesh=mesh)
        observe(f"{tag}.M", pair.b, mesh=mesh)
        for params in LOCAL_KINDS:
            spec = scaling.ScalingSpec(**params)
            scaled = step(scaling.apply_spec, spec, blocks, n, pair=pair, k_global=pair.a)
            observe(f"{tag}.Mbar.{spec.kind}", scaled.mbar_dense())
            del scaled
        observe(f"{tag}.cond_rate", step(analysis.asymptotic_cond_rate, mesh))
        del pair, blocks, mesh


# Which end-to-end figure each per-layer metric should move, and where.
# A change that claims a gain names one metric and one workload from here.
LAYER_MAP = [
    {"layer_metrics": ["linalg.self_s", "linalg.full_eig.n3", "linalg.validate.s"],
     "moves": ["study.spectrum_s", "study.bounds_s", "run_s"], "on": ["plate_spectrum"],
     "not_on": ["model_build"]},
    {"layer_metrics": ["linalg.eig_repeat_frac"],
     "moves": ["study.bounds_s"], "on": ["plate_spectrum"], "not_on": ["model_build"],
     "note": "sandwich_bounds and condition_report re-solve (K,M), (K,Mbar) and (Mbar,M)"},
    {"layer_metrics": ["extremes-only or lambda_max-only eigensolves"],
     "moves": ["study.sweep_s", "study.bounds_s"], "on": ["beam_dynamics", "plate_spectrum"],
     "not_on": ["study.spectrum_s", "kinds_small"],
     "note": "spectrum needs all n eigenvalues; kinds_small must not get slower"},
    {"layer_metrics": ["integrator.step_us", "integrator.mass_solve.s"],
     "moves": ["study.integrate_s", "run_s"], "on": ["beam_dynamics"], "not_on": []},
    {"layer_metrics": ["fem.self_s", "fem.assemble.bytes", "scaling.self_s"],
     "moves": ["run_s", "peak_rss_mb"], "on": ["model_build"], "not_on": [],
     "note": "at most 5 % of plate_spectrum"},
    {"layer_metrics": ["cli.emit.s", "cli.self_s", "cli.load_config.s"],
     "moves": ["run_s", "setup_s"], "on": ["kinds_small", "setup_s on every workload"],
     "not_on": []},
]
