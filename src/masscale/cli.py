"""Experiment orchestration: config ingestion, studies, sweeps, reports.

The config is a single JSON document. Units may be declared through key
suffixes (``extents_mm``, ``young_modulus_gpa``); everything is converted
to SI on load. Exit codes: 0 ok, 1 config error, 2 internal error.
"""
from __future__ import annotations

import csv
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, field, fields

import click
import numpy as np

from . import __version__, analysis, fem, integrator, scaling
from .errors import ConfigError, InvalidCounts, MasscaleError, RankTooLarge
from .linalg import condition_number
from .system import MeshSystem

DEFAULT_SEED = 42

STUDY_NAMES = ("element_spectrum", "spectrum", "bounds", "sweep", "integrate")


@dataclass
class ExperimentConfig:
    material: fem.Material
    seed: int = DEFAULT_SEED
    output_dir: str = "out"
    mesh_counts: tuple | None = None
    mesh_extents: tuple | None = None  # meters
    element_size: tuple | None = None  # meters
    scalings: list = field(default_factory=list)
    sweep: dict | None = None
    sweep_points: list = field(default_factory=list)  # (value, ScalingSpec) per sweep value
    studies: dict = field(default_factory=dict)
    echo: dict = field(default_factory=dict)  # resolved config for the manifest

    def mesh(self):
        if self.mesh_counts is None:
            raise ConfigError("geometry.mesh: required for mesh-level studies")
        try:
            return fem.build_structured_mesh(self.mesh_counts, self.mesh_extents)
        except InvalidCounts as exc:
            raise ConfigError(f"geometry.mesh: {exc}") from exc

    def specs(self):
        """The configured scalings, or none alone when there are none."""
        return self.scalings or [scaling.ScalingSpec("none")]

    def element_geometry_size(self):
        if self.element_size is not None:
            return self.element_size
        if self.mesh_counts is not None:
            return tuple(
                ext / (cnt - 1) for ext, cnt in zip(self.mesh_extents, self.mesh_counts)
            )
        raise ConfigError("geometry: one of 'element' or 'mesh' is required")


def _object(value, name):
    """``value`` when it is a JSON object; else a ConfigError naming ``name``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected an object, got {value!r}")
    return value


def _is_number(value, scale=1.0):
    """True for a JSON number (not a bool) that stays finite times ``scale``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return bool(np.isfinite(value * scale))
    except OverflowError:  # an int beyond the float range
        return False


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _seed(value):
    """A seed for numpy's generator: a non-negative integer."""
    if not _is_integer(value) or value < 0:
        raise ConfigError(f"seed: expected a non-negative integer, got {value!r}")
    return value


def _length_triplet(obj, key):
    """Read a 3-vector with unit suffix _m or _mm; returns the key read
    and the vector in meters."""
    name = next((key + unit for unit in ("_m", "_mm") if key + unit in obj), None)
    if name is None:
        raise ConfigError(f"{key}: expected '{key}_m' or '{key}_mm'")
    vals, scale = obj[name], 1e-3 if name.endswith("_mm") else 1.0
    if not (isinstance(vals, list) and len(vals) == 3
            and all(_is_number(v, scale) and v > 0 for v in vals)):
        raise ConfigError(f"{name}: expected 3 positive numbers, got {vals!r}")
    return name, tuple(float(v) * scale for v in vals)


def _element_edges(edges, material, field):
    """Check that the hex8 kernel can integrate an element with these edge
    lengths (meters) in double precision: its volume is a normal float,
    not subnormal, and its stiffness terms stay finite. The kernel forms
    the elasticity matrix, whose largest entry is lambda + 2 mu, times the
    squared shape gradients (up to 1 / h^2 for the shortest edge h) and
    the volume, so (lambda + 2 mu) / h^2, times the volume where it
    exceeds one, must be finite. Python floats overflow to inf here
    without a warning."""
    h, volume = min(edges), edges[0] * edges[1] * edges[2]
    lam, mu = material.lame()
    if not (volume >= sys.float_info.min
            and (lam + 2 * mu) * max(volume, 1.0) < sys.float_info.max * h * h):
        raise ConfigError(f"{field}: element edges {edges} m are too small for the hex8 kernel "
                          f"in double precision with E = {material.young_modulus:g} Pa and "
                          f"nu = {material.poisson_ratio!r}")


def _parse_material(obj):
    obj = _object(obj, "material")
    gpa = "young_modulus_gpa" in obj
    keys = ("young_modulus_gpa" if gpa else "young_modulus", "poisson_ratio", "density")
    for key, scale in zip(keys, (1e9 if gpa else 1.0, 1.0, 1.0)):
        if not _is_number(obj.get(key), scale):
            raise ConfigError(f"material.{key}: expected a finite number, got {obj.get(key)!r}")
    e, nu, rho = (float(obj[key]) for key in keys)
    try:
        return fem.Material(e * 1e9 if gpa else e, nu, rho)
    except ValueError as exc:
        raise ConfigError(f"material: {exc}") from exc


_ALIASES = {"r": "rank", "eps": "epsilon"}  # config key -> ScalingSpec field


def parse_scaling(obj):
    """Build a ScalingSpec from a config mapping (kind + named parameters,
    aliases resolved); a parameter given twice is a ConfigError naming it."""
    kind = _object(obj, "scaling").get("kind")
    if kind is None:
        raise ConfigError("scaling.kind: missing")
    kwargs = {}
    for key, value in obj.items():
        name = _ALIASES.get(key, key)
        if name in kwargs:
            raise ConfigError(f"scaling[{kind}]: parameter {name} is given twice")
        if key != "kind":
            kwargs[name] = value
    try:
        return scaling.ScalingSpec(kind, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"scaling[{kind}]: {exc}") from exc


def _require_sweep(cfg, enabled):
    if enabled and cfg.sweep is None:
        raise ConfigError("sweep: the sweep study needs a 'sweep' section")


def _sweep_points(sweep):
    """(value, ScalingSpec) for each value of a checked sweep section. A
    section that also fixes the swept parameter is a ConfigError."""
    kind, parameter = sweep["kind"], sweep["parameter"]
    base = {k: v for k, v in sweep.items() if k not in ("kind", "parameter", "values")}
    if parameter in base:  # an alias of it is caught by parse_scaling
        raise ConfigError(f"sweep: parameter {parameter} is given twice")
    points = []
    for value in sweep["values"]:
        if not _is_number(value):
            raise ConfigError(f"sweep.values: expected numbers, got {value!r}")
        try:
            points.append((float(value), parse_scaling({"kind": kind, parameter: value, **base})))
        except ConfigError as exc:
            raise ConfigError(f"sweep: {exc}") from exc
    return points


class _Object(dict):
    """A JSON object as read, with the first key that it gives twice, or None."""

    repeated = None


def _read_object(pairs):
    """The ``object_pairs_hook`` of the config reader: an _Object that
    keeps the last value of a repeated key, as json does, and names the key."""
    obj = _Object(pairs)
    if len(obj) < len(pairs):
        seen = set()
        obj.repeated = next(key for key, _ in pairs if key in seen or seen.add(key))
    return obj


def _check_repeated_keys(raw):
    """Raise a ConfigError for the first key given twice in one object of
    the document ``raw``, in document order, naming the key and the
    object's place (``config``, ``geometry.mesh``, ``scalings[0]``)."""
    stack = [("", raw)]
    while stack:
        where, value = stack.pop()
        if isinstance(value, dict):
            if value.repeated is not None:
                raise ConfigError(f"{where or 'config'}: key {json.dumps(value.repeated)} "
                                  "is given twice")
            items = [(f"{where}.{key}" if where else key, v) for key, v in value.items()]
        elif isinstance(value, list):
            items = [(f"{where}[{i}]", v) for i, v in enumerate(value)]
        else:
            continue
        stack.extend(reversed(items))


def load_config(path):
    """Read and check a config document; every malformed field raises a
    ConfigError that names it. A key given twice in one JSON object, and
    two scalings with one label (they would write one file twice), are
    errors too. Repeated sweep values are not: each is one row of the
    sweep's one file, and the repeat is solved once."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_read_object)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ConfigError(f"config: {exc}") from exc
    _check_repeated_keys(raw)
    _object(raw, "config")

    geometry = _object(raw.get("geometry", {}), "geometry")
    has_mesh, has_element = "mesh" in geometry, "element" in geometry
    if has_mesh == has_element:
        raise ConfigError("geometry: exactly one of 'mesh' or 'element' is required")

    cfg = ExperimentConfig(material=_parse_material(raw.get("material", {})))
    cfg.seed = _seed(raw.get("seed", DEFAULT_SEED))
    cfg.output_dir = raw.get("output_dir", "out")
    if not isinstance(cfg.output_dir, str):
        raise ConfigError(f"output_dir: expected a string, got {cfg.output_dir!r}")
    if has_mesh:
        mesh_obj = _object(geometry["mesh"], "geometry.mesh")
        counts = mesh_obj.get("node_counts")
        if not (isinstance(counts, list) and len(counts) == 3 and all(map(_is_integer, counts))):
            raise ConfigError(f"geometry.mesh.node_counts: expected 3 integers, got {counts!r}")
        if min(counts) < 2:
            raise ConfigError(f"geometry.mesh: node counts must be >= 2, got {counts}")
        cfg.mesh_counts = tuple(counts)
        name, cfg.mesh_extents = _length_triplet(mesh_obj, "extents")
        edges = tuple(e / (c - 1) for e, c in zip(cfg.mesh_extents, counts))
        _element_edges(edges, cfg.material, f"geometry.mesh.{name}")
    else:
        element = _object(geometry["element"], "geometry.element")
        name, cfg.element_size = _length_triplet(element, "size")
        _element_edges(cfg.element_size, cfg.material, f"geometry.element.{name}")

    scalings = raw.get("scalings", [])
    if not isinstance(scalings, list):
        raise ConfigError(f"scalings: expected a list, got {scalings!r}")
    cfg.scalings = [parse_scaling(s) for s in scalings]
    labels = [spec.label for spec in cfg.scalings]
    repeated = next((label for i, label in enumerate(labels) if label in labels[:i]), None)
    if repeated is not None:
        raise ConfigError(f"scalings: {repeated} is given twice")
    cfg.sweep = raw.get("sweep")
    if "sweep" in raw:
        values = _object(cfg.sweep, "sweep").get("values")
        if not (isinstance(values, list) and values):
            raise ConfigError(f"sweep.values: expected a non-empty list, got {values!r}")
        if "kind" not in cfg.sweep or "parameter" not in cfg.sweep:
            raise ConfigError("sweep: requires 'kind' and 'parameter'")
        for key in ("kind", "parameter"):
            if not isinstance(cfg.sweep[key], str):
                raise ConfigError(f"sweep.{key}: expected a string, got {cfg.sweep[key]!r}")
        cfg.sweep_points = _sweep_points(cfg.sweep)
    studies = _object(raw.get("studies", {}), "studies")
    for name, enabled in studies.items():
        if name not in STUDY_NAMES or not isinstance(enabled, bool):
            raise ConfigError(f"studies: expected true or false for each of {STUDY_NAMES}, "
                              f"got {name!r}: {enabled!r}")
    cfg.studies = {name: studies.get(name, False) for name in STUDY_NAMES}
    _require_sweep(cfg, cfg.studies["sweep"])
    cfg.echo = raw
    return cfg


class Emitter:
    """Writes every output file into the output directory, recorded in
    ``files`` for the manifest: JSON with indent 2, sorted keys, arrays as
    lists and a trailing newline; CSV floats to 17 significant digits. A
    file is written once in a run: a second write of it raises
    :class:`MasscaleError` before it overwrites anything."""

    def __init__(self, out_dir):
        try:
            os.makedirs(out_dir, exist_ok=True)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise ConfigError(f"output_dir: {exc}") from exc
        self.out_dir = out_dir
        self.files = []

    def _path(self, name):
        p = os.path.join(self.out_dir, name)
        if p in self.files:
            raise MasscaleError(f"output {name} is written twice")
        self.files.append(p)
        return p

    def write_json(self, name, payload):
        text = json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist)
        with open(self._path(name), "w") as fh:
            fh.write(text + "\n")  # one write: json.dump writes each token separately

    def write_csv(self, name, columns):
        """Named columns (dict of name -> sequence), one row per index."""
        with open(self._path(name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in zip(*columns.values()):
                writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def study_element_spectrum(cfg, emitter, element):
    """Per-element spectra and Rayleigh tables for each configured scaling,
    on the one-element system ``element``."""
    block = element.blocks[0]
    columns = [f.name for f in fields(analysis.ElementRayleighRow)]
    for spec in cfg.specs():
        if spec.kind == "none":
            mbar_e = np.diag(block.lumped_mass)
        else:
            scaled = element.scale(spec)
            mbar_e = scaled.mbar_dense() if scaled.element_mbar is None else scaled.element_mbar[0]
        rows, ordering = analysis.element_rayleigh_report(block, mbar_e)
        emitter.write_csv(f"element_{spec.label}.csv",
                          {c: [getattr(row, c) for row in rows] for c in columns})
        emitter.write_json(f"element_{spec.label}.json",
                           {"kind": spec.kind, "ordering_preserved": ordering})


def study_spectrum(cfg, emitter, system):
    """Full spectral reports (original vs scaled) on the configured mesh."""
    for spec in cfg.specs():
        scaled = system.scale(spec)
        report = analysis.spectral_report(
            system.values_km(), system.values_kmbar(scaled), spec, blocks=system.blocks
        )
        # the four nulls are kept for readers; the bounds study writes the condition numbers
        nulls = dict.fromkeys(("kappa_m", "kappa_mbar", "kappa_pair", "gershgorin_scaled"))
        emitter.write_json(f"spectrum_{spec.label}.json", {**vars(report), **nulls})
        curve = report.ratio_curve
        emitter.write_csv(f"ratio_{spec.label}.csv",
                          {"mode": list(range(len(curve))), "ratio": curve.tolist()})


def study_bounds(cfg, emitter, system):
    """Sandwich and condition bounds for each configured scaling."""
    for spec in cfg.specs():
        scaled = system.scale(spec)
        # Kbar is K for every kind, so (Kbar, Mbar) is the sandwich's (K, Mbar).
        mass_values = system.values_mbarm(scaled)
        sandwich = analysis.sandwich_bounds(
            system.values_km(), system.values_kmbar(scaled), mass_values
        )
        cond = analysis.condition_report(
            system.values_m(), system.values_mbar(scaled), mass_values,
            system.mesh.p_max, system.blocks.element_mass, spec=spec,
            element_mbar=scaled.element_mbar,
        )
        payload = {
            name: {"value": r.value, "lower": r.lower, "upper": r.upper, "holds": r.holds(),
                   "slack_lower": r.slack_lower, "slack_upper": r.slack_upper}
            for bound_set in (sandwich, cond) for name, r in bound_set.records.items()
        }
        emitter.write_json(f"bounds_{spec.label}.json", payload)


def study_sweep(cfg, emitter, system):
    """Parameter sweep: step ratio, corollary bound (nan for none), condition ratio per point.
    lambda_max comes from each pencil's cached top pair, shared with the probe."""
    dt0 = analysis.critical_dt(system.top_kmbar().values[-1])
    kappa_m = condition_number(system.values_m())

    rows = {"value": [], "dt_ratio": [], "bound": [], "kappa_ratio": []}
    for value, spec in cfg.sweep_points:
        scaled = system.scale(spec)
        dt_ratio = analysis.critical_dt(system.top_kmbar(scaled).values[-1]) / dt0
        bound = analysis.corollary_bound(spec, system.blocks)
        bound = float("nan") if bound is None else bound
        kappa_ratio = condition_number(system.values_mbar(scaled)) / kappa_m
        for column, v in zip(rows.values(), (value, dt_ratio, bound, kappa_ratio)):
            column.append(float(v))
    emitter.write_csv(f"sweep_{cfg.sweep['kind']}_{cfg.sweep['parameter']}.csv", rows)


def study_integrate(cfg, emitter, system):
    """Stability brackets around the computed critical step for each scaling."""
    results = {}
    for spec in cfg.specs():
        scaled = system.scale(spec)
        # Only the top pair: lambda_max and the vector the start is seeded on.
        dec_s = system.top_kmbar(scaled)
        # Kbar is K for every kind
        verdicts = integrator.stability_bracket(
            system.pair.a, system.mass(scaled), analysis.critical_dt(dec_s.values[-1]),
            cfg.seed, dec_s.vectors[:, -1],
        )
        keys = ("classification", "growth_factor", "steps_run", "dt", "stable_crossing",
                "unstable_crossing", "path")
        results[spec.label] = [{k: getattr(v, k) for k in keys} for v in verdicts]
    emitter.write_json("stability_brackets.json", results)


_STUDIES = {
    "element_spectrum": study_element_spectrum,
    "spectrum": study_spectrum,
    "bounds": study_bounds,
    "sweep": study_sweep,
    "integrate": study_integrate,
}


def execute(cfg, studies):
    """Run ``studies`` in order and write the manifest. The mesh studies
    share one :class:`masscale.system.MeshSystem` of the configured mesh,
    so each assembled pencil is solved once per call; the element study
    has one of a single element. The sweep section, the mesh and every
    scaling a study applies, sweep points included, are checked before
    any output is written: a rank that global deflation or local
    deflation S2 cannot take is a config error. Each system keeps the scalings applied here."""
    _require_sweep(cfg, "sweep" in studies)
    mesh = MeshSystem(cfg.mesh(), cfg.material) if set(studies) - {"element_spectrum"} else None
    element = MeshSystem(fem.build_structured_mesh((2, 2, 2), cfg.element_geometry_size()),
                         cfg.material) if "element_spectrum" in studies else None
    systems = {name: element if name == "element_spectrum" else mesh for name in studies}
    for name, system in systems.items():
        for spec in [s for _, s in cfg.sweep_points] if name == "sweep" else cfg.specs():
            try:
                system.scale(spec)
            except RankTooLarge as exc:
                raise ConfigError(f"scaling[{spec.label}]: {exc}") from exc
    emitter = Emitter(cfg.output_dir)
    timings = {}
    for name in studies:
        start = time.perf_counter()
        _STUDIES[name](cfg, emitter, systems[name])
        timings[name] = time.perf_counter() - start
    manifest = {
        "config": cfg.echo,
        "seed": cfg.seed,
        "versions": {"masscale": __version__, "numpy": np.__version__},
        "wall_clock_s": timings,
        "outputs": list(emitter.files),  # the study files, not the manifest itself
    }
    emitter.write_json("manifest.json", manifest)
    return manifest


def _run(config, out, seed, studies):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a numpy overflow ends as one line
            cfg = load_config(config)
            if out is not None:
                cfg.output_dir = out
            if seed is not None:
                cfg.seed = _seed(seed)
            if studies is None:
                studies = [n for n in STUDY_NAMES if cfg.studies.get(n)]
                if not studies:
                    raise ConfigError("studies: no study enabled")
            execute(cfg, studies)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)
    except MasscaleError as exc:
        click.echo(f"internal error: {exc}", err=True)
        sys.exit(2)
    except Exception as exc:  # the CLI contract: one line, no traceback
        message = " ".join(str(exc).split())
        click.echo(f"internal error: {type(exc).__name__}: {message}", err=True)
        sys.exit(2)
    sys.exit(0)


_common = [
    click.option("--config", required=True, type=click.Path(exists=False)),
    click.option("--out", default=None, help="output directory (overrides config)"),
    click.option("--seed", default=None, type=int),
]


def _with_common(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Mass scaling laboratory."""


@main.command()
@_with_common
def run(config, out, seed):
    """Run every study enabled in the config."""
    _run(config, out, seed, None)


def _make_single(study, cli_name):
    @main.command(name=cli_name)
    @_with_common
    def _cmd(config, out, seed):
        _run(config, out, seed, [study])

    _cmd.__doc__ = f"Run only the {study} study."
    return _cmd


for _study in STUDY_NAMES:
    _make_single(_study, _study.replace("_", "-"))


if __name__ == "__main__":
    main()
