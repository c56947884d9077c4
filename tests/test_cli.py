import hashlib
import json
import math
import os
import sys
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from masscale import analysis, cli, linalg, system
from masscale.errors import ConfigError, MasscaleError


def write_config(path, **overrides):
    base = {
        "material": {
            "young_modulus_gpa": 207.0,
            "poisson_ratio": 0.3,
            "density": 7800.0,
        },
        "geometry": {
            "mesh": {
                "node_counts": [4, 3, 3],
                "extents_mm": [40.0, 20.0, 10.0],
            }
        },
        "scalings": [{"kind": "olovsson", "beta": 10.0}],
        "seed": 42,
    }
    base.update(overrides)
    path.write_text(json.dumps(base))
    return base


class TestLoadConfig:
    def test_unit_conversion(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(path)
        cfg = cli.load_config(path)
        assert cfg.material.young_modulus == pytest.approx(207e9)
        assert cfg.mesh_extents == pytest.approx((0.04, 0.02, 0.01))
        assert cfg.mesh_counts == (4, 3, 3)
        assert cfg.scalings[0].kind == "olovsson"

    def test_element_geometry(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(path, geometry={"element": {"size_m": [1.0, 1.0, 0.001]}})
        cfg = cli.load_config(path)
        assert cfg.element_size == (1.0, 1.0, 0.001)
        assert cfg.element_geometry_size() == (1.0, 1.0, 0.001)

    def test_geometry_requires_exactly_one(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(
            path,
            geometry={
                "mesh": {"node_counts": [2, 2, 2], "extents_m": [1, 1, 1]},
                "element": {"size_m": [1, 1, 1]},
            },
        )
        with pytest.raises(ConfigError, match="geometry"):
            cli.load_config(path)

    def test_missing_material_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(path, material={"poisson_ratio": 0.3, "density": 7800.0})
        with pytest.raises(ConfigError, match="young_modulus"):
            cli.load_config(path)

    def test_sweep_validation(self, tmp_path):
        path = tmp_path / "cfg.json"
        write_config(path, sweep={"kind": "olovsson", "parameter": "beta", "values": []})
        with pytest.raises(ConfigError, match="sweep.values"):
            cli.load_config(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            cli.load_config(path)


class TestParseScaling:
    def test_aliases(self):
        spec = cli.parse_scaling({"kind": "global_deflation", "r": 5, "mode": "shave"})
        assert spec.rank == 5

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            cli.parse_scaling({"beta": 1.0})

    def test_bad_parameter_reported(self):
        with pytest.raises(ConfigError, match="olovsson"):
            cli.parse_scaling({"kind": "olovsson", "beta": -1.0})


class TestCommands:
    def run_cli(self, args):
        return CliRunner().invoke(cli.main, args)

    def test_element_spectrum_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, geometry={"element": {"size_m": [1.0, 1.0, 0.001]}})
        out = tmp_path / "out"
        res = self.run_cli(
            ["element-spectrum", "--config", str(cfg), "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert "element_spectrum" in manifest["wall_clock_s"]
        assert any("element_olovsson" in f for f in manifest["outputs"])
        data = json.loads((out / "element_olovsson_beta10.json").read_text())
        assert data["ordering_preserved"] is True

    def test_bounds_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out = tmp_path / "out"
        res = self.run_cli(["bounds", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        data = json.loads((out / "bounds_olovsson_beta10.json").read_text())
        assert data["eig_pert_bounds_mass:max_ratio"]["holds"] is True
        assert data["kappa_ratio"]["holds"] is True
        for record in data.values():
            for side in ("lower", "upper"):
                expected = None if record[side] is None else (
                    record["value"] - record[side] if side == "lower"
                    else record[side] - record["value"])
                assert record[f"slack_{side}"] == expected

    def test_unequal_specs_write_separate_files(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scalings=[
            {"kind": "cms", "alpha": 4.0},
            {"kind": "cms", "alpha": 4.0, "selector": list(range(8))},
            {"kind": "olovsson", "beta": 10.0},
            {"kind": "olovsson", "beta": 10.0, "projector_variant": True},
        ])
        out = tmp_path / "out"
        res = self.run_cli(["spectrum", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert len(outputs) == len(set(outputs)) == 8
        curves = {p: (out / p).read_text() for p in (
            "ratio_cms_alpha4.csv", "ratio_cms_alpha4_selector0-1-2-3-4-5-6-7.csv",
            "ratio_olovsson_beta10.csv", "ratio_olovsson_beta10_projector_variant.csv")}
        assert len(set(curves.values())) == 4

    def test_sweep_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            sweep={"kind": "olovsson", "parameter": "beta", "values": [1.0, 10.0]},
        )
        out = tmp_path / "out"
        res = self.run_cli(["sweep", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = (out / "sweep_olovsson_beta.csv").read_text().strip().splitlines()
        assert lines[0] == "value,dt_ratio,bound,kappa_ratio"
        assert len(lines) == 3

    def test_repeated_sweep_values_write_repeated_rows(self, tmp_path):
        # a repeated value is no config error: it adds a row to the sweep's
        # one file, equal to the first, and overwrites nothing
        cfg = tmp_path / "cfg.json"
        write_config(cfg, sweep={"kind": "olovsson", "parameter": "beta", "values": [10, 1, 10.0]})
        out = tmp_path / "out"
        res = self.run_cli(["sweep", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = (out / "sweep_olovsson_beta.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 3 and rows[0] == rows[2] != rows[1]

    def test_a_file_written_twice_is_an_internal_error(self, tmp_path, monkeypatch):
        # a clash that the config checks miss ends the run before it overwrites
        spec = cli.parse_scaling({"kind": "olovsson", "beta": 10.0})
        monkeypatch.setattr(cli.ExperimentConfig, "specs", lambda self: [spec, spec])
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        res = self.run_cli(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert res.exit_code == 2, res.output
        assert res.stderr.splitlines() == [
            "internal error: output bounds_olovsson_beta10.json is written twice"]

    def test_sweep_of_a_kind_without_bound_writes_nan(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, sweep={"kind": "uniform_lft", "parameter": "mu", "values": [2.0, 4.0]})
        out = tmp_path / "out"
        res = self.run_cli(["sweep", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = (out / "sweep_uniform_lft_mu.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["nan", "nan"]

    def test_sweep_study_without_section_writes_nothing(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out = tmp_path / "out"
        res = self.run_cli(["sweep", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 1
        assert "config error: sweep: " in res.output
        assert not out.exists()

    @pytest.mark.parametrize("sweep", [
        {"kind": "olovsson", "parameter": "beta", "values": ["x"]},
        {"kind": "olovsson", "parameter": "beta", "values": [10.0, -1.0]},
        {"kind": "no_such_kind", "parameter": "beta", "values": [1.0]},
        {"kind": "olovsson", "parameter": "no_such_parameter", "values": [1.0]},
    ])
    def test_bad_sweep_point_writes_nothing(self, tmp_path, sweep):
        # the points are parsed with the config, before the spectrum study writes
        cfg = tmp_path / "cfg.json"
        write_config(cfg, sweep=sweep, studies={"spectrum": True, "sweep": True})
        out = tmp_path / "out"
        res = self.run_cli(["run", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 1, res.output
        assert "config error: sweep" in res.output
        assert not out.exists()

    def test_integrate_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, scalings=[{"kind": "none"}, {"kind": "global_deflation", "rank": 4}])
        out = tmp_path / "out"
        res = self.run_cli(["integrate", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        data = json.loads((out / "stability_brackets.json").read_text())
        assert set(data) == {"none", "global_deflation_rank4"}
        for below, above in data.values():
            assert (below["classification"], above["classification"]) == ("stable", "unstable")
            # K and both masses split on this mesh, so the probe steps on the blocks
            assert below["path"] == above["path"] == "blocks"
            assert below["stable_crossing"] is None and below["unstable_crossing"] is None
            assert 0 < above["stable_crossing"] < above["unstable_crossing"] == above["steps_run"]

    def test_run_requires_enabled_study(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        res = self.run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert "config error" in res.output

    def test_run_with_enabled_studies(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, studies={"bounds": True})
        out = tmp_path / "out"
        res = self.run_cli(["run", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "manifest.json").exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        res = self.run_cli(["bounds", "--config", str(cfg)])
        assert res.exit_code == 1

    def test_seed_recorded_in_manifest(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, geometry={"element": {"size_m": [1.0, 1.0, 0.001]}})
        out = tmp_path / "out"
        res = self.run_cli(
            ["element-spectrum", "--config", str(cfg), "--out", str(out), "--seed", "7"]
        )
        assert res.exit_code == 0, res.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_negative_seed_flag_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, studies={"integrate": True})
        res = self.run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                            "--seed", "-1"])
        assert res.exit_code == 1, res.output
        assert res.stderr.splitlines() == ["config error: seed: expected a non-negative "
                                           "integer, got -1"]


class TestReports:
    def test_spectral_report_round_trip(self, tmp_path):
        # the spectrum file of a run holds its SpectralReport, key for key
        path = tmp_path / "cfg.json"
        write_config(path, scalings=[{"kind": "olovsson", "beta": 10.0},
                                     {"kind": "uniform_lft", "mu": 2.0}])
        cfg = cli.load_config(path)
        out = tmp_path / "out"
        cfg.output_dir = str(out)
        manifest = cli.execute(cfg, ["spectrum"])
        mesh = system.MeshSystem(cfg.mesh(), cfg.material)
        spec = cfg.scalings[0]
        report = analysis.spectral_report(mesh.values_km(), mesh.values_kmbar(mesh.scale(spec)),
                                          spec, mesh.blocks)
        assert report.kind == "olovsson"
        assert report.dt_scaled > report.dt_original
        data = json.loads((out / "spectrum_olovsson_beta10.json").read_text())
        assert data["kind"] == "olovsson"
        assert len(data["original_values"]) == mesh.pair.order
        assert data == {
            "kind": report.kind, "original_values": report.original_values.tolist(),
            "scaled_values": report.scaled_values.tolist(),
            "ratio_curve": report.ratio_curve.tolist(), "dt_original": report.dt_original,
            "dt_scaled": report.dt_scaled, "corollary_bound": report.corollary_bound,
            **dict.fromkeys(("kappa_m", "kappa_mbar", "kappa_pair", "gershgorin_scaled")),
        }
        for key in ("kappa_m", "kappa_mbar", "kappa_pair", "gershgorin_scaled"):
            assert key in data and data[key] is None
        # a kind without a corollary bound writes null
        assert json.loads((out / "spectrum_uniform_lft_mu2.json").read_text())[
            "corollary_bound"] is None
        # the manifest lists every study file and not itself
        written = json.loads((out / "manifest.json").read_text())["outputs"]
        assert written == manifest["outputs"]
        assert sorted(map(os.path.basename, written)) == sorted(
            name for name in os.listdir(out) if name != "manifest.json")

    def test_each_file_is_written_once(self, tmp_path):
        emitter = cli.Emitter(str(tmp_path))
        emitter.write_json("a.json", {"first": 1})
        for write in (emitter.write_json, emitter.write_csv):
            with pytest.raises(MasscaleError, match="output a.json is written twice"):
                write("a.json", {"second": [2]})
        assert json.loads((tmp_path / "a.json").read_text()) == {"first": 1}
        assert emitter.files == [str(tmp_path / "a.json")]

    def test_write_csv(self, tmp_path):
        emitter = cli.Emitter(str(tmp_path))
        emitter.write_csv("curve.csv", {"x": [1.0, 2.0], "y": [0.5, 1 / 3]})
        assert emitter.files == [str(tmp_path / "curve.csv")]
        lines = (tmp_path / "curve.csv").read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 3
        back = [float(v) for v in lines[1].split(",")]
        assert back == [1.0, 0.5]
        assert lines[2] == "2,0.33333333333333331"  # floats to 17 significant digits


def _probe(scaling):
    return {"scalings": [scaling]}


def _mesh_probe(**mesh):
    return {"geometry": {"mesh": {"node_counts": [3, 2, 2], **mesh}}}


# Malformed documents on a 3 x 2 x 2 mesh: each ends with the given exit
# code and a one-line message that starts with the given text. A list is
# written as the whole document.
PROBES = {
    "document_array": ([{"seed": 1}], 1, "config error: config: "),
    "material_number": ({"material": 5}, 1, "config error: material: "),
    "young_modulus_text": ({"material": {"young_modulus_gpa": "x", "poisson_ratio": 0.3,
                                         "density": 7800.0}}, 1,
                           "config error: material.young_modulus_gpa: "),
    "extents_text": (_mesh_probe(extents_mm="abc"), 1, "config error: extents_mm: "),
    "extents_entry_text": (_mesh_probe(extents_mm=["a", 1, 1]), 1,
                           "config error: extents_mm: "),
    "size_entry_text": ({"geometry": {"element": {"size_m": ["a", 1, 1]}}}, 1,
                        "config error: size_m: "),
    "seed_text": ({"seed": "x"}, 1, "config error: seed: "),
    "studies_list": ({"studies": []}, 1, "config error: studies: "),
    "output_dir_number": ({"output_dir": 5}, 1, "config error: output_dir: "),
    "rank_float": (_probe({"kind": "local_deflation_s2", "rank": 7.5}), 1,
                   "config error: scaling[local_deflation_s2]: "),
    "beta_nan": (_probe({"kind": "olovsson", "beta": float("nan")}), 1,
                 "config error: scaling[olovsson]: "),
    "rank_missing": (_probe({"kind": "eig_stabilization", "epsilon": 1e-3}), 1,
                     "config error: scaling[eig_stabilization]: "),
    "rank_zero": (_probe({"kind": "eig_stabilization", "rank": 0, "epsilon": 1e-3}), 1,
                  "config error: scaling[eig_stabilization]: "),
    "rank_above_element": (_probe({"kind": "local_deflation_s1", "rank": 30, "alpha": 1.0}), 1,
                           "config error: scaling[local_deflation_s1]: "),
    "selector_outside": (_probe({"kind": "cms", "alpha": 2.0, "selector": [99]}), 1,
                         "config error: scaling[cms]: "),
    "mode_bogus": (_probe({"kind": "global_deflation", "rank": 2, "mode": "bogus"}), 1,
                   "config error: scaling[global_deflation]: "),
    "rank_bool": (_probe({"kind": "local_deflation_s2", "rank": True}), 1,
                  "config error: scaling[local_deflation_s2]: "),
    "node_counts_text": ({"geometry": {"mesh": {"node_counts": ["a", 2, 2],
                                                "extents_mm": [30.0, 20.0, 10.0]}}}, 1,
                         "config error: geometry.mesh.node_counts: "),
    "node_counts_one": ({"geometry": {"mesh": {"node_counts": [1, 2, 2],
                                               "extents_mm": [30.0, 20.0, 10.0]}}}, 1,
                        "config error: geometry.mesh: "),
    "sweep_not_an_object": ({"sweep": [1, 2]}, 1, "config error: sweep: "),
    "sweep_one_item": ({"sweep": [1]}, 1, "config error: sweep: "),
    "sweep_null": ({"sweep": None}, 1, "config error: sweep: "),
    "sweep_study_without_section": ({"studies": {"sweep": True}}, 1, "config error: sweep: "),
    "scalings_number": ({"scalings": 5}, 1, "config error: scalings: "),
    "sweep_values_number": ({"sweep": {"kind": "olovsson", "parameter": "beta", "values": 5}}, 1,
                            "config error: sweep.values: "),
    "extents_zero": (_mesh_probe(extents_mm=[0, 20.0, 10.0]), 1, "config error: extents_mm: "),
    "young_modulus_overflow": ({"material": {"young_modulus_gpa": 1e300, "poisson_ratio": 0.3,
                                             "density": 7800.0}}, 1,
                               "config error: material.young_modulus_gpa: "),
    "node_counts_float": (_mesh_probe(node_counts=[3.5, 2, 2], extents_mm=[30.0, 20.0, 10.0]), 1,
                          "config error: geometry.mesh.node_counts: "),
    "seed_float": ({"seed": 4.5}, 1, "config error: seed: "),
    "seed_negative": ({"seed": -1}, 1, "config error: seed: "),
    "study_text": ({"studies": {"bounds": "no"}}, 1, "config error: studies: "),
    "study_unknown": ({"studies": {"bound": True}}, 1, "config error: studies: "),
    "sweep_parameter_list": ({"sweep": {"kind": "olovsson", "parameter": ["beta"],
                                        "values": [1.0]}}, 1, "config error: sweep.parameter: "),
    "sweep_kind_list": ({"sweep": {"kind": ["olovsson"], "parameter": "beta", "values": [1.0]}},
                        1, "config error: sweep.kind: "),
    # an element edge the hex8 kernel cannot integrate in double precision
    "extents_tiny": (_mesh_probe(extents_mm=[1e-300, 10.0, 10.0]), 1,
                     "config error: geometry.mesh.extents_mm: "),
    # E / h^2 is finite here, but the largest elasticity entry over h^2 is not
    "poisson_near_half": ({"material": {"young_modulus_gpa": 207.0,
                                        "poisson_ratio": 0.49999999999999994, "density": 7800.0},
                           **_mesh_probe(extents_mm=[1.5e-141, 10.0, 10.0])}, 1,
                          "config error: geometry.mesh.extents_mm: "),
    # a parameter given twice, by its name and an alias, or swept and fixed
    "rank_given_twice": (_probe({"kind": "global_deflation", "r": 2, "rank": 3}), 1,
                         "config error: scaling[global_deflation]: parameter rank is given twice"),
    "epsilon_given_twice": (_probe({"kind": "eig_stabilization", "rank": 3, "epsilon": 1e-3,
                                    "eps": 1e-3}), 1,
                            "config error: scaling[eig_stabilization]: parameter epsilon is given "
                            "twice"),
    "sweep_fixes_its_parameter": ({"sweep": {"kind": "olovsson", "parameter": "beta",
                                             "values": [1, 10, 100], "beta": 5}}, 1,
                                  "config error: sweep: parameter beta is given twice"),
    "sweep_fixes_its_parameter_by_alias": ({"sweep": {"kind": "local_deflation_s2",
                                                      "parameter": "rank", "values": [1, 2],
                                                      "r": 7}}, 1,
                                           "config error: sweep: scaling[local_deflation_s2]: "
                                           "parameter rank is given twice"),
    # two scalings with one label would write each of their files twice
    "scaling_given_twice": ({"scalings": [{"kind": "olovsson", "beta": 100.0},
                                          {"kind": "olovsson", "beta": 100}]}, 1,
                            "config error: scalings: olovsson_beta100 is given twice"),
    "none_given_twice": ({"scalings": [{"kind": "none"}, {"kind": "cms", "alpha": 4.0},
                                       {"kind": "none"}]}, 1,
                         "config error: scalings: none is given twice"),
    # numpy overflows past a well-formed config: one line, not its RuntimeWarnings
    "beta_overflow": (_probe({"kind": "olovsson", "beta": 1e308}), 2,
                      "internal error: RuntimeWarning: "),
}


@pytest.mark.parametrize("name", list(PROBES))
def test_malformed_config_one_line_no_traceback(tmp_path, name):
    overrides, code, prefix = PROBES[name]
    cfg = tmp_path / "cfg.json"
    if isinstance(overrides, list):
        cfg.write_text(json.dumps(overrides))
    else:
        write_config(cfg, **{"geometry": {"mesh": {"node_counts": [3, 2, 2],
                                                   "extents_mm": [30.0, 20.0, 10.0]}},
                             **overrides})
    res = CliRunner().invoke(cli.main, ["bounds", "--config", str(cfg), "--out",
                                        str(tmp_path / "out")])
    assert res.exit_code == code, res.output
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), res.stderr
    assert code != 1 or not (tmp_path / "out").exists()  # a config error writes nothing


# Documents with a key given twice in one object, as text: json keeps the
# last value, so without the check the first one was lost with no message.
REPEATED_KEYS = {
    "beta": ('"scalings": [{"kind": "olovsson", "beta": 1.0, "beta": 100.0}]',
             'scalings[0]: key "beta" is given twice'),
    "scalings": ('"scalings": [{"kind": "none"}], "scalings": [{"kind": "cms", "alpha": 4.0}]',
                 'config: key "scalings" is given twice'),
    "node_counts": ('"geometry": {"mesh": {"node_counts": [3, 2, 2], "node_counts": [4, 2, 2], '
                    '"extents_mm": [30.0, 20.0, 10.0]}}',
                    'geometry.mesh: key "node_counts" is given twice'),
}


@pytest.mark.parametrize("name", list(REPEATED_KEYS))
def test_repeated_key_is_a_config_error(tmp_path, name):
    text, message = REPEATED_KEYS[name]
    base = write_config(tmp_path / "base.json")
    del base["scalings"], base["geometry"]  # the text gives them
    if name != "node_counts":
        text += ', "geometry": ' + json.dumps({"mesh": {"node_counts": [3, 2, 2],
                                                        "extents_mm": [30.0, 20.0, 10.0]}})
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{" + text + ", " + json.dumps(base)[1:])
    res = CliRunner().invoke(cli.main, ["bounds", "--config", str(cfg), "--out",
                                        str(tmp_path / "out")])
    assert res.exit_code == 1, res.output
    assert res.stderr.splitlines() == [f"config error: {message}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["config", "option"])
def test_output_dir_that_cannot_be_made_is_a_config_error(tmp_path, where):
    # a directory under a regular file, or --out naming an existing file
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out" if where == "config" else blocker
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **({"output_dir": str(out)} if where == "config" else {}))
    args = ["bounds", "--config", str(cfg)] + (["--out", str(out)] if where == "option" else [])
    res = CliRunner().invoke(cli.main, args)
    assert res.exit_code == 1, res.output
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: output_dir: "), res.stderr


def _unreadable(tmp_path, name):
    """A config file that cannot be read as a document, and the CLI args."""
    cfg = tmp_path / "cfg.json"
    if name == "not_utf8":
        cfg.write_bytes(b"\xff\xfe" + json.dumps({"seed": 1}).encode("utf-16-le"))
    elif name == "nested_deep":
        cfg.write_text("[" * 100_000 + "]" * 100_000)
    else:
        write_config(cfg, output_dir="a\u0000b")
    return ["bounds", "--config", str(cfg)]


@pytest.mark.parametrize("name, prefix", [("not_utf8", "config error: config: "),
                                          ("nested_deep", "config error: config: "),
                                          ("output_dir_nul", "config error: output_dir: ")])
def test_unreadable_config_is_a_config_error(tmp_path, name, prefix):
    # bytes that are not UTF-8, JSON nested beyond the parser's depth, and
    # an output directory that no file system can name
    res = CliRunner().invoke(cli.main, _unreadable(tmp_path, name))
    assert res.exit_code == 1, res.output
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), res.stderr


def test_mesh_system_built_once_per_execute(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, sweep={"kind": "olovsson", "parameter": "beta", "values": [1.0]})
    cfg = cli.load_config(cfg_path)
    cfg.output_dir = str(tmp_path / "out")
    calls = []
    build = system.fem.element_blocks
    monkeypatch.setattr(system.fem, "element_blocks", lambda *a: calls.append(a) or build(*a))
    for expected in (1, 2):
        cli.execute(cfg, ["spectrum", "bounds", "sweep", "integrate"])
        assert len(calls) == expected


def _members(arg):
    """The matrices a linalg function reads: a pair's two, a tuple's, or the array."""
    if hasattr(arg, "a"):
        return arg.a, arg.b
    return (arg,) if hasattr(arg, "shape") else tuple(arg)


def _digest(m):
    """Digest of a matrix's entries, the same for its sparse and dense forms."""
    dense = m.toarray() if hasattr(m, "toarray") else m
    return hashlib.sha256(np.ascontiguousarray(dense, dtype=float)).hexdigest()


def test_each_assembled_pencil_solved_once_per_execute(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        scalings=[{"kind": "olovsson", "beta": 10.0}, {"kind": "cms", "alpha": 4.0},
                  {"kind": "none"}, {"kind": "global_deflation", "rank": 4}],
        sweep={"kind": "olovsson", "parameter": "beta", "values": [1.0, 10.0]},
    )
    cfg = cli.load_config(cfg_path)
    cfg.output_dir = str(tmp_path / "out")
    solves = Counter()  # (solver, order, digests of its matrices) -> outermost calls
    depth = [0]

    def counting(name, fn):
        def wrapper(arg, *args, **kwargs):
            if depth[0] == 0:
                mats = _members(arg)
                digests = tuple(_digest(m) for m in mats)
                solves[name, mats[0].shape[0], digests] += 1
            depth[0] += 1
            try:
                return fn(arg, *args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    tops = Counter()  # (top, order, digests of the pencil) -> partial dense solves

    def counting_top(fn):
        def wrapper(pair, top=None):
            if top is not None:
                tops[top, pair.order, tuple(_digest(m) for m in _members(pair))] += 1
            return fn(pair, top=top)

        return wrapper

    for name in ("generalized_eigvalues", "extreme_eigvalues", "generalized_eig"):
        original = getattr(linalg, name)
        wrapped = counting_top(original) if name == "generalized_eig" else counting(name, original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "masscale" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapped)
    for expected in (1, 2):
        cli.execute(cfg, ["spectrum", "bounds", "sweep", "integrate"])
        assembled = {key: n for key, n in solves.items() if key[1] > 24}
        # (K, M) and M, shared with none; (Kbar, Mbar) for the three other
        # configured specs; Mbar for those and the sweep's beta = 1; (Mbar, M)
        # for the four configured specs
        assert len(assembled) == 13
        assert set(assembled.values()) == {expected}
        # one top pair of (K, M), shared with none, and one of (Kbar, Mbar)
        # for the three other specs and the sweep's beta = 1: the sweep and
        # the probe share the pairs of (K, M) and beta = 10. Global deflation
        # rank 4 takes its top 5 pairs of (K, M) once.
        assert Counter(key[:2] for key in tops) == {(1, 108): 5, (5, 108): 1}
        assert set(tops.values()) == {expected}


def test_each_matrix_split_and_checked_once_per_execute(tmp_path, monkeypatch):
    # the kinds_small mesh (n = 360): its stiffness pencils have a low tail
    cfg_path = tmp_path / "cfg.json"
    write_config(
        cfg_path,
        geometry={"mesh": {"node_counts": [10, 4, 3], "extents_mm": [50.0, 15.0, 2.0]}},
        scalings=[{"kind": "olovsson", "beta": 10.0}, {"kind": "cms", "alpha": 4.0},
                  {"kind": "none"}, {"kind": "eig_stabilization", "rank": 3, "epsilon": 1e-6}],
        sweep={"kind": "olovsson", "parameter": "beta", "values": [1.0, 10.0]},
    )
    cfg = cli.load_config(cfg_path)
    cfg.output_dir = str(tmp_path / "out")
    n = 360
    calls = Counter()  # (function, digests of its order-n matrices, extremes without a split)
    splits = {}  # digest -> whether the matrix mirrors

    def counting(name, fn):
        def wrapper(arg, *args, **kwargs):
            result = fn(arg, *args, **kwargs)
            mats = (arg, args[0]) if name == "_ritz" else _members(arg)
            if name == "mirror_split" and mats[0].shape[0] == n // 3:
                mats = (sparse.block_diag([arg] * 3),)  # A_s: the split of I_3 (x) A_s
            if mats[0].shape[0] == n:
                key = tuple(_digest(m) for m in mats)
                bare = name == "extreme_eigvalues" and not isinstance(arg, linalg.CheckedMatrix)
                calls[name, key, bare] += 1
                if name == "mirror_split":
                    splits[key[0]] = result is not None
            return result

        return wrapper

    names = ("mirror_split", "require_symmetric", "_standard_form", "_ritz", "extreme_eigvalues")
    for name in names:
        original = getattr(linalg, name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "masscale" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    cli.execute(cfg, ["spectrum", "bounds", "sweep", "integrate"])

    def count(name, matrix=None, bare=False):
        return sum(c for (f, key, b), c in calls.items() if f == name
                   and (matrix is None or matrix in key) and b == bare)

    # K, M and the Mbar of olovsson (beta 1 and 10), cms and eig_stabilization;
    # none shares M's split, and a split that finds no mirror is kept too.
    # M and the olovsson and cms Mbar split once each, as their component A_s
    assert len(splits) == 6 and count("mirror_split") == 6
    assert list(splits.values()).count(False) == 1  # eig_stabilization's Mbar
    # full pencils solved without a split because a member does not mirror;
    # a low tail that _ritz recomputes from the blocks checks nothing again
    full = {key for f, key, _ in calls if f == "_standard_form"}
    assert any(f == "_ritz" and key not in full
               for f, key, _ in calls)  # a block solve needed the full pencil for its tail
    for matrix in splits:
        allowed = 1 + sum(key.count(matrix) for key in full)
        allowed += count("extreme_eigvalues", matrix, bare=True)
        assert count("require_symmetric", matrix) <= allowed


# The config fuzzer: one field of a valid document replaced by a drawn JSON
# value. FUZZ_FIELDS maps each field's path to a test of the values that
# are well formed there, or to the container type it must have.
FUZZ_BASE = {
    "material": {"young_modulus_gpa": 207.0, "poisson_ratio": 0.3, "density": 7800.0},
    "geometry": {"mesh": {"node_counts": [2, 2, 2], "extents_mm": [10.0, 10.0, 10.0]}},
    "scalings": [{"kind": "olovsson", "beta": 10.0}],
    "seed": 42,
    "output_dir": "out",
    "studies": {"element_spectrum": True},
}


def _finite(value, scale=1.0):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value * scale)
    except OverflowError:  # an int beyond the float range
        return False


def _triple(test):
    return lambda v: isinstance(v, list) and len(v) == 3 and all(map(test, v))


def _integrable(extents_mm=(10.0, 10.0, 10.0), counts=(2, 2, 2), young_gpa=207.0, nu=0.3):
    """The loader's rule for the element edges, with FUZZ_BASE's values by
    default: a normal element volume, and a finite (lambda + 2 mu) / h^2,
    times the volume where that exceeds one."""
    try:
        edges = [x * 1e-3 / (c - 1) for x, c in zip(extents_mm, counts)]
    except OverflowError:  # a count beyond the float range fails later, not in the loader
        return True
    h, volume = min(edges), edges[0] * edges[1] * edges[2]
    e = young_gpa * 1e9
    top = e * nu / ((1 + nu) * (1 - 2 * nu)) + 2 * (e / (2 * (1 + nu)))  # lambda + 2 mu
    return (volume >= sys.float_info.min
            and top * max(volume, 1.0) < sys.float_info.max * h * h)


FUZZ_FIELDS = {
    ("material",): dict,
    ("material", "young_modulus_gpa"): lambda v: (_finite(v, 1e9) and v > 0
                                                  and _integrable(young_gpa=v)),
    ("material", "poisson_ratio"): lambda v: _finite(v) and 0 <= v < 0.5 and _integrable(nu=v),
    ("material", "density"): lambda v: _finite(v) and v > 0,
    ("geometry",): dict,
    ("geometry", "mesh"): dict,
    ("geometry", "mesh", "node_counts"): lambda v: _triple(
        lambda c: isinstance(c, int) and not isinstance(c, bool) and c >= 2)(v)
        and _integrable(counts=v),
    ("geometry", "mesh", "extents_mm"): lambda v: _triple(
        lambda x: _finite(x, 1e-3) and x > 0)(v) and _integrable(extents_mm=v),
    ("scalings",): list,
    ("scalings", 0): dict,
    ("scalings", 0, "beta"): lambda v: _finite(v) and v >= 0,
    ("seed",): lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
    ("output_dir",): lambda v: isinstance(v, str),
    ("studies",): dict,
    ("studies", "element_spectrum"): lambda v: v is True,
    ("sweep",): dict,
}

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8,
)
_near_triples = st.lists(st.integers(-2, 4) | st.floats(-1e3, 1e3), min_size=3, max_size=3)


def _dumps_repeating(value, path):
    """``json.dumps(value)``, with the last key of ``path`` written twice in
    its object: first as it is, then again with the same value."""
    if not path:
        return json.dumps(value)
    key, rest = path[0], path[1:]
    if isinstance(value, list):
        return "[" + ", ".join(_dumps_repeating(v, rest) if i == key else json.dumps(v)
                               for i, v in enumerate(value)) + "]"
    items = [f"{json.dumps(k)}: {_dumps_repeating(v, rest) if k == key else json.dumps(v)}"
             for k, v in value.items()]
    if not rest:
        items.append(f"{json.dumps(key)}: {json.dumps(value[key])}")
    return "{" + ", ".join(items) + "}"


def _place(path):
    """Where the loader says a key of the object at ``path`` sits."""
    place = ""
    for key in path:
        place += f"[{key}]" if isinstance(key, int) else f".{key}" if place else key
    return place or "config"


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(sorted(FUZZ_FIELDS, key=str)), value=_json_values | _near_triples,
       repeat=st.booleans())
def test_config_fuzz_exits_with_one_line(tmp_path, path, value, repeat):
    # with ``repeat``, the field's key is given twice in its object, at
    # every nesting level of FUZZ_FIELDS: a config error that names both
    doc = json.loads(json.dumps(FUZZ_BASE))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    repeat = repeat and isinstance(path[-1], str)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_dumps_repeating(doc, path) if repeat else json.dumps(doc))
    res = CliRunner().invoke(cli.main, ["run", "--config", str(cfg), "--out",
                                        str(tmp_path / "out")])
    assert res.exit_code in (0, 1, 2), res.output
    assert "Traceback" not in res.stderr
    assert len(res.stderr.splitlines()) == (res.exit_code != 0), res.stderr
    expected = FUZZ_FIELDS[path]
    if repeat:
        assert res.exit_code == 1, res.stderr
        assert res.stderr == (f"config error: {_place(path[:-1])}: key {json.dumps(path[-1])} "
                              "is given twice\n")
    elif isinstance(expected, type):
        if not isinstance(value, expected):
            assert res.exit_code == 1, res.stderr
    elif expected(value):
        assert res.exit_code != 1, res.stderr
    else:
        assert res.exit_code == 1, res.stderr


# The 4 x 2 x 2-node mesh: n = 48 with six rigid-body modes, so global
# deflation at rank 42 shaves to a rigid-body value and rank 48 is out of range.
SMALL_MESH = {"mesh": {"node_counts": [4, 2, 2], "extents_mm": [40.0, 20.0, 10.0]}}


@pytest.mark.parametrize("rank", [48, 42])
@pytest.mark.parametrize("where", ["scalings", "sweep"])
def test_deflation_rank_too_large_is_a_config_error(tmp_path, rank, where):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    if where == "scalings":
        overrides = {"scalings": [{"kind": "global_deflation", "rank": rank}],
                     "studies": {"spectrum": True, "bounds": True}}
    else:
        overrides = {"sweep": {"kind": "global_deflation", "parameter": "rank",
                               "values": [1, rank]},
                     "studies": {"spectrum": True, "sweep": True}}
    write_config(cfg, geometry=SMALL_MESH, **overrides)
    res = CliRunner().invoke(cli.main, ["run", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 1, res.output
    lines = res.stderr.splitlines()
    assert len(lines) == 1, res.stderr
    assert lines[0].startswith(f"config error: scaling[global_deflation_rank{rank}]: ")
    assert not out.exists()


def test_deflation_rank_below_the_rigid_modes_runs(tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    write_config(cfg, geometry=SMALL_MESH, scalings=[{"kind": "global_deflation", "rank": 41}],
                 studies={"spectrum": True, "bounds": True})
    res = CliRunner().invoke(cli.main, ["run", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "spectrum_global_deflation_rank41.json").exists()


@pytest.mark.parametrize("rank", [18, 20])
def test_s2_rank_on_the_rigid_modes_is_a_config_error(tmp_path, rank):
    # the element's lambda_{24 - r} is a rigid-body value for r >= 18
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    write_config(cfg, geometry={"mesh": {"node_counts": [3, 2, 2],
                                         "extents_mm": [40.0, 20.0, 10.0]}},
                 scalings=[{"kind": "local_deflation_s2", "rank": rank}],
                 studies={"element_spectrum": True, "spectrum": True, "bounds": True})
    res = CliRunner().invoke(cli.main, ["run", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 1, res.output
    lines = res.stderr.splitlines()
    assert len(lines) == 1, res.stderr
    assert lines[0].startswith(f"config error: scaling[local_deflation_s2_rank{rank}]: rank ")
    assert not out.exists()


def test_untraced_pass_never_converts_a_checked_matrix(tmp_path, monkeypatch):
    # numpy converts a CheckedMatrix to a dense copy only for a reader outside
    # the package; eig_stabilization's Mbar does not mirror, so its pencils
    # and its probe take the paths off the blocks, and global deflation's
    # Mbar is a low-rank update that splits on the blocks and is never formed
    def refuse(self, dtype=None, copy=None):
        raise AssertionError("a CheckedMatrix was converted to an array")

    def refuse_update(self):
        raise AssertionError("a LowRankUpdate was formed dense")

    monkeypatch.setattr(linalg.CheckedMatrix, "__array__", refuse)
    monkeypatch.setattr(linalg.LowRankUpdate, "dense", refuse_update)
    specs = [{"kind": "olovsson", "beta": 10.0}, {"kind": "global_deflation", "rank": 4},
             {"kind": "eig_stabilization", "rank": 3, "epsilon": 1e-6}]
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, scalings=specs,
                 sweep={"kind": "olovsson", "parameter": "beta", "values": [1.0, 10.0]})
    cfg = cli.load_config(cfg_path)
    cfg.output_dir = str(tmp_path / "out")
    probe = system.MeshSystem(cfg.mesh(), cfg.material)
    assert probe.mass(probe.scale(cfg.scalings[2])).split is None
    cli.execute(cfg, ["spectrum", "bounds", "sweep", "integrate"])
    with open(tmp_path / "out" / "stability_brackets.json") as fh:
        paths = {label: [v["path"] for v in verdicts] for label, verdicts in json.load(fh).items()}
    assert "blocks" not in paths["eig_stabilization_rank3_epsilon1e-06"]
    assert paths["global_deflation_rank4"] == ["blocks", "blocks"]
