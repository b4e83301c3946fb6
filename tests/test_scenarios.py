"""Experiment layer: config parsing, validation, runs, sweeps, comparison, CLI."""

import ast
import inspect
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ringpdc import cli
from ringpdc import scenarios as sc
from ringpdc.propagator import PropagationResult, krylov_step

# Coarse grid and shallow spectrum: enough structure to exercise every code
# path while keeping each propagation in the millisecond range.
TINY_MATTER = sc.MatterSpec(v0_mev=200.0, n_levels=3, grid_points=31, grid_step_nm=2.8)


def tiny_degenerate(**over) -> sc.ScenarioConfig:
    cfg = sc.ScenarioConfig(
        kind="degenerate",
        label="tiny",
        matter=TINY_MATTER,
        modes=(sc.ModeSpec(10.0, 3, 0.05), sc.ModeSpec(5.0, 3, 0.05)),
        theta1_deg=60.0,
        initial=sc.InitialSpec(kind="fock", fock_k=1),
        propagation=sc.PropagationSpec(t_final_ps=0.4, dt_fs=4.0, record_stride=5),
    )
    return replace(cfg, **over)


def tiny_nondegenerate(**over) -> sc.ScenarioConfig:
    cfg = sc.ScenarioConfig(
        kind="nondegenerate_fock",
        label="tiny3",
        matter=TINY_MATTER,
        modes=(sc.ModeSpec(10.0, 2, 0.05), sc.ModeSpec(4.0, 2, 0.05), sc.ModeSpec(6.0, 2, 0.05)),
        initial=sc.InitialSpec(kind="fock", fock_k=1),
        propagation=sc.PropagationSpec(t_final_ps=0.3, dt_fs=4.0, record_stride=5),
    )
    return replace(cfg, **over)


@pytest.fixture(scope="module")
def store():
    """Shared matter solves for every tiny run in this module."""
    return {}


BASE_YAML = """
scenario:
  kind: degenerate
  label: parsed
matter:
  v0_meV: 200.0
  n_levels: 3
  grid_points: 31
  grid_step_nm: 2.8
modes:
  - {omega_meV: 10.0, n_max: 3, lambda: 0.05}
  - {omega_meV: 5.0, n_max: 3, lambda: 0.05}
angles:
  theta1_deg: 60.0
initial:
  kind: fock
  fock_k: 1
propagation:
  t_final_ps: 0.4
  dt_fs: 4.0
  record_stride: 5
"""


class TestParsing:
    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(BASE_YAML)
        cfg = sc.load_config(path)
        assert cfg.kind == "degenerate"
        assert cfg.label == "parsed"
        assert cfg.modes == (sc.ModeSpec(10.0, 3, 0.05), sc.ModeSpec(5.0, 3, 0.05))
        assert cfg.theta1_deg == 60.0
        assert cfg.initial == sc.InitialSpec(kind="fock", fock_k=1)
        assert cfg.propagation.t_final_ps == 0.4
        assert cfg.sweep is None

    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(BASE_YAML + "\nplotting:\n  style: fancy\n")
        with pytest.raises(sc.ConfigError, match="plotting"):
            sc.load_config(path)

    def test_unknown_section_key(self):
        data = {
            "scenario": {"kind": "degenerate"},
            "modes": [
                {"omega_meV": 10.0, "n_max": 3, "lambda": 0.0},
                {"omega_meV": 5.0, "n_max": 3, "lambda": 0.0},
            ],
            "propagation": {"t_final_ps": 1.0, "dt_fs": 4.0, "dt_ps": 1.0},
        }
        with pytest.raises(sc.ConfigError, match="dt_ps"):
            sc.parse_config(data)

    def test_missing_required_key(self):
        data = {
            "scenario": {"kind": "degenerate"},
            "modes": [{"omega_meV": 10.0, "n_max": 3, "lambda": 0.0}],
            "propagation": {"dt_fs": 4.0},
        }
        with pytest.raises(sc.ConfigError, match="t_final_ps"):
            sc.parse_config(data)

    def test_mode_entries_checked(self):
        data = {
            "scenario": {"kind": "degenerate"},
            "modes": [{"omega_meV": 10.0, "n_max": 3}],
            "propagation": {"t_final_ps": 1.0, "dt_fs": 4.0},
        }
        with pytest.raises(sc.ConfigError, match="lambda"):
            sc.parse_config(data)

    def test_wrong_type_rejected(self):
        data = {
            "scenario": {"kind": "degenerate"},
            "modes": [
                {"omega_meV": "ten", "n_max": 3, "lambda": 0.0},
                {"omega_meV": 5.0, "n_max": 3, "lambda": 0.0},
            ],
            "propagation": {"t_final_ps": 1.0, "dt_fs": 4.0},
        }
        with pytest.raises(sc.ConfigError, match="omega_meV must be a number"):
            sc.parse_config(data)

    def test_sweep_parsed_and_validated(self, tmp_path):
        path = tmp_path / "sweep.yaml"
        path.write_text(BASE_YAML + "\nsweep:\n  parameter: theta1\n  values: [0.0, 30.0]\n")
        cfg = sc.load_config(path)
        assert cfg.sweep == sc.SweepSpec("theta1", (0.0, 30.0))

    def test_sweep_must_be_monotone(self):
        with pytest.raises(sc.ConfigError, match="monotone"):
            sc.validate_sweep(sc.SweepSpec("theta1", (0.0, 30.0, 20.0)))

    def test_sweep_parameter_whitelisted(self):
        with pytest.raises(sc.ConfigError, match="xi2"):
            sc.validate_sweep(sc.SweepSpec("xi2", (1.0, 2.0)))

    def test_unknown_preset_lists_available(self):
        with pytest.raises(sc.ConfigError, match="degenerate"):
            sc.load_preset("no_such_preset")

    def test_every_preset_parses_and_validates(self):
        names = [name for name, _ in sc.list_presets()]
        assert "degenerate" in names and "reduced_bath" in names
        for name in names:
            cfg = sc.load_preset(name)
            assert cfg.label == name
            if cfg.sweep is None:
                sc.validate_config(cfg)
            else:
                sc.validate_config(replace(cfg, sweep=None))
                sc.validate_sweep(cfg.sweep)


class TestValidation:
    def test_nondegenerate_resonance(self):
        cfg = tiny_nondegenerate(
            modes=(sc.ModeSpec(10.0, 2, 0.0), sc.ModeSpec(2.0, 2, 0.0), sc.ModeSpec(6.0, 2, 0.0))
        )
        with pytest.raises(sc.ConfigError, match="energy conservation"):
            sc.validate_config(cfg)

    def test_degenerate_resonance(self):
        cfg = tiny_degenerate(modes=(sc.ModeSpec(10.0, 3, 0.0), sc.ModeSpec(6.0, 3, 0.0)))
        with pytest.raises(sc.ConfigError, match="omega1/2"):
            sc.validate_config(cfg)

    def test_mode_count_per_kind(self):
        cfg = tiny_degenerate(kind="nondegenerate_fock")
        with pytest.raises(sc.ConfigError, match="exactly 3 modes"):
            sc.validate_config(cfg)
        with pytest.raises(sc.ConfigError, match="exactly 2 modes"):
            sc.validate_config(tiny_nondegenerate(kind="degenerate"))

    def test_fock_level_inside_truncation(self):
        cfg = tiny_degenerate(initial=sc.InitialSpec(kind="fock", fock_k=7))
        with pytest.raises(sc.ConfigError, match="truncation"):
            sc.validate_config(cfg)

    def test_coherent_tail_guard(self):
        cfg = tiny_degenerate(initial=sc.InitialSpec(kind="coherent", xi1=2.0))
        with pytest.raises(sc.ConfigError, match="Poisson tail"):
            sc.validate_config(cfg)

    def test_bath_only_for_bath_kind(self):
        bath = sc.BathParams(lam=0.01, windows=((1.0, 2.0, 3),))
        with pytest.raises(sc.ConfigError, match="takes no bath"):
            sc.validate_config(tiny_degenerate(bath=bath))
        with pytest.raises(sc.ConfigError, match="requires a bath"):
            sc.validate_config(tiny_nondegenerate(kind="nondegenerate_bath"))

    def test_drive_pairing(self):
        with pytest.raises(sc.ConfigError, match="takes no drive"):
            sc.validate_config(tiny_degenerate(drive=sc.DriveParams(j0=0.1)))
        with pytest.raises(sc.ConfigError, match="requires a drive"):
            sc.validate_config(
                tiny_nondegenerate(
                    kind="current_driven", initial=sc.InitialSpec(kind="ground")
                )
            )

    def test_driven_runs_start_from_ground(self):
        cfg = tiny_nondegenerate(kind="current_driven", drive=sc.DriveParams(j0=0.1))
        with pytest.raises(sc.ConfigError, match="ground"):
            sc.validate_config(cfg)

    def test_few_level_needs_level_zero(self):
        cfg = tiny_degenerate(method=sc.MethodSpec(kind="few_level", levels=(1, 2)))
        with pytest.raises(sc.ConfigError, match="level 0"):
            sc.validate_config(cfg)

    def test_few_level_levels_bounded(self):
        cfg = tiny_degenerate(method=sc.MethodSpec(kind="few_level", levels=(0, 1, 5)))
        with pytest.raises(sc.ConfigError, match="levels"):
            sc.validate_config(cfg)

    def test_mean_field_needs_coherent_start(self):
        cfg = tiny_degenerate(method=sc.MethodSpec(kind="mean_field"))
        with pytest.raises(sc.ConfigError, match="coherent"):
            sc.validate_config(cfg)

    def test_memory_refusal_names_dimensions(self, monkeypatch):
        monkeypatch.setenv(sc.MEMORY_BUDGET_ENV, "0.001")
        with pytest.raises(sc.MemoryBudgetError, match="matter 3 x modes 4 x 4"):
            sc.validate_config(tiny_degenerate())

    def test_run_scenario_rejects_sweep_configs(self):
        cfg = tiny_degenerate(sweep=sc.SweepSpec("theta1", (0.0, 30.0)))
        with pytest.raises(sc.ConfigError, match="use run_sweep"):
            sc.run_scenario(cfg)


class TestRunScenario:
    def test_csv_layout_and_floors(self, tmp_path, store):
        res = sc.run_scenario(tiny_degenerate(), matter_store=store, out_dir=tmp_path)
        header, first, *_ = res.csv_path.read_text().splitlines()
        assert header == (
            "time_ps,n1,n2,P1_1,P2_1,P3_1,P1_2,P2_2,P3_2,"
            "Q1,Q2,g2_12,gamma1,gamma2,H1,H2"
        )
        cells = dict(zip(header.split(","), first.split(",")))
        # the signal starts empty, so its Mandel Q and the cross correlation
        # are below the occupation floor and the cells stay blank
        assert cells["time_ps"] == "0" and cells["n1"] == "1"
        assert cells["Q2"] == "" and cells["g2_12"] == ""
        assert cells["Q1"] == "-1"

    def test_json_summary_contents(self, tmp_path, store):
        res = sc.run_scenario(tiny_degenerate(), matter_store=store, out_dir=tmp_path)
        data = json.loads(res.json_path.read_text())
        assert data["scenario"] == "degenerate" and data["method"] == "full"
        assert data["dims"]["total"] == 3 * 4 * 4
        assert set(data["extrema"]) == {"n2_max", "t_n2_max_ps", "q2_min", "t_q2_min_ps"}
        assert 0.0 < data["eta"] < 1.0
        assert set(data["truncation_drift"]) == {"mode_1", "mode_2"}
        assert data["norm_drift"] < 1e-10
        assert data["runtime_s"] >= 0.0
        assert data["columns"] == res.csv_path.read_text().splitlines()[0].split(",")
        krylov = data["krylov"]
        assert set(krylov) == {"steps", "matvecs", "max_dim", "max_error"}
        assert all(isinstance(krylov[k], int) for k in ("steps", "matvecs", "max_dim"))
        assert isinstance(krylov["max_error"], float)
        assert krylov["steps"] >= 1 and krylov["matvecs"] >= krylov["steps"]
        assert 1 <= krylov["max_dim"] <= 20 and 0.0 <= krylov["max_error"] < 1e-10

    def test_bit_identical_reruns(self, tmp_path):
        # fresh matter stores: both runs solve the ring from scratch
        a = sc.run_scenario(tiny_degenerate(), matter_store={}, out_dir=tmp_path / "a")
        b = sc.run_scenario(tiny_degenerate(), matter_store={}, out_dir=tmp_path / "b")
        assert a.csv_path.read_bytes() == b.csv_path.read_bytes()

    def test_decoupled_occupations_stay_put(self, store):
        cfg = tiny_degenerate(
            modes=(sc.ModeSpec(10.0, 3, 0.0), sc.ModeSpec(5.0, 3, 0.0)), label="lam0"
        )
        res = sc.run_scenario(cfg, matter_store=store, write_files=False)
        assert np.allclose(res.series.occupations[0], 1.0, atol=1e-12)
        assert np.allclose(res.series.occupations[1], 0.0, atol=1e-12)
        few = sc.run_scenario(
            replace(cfg, method=sc.MethodSpec(kind="few_level", levels=(0, 1, 2))),
            matter_store=store,
            write_files=False,
        )
        assert np.allclose(few.series.occupations[0], res.series.occupations[0], atol=1e-12)
        assert np.allclose(few.series.occupations[1], res.series.occupations[1], atol=1e-12)

    def test_nondegenerate_photon_splitting(self, store):
        res = sc.run_scenario(tiny_nondegenerate(), matter_store=store, write_files=False)
        n1, n2, n3 = (res.series.occupations[m] for m in range(3))
        assert n1[0] == pytest.approx(1.0, abs=1e-12)
        # the pump dips while both signals rise
        assert n1.min() < 1.0 - 1e-6
        assert n2.max() > 1e-6 and n3.max() > 1e-6

    def test_field_driven_columns_renamed(self, tmp_path, store):
        cfg = tiny_nondegenerate(
            kind="field_driven",
            initial=sc.InitialSpec(kind="ground"),
            drive=sc.DriveParams(j0=0.05, t0_ps=0.05, tau_ps=0.02),
            label="tinyfield",
        )
        res = sc.run_scenario(cfg, matter_store=store, out_dir=tmp_path)
        header = res.csv_path.read_text().splitlines()[0].split(",")
        assert "n2" in header and "n3" in header and "g2_23" in header
        assert "n1" not in header and "g2_12" not in header
        assert set(res.summary["truncation_drift"]) == {"mode_2", "mode_3"}
        # no quantized pump, so the conversion efficiency is undefined
        assert res.summary["eta"] is None
        data = json.loads(res.json_path.read_text())
        assert data["eta"] is None

    def test_current_driven_populates_pump(self, store):
        cfg = tiny_nondegenerate(
            kind="current_driven",
            initial=sc.InitialSpec(kind="ground"),
            drive=sc.DriveParams(j0=2.0, t0_ps=0.05, tau_ps=0.02),
            label="tinycurrent",
        )
        res = sc.run_scenario(cfg, matter_store=store, write_files=False)
        assert res.summary["drive"]["kind"] == "classical_current"
        assert res.summary["drive"]["calibrated"] is False
        assert res.series.occupations[0].max() > 1e-4

    def test_bath_sector_runs(self, store):
        cfg = tiny_nondegenerate(
            kind="nondegenerate_bath",
            bath=sc.BathParams(lam=0.02, sector=1, windows=((3.0, 5.0, 3),)),
            label="tinybath",
        )
        res = sc.run_scenario(cfg, matter_store=store, write_files=False)
        assert res.summary["dims"]["bath"] == 1 + 3
        assert res.summary["dims"]["total"] == 3 * 27 * 4

    def test_mean_field_series(self, store):
        cfg = tiny_degenerate(
            initial=sc.InitialSpec(kind="coherent", xi1=0.6),
            modes=(sc.ModeSpec(10.0, 8, 0.05), sc.ModeSpec(5.0, 8, 0.05)),
            method=sc.MethodSpec(kind="mean_field"),
            label="tinymf",
        )
        res = sc.run_scenario(cfg, matter_store=store, write_files=False)
        assert res.series.method == "mean_field"
        assert res.series.occupations[0][0] == pytest.approx(0.36, abs=1e-9)
        q = res.series.mandel[0]
        assert np.all((q == 0.0) | np.isnan(q))
        assert res.summary["truncation_drift"] == {}


def tiny_calibrated(kind: str) -> sc.ScenarioConfig:
    return tiny_nondegenerate(
        kind=kind,
        initial=sc.InitialSpec(kind="ground"),
        modes=(
            sc.ModeSpec(10.0, 6, 0.05),
            sc.ModeSpec(4.0, 2, 0.0),
            sc.ModeSpec(6.0, 2, 0.0),
        ),
        drive=sc.DriveParams(
            j0=0.05,
            t0_ps=0.02,
            tau_ps=0.01,
            calibrate=True,
            target_n1=1.0,
            t_check_ps=0.05,
            tolerance=0.2,
        ),
        label=f"tinycal_{kind}",
    )


class TestCalibration:
    def test_calibrate_drive_reports_amplitude(self, store):
        report = sc.calibrate_drive(tiny_calibrated("current_driven"), matter_store=store)
        assert report["kind"] == "classical_current"
        assert report["j0"] > 0.0
        assert report["target_n1"] == 1.0

    def test_field_drive_takes_the_current_calibration(self, store):
        # the reference run drives the quantized pump with the current; the
        # classical field it generates keeps that amplitude
        current = sc.calibrate_drive(tiny_calibrated("current_driven"), matter_store=store)
        field_cfg = tiny_calibrated("field_driven")
        report = sc.calibrate_drive(field_cfg, matter_store=store)
        assert report["kind"] == "classical_field"
        assert report["j0"] == current["j0"]
        res = sc.run_scenario(field_cfg, matter_store=store, write_files=False)
        assert res.summary["drive"]["kind"] == "classical_field"
        assert res.summary["drive"]["calibrated"] is True
        assert res.summary["drive"]["j0"] == current["j0"]


class TestSweeps:
    def test_rows_match_individual_runs(self, tmp_path, store):
        base = tiny_degenerate()
        sweep = sc.SweepSpec("theta1", (0.0, 30.0))
        swept = sc.run_sweep(
            base, sweep, matter_store=store, out_dir=tmp_path / "sweep"
        )
        assert [r["error"] for r in swept.rows] == [None, None]
        for value, res in zip(sweep.values, swept.results):
            cfg = sc.sweep_row_config(base, "theta1", value, matter_store=store)
            alone = sc.run_scenario(cfg, matter_store=store, out_dir=tmp_path / "alone")
            assert res.csv_path.read_bytes() == alone.csv_path.read_bytes()

    def test_sweep_table_written(self, tmp_path, store):
        base = tiny_degenerate()
        swept = sc.run_sweep(
            base, sc.SweepSpec("theta1", (0.0, 30.0)), matter_store=store, out_dir=tmp_path
        )
        lines = swept.table_path.read_text().splitlines()
        assert lines[0].split(",") == list(sc._SWEEP_COLUMNS)
        assert len(lines) == 3
        data = json.loads(swept.json_path.read_text())
        assert data["parameter"] == "theta1" and len(data["rows"]) == 2

    def test_failed_rows_recorded_and_sweep_continues(self, tmp_path, store):
        base = tiny_degenerate()
        swept = sc.run_sweep(
            base, sc.SweepSpec("V0", (-50.0, 200.0)), matter_store=store, out_dir=tmp_path
        )
        assert swept.rows[0]["error"] is not None
        assert swept.rows[1]["error"] is None
        assert swept.results[0] is None and swept.results[1] is not None

    def test_lambda_rows_rescale_every_mode(self):
        base = tiny_degenerate()
        cfg = sc.sweep_row_config(base, "lambda", 0.02)
        assert all(m.lam == 0.02 for m in cfg.modes)
        assert cfg.sweep is None

    def test_xi1_rows_grow_the_pump_truncation(self):
        base = tiny_degenerate(
            initial=sc.InitialSpec(kind="coherent", xi1=0.5),
            modes=(sc.ModeSpec(10.0, 20, 0.05), sc.ModeSpec(5.0, 3, 0.05)),
        )
        cfg = sc.sweep_row_config(base, "xi1", 2.0)
        assert cfg.initial.xi1 == 2.0
        assert cfg.modes[0].n_max >= 20
        with pytest.raises(sc.ConfigError, match="coherent"):
            sc.sweep_row_config(tiny_degenerate(), "xi1", 2.0)

    def test_v0_rows_retune_to_the_gap(self, store):
        base = tiny_degenerate()
        cfg = sc.sweep_row_config(base, "V0", 150.0, matter_store=store)
        assert cfg.matter.v0_mev == 150.0
        assert cfg.modes[1].omega_mev == pytest.approx(0.5 * cfg.modes[0].omega_mev)
        with pytest.raises(sc.ConfigError, match="degenerate"):
            sc.sweep_row_config(tiny_nondegenerate(), "V0", 150.0)


class TestCompareMethods:
    def test_aligned_grids_and_deviation_summary(self, tmp_path, store):
        cfg = tiny_degenerate(
            initial=sc.InitialSpec(kind="coherent", xi1=0.6),
            modes=(sc.ModeSpec(10.0, 8, 0.05), sc.ModeSpec(5.0, 8, 0.05)),
            label="cmp",
        )
        res = sc.compare_methods(
            cfg, ["full", "few_level", "mean_field"], matter_store=store, out_dir=tmp_path
        )
        assert res.reference == "full"
        times = {m: r.times_ps for m, r in res.runs.items()}
        for t in times.values():
            assert np.allclose(t, res.runs["full"].times_ps, atol=1e-9)
        header = res.table_path.read_text().splitlines()[0].split(",")
        quantum = (
            "n1,n2,P1_1,P2_1,P3_1,P1_2,P2_2,P3_2,Q1,Q2,g2_12,gamma1,gamma2,H1,H2".split(",")
        )
        mean_field = "n1,n2,Q1,Q2,g2_12,gamma1,gamma2,H1,H2".split(",")
        assert header == (
            ["time_ps"]
            + [f"{n}.full" for n in quantum]
            + [f"{n}.few_level3" for n in quantum]
            + [f"{n}.mean_field" for n in mean_field]
        )
        data = json.loads(res.json_path.read_text())
        assert set(data["methods"]) == {"few_level3", "mean_field"}
        for entries in data["methods"].values():
            assert all({"column", "max_signed_deviation", "t_ps"} <= set(e) for e in entries)

    def test_mean_field_mandel_columns_all_zero(self, store):
        cfg = tiny_degenerate(
            initial=sc.InitialSpec(kind="coherent", xi1=0.6),
            modes=(sc.ModeSpec(10.0, 8, 0.05), sc.ModeSpec(5.0, 8, 0.05)),
        )
        res = sc.compare_methods(
            cfg, ["full", "mean_field"], matter_store=store, write_files=False
        )
        mf = res.runs["mean_field"].series
        for q in mf.mandel.values():
            finite = q[np.isfinite(q)]
            assert np.all(finite == 0.0)

    def test_decoupled_methods_agree(self, store):
        cfg = tiny_degenerate(
            initial=sc.InitialSpec(kind="coherent", xi1=0.6),
            modes=(sc.ModeSpec(10.0, 8, 0.0), sc.ModeSpec(5.0, 8, 0.0)),
            label="cmp0",
        )
        res = sc.compare_methods(
            cfg, ["full", "few_level", "mean_field"], matter_store=store, write_files=False
        )
        ref = res.runs["full"].series
        for name, run in res.runs.items():
            for m in range(2):
                assert np.allclose(
                    run.series.occupations[m], ref.occupations[m], atol=1e-10
                ), name

    def test_unknown_method_rejected(self, store):
        with pytest.raises(sc.ConfigError, match="semiclassical"):
            sc.compare_methods(tiny_degenerate(), ["full", "semiclassical"])


class TestCli:
    def test_run_and_validate_verbs(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_text(BASE_YAML)
        assert cli.main(["validate-config", "--config", str(path)]) == 0
        assert "state dimension 48" in capsys.readouterr().out
        assert cli.main(["run", "--config", str(path), "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "n2_max" in out and (tmp_path / "parsed.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(BASE_YAML + "\ntypo_section:\n  a: 1\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "typo_section" in capsys.readouterr().err

    def test_unknown_preset_exit_code(self, capsys):
        assert cli.main(["run", "--preset", "missing"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_memory_refusal_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(sc.MEMORY_BUDGET_ENV, "0.001")
        path = tmp_path / "run.yaml"
        path.write_text(BASE_YAML)
        assert cli.main(["validate-config", "--config", str(path)]) == 4
        assert "resource refusal" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # an absurd step with a two-vector subspace cannot reach tolerance
        path = tmp_path / "run.yaml"
        path.write_text(
            BASE_YAML.replace("dt_fs: 4.0", "dt_fs: 400.0").replace(
                "record_stride: 5", "krylov_dim: 2"
            )
        )
        assert cli.main(["run", "--config", str(path), "--output-dir", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_sweep_verb(self, tmp_path, capsys):
        path = tmp_path / "sweep.yaml"
        path.write_text(BASE_YAML + "\nsweep:\n  parameter: theta1\n  values: [0.0, 30.0]\n")
        assert cli.main(["sweep", "--config", str(path), "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "theta1 = 0" in out and "theta1 = 30" in out

    def test_list_presets_verb(self, capsys):
        assert cli.main(["list-presets"]) == 0
        out = capsys.readouterr().out
        assert "degenerate" in out and "reduced_bath" in out

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ringpdc.cli", "run", "--preset", "missing"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


def smoke_config(name: str) -> sc.ScenarioConfig:
    """A shipped preset on the tiny grid: three steps, small truncations, two sweep values."""
    cfg = sc.load_preset(name)
    pump = cfg.modes[0]
    if cfg.initial.kind == "coherent":
        # the smallest truncation the Poisson tail guard accepts
        pump = replace(pump, n_max=sc._min_coherent_fock(cfg.initial.xi1))
    elif cfg.initial.kind == "fock":
        pump = replace(pump, n_max=min(pump.n_max, cfg.initial.fock_k + 1))
    # a driven pump keeps its truncation: the calibration must reach target_n1
    signals = tuple(replace(m, n_max=min(m.n_max, 2)) for m in cfg.modes[1:])
    p = cfg.propagation
    cfg = replace(
        cfg,
        matter=TINY_MATTER,
        modes=(pump, *signals),
        propagation=replace(p, t_final_ps=3 * p.dt_fs * 1e-3),
    )
    if cfg.sweep is not None:
        cfg = replace(cfg, sweep=replace(cfg.sweep, values=cfg.sweep.values[:2]))
    return cfg


@pytest.mark.parametrize("name", [name for name, _ in sc.list_presets()])
def test_every_preset_runs(name, tmp_path, store):
    cfg = smoke_config(name)
    if cfg.sweep is None:
        res = sc.run_scenario(cfg, matter_store=store, out_dir=tmp_path)
        assert res.summary["samples"] >= 2
    else:
        swept = sc.run_sweep(cfg, matter_store=store, out_dir=tmp_path, max_workers=1)
        assert [row["error"] for row in swept.rows] == [None, None]


def fixed_dt_propagate(h, state, t_final, config, terms=(), observables=None):
    """Reference propagation: krylov_step by dt (one short tail step),
    recording every record_stride steps and at the end."""
    assert not terms
    n_full = int(math.floor((t_final - state.time) / config.dt + 1e-9))
    remainder = t_final - state.time - n_full * config.dt
    steps = [config.dt] * n_full + ([remainder] if remainder >= 1e-9 * config.dt else [])
    times, records = [], {name: [] for name in observables}

    def snapshot(s):
        times.append(s.time)
        for name, func in observables.items():
            records[name].append(func(s))

    snapshot(state)
    for k, dt in enumerate(steps):
        state = krylov_step(h, state, dt, config)
        if (k + 1) % config.record_stride == 0 or k + 1 == len(steps):
            snapshot(state)
    return PropagationResult(
        final=state,
        times=np.asarray(times),
        records={name: np.asarray(vals) for name, vals in records.items()},
    )


@pytest.mark.parametrize("name", ["degenerate", "single_photon"])
def test_record_stepping_matches_fixed_dt(name, monkeypatch, store):
    # two and a half record intervals plus a short tail step on the tiny grid
    cfg = smoke_config(name)
    p = cfg.propagation
    span = (2.5 * p.record_stride + 0.4) * p.dt_fs * 1e-3
    cfg = replace(cfg, propagation=replace(p, t_final_ps=span))
    stepped = sc.run_scenario(cfg, matter_store=store, write_files=False)
    monkeypatch.setattr(sc, "propagate", fixed_dt_propagate)
    fixed = sc.run_scenario(cfg, matter_store=store, write_files=False)
    assert stepped.names == fixed.names and len(stepped.times_ps) == 4
    assert np.allclose(stepped.times_ps, fixed.times_ps, rtol=1e-12, atol=0.0)
    # 1e-8 absolute; the relative term covers g2 between occupations just above
    # the 1e-6 floor, where 1e-15 roundoff in the joint population of ~3e-8
    # is already 3e-8 relative (single_photon g2_23 = 38.7)
    np.testing.assert_allclose(stepped.rows, fixed.rows, rtol=1e-7, atol=1e-8, equal_nan=True)
    assert stepped.summary["krylov"]["steps"] < 2.5 * p.record_stride


def test_benchmark_tracer_names_resolve():
    # the benchmark's tracer swaps these scenarios globals by name and binds
    # propagate's arguments by keyword
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text()
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED"
    )
    assert traced
    for _, name in traced:
        assert callable(getattr(sc, name, None)), name
    params = inspect.signature(sc.propagate).parameters
    assert {"h", "state", "t_final", "config", "observables"} <= set(params)
