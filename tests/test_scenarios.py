"""Experiment layer: config parsing, validation, runs, sweeps, comparison, CLI."""

import ast
import csv
import dataclasses
import inspect
import json
import math
import subprocess
import sys
import time
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from ringpdc import cli
from ringpdc import hamiltonian as ham
from ringpdc import propagator as prop
from ringpdc import scenarios as sc
from ringpdc.photon import BathWindow
from ringpdc.propagator import RENORM_TOL, TAIL_TOL, CoupledState, PropagationResult
from ringpdc.propagator import ground_state

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


ROOT = Path(__file__).resolve().parents[1]
EVERY_KEY = ROOT / "tests" / "configs" / "every_key.yaml"
REQUIRED = inspect.Parameter.empty


def base_data(**sections) -> dict:
    """BASE_YAML as a key-value tree, with whole sections replaced."""
    return {**yaml.safe_load(BASE_YAML), **sections}


def declared_rule(hint):
    """The rule a field declares with Annotated (also inside X | None), or None."""
    for h in (hint, *typing.get_args(hint)):
        if typing.get_origin(h) is typing.Annotated:
            return h.__metadata__[0]
    return None


def schema_keys(cls=sc.ScenarioConfig, section="(root)", rules=False) -> dict:
    """{(section, YAML key): default or REQUIRED} of every scalar or
    scalar-list key, walking the config dataclasses as parse_config does;
    with rules, the value is the key's declared rule (or None) instead."""
    lifted = {name: sec for sec, names in sc._LIFTED.items() for name in names}
    hints = typing.get_type_hints(cls)
    declared = typing.get_type_hints(cls, include_extras=True)
    keys = {}
    for name, param in inspect.signature(cls).parameters.items():
        key, hint = sc._yaml_key(name), hints[name]
        record = next(
            (
                t
                for t in (hint, *typing.get_args(hint))
                if dataclasses.is_dataclass(t) or hasattr(t, "_fields")
            ),
            None,
        )
        if record is None:
            where = lifted.get(name, section) if cls is sc.ScenarioConfig else section
            keys[(where, key)] = declared_rule(declared[name]) if rules else param.default
        else:
            path = key if section == "(root)" else f"{section}.{key}"
            listed = typing.get_origin(hint) is tuple
            keys.update(schema_keys(record, path + ("[]" if listed else ""), rules))
    return keys


def yaml_keys(tree: dict, section="(root)") -> dict:
    """{(section, key): value} of a config tree, in schema_keys' spelling."""
    keys = {}
    for key, value in tree.items():
        path = key if section == "(root)" else f"{section}.{key}"
        if isinstance(value, dict):
            keys.update(yaml_keys(value, path))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for entry in value:
                keys.update(yaml_keys(entry, path + "[]"))
        else:
            keys[(section, key)] = value
    return keys


def _plain(value):
    return list(value) if isinstance(value, tuple) else value


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

    def test_every_key_parses(self):
        expected = sc.ScenarioConfig(
            kind="field_driven",
            label="every key",
            description="Every key of every section set off its default.",
            matter=sc.MatterSpec(
                v0_mev=150.0,
                omega0_mev=8.0,
                d_nm=12.0,
                grid_points=41,
                grid_step_nm=2.1,
                n_levels=5,
            ),
            modes=(sc.ModeSpec(24.0, 4, 0.02), sc.ModeSpec(10.0, 3, 0.01), sc.ModeSpec(14.0, 2, 0.03)),
            theta1_deg=10.0,
            theta2_deg=20.0,
            theta3_deg=30.0,
            initial=sc.InitialSpec(kind="coherent", fock_k=2, xi1=1.5),
            drive=sc.DriveParams(
                j0=0.3,
                t0_ps=0.1,
                tau_ps=0.02,
                omega_mev=24.5,
                calibrate=True,
                target_n1=2.0,
                t_check_ps=0.2,
                tolerance=0.01,
            ),
            bath=sc.BathSpec(lam=0.005, sector=1, windows=((0.5, 2.0, 3), (10.0, 20.0, 4))),
            propagation=sc.PropagationSpec(t_final_ps=2.5, dt_fs=3.0, record_stride=7),
            method=sc.MethodSpec(kind="few_level", levels=(0, 2, 3)),
            output=sc.OutputSpec(directory="out", basename="every_key"),
            sweep=sc.SweepSpec(parameter="xi1", values=(1.0, 2.0)),
        )
        cfg = sc.load_config(EVERY_KEY)
        assert cfg == expected
        assert all(type(w) is BathWindow for w in cfg.bath.windows)
        # integers given for number keys arrive as floats
        assert type(cfg.theta1_deg) is float and type(cfg.bath.windows[1].high_mev) is float

    def test_every_key_set_off_its_default(self):
        # the config above covers the whole schema, each key away from its default
        tree = yaml.safe_load(EVERY_KEY.read_text())
        given = yaml_keys(tree)
        schema = schema_keys()
        assert given.keys() == schema.keys()
        for key, default in schema.items():
            if default is not REQUIRED:
                assert _plain(given[key]) != _plain(default), key

    def test_null_section_means_defaults(self):
        cfg = sc.parse_config(
            base_data(matter=None, angles=None, initial=None, drive=None, method=None, output=None)
        )
        assert cfg.matter == sc.MatterSpec()
        assert (cfg.theta1_deg, cfg.theta2_deg, cfg.theta3_deg) == (0.0, 90.0, 90.0)
        assert cfg.initial == sc.InitialSpec()
        assert cfg.drive is None
        assert cfg.method == sc.MethodSpec() and cfg.output == sc.OutputSpec()
        with pytest.raises(sc.ConfigError, match="missing required keys in scenario: kind"):
            sc.parse_config(base_data(scenario=None))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("modes", 0, "n_max"), True, r"modes\[0\]\.n_max must be an integer, got True"),
            (("propagation", "record_stride"), 2.0, r"record_stride must be an integer, got 2\.0"),
            (("propagation", "dt_fs"), True, r"propagation\.dt_fs must be a number, got True"),
            (("method", "levels"), 2, r"method\.levels must be a list, got 2"),
            (("angles", "theta1_deg"), "ten", r"angles\.theta1_deg must be a number, got 'ten'"),
            (("modes", 1, "omega_meV"), "ten", r"modes\[1\]\.omega_meV must be a number"),
            (("bath", "windows", 2, "count"), "two", r"bath\.windows\[2\]\.count must be an integer"),
            (("bath", "windows", 2), [3.0, 4.0, 2], r"bath\.windows\[2\] must be a mapping"),
            (("drive", "calibrate"), 1, r"drive\.calibrate must be a boolean, got 1"),
            (("output", "basename"), 3, r"output\.basename must be a string, got 3"),
        ],
    )
    def test_wrong_type_names_the_yaml_location(self, path, value, message):
        window = {"low_meV": 1.0, "high_meV": 2.0, "count": 1}
        data = base_data(
            bath={"lambda": 0.01, "windows": [dict(window) for _ in range(3)]},
            drive={},
            method={"kind": "few_level", "levels": [0, 1]},
            output={},
        )
        node = data
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        with pytest.raises(sc.ConfigError, match=message):
            sc.parse_config(data)

    def test_lifted_keys_only_in_their_sections(self):
        # whether or not the section sets them
        with pytest.raises(sc.ConfigError, match="unknown keys in config root: label"):
            sc.parse_config(base_data(label="top"))
        with pytest.raises(sc.ConfigError, match="unknown keys in config root: theta2_deg"):
            sc.parse_config(base_data(theta2_deg=45.0))
        with pytest.raises(sc.ConfigError, match="unknown keys in angles: kind"):
            sc.parse_config(base_data(angles={"kind": "degenerate"}))

    def test_kind_and_mode_count_left_to_validation(self):
        cfg = sc.parse_config(base_data(scenario={"kind": "degenerat"}))
        with pytest.raises(sc.ConfigError, match=r"scenario\.kind must be one of .*, got 'degenerat'"):
            sc.validate_config(cfg)
        cfg = sc.parse_config(base_data(modes=[]))
        assert cfg.modes == ()
        with pytest.raises(sc.ConfigError, match="exactly 2 modes, got 0"):
            sc.validate_config(cfg)

    def test_unknown_preset_lists_available(self):
        with pytest.raises(sc.ConfigError, match="degenerate"):
            sc.load_preset("no_such_preset")

    def test_every_preset_parses_and_validates(self):
        names = [name for name, _ in sc.list_presets()]
        assert "degenerate" in names and "reduced_bath" in names
        for name in names:
            cfg = sc.load_preset(name)
            assert cfg.label == name
            sc.validate_config(cfg)


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
        bath = sc.BathSpec(lam=0.01, windows=((1.0, 2.0, 3),))
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

    def test_non_finite_floats_refused_as_the_parser_does(self):
        # before the range rule a positive field declares, and before any joint rule
        with pytest.raises(sc.ConfigError, match=r"^angles\.theta2_deg must be finite, got inf$"):
            sc.validate_config(tiny_degenerate(theta2_deg=math.inf))
        prop = sc.PropagationSpec(t_final_ps=0.4, dt_fs=math.nan)
        with pytest.raises(sc.ConfigError, match=r"^propagation\.dt_fs must be finite, got nan$"):
            sc.validate_config(tiny_degenerate(propagation=prop))
        bath = sc.BathSpec(lam=0.01, windows=((1.0, math.inf, 3),))
        with pytest.raises(sc.ConfigError, match=r"^bath\.windows\[0\]\.high_meV must be finite"):
            sc.validate_config(tiny_degenerate(bath=bath))

    def test_memory_refusal_names_dimensions(self, monkeypatch):
        monkeypatch.setenv(sc.MEMORY_BUDGET_ENV, "0.001")
        with pytest.raises(sc.MemoryBudgetError, match="matter 3 x modes 4 x 4"):
            sc.validate_config(tiny_degenerate())

    def test_run_scenario_rejects_sweep_configs(self, monkeypatch):
        cfg = tiny_degenerate(sweep=sc.SweepSpec("theta1", (0.0, 30.0)))
        with pytest.raises(sc.ConfigError, match="use run_sweep"):
            sc.run_scenario(cfg)
        # the sweep refusal comes before the budget check
        monkeypatch.setenv(sc.MEMORY_BUDGET_ENV, "0.001")
        with pytest.raises(sc.ConfigError, match="use run_sweep"):
            sc.run_scenario(cfg)

    def test_huge_bath_refused_without_enumerating(self, tmp_path, capsys):
        data = edited_preset("reduced_bath", ("bath", "windows", 0, "count"), 100_000)
        path = tmp_path / "huge_bath.yaml"
        path.write_text(yaml.safe_dump(data))
        started = time.perf_counter()
        with pytest.raises(sc.MemoryBudgetError, match="exceeds the budget"):
            sc.validate_config(sc.load_config(path))
        assert cli.main(["validate-config", "--config", str(path)]) == 4
        assert time.perf_counter() - started < 1.0
        assert "resource refusal" in capsys.readouterr().err


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
        assert set(data["symmetry"]) == {"reflection", "inversion", "matter_states", "total_dim"}
        assert data["symmetry"]["inversion"] == -1 and data["symmetry"]["total_dim"] == 24
        assert set(data["extrema"]) == {"n2_max", "t_n2_max_ps", "q2_min", "t_q2_min_ps"}
        assert 0.0 < data["eta"] < 1.0
        assert set(data["truncation_drift"]) == {"mode_1", "mode_2"}
        assert data["norm_drift"] < 1e-10
        assert data["runtime_s"] >= 0.0
        assert data["columns"] == res.csv_path.read_text().splitlines()[0].split(",")
        krylov = data["krylov"]
        assert set(krylov) == {
            "steps",
            "matvecs",
            "max_order",
            "max_error",
            "max_renorm_drift",
            "spectral_bounds",
            "blocks",
        }
        # the 24 rows of the Fock start's sector ran as one block, below the floor
        assert krylov["blocks"] == [24]
        assert all(isinstance(krylov[k], int) for k in ("steps", "matvecs", "max_order"))
        assert isinstance(krylov["max_error"], float)
        assert krylov["steps"] >= 1 and krylov["matvecs"] >= krylov["steps"]
        assert 1 <= krylov["max_order"] <= krylov["matvecs"]
        assert 0.0 <= krylov["max_error"] <= TAIL_TOL
        lo, hi = krylov["spectral_bounds"]
        assert isinstance(lo, float) and isinstance(hi, float) and lo < hi
        timings = data["timings"]
        phases = {"matter_s", "assemble_s", "propagate_s", "output_s"}
        assert set(timings) == phases | {"observe_s"}
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        # whole milliseconds, compared as integers; the observers run inside
        # the propagation
        spent = sum(round(timings[name] * 1000) for name in phases)
        assert spent <= round(data["runtime_s"] * 1000)
        assert timings["observe_s"] <= timings["propagate_s"]
        # the telemetry stays in the JSON: the CSV holds the series alone
        sc.write_series_csv(tmp_path / "series.csv", res.times_ps, res.names, res.rows)
        assert res.csv_path.read_bytes() == (tmp_path / "series.csv").read_bytes()
        # bytes of the propagated CSR: the inversion block of 24 states here
        assert isinstance(data["operator_mb"], float) and 0.0 < data["operator_mb"] < 1.0
        # the budget check's estimate next to the measured peak
        memory = data["memory"]
        assert set(memory) == {"estimated_mb", "peak_rss_mb"}
        assert all(isinstance(v, float) and v > 0.0 for v in memory.values())
        assert memory["estimated_mb"] == sc.memory_report(tiny_degenerate())["estimated_mb"]
        mf = sc.run_scenario(tiny_mean_field(), matter_store=store, out_dir=tmp_path)
        assert set(mf.summary["timings"]) == set(timings)
        assert all(isinstance(v, float) and v >= 0.0 for v in mf.summary["timings"].values())
        assert mf.summary["timings"]["observe_s"] <= mf.summary["timings"]["propagate_s"]
        assert mf.summary["operator_mb"] is None
        assert set(mf.summary["memory"]) == set(memory)
        assert all(isinstance(v, float) and v > 0.0 for v in mf.summary["memory"].values())

    def test_renormalization_drift_reads_back(self, tmp_path, store, monkeypatch):
        # every record of every window comes back 1e-10 too long: the krylov
        # block keeps that drift, which the renormalized final state hides
        original = prop._chebyshev_window

        def drifting(*args):
            return [(psi * (1.0 + 1e-10), order, err) for psi, order, err in original(*args)]

        monkeypatch.setattr(prop, "_chebyshev_window", drifting)
        res = sc.run_scenario(tiny_degenerate(), matter_store=store, out_dir=tmp_path)
        data = json.loads(res.json_path.read_text())
        assert data["krylov"]["max_renorm_drift"] == pytest.approx(1e-10, rel=1e-3)
        assert data["norm_drift"] < 1e-14

    def test_memory_estimate_counts_the_record_window(self, monkeypatch):
        cfg = tiny_degenerate()
        report = sc.memory_report(cfg)
        monkeypatch.setattr(sc, "WINDOW_CAP", 0)
        without = sc.memory_report(cfg)
        # two float rows of the state's length per record of a full window
        window_mb = 16 * report["total_dim"] * prop.WINDOW_CAP / 2**20
        assert report["estimated_mb"] - without["estimated_mb"] == pytest.approx(window_mb)

    def test_bit_identical_reruns(self, tmp_path):
        # fresh matter stores: both runs solve the ring from scratch
        a = sc.run_scenario(tiny_degenerate(), matter_store={}, out_dir=tmp_path / "a")
        b = sc.run_scenario(tiny_degenerate(), matter_store={}, out_dir=tmp_path / "b")
        assert a.csv_path.read_bytes() == b.csv_path.read_bytes()

    def test_decoupled_occupations_stay_put(self, tmp_path, store):
        cfg = tiny_degenerate(
            modes=(sc.ModeSpec(10.0, 3, 0.0), sc.ModeSpec(5.0, 3, 0.0)), label="lam0"
        )
        res = sc.run_scenario(cfg, matter_store=store, out_dir=tmp_path)
        cols = dict(zip(res.names, res.rows.T))
        assert np.allclose(cols["n1"], 1.0, atol=1e-12)
        assert np.allclose(cols["n2"], 0.0, atol=1e-12)
        few = sc.run_scenario(
            replace(cfg, method=sc.MethodSpec(kind="few_level", levels=(0, 1, 2))),
            matter_store=store,
            out_dir=tmp_path,
        )
        few_cols = dict(zip(few.names, few.rows.T))
        for name in ("n1", "n2"):
            assert np.allclose(few_cols[name], cols[name], atol=1e-12)

    def test_nondegenerate_photon_splitting(self, tmp_path, store):
        res = sc.run_scenario(tiny_nondegenerate(), matter_store=store, out_dir=tmp_path)
        cols = dict(zip(res.names, res.rows.T))
        n1, n2, n3 = cols["n1"], cols["n2"], cols["n3"]
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

    def test_current_driven_populates_pump(self, tmp_path, store):
        cfg = tiny_nondegenerate(
            kind="current_driven",
            initial=sc.InitialSpec(kind="ground"),
            drive=sc.DriveParams(j0=2.0, t0_ps=0.05, tau_ps=0.02),
            label="tinycurrent",
        )
        res = sc.run_scenario(cfg, matter_store=store, out_dir=tmp_path)
        assert res.summary["drive"]["kind"] == "classical_current"
        assert res.summary["drive"]["calibrated"] is False
        assert dict(zip(res.names, res.rows.T))["n1"].max() > 1e-4

    def test_bath_sector_runs(self, tmp_path, store):
        cfg = tiny_nondegenerate(
            kind="nondegenerate_bath",
            bath=sc.BathSpec(lam=0.02, sector=1, windows=((3.0, 5.0, 3),)),
            label="tinybath",
        )
        res = sc.run_scenario(cfg, matter_store=store, out_dir=tmp_path)
        assert res.summary["dims"]["bath"] == 1 + 3
        assert res.summary["dims"]["total"] == 3 * 27 * 4

    def test_mean_field_series(self, tmp_path, store):
        res = sc.run_scenario(tiny_mean_field(), matter_store=store, out_dir=tmp_path)
        cols = dict(zip(res.names, res.rows.T))
        assert res.summary["method"] == "mean_field"
        assert cols["n1"][0] == pytest.approx(0.36, abs=1e-9)
        q = cols["Q1"]
        assert np.all((q == 0.0) | np.isnan(q))
        assert res.summary["truncation_drift"] == {}


def tiny_mean_field(**over) -> sc.ScenarioConfig:
    return tiny_degenerate(
        initial=sc.InitialSpec(kind="coherent", xi1=0.6),
        modes=(sc.ModeSpec(10.0, 8, 0.05), sc.ModeSpec(5.0, 8, 0.05)),
        method=sc.MethodSpec(kind="mean_field"),
        label="tinymf",
        **over,
    )


def read_series_csv(path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """(time_ps, name -> column) of a written series CSV; empty cells read as NaN."""
    header, *lines = Path(path).read_text().splitlines()
    cells = [[float(c) if c else math.nan for c in line.split(",")] for line in lines]
    columns = dict(zip(header.split(","), np.asarray(cells).T))
    return columns.pop("time_ps"), columns


@pytest.mark.parametrize("make", [tiny_degenerate, tiny_mean_field], ids=["full", "mean_field"])
def test_json_headlines_match_csv(make, tmp_path, store):
    # eta and the signal extrema in the JSON summary, recomputed from the CSV
    # alone: an empty Q2 cell (unpopulated signal) counts as Q = 0
    res = sc.run_scenario(make(), matter_store=store, out_dir=tmp_path)
    data = json.loads(res.json_path.read_text())
    t, cols = read_series_csv(res.csv_path)
    q2 = np.nan_to_num(cols["Q2"], nan=0.0)
    i_n, i_q = int(np.argmax(cols["n2"])), int(np.argmin(q2))
    expect = {
        "n2_max": cols["n2"][i_n],
        "t_n2_max_ps": t[i_n],
        "q2_min": q2[i_q],
        "t_q2_min_ps": t[i_q],
    }
    assert data["extrema"].keys() == expect.keys()
    for key, value in expect.items():
        assert data["extrema"][key] == pytest.approx(value, rel=1e-11, abs=0.0), key
    assert data["eta"] == pytest.approx(cols["H2"].max() / cols["H1"][0], rel=1e-11, abs=0.0)
    assert data["samples"] == len(t)


@pytest.mark.parametrize(
    ("make", "edge"), [(tiny_degenerate, 3), (tiny_nondegenerate, 2)], ids=["n_max3", "n_max2"]
)
def test_truncation_drift_is_the_largest_edge_population(make, edge, tmp_path, store):
    # mode_k in the JSON is the largest population of mode k's top Fock
    # level over the records; the CSV holds that level's column when n_max <= 3
    res = sc.run_scenario(make(), matter_store=store, out_dir=tmp_path)
    drift = json.loads(res.json_path.read_text())["truncation_drift"]
    _, cols = read_series_csv(res.csv_path)
    n_modes = len(make().modes)
    assert list(drift) == [f"mode_{k}" for k in range(1, n_modes + 1)]
    for k in range(1, n_modes + 1):
        top = cols[f"P{edge}_{k}"].max()
        assert top > 0.0
        assert float(format(drift[f"mode_{k}"], ".12g")) == top


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

    def test_field_drive_takes_the_current_calibration(self, tmp_path, store):
        # the reference run drives the quantized pump with the current; the
        # classical field it generates keeps that amplitude
        current = sc.calibrate_drive(tiny_calibrated("current_driven"), matter_store=store)
        field_cfg = tiny_calibrated("field_driven")
        report = sc.calibrate_drive(field_cfg, matter_store=store)
        assert report["kind"] == "classical_field"
        assert report["j0"] == current["j0"]
        res = sc.run_scenario(field_cfg, matter_store=store, out_dir=tmp_path)
        assert res.summary["drive"]["kind"] == "classical_field"
        assert res.summary["drive"]["calibrated"] is True
        assert res.summary["drive"]["j0"] == current["j0"]


V0_SWEEP_FOCK = Path(__file__).parent / "configs" / "v0_sweep_fock.yaml"
THETA1_SWEEP_FOCK = Path(__file__).parent / "configs" / "theta1_sweep_fock.yaml"

# (budget, CLI source, error, exit code, message) of sweeps that every row would refuse
REFUSED_SWEEPS = {
    "v0_on_fock": (
        None, ["--config", str(V0_SWEEP_FOCK)], sc.ConfigError, 2, "degenerate scenario"
    ),
    "theta1_on_fock": (
        None, ["--config", str(THETA1_SWEEP_FOCK)], sc.ConfigError, 2, "degenerate scenario"
    ),
    "over_budget": ("1", ["--preset", "v0_sweep"], sc.MemoryBudgetError, 4, "exceeds the budget"),
}


class TestSweeps:
    @pytest.mark.parametrize("case", sorted(REFUSED_SWEEPS))
    def test_refused_before_any_row_runs(self, tmp_path, capsys, monkeypatch, case):
        budget, source, error, code, message = REFUSED_SWEEPS[case]

        def refused(*args):
            raise AssertionError("ring solved for a sweep that every row would refuse")

        monkeypatch.setattr(sc, "solve_ring", refused)
        if budget is not None:
            monkeypatch.setenv(sc.MEMORY_BUDGET_ENV, budget)
        flag, name = source
        config = sc.load_config(name) if flag == "--config" else sc.load_preset(name)
        with pytest.raises(error, match=message):
            sc.run_sweep(config, matter_store={}, out_dir=tmp_path)
        assert cli.main(["sweep", *source, "--output-dir", str(tmp_path)]) == code
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_rows_match_individual_runs(self, tmp_path, store):
        base = tiny_degenerate()
        sweep = sc.SweepSpec("theta1", (0.0, 30.0))
        swept = sc.run_sweep(
            replace(base, sweep=sweep), matter_store=store, out_dir=tmp_path / "sweep"
        )
        assert [r["error"] for r in swept.rows] == [None, None]
        for value, res in zip(sweep.values, swept.results):
            cfg = sc.sweep_row_config(base, "theta1", value, matter_store=store)
            alone = sc.run_scenario(cfg, matter_store=store, out_dir=tmp_path / "alone")
            assert res.csv_path.read_bytes() == alone.csv_path.read_bytes()

    def test_sweep_table_written(self, tmp_path, store):
        base = tiny_degenerate()
        swept = sc.run_sweep(
            replace(base, sweep=sc.SweepSpec("theta1", (0.0, 30.0))),
            matter_store=store,
            out_dir=tmp_path,
        )
        lines = swept.table_path.read_text().splitlines()
        assert lines[0].split(",") == list(sc._SWEEP_COLUMNS)
        assert len(lines) == 3
        data = json.loads(swept.json_path.read_text())
        assert data["parameter"] == "theta1" and len(data["rows"]) == 2

    def test_failed_rows_recorded_and_sweep_continues(self, tmp_path, store):
        base = tiny_degenerate()
        swept = sc.run_sweep(
            replace(base, sweep=sc.SweepSpec("V0", (-50.0, 200.0))),
            matter_store=store,
            out_dir=tmp_path,
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

    def test_xi1_sweep_validated_on_its_rows_not_its_base(self):
        # the base xi1 = 3 needs n_max >= 26, but every row replaces it
        base = tiny_degenerate(initial=sc.InitialSpec(kind="coherent", xi1=3.0))
        with pytest.raises(sc.ConfigError, match="Poisson tail guard"):
            sc.validate_config(base)
        sc.validate_config(replace(base, sweep=sc.SweepSpec("xi1", (0.5, 1.0))))

    def test_v0_rows_retune_to_the_gap(self, store):
        base = tiny_degenerate()
        cfg = sc.sweep_row_config(base, "V0", 150.0, matter_store=store)
        assert cfg.matter.v0_mev == 150.0
        assert cfg.modes[1].omega_mev == pytest.approx(0.5 * cfg.modes[0].omega_mev)
        with pytest.raises(sc.ConfigError, match="degenerate"):
            sc.sweep_row_config(tiny_nondegenerate(), "V0", 150.0)

    @pytest.mark.slow
    def test_efficiency_rises_with_lambda_at_full_size(self, tmp_path):
        """The shipped efficiency_lambda_sweep preset, unchanged: eta rises
        strictly with lambda over all five rows (about 12 s on 2 CPUs)."""
        cfg = sc.load_preset("efficiency_lambda_sweep")
        swept = sc.run_sweep(cfg, out_dir=tmp_path)
        assert [r["error"] for r in swept.rows] == [None] * 5
        assert list(swept.values) == sorted(swept.values)
        etas = [r["eta"] for r in swept.rows]
        assert all(b > a for a, b in zip(etas, etas[1:])), etas

    @pytest.mark.slow
    def test_signal_peaks_sooner_with_lambda_at_full_size(self, tmp_path):
        """The shipped lambda_sweep preset, unchanged: the first signal maximum
        arrives strictly sooner as lambda grows, 24.16 -> 16.78 -> 13.27 ps
        (about 18 s on 2 CPUs)."""
        cfg = sc.load_preset("lambda_sweep")
        swept = sc.run_sweep(cfg, out_dir=tmp_path)
        assert [r["error"] for r in swept.rows] == [None] * 3
        assert list(swept.values) == sorted(swept.values)
        peaks = [r["t_n2_max_ps"] for r in swept.rows]
        assert all(b < a for a, b in zip(peaks, peaks[1:])), peaks


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

    def test_mean_field_mandel_columns_all_zero(self, tmp_path, store):
        cfg = tiny_degenerate(
            initial=sc.InitialSpec(kind="coherent", xi1=0.6),
            modes=(sc.ModeSpec(10.0, 8, 0.05), sc.ModeSpec(5.0, 8, 0.05)),
        )
        res = sc.compare_methods(
            cfg, ["full", "mean_field"], matter_store=store, out_dir=tmp_path
        )
        mf = res.runs["mean_field"]
        for name in ("Q1", "Q2"):
            q = mf.rows[:, mf.names.index(name)]
            assert np.all(q[np.isfinite(q)] == 0.0)

    def test_decoupled_methods_agree(self, tmp_path, store):
        cfg = tiny_degenerate(
            initial=sc.InitialSpec(kind="coherent", xi1=0.6),
            modes=(sc.ModeSpec(10.0, 8, 0.0), sc.ModeSpec(5.0, 8, 0.0)),
            label="cmp0",
        )
        res = sc.compare_methods(
            cfg, ["full", "few_level", "mean_field"], matter_store=store, out_dir=tmp_path
        )
        ref = dict(zip(res.runs["full"].names, res.runs["full"].rows.T))
        for name, run in res.runs.items():
            cols = dict(zip(run.names, run.rows.T))
            for n in ("n1", "n2"):
                assert np.allclose(cols[n], ref[n], atol=1e-10), name

    @pytest.mark.parametrize(
        "methods",
        [["full", "few_level", "mean_field"], ["mean_field", "full", "few_level"]],
        ids=["full_first", "mean_field_first"],
    )
    def test_one_ring_solve_in_the_requested_order(self, tmp_path, monkeypatch, methods):
        solves = []
        solve_ring = sc.solve_ring

        def counted(*args):
            solves.append(args)
            return solve_ring(*args)

        monkeypatch.setattr(sc, "solve_ring", counted)
        res = sc.compare_methods(tiny_mean_field(), methods, matter_store={}, out_dir=tmp_path)
        assert len(solves) == 1
        assert list(res.runs) == methods
        labels = [run.summary["method"] for run in res.runs.values()]
        assert res.reference == labels[0]
        header = res.table_path.read_text().splitlines()[0].split(",")
        assert list(dict.fromkeys(h.split(".")[1] for h in header[1:])) == labels

    def test_with_method_keeps_or_defaults_levels(self):
        cfg = tiny_degenerate()
        assert sc.with_method(cfg, "few_level").method == sc.MethodSpec("few_level", (0, 1, 2))
        few = replace(cfg, method=sc.MethodSpec("few_level", (0, 2)))
        assert sc.with_method(few, "few_level").method == sc.MethodSpec("few_level", (0, 2))
        assert sc.with_method(few, "mean_field").method == sc.MethodSpec("mean_field", ())
        assert sc.with_method(few, "full") == replace(few, method=sc.MethodSpec())

    def test_unknown_method_rejected(self, store):
        with pytest.raises(sc.ConfigError, match="semiclassical"):
            sc.compare_methods(tiny_degenerate(), ["full", "semiclassical"])

    @pytest.mark.parametrize(
        "budget, match",
        [(None, "coherent initial state"), ("abc", "PDC_MEMORY_BUDGET_MB")],
        ids=["mean_field_from_fock", "malformed_budget"],
    )
    def test_invalid_config_refused_before_the_solve(self, monkeypatch, budget, match):
        def refused(*args):
            raise AssertionError("ring solved for a config that fails validation")

        monkeypatch.setattr(sc, "solve_ring", refused)
        if budget is not None:
            monkeypatch.setenv(sc.MEMORY_BUDGET_ENV, budget)
        with pytest.raises(sc.ConfigError, match=match):
            sc.compare_methods(tiny_degenerate(), ["full", "mean_field"], matter_store={})


def test_every_csv_ends_its_lines_in_newline_alone(tmp_path, store):
    # a run, a V0 sweep with a failing row, and a three-method comparison
    sc.run_scenario(tiny_degenerate(), matter_store=store, out_dir=tmp_path)
    swept = sc.run_sweep(
        replace(tiny_degenerate(), sweep=sc.SweepSpec("V0", (-50.0, 200.0))),
        matter_store=store,
        out_dir=tmp_path,
    )
    methods = ["full", "few_level", "mean_field"]
    sc.compare_methods(tiny_mean_field(), methods, matter_store=store, out_dir=tmp_path)
    written = sorted(path.name for path in tmp_path.glob("*.csv"))
    assert written == sorted(
        ["tiny.csv", "tiny_V0=200.csv", "tiny_V0_sweep.csv", "tinymf_methods.csv"]
        + ["tinymf_full.csv", "tinymf_few_level3.csv", "tinymf_mean_field.csv"]
    )
    for name in written:
        text = (tmp_path / name).read_bytes()
        assert b"\r" not in text and text.endswith(b"\n"), name
    # the failing row's error, commas and all, is one quoted cell
    error = "ValueError: require omega0 > 0, d > 0, v0 >= 0"
    assert swept.rows[0]["error"] == error
    with open(swept.table_path, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[1] == ["V0", "-50", "", "", "", "", "", "", error]
    assert f',"{error}"\n' in swept.table_path.read_text()


DRIVEN_YAML = (ROOT / "tests" / "configs" / "current_drive_tiny.yaml").read_text()


# Values that parse but that the ring solve, the bath sampling or the drive
# would reject only mid-run, so validation must: (preset, YAML path, value,
# key the error names).  A config in place of the preset is built with
# dataclasses.replace and never parsed.
OUT_OF_RANGE = [
    pytest.param("degenerate", ("modes", 0, "n_max"), 0, "modes[0].n_max", id="n-max"),
    pytest.param("degenerate", ("matter", "n_levels"), 0, "matter.n_levels", id="n-levels"),
    pytest.param("degenerate", ("propagation", "dt_fs"), -4.0, "propagation.dt_fs", id="dt"),
    pytest.param(
        "degenerate", ("propagation", "record_stride"), 0, "propagation.record_stride", id="stride"
    ),
    pytest.param("current_drive", ("drive", "tau_ps"), 0.0, "drive.tau_ps", id="tau"),
    pytest.param("degenerate", ("initial", "kind"), "squeezed", "initial.kind", id="initial"),
    pytest.param("degenerate", ("method",), {"kind": "exact"}, "method.kind", id="method"),
    pytest.param("v0_sweep", ("sweep", "parameter"), "V1", "sweep.parameter", id="sweep"),
    pytest.param(
        tiny_degenerate(modes=(sc.ModeSpec(10.0, 3, 0.05), sc.ModeSpec(5.0, 3, -0.05))),
        None,
        None,
        "modes[1].lambda",
        id="unparsed",
    ),
    pytest.param("degenerate", ("matter", "grid_points"), 126, "matter.grid_points", id="even-grid"),
    pytest.param("degenerate", ("matter", "grid_step_nm"), 0.0, "matter.grid_step_nm", id="step"),
    pytest.param("degenerate", ("matter", "omega0_meV"), -1.0, "matter.omega0_meV", id="omega0"),
    pytest.param("degenerate", ("matter", "d_nm"), 0.0, "matter.d_nm", id="d"),
    pytest.param("degenerate", ("matter", "v0_meV"), -5.0, "matter.v0_meV", id="v0"),
    pytest.param(
        "reduced_bath", ("bath", "windows", 0, "count"), 0, "bath.windows[0].count", id="count"
    ),
    pytest.param(
        "reduced_bath", ("bath", "windows", 0, "high_meV"), 0.113, "bath.windows[0]", id="empty"
    ),
    pytest.param(
        "reduced_bath", ("bath", "windows", 0, "low_meV"), 0.0, "bath.windows[0]", id="low"
    ),
    pytest.param(
        "reduced_bath", ("bath", "windows", 1, "low_meV"), 4.0, "bath.windows overlap", id="overlap"
    ),
    pytest.param("reduced_bath", ("bath", "sector"), 3, "bath.sector", id="sector"),
    pytest.param("reduced_bath", ("bath", "lambda"), -0.1, "bath.lambda", id="bath-lambda"),
    pytest.param("current_drive", ("drive", "omega_meV"), 0.0, "drive.omega_meV", id="carrier"),
    pytest.param(
        "single_photon", ("modes", 1, "omega_meV"), math.nan, "modes[1].omega_meV", id="nan-omega"
    ),
    pytest.param("single_photon", ("modes", 0, "lambda"), math.nan, "modes[0].lambda", id="nan-lam"),
    pytest.param(
        "degenerate", ("angles", "theta1_deg"), math.inf, "angles.theta1_deg", id="inf-angle"
    ),
    pytest.param(
        "single_photon",
        ("propagation", "t_final_ps"),
        math.inf,
        "propagation.t_final_ps",
        id="inf-t-final",
    ),
    pytest.param(
        tiny_degenerate(theta1_deg=math.nan), None, None, "angles.theta1_deg", id="unparsed-nan"
    ),
    pytest.param(
        tiny_degenerate(initial=sc.InitialSpec(kind="coherent", xi1=math.nan)),
        None,
        None,
        "initial.xi1",
        id="unparsed-nan-xi1",
    ),
    pytest.param(
        tiny_degenerate(sweep=sc.SweepSpec("theta1", (math.nan,))),
        None,
        None,
        "sweep.values[0]",
        id="unparsed-nan-sweep",
    ),
    # a wrongly typed value given in code meets the parser's type rule too
    pytest.param(
        tiny_degenerate(theta1_deg="60"),
        None,
        None,
        "angles.theta1_deg must be a number",
        id="unparsed-str-angle",
    ),
    pytest.param(
        tiny_degenerate(modes=(sc.ModeSpec("10", 3, 0.05), sc.ModeSpec(5.0, 3, 0.05))),
        None,
        None,
        "modes[0].omega_meV must be a number",
        id="unparsed-str-omega",
    ),
    pytest.param(
        tiny_degenerate(matter=replace(TINY_MATTER, n_levels=12.5)),
        None,
        None,
        "matter.n_levels must be an integer",
        id="unparsed-float-levels",
    ),
]


def edited_preset(name: str, path: tuple, value) -> dict:
    """A shipped preset's key-value tree with the entry at path set to value."""
    data = yaml.safe_load(sc._preset_root().joinpath(f"{name}.yaml").read_text())
    node = data
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return data


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

    def test_sweep_no_row_can_run_fails_validation(self, capsys):
        for path in (V0_SWEEP_FOCK, THETA1_SWEEP_FOCK):
            assert cli.main(["validate-config", "--config", str(path)]) == 2
            assert "defined for the degenerate scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-5"])
    def test_malformed_memory_budget_exit_code(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv(sc.MEMORY_BUDGET_ENV, value)
        path = tmp_path / "run.yaml"
        path.write_text(BASE_YAML)
        assert cli.main(["validate-config", "--config", str(path)]) == 2
        assert f"config error: PDC_MEMORY_BUDGET_MB={value!r}" in capsys.readouterr().err
        # a sweep is refused as a whole, not row by row
        path.write_text(BASE_YAML + "\nsweep:\n  parameter: theta1\n  values: [0.0, 30.0]\n")
        assert cli.main(["sweep", "--config", str(path), "--output-dir", str(tmp_path)]) == 2
        assert "PDC_MEMORY_BUDGET_MB" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("value", [0, -1])
    def test_sweep_worker_count_below_one_refused(self, tmp_path, capsys, monkeypatch, value):
        def refused(*args):
            raise AssertionError("ring solved for a sweep with no workers")

        monkeypatch.setattr(sc, "solve_ring", refused)
        base = replace(tiny_degenerate(), sweep=sc.SweepSpec("theta1", (0.0, 30.0)))
        with pytest.raises(sc.ConfigError, match=f"max_workers must be at least 1, got {value}"):
            sc.run_sweep(base, matter_store={}, out_dir=tmp_path, max_workers=value)
        path = tmp_path / "sweep.yaml"
        path.write_text(BASE_YAML + "\nsweep:\n  parameter: theta1\n  values: [0.0, 30.0]\n")
        out_dir = tmp_path / "out"
        argv = ["sweep", "--config", str(path), "--output-dir", str(out_dir)]
        assert cli.main([*argv, "--max-workers", str(value)]) == 2
        assert "config error: max_workers must be at least 1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_compare_takes_no_worker_count(self, tmp_path, capsys):
        argv = ["compare", "--preset", "degenerate", "--output-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--max-workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-workers" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_removed_krylov_dim_fails_at_parse(self, tmp_path, capsys):
        path = ROOT / "tests" / "configs" / "krylov_dim.yaml"
        assert cli.main(["validate-config", "--config", str(path)]) == 2
        assert "unknown keys in propagation: krylov_dim" in capsys.readouterr().err
        # the removed propagation.krylov_tol the same way
        data = yaml.safe_load(TINY_COHERENT_DEGENERATE.read_text())
        data["propagation"]["krylov_tol"] = 1e-10
        path = tmp_path / "krylov_tol.yaml"
        path.write_text(yaml.safe_dump(data))
        assert cli.main(["validate-config", "--config", str(path)]) == 2
        assert "unknown keys in propagation: krylov_tol" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # a pulse long after t_check leaves the pump empty for every j0, so
        # the calibration cannot bracket its target
        data = base_data(
            scenario={"kind": "current_driven"},
            modes=[
                {"omega_meV": 10.0, "n_max": 3, "lambda": 0.05},
                {"omega_meV": 5.0, "n_max": 2, "lambda": 0.05},
                {"omega_meV": 5.0, "n_max": 2, "lambda": 0.05},
            ],
            initial={"kind": "ground"},
            drive={"t0_ps": 50.0, "calibrate": True, "t_check_ps": 0.02},
        )
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(data))
        assert cli.main(["run", "--config", str(path), "--output-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "failed to bracket" in err

    def test_box_too_small_for_the_ring_exit_code(self, tmp_path, capsys):
        # 31 points of 0.7052 nm cut the ring: its ground level is no L_z
        # eigenstate, so the solve refuses the basis
        data = base_data()
        data["matter"] = {**data["matter"], "grid_step_nm": 0.7052}
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(data))
        assert cli.main(["run", "--config", str(path), "--output-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "angular momentum classification failed in level 1" in err

    def test_sweep_verb(self, tmp_path, capsys):
        path = tmp_path / "sweep.yaml"
        path.write_text(BASE_YAML + "\nsweep:\n  parameter: theta1\n  values: [0.0, 30.0]\n")
        assert cli.main(["sweep", "--config", str(path), "--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "theta1 = 0" in out and "theta1 = 30" in out

    def test_compare_verb(self, tmp_path, capsys):
        data = base_data(
            modes=[
                {"omega_meV": 10.0, "n_max": 8, "lambda": 0.05},
                {"omega_meV": 5.0, "n_max": 8, "lambda": 0.05},
            ],
            initial={"kind": "coherent", "xi1": 0.6},
        )
        path = tmp_path / "cmp.yaml"
        path.write_text(yaml.safe_dump(data))
        argv = [
            "compare", "--config", str(path), "--methods", "full,mean_field",
            "--output-dir", str(tmp_path),
        ]
        assert cli.main(argv) == 0
        assert "mean_field vs full" in capsys.readouterr().out
        assert (tmp_path / "parsed_methods.csv").exists()
        assert set(json.loads((tmp_path / "parsed_methods.json").read_text())["methods"]) == {
            "mean_field"
        }

    def test_list_presets_verb(self, capsys):
        assert cli.main(["list-presets"]) == 0
        out = capsys.readouterr().out
        assert "degenerate" in out and "reduced_bath" in out

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("drive", "tau_ps", 0, "drive.tau_ps must be positive, got 0"),
            ("scenario", "kind", "current_drive", "scenario.kind must be one of"),
            (None, "modes", [], "exactly 3 modes, got 0"),
            ("drive", "omega_meV", -24.0, "drive.omega_meV must be positive"),
            # calibration ranges the bisection would refuse only after the ring solve
            ("drive", "tolerance", 0, "drive.tolerance must lie in (0, drive.target_n1"),
            ("drive", "tolerance", 2.0, "drive.tolerance must lie in (0, drive.target_n1"),
            ("drive", "target_n1", -1, "drive.tolerance must lie in (0, drive.target_n1"),
            ("drive", "t_check_ps", 0, "drive.t_check_ps must be positive"),
            ("drive", "t_check_ps", -0.1, "drive.t_check_ps must be positive"),
        ],
    )
    def test_calibrate_drive_validates_first(self, tmp_path, capsys, section, key, value, message):
        data = yaml.safe_load(DRIVEN_YAML)
        (data if section is None else data[section])[key] = value
        path = tmp_path / "drive.yaml"
        path.write_text(yaml.safe_dump(data))
        assert cli.main(["calibrate-drive", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert cli.main(["validate-config", "--config", str(path)]) == 2

    @pytest.mark.parametrize("preset, path, value, key", OUT_OF_RANGE)
    def test_out_of_range_values_exit_code(self, tmp_path, capsys, preset, path, value, key):
        if isinstance(preset, sc.ScenarioConfig):
            # the parser never saw the value: validate_config refuses it alone
            for call in (sc.validate_config, lambda cfg: sc.run_scenario(cfg, out_dir=tmp_path)):
                with pytest.raises(sc.ConfigError) as refused:
                    call(preset)
                assert key in str(refused.value)
            return
        config = tmp_path / "edited.yaml"
        config.write_text(yaml.safe_dump(edited_preset(preset, path, value)))
        assert cli.main(["validate-config", "--config", str(config)]) == 2
        assert key in capsys.readouterr().err
        assert cli.main(["run", "--config", str(config), "--output-dir", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

    def test_run_method_override(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_text(BASE_YAML)
        argv = ["run", "--config", str(path), "--output-dir", str(tmp_path), "--method", "few_level"]
        assert cli.main(argv) == 0
        assert "parsed [few_level3]" in capsys.readouterr().out

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
        results = [res]
    else:
        swept = sc.run_sweep(cfg, matter_store=store, out_dir=tmp_path, max_workers=1)
        assert [row["error"] for row in swept.rows] == [None, None]
        results = swept.results
    # the largest drift a record had before its renormalization
    for res in results:
        if res.summary["krylov"] is not None:
            drift = res.summary["krylov"]["max_renorm_drift"]
            assert isinstance(drift, float) and 0.0 <= drift < RENORM_TOL


def fixed_dt_propagate(
    h, state, t_final, config, terms=(), observables=None, bounds=None, norm_order=None
):
    """Reference propagation: expm_multiply by dt (one short tail step),
    recording every record_stride steps and at the end, unrenormalized."""
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
        state = CoupledState(expm_multiply(-1j * dt * h, state.amplitudes), state.time + dt)
        if (k + 1) % config.record_stride == 0 or k + 1 == len(steps):
            snapshot(state)
    return PropagationResult(
        final=state,
        times=np.asarray(times),
        records={name: np.asarray(vals) for name, vals in records.items()},
    )


@pytest.mark.parametrize("name", ["degenerate", "single_photon"])
def test_record_stepping_matches_fixed_dt(tmp_path, name, monkeypatch, store):
    # two and a half record intervals plus a short tail step on the tiny grid
    cfg = smoke_config(name)
    p = cfg.propagation
    span = (2.5 * p.record_stride + 0.4) * p.dt_fs * 1e-3
    cfg = replace(cfg, propagation=replace(p, t_final_ps=span))
    stepped = sc.run_scenario(cfg, matter_store=store, out_dir=tmp_path)
    monkeypatch.setattr(sc, "propagate", fixed_dt_propagate)
    fixed = sc.run_scenario(cfg, matter_store=store, out_dir=tmp_path)
    assert stepped.names == fixed.names and len(stepped.times_ps) == 4
    assert np.allclose(stepped.times_ps, fixed.times_ps, rtol=1e-12, atol=0.0)
    # 1e-8 absolute; the relative term covers g2 between occupations just above
    # the 1e-6 floor, where 1e-15 roundoff in the joint population of ~3e-8
    # is already 3e-8 relative (single_photon g2_23 = 38.7)
    np.testing.assert_allclose(stepped.rows, fixed.rows, rtol=1e-7, atol=1e-8, equal_nan=True)
    assert stepped.summary["krylov"]["steps"] < 2.5 * p.record_stride


def unreduced_run(cfg, monkeypatch, store, out_dir):
    """The same run assembled on the whole (matter, tm), no reflection used."""
    with monkeypatch.context() as m:
        m.setattr(sc, "_matter_reflection", lambda modes: None)
        return sc.run_scenario(cfg, matter_store=store, out_dir=out_dir)


def assert_same_series(got, want, tol=1e-10):
    # |diff| <= tol * max(1, |want|): g2 cells reach ~4e3 on near-empty modes,
    # where roundoff in a degenerate cluster's rotation is amplified
    assert got.names == want.names
    assert np.array_equal(got.times_ps, want.times_ps)
    assert np.array_equal(np.isnan(got.rows), np.isnan(want.rows))
    finite = ~np.isnan(want.rows)
    diff = np.abs(got.rows[finite] - want.rows[finite])
    assert (diff <= tol * np.maximum(1.0, np.abs(want.rows[finite]))).all(), diff.max()


# the shipped tiny coherent degenerate config
TINY_COHERENT_DEGENERATE = Path(__file__).resolve().parent / "configs" / "degenerate_tiny.yaml"


def tiny_coherent(**over) -> sc.ScenarioConfig:
    n_max = sc._min_coherent_fock(0.6)
    return tiny_nondegenerate(
        kind="nondegenerate_coherent",
        initial=sc.InitialSpec(kind="coherent", xi1=0.6),
        modes=(
            sc.ModeSpec(10.0, n_max, 0.05),
            sc.ModeSpec(4.0, 2, 0.05),
            sc.ModeSpec(6.0, 2, 0.05),
        ),
        label="tinycoh",
        **over,
    )


def tiny_bath(**over) -> sc.ScenarioConfig:
    return tiny_nondegenerate(
        kind="nondegenerate_bath",
        bath=sc.BathSpec(lam=0.02, sector=1, windows=((3.0, 5.0, 3),)),
        label="tinybath",
        **over,
    )


class TestMatterReflection:
    """Runs whose modes all lie along x propagate only the y -> -y even matter
    sector; the tiny grid's 3 levels (l = 0, -1, 1) keep 2."""

    def test_symmetry_block(self, tmp_path, store):
        res = sc.run_scenario(tiny_nondegenerate(), matter_store=store, out_dir=tmp_path)
        data = json.loads(res.json_path.read_text())
        # the Fock start also confines the run to the inversion-odd sector:
        # 14 even and 13 odd photon configurations times matter parities (+1, -1)
        assert data["symmetry"] == {
            "reflection": "y",
            "inversion": -1,
            "matter_states": 2,
            "total_dim": 13 + 14,
        }
        assert data["dims"]["matter"] == 3 and data["dims"]["total"] == 3 * 27
        tilted = sc.run_scenario(tiny_degenerate(), matter_store=store, out_dir=tmp_path)
        data = json.loads(tilted.json_path.read_text())
        assert data["symmetry"] == {
            "reflection": None,
            "inversion": -1,
            "matter_states": 3,
            "total_dim": 8 + 2 * 8,
        }
        assert isinstance(data["symmetry"]["inversion"], int)
        assert isinstance(data["symmetry"]["matter_states"], int)
        assert isinstance(data["symmetry"]["total_dim"], int)
        coherent = sc.run_scenario(tiny_coherent(), matter_store=store, out_dir=tmp_path)
        assert coherent.summary["symmetry"]["inversion"] is None
        mf = sc.run_scenario(tiny_mean_field(), matter_store=store, out_dir=tmp_path)
        assert mf.summary["symmetry"] == {
            "reflection": None,
            "inversion": None,
            "matter_states": 3,
            "total_dim": 3,
        }

    @pytest.mark.parametrize(
        "make", [tiny_nondegenerate, tiny_coherent, tiny_bath], ids=["fock", "coherent", "bath"]
    )
    def test_reduced_run_matches_unreduced(self, tmp_path, make, monkeypatch, store):
        reduced = sc.run_scenario(make(), matter_store=store, out_dir=tmp_path)
        full = unreduced_run(make(), monkeypatch, store, tmp_path)
        assert reduced.summary["symmetry"]["reflection"] == "y"
        assert reduced.summary["symmetry"]["matter_states"] == 2
        assert full.summary["symmetry"]["matter_states"] == 3
        assert reduced.summary["dims"] == full.summary["dims"]
        assert_same_series(reduced, full)

    def test_current_driven_ground_start_matches_unreduced(self, tmp_path, monkeypatch, store):
        cfg = tiny_nondegenerate(
            kind="current_driven",
            initial=sc.InitialSpec(kind="ground"),
            drive=sc.DriveParams(j0=2.0, t0_ps=0.05, tau_ps=0.02),
            label="tinycurrent",
        )
        energies = []

        def recorded(h):
            e, vec = ground_state(h)
            energies.append(e)
            return e, vec

        monkeypatch.setattr(sc, "ground_state", recorded)
        reduced = sc.run_scenario(cfg, matter_store=store, out_dir=tmp_path)
        full = unreduced_run(cfg, monkeypatch, store, tmp_path)
        assert reduced.summary["symmetry"]["total_dim"] == 2 * 27
        assert len(energies) == 2 and abs(energies[0] - energies[1]) <= 1e-10
        assert_same_series(reduced, full)

    def test_tilted_signal_keeps_the_full_basis(self, tmp_path, store):
        cfg = tiny_nondegenerate(theta2_deg=60.0)
        res = sc.run_scenario(cfg, matter_store=store, out_dir=tmp_path)
        assert res.summary["symmetry"]["reflection"] is None
        assert res.summary["symmetry"]["matter_states"] == res.summary["dims"]["matter"] == 3
        assert res.summary["dims"]["total"] == 3 * 27

    def test_near_zero_components_snap_to_zero(self):
        modes = sc._build_modes(tiny_nondegenerate())
        assert [m.polarization for m in modes] == [(1.0, 0.0), (-1.0, 0.0), (1.0, 0.0)]
        assert sc._matter_reflection(modes) == "y"
        ninety = sc._build_modes(tiny_degenerate(theta1_deg=90.0))
        assert sc._matter_reflection(ninety) == "x"


@pytest.mark.parametrize(
    "make, reflection",
    [
        (tiny_nondegenerate, "y"),
        (lambda: tiny_degenerate(method=sc.MethodSpec("few_level", (0,))), None),
        (tiny_mean_field, None),
        (tiny_bath, "y"),
        (lambda: tiny_calibrated("field_driven"), "y"),
    ],
    ids=["full_reflected", "few_level", "mean_field", "bath", "field_driven"],
)
def test_dims_are_the_validated_report(make, reflection, tmp_path, store):
    # dims is the configured product space, whatever the run propagated
    cfg = make()
    res = sc.run_scenario(cfg, matter_store=store, out_dir=tmp_path)
    report = sc.validate_config(cfg)
    assert res.summary["symmetry"]["reflection"] == reflection
    assert res.summary["dims"] == {
        "matter": report["matter_dim"],
        "modes": report["mode_dims"],
        "bath": report["bath_dim"],
        "total": report["total_dim"],
    }


def uninverted_run(cfg, monkeypatch, store, out_dir):
    """The same run propagated on the whole layout, no inversion sector used."""
    with monkeypatch.context() as m:
        m.setattr(sc, "inversion_parity", lambda basis, matter: None)
        return sc.run_scenario(cfg, matter_store=store, out_dir=out_dir)


def tiny_current(**over) -> sc.ScenarioConfig:
    return tiny_nondegenerate(
        kind="current_driven",
        initial=sc.InitialSpec(kind="ground"),
        drive=sc.DriveParams(j0=2.0, t0_ps=0.05, tau_ps=0.02),
        label="tinycurrent",
        **over,
    )


class TestInversionSector:
    """Undriven Fock starts lie in one sector of inversion times photon-number
    parity and propagate only that sector's block of H."""

    # expansions: the record intervals of these tiny runs span R tau of
    # about 1, so the undriven windows hold WINDOW_CAP = 8 records each, and
    # the 15 (degenerate: 20) intervals take 2 (3) expansions in either sector
    @pytest.mark.parametrize(
        "make, reflection, kept, total, expansions",
        [
            (tiny_nondegenerate, "y", 27, 54, 2),
            # the bath's one-photon states count in the parity
            (tiny_bath, "y", 108, 216, 2),
            # theta1 = 60 deg: inversion without the reflection
            (tiny_degenerate, None, 24, 48, 3),
            (
                lambda: tiny_nondegenerate(method=sc.MethodSpec("few_level", (0, 1, 2))),
                None,
                41,
                81,
                2,
            ),
        ],
        ids=["fock", "bath", "degenerate", "few_level"],
    )
    def test_reduced_run_matches_uninverted(
        self, tmp_path, monkeypatch, store, make, reflection, kept, total, expansions
    ):
        reduced = sc.run_scenario(make(), matter_store=store, out_dir=tmp_path)
        full = uninverted_run(make(), monkeypatch, store, tmp_path)
        sym, full_sym = reduced.summary["symmetry"], full.summary["symmetry"]
        assert sym["reflection"] == full_sym["reflection"] == reflection
        assert sym["inversion"] == -1 and full_sym["inversion"] is None
        assert (sym["total_dim"], full_sym["total_dim"]) == (kept, total)
        assert reduced.summary["dims"] == full.summary["dims"]
        assert reduced.summary["krylov"]["steps"] == full.summary["krylov"]["steps"] == expansions
        assert_same_series(reduced, full)

    @pytest.mark.parametrize(
        "make", [lambda: sc.load_config(TINY_COHERENT_DEGENERATE), tiny_coherent],
        ids=["degenerate", "nondegenerate"],
    )
    def test_both_sectors_are_the_whole_csr_sector_major(self, tmp_path, monkeypatch, store, make):
        # a coherent start occupies both sectors; their CSR is the whole one
        # with rows and columns permuted by the scatter index, every row's
        # entries in the same order and bit for bit
        built = []
        build = sc.assemble_system

        def spy(basis, matter, tm, modes, *, bath_modes, sectors):
            h = build(basis, matter, tm, modes, bath_modes=bath_modes, sectors=sectors)
            whole = build(basis, matter, tm, modes, bath_modes=bath_modes)
            built.append((h, whole, ham.inversion_parity(basis, matter), sectors))
            return h

        monkeypatch.setattr(sc, "assemble_system", spy)
        sc.run_scenario(make(), matter_store=store, out_dir=tmp_path)
        ((h, whole, parity, sectors),) = built
        assert sectors == (1, -1)  # the even sector first
        index = np.concatenate([np.flatnonzero(parity == s) for s in sectors])
        where = np.empty_like(index)
        where[index] = np.arange(index.size)  # sector-major place of each index
        entries = np.concatenate([np.arange(*whole.indptr[i : i + 2]) for i in index])
        assert h.nnz == whole.nnz == entries.size and h.has_canonical_format
        assert np.array_equal(np.diff(h.indptr), np.diff(whole.indptr)[index])
        assert np.array_equal(h.indices, where[whole.indices[entries]])
        assert np.array_equal(h.data, whole.data[entries])

    def test_coherent_start_propagates_both_sectors(self, tmp_path, monkeypatch, store):
        res = sc.run_scenario(tiny_coherent(), matter_store=store, out_dir=tmp_path / "a")
        whole = uninverted_run(tiny_coherent(), monkeypatch, store, tmp_path / "b")
        sym, dims = res.summary["symmetry"], res.summary["dims"]
        assert sym == whole.summary["symmetry"] and sym["inversion"] is None
        assert sym["total_dim"] == sym["matter_states"] * dims["total"] // dims["matter"]
        assert res.summary["operator_mb"] == whole.summary["operator_mb"]
        assert res.summary["krylov"]["blocks"] == [sym["total_dim"]]  # below the floor
        assert_same_series(res, whole)
        # renormalized in the whole layout's order, the records round alike
        assert res.csv_path.read_bytes() == whole.csv_path.read_bytes()
        # on two threads, split at the sector boundary, the CSV keeps its bytes
        monkeypatch.setattr(prop, "SPLIT_ROWS", 0)
        split = sc.run_scenario(tiny_coherent(), matter_store=store, out_dir=tmp_path / "c")
        blocks = split.summary["krylov"]["blocks"]
        assert len(blocks) == 2 and sum(blocks) == sym["total_dim"]
        assert split.csv_path.read_bytes() == res.csv_path.read_bytes()

    @pytest.mark.parametrize("make", [tiny_current], ids=["ground"])
    def test_two_sector_starts_do_no_parity_work(self, tmp_path, monkeypatch, store, make):
        expected = sc.run_scenario(make(), matter_store=store, out_dir=tmp_path / "a")

        def refused(basis, matter):
            raise AssertionError("parity computed for a start in both sectors")

        monkeypatch.setattr(sc, "inversion_parity", refused)
        res = sc.run_scenario(make(), matter_store=store, out_dir=tmp_path / "b")
        sym, dims = res.summary["symmetry"], res.summary["dims"]
        assert sym["inversion"] is None
        assert sym["total_dim"] == sym["matter_states"] * dims["total"] // dims["matter"]
        assert_same_series(res, expected)

    def test_few_level_starts_in_level_zero_in_any_order(self, tmp_path, store):
        # the coupled basis keeps the configured order, so level 0 sits last here
        def few(levels):
            return tiny_degenerate(method=sc.MethodSpec("few_level", levels), label="few")

        ordered = sc.run_scenario(few((0, 1, 2)), matter_store=store, out_dir=tmp_path / "a")
        shuffled = sc.run_scenario(few((1, 2, 0)), matter_store=store, out_dir=tmp_path / "b")
        inversion = [r.summary["symmetry"]["inversion"] for r in (ordered, shuffled)]
        assert inversion == [-1, -1]
        assert_same_series(shuffled, ordered)


def test_ground_starts_are_bit_reproducible(tmp_path, store):
    # three runs in one process sharing one matter store: the ground-state
    # solve must not depend on a start vector drawn afresh for each call
    runs = [
        sc.run_scenario(tiny_current(), matter_store=store, out_dir=tmp_path / str(k))
        for k in range(3)
    ]
    first = runs[0].csv_path.read_bytes()
    assert all(run.csv_path.read_bytes() == first for run in runs[1:])


def test_field_drive_c_number_only_shifts_the_phase(tmp_path, monkeypatch, store):
    # the dropped (1/2) A1(t)^2 term, put back as an explicit identity term
    cfg = tiny_nondegenerate(
        kind="field_driven",
        initial=sc.InitialSpec(kind="ground"),
        drive=sc.DriveParams(j0=0.05, t0_ps=0.05, tau_ps=0.02),
        label="tinyfield",
    )
    without = sc.run_scenario(cfg, matter_store=store, out_dir=tmp_path)
    original = sc.propagate
    peak = []

    def with_c_number(h, state, t_final, config, *, terms, **kwargs):
        # the field term's coefficient is A1(t)
        (field,) = terms
        peak.append(max(abs(field.coeff(t)) for t in np.linspace(0.0, t_final, 201)))
        c_number = ham.TimeDependentTerm(
            op=sp.identity(h.shape[0], format="csr"), coeff=lambda t: 0.5 * field.coeff(t) ** 2
        )
        return original(h, state, t_final, config, terms=[field, c_number], **kwargs)

    monkeypatch.setattr(sc, "propagate", with_c_number)
    with_term = sc.run_scenario(cfg, matter_store=store, out_dir=tmp_path)
    assert peak and peak[0] > 0.0
    assert_same_series(without, with_term)


# a tiny run of every scenario kind, and a few-level run
EVERY_KIND = {
    "degenerate": tiny_degenerate,
    "nondegenerate_fock": tiny_nondegenerate,
    "nondegenerate_coherent": tiny_coherent,
    "nondegenerate_bath": tiny_bath,
    "current_driven": tiny_current,
    "field_driven": lambda: replace(tiny_current(), kind="field_driven", label="tinyfield"),
    "few_level": lambda: tiny_nondegenerate(method=sc.MethodSpec("few_level", (0, 1, 2))),
}


class TestOneBuilder:
    @pytest.mark.parametrize("case", sorted(EVERY_KIND))
    def test_every_kind_propagates_the_one_builders_h(self, case, tmp_path, monkeypatch, store):
        # one assemble_system call on the quantized modes (the field drive's
        # pump is classical), and the H it returned is the one propagated
        cfg = EVERY_KIND[case]()
        built, propagated = [], []
        build, run = sc.assemble_system, sc.propagate

        def spy_build(basis, matter, tm, modes, **kwargs):
            built.append((build(basis, matter, tm, modes, **kwargs), tuple(modes)))
            return built[-1][0]

        def spy_propagate(h, *args, **kwargs):
            propagated.append(h)
            return run(h, *args, **kwargs)

        monkeypatch.setattr(sc, "assemble_system", spy_build)
        monkeypatch.setattr(sc, "propagate", spy_propagate)
        sc.run_scenario(cfg, matter_store=store, out_dir=tmp_path)
        ((h, modes),) = built
        assert len(propagated) == 1 and propagated[0] is h
        assert modes == sc._build_modes(cfg)[sc._classical_modes(cfg) :]

    def test_traced_names_are_the_one_builder(self):
        # the benchmark's tracer patches these names on scenarios; each is
        # the one builder, so every kind's build is traced by its own name
        for name in (
            "assemble_system",
            "assemble_degenerate",
            "assemble_signal_pair",
            "assemble_few_level",
            "assemble_bath_terms",
        ):
            assert getattr(sc, name) is ham.assemble_system, name
        assert [n for n in vars(ham) if "assemble" in n] == ["assemble_system"]


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


def test_readme_config_table_matches_parser():
    # the README's config table documents exactly the keys the parser reads,
    # with the defaults of the config dataclasses and the units of the suffixes
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## Config files\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        for line in block.splitlines()
        if line.startswith("| ") and not line.startswith("| section ")
    ]
    documented = {(section, key): default for section, key, _, default, _ in rows}
    assert len(documented) == len(rows)
    schema = schema_keys()
    assert documented.keys() == schema.keys()
    for key, default in schema.items():
        cell = documented[key]
        if default is REQUIRED:
            assert cell == "required", key
        else:
            assert yaml.safe_load(cell) == _plain(default), key
    # the range column: the words of the declared rule, or a dash
    ranges = {(section, key): cell for section, key, _, _, cell in rows}
    for key, rule in schema_keys(rules=True).items():
        assert ranges[key] == (sc._rule_words(rule) if rule is not None else "—"), key
    for section, key, unit, _, _ in rows:
        suffix = key.rsplit("_", 1)[-1]
        if suffix in ("meV", "nm", "ps", "fs", "deg"):
            assert unit == suffix, (section, key)
