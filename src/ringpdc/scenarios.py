"""Named runs, sweeps and method comparison over the ring-cavity pipeline.

This is the experiment layer.  A declarative config (YAML file or shipped
preset) picks the scenario kind, matter parameters, mode table, initial
state, method and propagation window; run_scenario turns it into solved
matter, an assembled Hamiltonian, a propagated state and two output files:
a CSV of photon-statistics columns and a JSON summary with the extrema,
the conversion efficiency, a truncation-drift report and the wall time of
each phase (matter, assembly, propagation with its observer share, CSV
output).  One observer (observables.snapshot_columns) records every CSV
column and the Fock-edge population of each mode; the truncation drift of
a mode is the largest edge population it reached.

Two symmetries shrink what is propagated.  When every mode is polarized
along one axis, a full run keeps only the reflection-even matter sector
(matter.reflection_even).  An undriven run from a Fock start, full or
few-level, builds and propagates only the sector of inversion times
photon-number parity that the start occupies (the builders' `sector`); its
observer sees the state scattered back into the whole layout, once per
record.

run_sweep repeats the pipeline over one swept parameter, on a thread pool
of at most one worker per row, and tabulates the extrema per row;
compare_methods runs the same scenario under the full, few-level and
mean-field methods in turn on a shared time grid and reports signed
deviations.  Every run converts through the one unit system, the GaAs
constants HARTREE_EFF, BOHR_EFF and TIME_EFF of units; the driven
scenarios calibrate their pump amplitude here, on a pump-only reference
run.  Outputs always go to files: each run, sweep and comparison writes
one CSV and one JSON file through the same writers.

The config dataclasses are the schema: each YAML key is a field name
(a _mev suffix spelled _meV, lam spelled lambda), so keys carry their unit
as a suffix (omega_meV, t_final_ps, dt_fs), defaults live only in the
dataclasses, and unknown keys are rejected.  Before anything is assembled
the state memory is estimated and refused against a budget
(PDC_MEMORY_BUDGET_MB, default 4096); a malformed value is a ConfigError
naming the variable.  Each field declares its own range (Annotated), which
validate_config checks before the rules that join fields.  Everything
inside one run is sequential in time, so identical configs write
bit-identical CSV files.
"""

from __future__ import annotations

import csv
import functools
import inspect
import json
import math
import os
import re
import resource
import threading
import time
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from importlib import resources
from pathlib import Path
from types import UnionType
from typing import Annotated, Union, get_args, get_origin, get_type_hints

import numpy as np
import yaml
from scipy.stats import poisson

from .hamiltonian import (
    CoupledBasis,
    DriveSpec,
    _assemble,
    assemble_bath_terms,  # noqa: F401 - no run calls it; the benchmark tracer patches it by name
    assemble_degenerate,
    assemble_few_level,  # noqa: F401 - no run calls it; the benchmark tracer patches it by name
    assemble_signal_pair,
    assemble_system,
    drive_term,
    inversion_parity,
    product_state,
    restrict_levels,
)
from .matter import (
    GridSpec,
    MatterEigenbasis,
    RingPotentialParams,
    TransitionMatrices,
    reflection_even,
    solve_ring,
    transition_matrices,
)
from .meanfield import (
    MeanFieldSystem,
    initial_state as mean_field_initial,
    mf_observables,
    propagate_mf,
)
from .observables import efficiency_eta, series_extrema, snapshot_columns
from .photon import COHERENT_TAIL_TOL, BathSpec, FockMode, coherent_state, sample_bath
from .photon import bath_basis_size
from .propagator import WINDOW_CAP, WORK_VECTORS, CoupledState, PropagatorConfig, ground_state
from .propagator import propagate, spectral_bounds
from .units import (
    eff_to_ps,
    effective_coupling,
    energy_to_eff,
    energy_to_mev,
    length_to_eff,
    ps_to_eff,
    time_to_eff,
)

SCENARIO_KINDS = (
    "nondegenerate_fock",
    "nondegenerate_coherent",
    "nondegenerate_bath",
    "current_driven",
    "field_driven",
    "degenerate",
)
METHOD_KINDS = ("full", "few_level", "mean_field")
SWEEP_PARAMETERS = ("theta1", "V0", "lambda", "xi1")
RESONANCE_RTOL = 5e-3

MEMORY_BUDGET_ENV = "PDC_MEMORY_BUDGET_MB"
DEFAULT_MEMORY_BUDGET_MB = 4096.0
# Drive calibration: substep of the reference runs, and how often the
# amplitude may double before the target counts as out of reach.
CALIBRATION_DT = 0.02
CALIBRATION_MAX_DOUBLINGS = 40


class ConfigError(ValueError):
    """Malformed, inconsistent or physically invalid configuration."""


class MemoryBudgetError(RuntimeError):
    """Estimated propagation workspace exceeds the configured budget."""


# ---------------------------------------------------------------------------
# config tree


@dataclass(frozen=True)
class ModeSpec:
    """One quantized-mode row of the config: frequency, truncation, coupling."""

    omega_mev: Annotated[float, "> 0"]
    n_max: Annotated[int, ">= 1"]
    lam: Annotated[float, ">= 0"]


@dataclass(frozen=True)
class MatterSpec:
    v0_mev: Annotated[float, ">= 0"] = 200.0
    omega0_mev: Annotated[float, "> 0"] = 10.0
    d_nm: Annotated[float, "> 0"] = 10.0
    grid_points: Annotated[int, "odd >= 9"] = 127
    grid_step_nm: Annotated[float, "> 0"] = 0.7052
    n_levels: Annotated[int, ">= 1"] = 12


@dataclass(frozen=True)
class InitialSpec:
    """Mode-1 photon preparation; matter starts in its ground level unless
    kind is "ground", which takes the correlated ground state of the
    assembled Hamiltonian instead."""

    kind: Annotated[str, ("fock", "coherent", "ground")] = "fock"
    fock_k: Annotated[int, ">= 0"] = 1
    xi1: float = 0.0


@dataclass(frozen=True)
class DriveParams:
    j0: float = 0.0
    t0_ps: float = 0.0
    tau_ps: Annotated[float, "> 0"] = 0.05
    omega_mev: Annotated[float, "> 0"] | None = None
    calibrate: bool = False
    target_n1: float = 4.0
    t_check_ps: Annotated[float, "> 0"] = 0.23
    tolerance: float = 0.05


@dataclass(frozen=True)
class PropagationSpec:
    t_final_ps: Annotated[float, "> 0"]
    dt_fs: Annotated[float, "> 0"]
    record_stride: Annotated[int, ">= 1"] = 1
    krylov_tol: Annotated[float, "> 0"] = 1e-10


@dataclass(frozen=True)
class MethodSpec:
    kind: Annotated[str, METHOD_KINDS] = "full"
    levels: tuple[int, ...] = ()


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "."
    basename: str | None = None


@dataclass(frozen=True)
class SweepSpec:
    parameter: Annotated[str, SWEEP_PARAMETERS]
    values: Annotated[tuple[float, ...], "non-empty"]


@dataclass(frozen=True)
class ScenarioConfig:
    kind: Annotated[str, SCENARIO_KINDS]
    modes: tuple[ModeSpec, ...]
    propagation: PropagationSpec
    label: str = ""
    description: str = ""
    matter: MatterSpec = MatterSpec()
    theta1_deg: float = 0.0
    theta2_deg: float = 90.0
    theta3_deg: float = 90.0
    initial: InitialSpec = InitialSpec()
    drive: DriveParams | None = None
    bath: BathSpec | None = None
    method: MethodSpec = MethodSpec()
    output: OutputSpec = OutputSpec()
    sweep: SweepSpec | None = None


# ---------------------------------------------------------------------------
# parsing: the dataclasses above are the schema

# YAML sections without a class of their own; parse_config lifts their keys
# into ScenarioConfig
_LIFTED = {"scenario": ("kind", "label"), "angles": ("theta1_deg", "theta2_deg", "theta3_deg")}
_SCALARS = {float: "a number", int: "an integer", bool: "a boolean", str: "a string"}


def _yaml_key(name: str) -> str:
    """YAML spelling of a field name: lam is lambda, a _mev suffix is _meV."""
    if name == "lam":
        return "lambda"
    return name[: -len("_mev")] + "_meV" if name.endswith("_mev") else name


def _record(raw, cls, where: str, names=None) -> dict:
    """Checked keyword arguments of cls (only those in names, if given) from
    the mapping raw; null means every default."""
    place = where or "config root"
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{place} must be a mapping, got {raw!r}")
    hints = get_type_hints(cls)
    params = {
        _yaml_key(p.name): p
        for p in inspect.signature(cls).parameters.values()
        if names is None or p.name in names
    }
    unknown = sorted(str(k) for k in raw.keys() - params.keys())
    if unknown:
        raise ConfigError(f"unknown keys in {place}: {', '.join(unknown)}")
    missing = [k for k, p in params.items() if p.default is p.empty and k not in raw]
    if missing:
        raise ConfigError(f"missing required keys in {place}: {', '.join(missing)}")
    return {
        p.name: _value(raw[key], hints[p.name], f"{where}.{key}" if where else key)
        for key, p in params.items()
        if key in raw
    }


def _value(raw, hint, where: str):
    """raw checked against one field type: a scalar, X | None, tuple[X, ...]
    from a YAML list, or a nested record."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):
        if raw is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
        return _value(raw, hint, where)
    if origin is tuple:
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {raw!r}")
        return tuple(_value(v, args[0], f"{where}[{i}]") for i, v in enumerate(raw))
    if hint in _SCALARS:
        return _scalar(raw, hint, where)
    return hint(**_record(raw, hint, where))


def _scalar(raw, hint, where: str):
    """raw as the scalar type hint, the one rule of YAML and code-built configs."""
    # bool is an int subclass; an int is a valid float, nothing else converts
    ok = (int, float) if hint is float else hint
    if not isinstance(raw, ok) or (isinstance(raw, bool) and hint is not bool):
        raise ConfigError(f"{where} must be {_SCALARS[hint]}, got {raw!r}")
    if hint is float and not math.isfinite(raw):
        raise ConfigError(f"{where} must be finite, got {raw!r}")
    return hint(raw)


def parse_config(data) -> ScenarioConfig:
    """Build a ScenarioConfig from a key-value tree; unknown keys are errors."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"config root must be a mapping, got {data!r}")
    lifted = {}
    for section, names in _LIFTED.items():
        lifted.update(_record(data.get(section), ScenarioConfig, section, names))
    own = inspect.signature(ScenarioConfig).parameters.keys() - set().union(*_LIFTED.values())
    rest = {k: v for k, v in data.items() if k not in _LIFTED}
    return ScenarioConfig(**lifted, **_record(rest, ScenarioConfig, "", own))


def load_config(path) -> ScenarioConfig:
    """Parse a YAML config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from None
    return parse_config(data)


def _preset_root():
    return resources.files("ringpdc").joinpath("presets")


def list_presets() -> list[tuple[str, str]]:
    """(name, description) for every shipped preset, sorted by name."""
    out = []
    for entry in _preset_root().iterdir():
        if entry.name.endswith(".yaml"):
            data = yaml.safe_load(entry.read_text())
            out.append((entry.name[:-5], str(data.get("description", "")).strip()))
    return sorted(out)


def load_preset(name: str) -> ScenarioConfig:
    """Parse a shipped preset by name."""
    entry = _preset_root().joinpath(f"{name}.yaml")
    if not entry.is_file():
        available = ", ".join(n for n, _ in list_presets())
        raise ConfigError(f"unknown preset {name!r}; available: {available}")
    data = yaml.safe_load(entry.read_text())
    if isinstance(data, Mapping):
        scen = dict(data.get("scenario") or {})
        scen.setdefault("label", name)
        data = {**data, "scenario": scen}
    return parse_config(data)


# ---------------------------------------------------------------------------
# validation and memory budget


def _min_coherent_fock(xi: float) -> int:
    """Smallest n_max whose discarded Poisson tail passes the coherent guard."""
    mean = float(xi) ** 2
    n = max(1, math.ceil(mean))
    while float(poisson.sf(n, mean)) > COHERENT_TAIL_TOL:
        n += 1
    return n


def _method_label(method: MethodSpec) -> str:
    if method.kind == "few_level":
        return f"few_level{len(method.levels)}"
    return method.kind


def with_method(config: ScenarioConfig, kind: str) -> ScenarioConfig:
    """config run by another method; few-level keeps the configured levels,
    or the lowest three if there are none."""
    levels = (config.method.levels or (0, 1, 2)) if kind == "few_level" else ()
    return replace(config, method=MethodSpec(kind, levels))


def _classical_modes(config: ScenarioConfig) -> int:
    """Leading rows of the mode table that are not quantized: the field
    drive replaces mode 1 by its classical field."""
    return 1 if config.kind == "field_driven" else 0


def _memory_budget_mb() -> float:
    """The refusal threshold: PDC_MEMORY_BUDGET_MB, a positive, finite number of MB."""
    raw = os.environ.get(MEMORY_BUDGET_ENV)
    if not raw:
        return DEFAULT_MEMORY_BUDGET_MB
    try:
        budget = float(raw)
    except ValueError:
        budget = math.nan
    if not (math.isfinite(budget) and budget > 0.0):
        raise ConfigError(f"{MEMORY_BUDGET_ENV}={raw!r} is not a positive, finite number of MB")
    return budget


def memory_report(config: ScenarioConfig) -> dict:
    """Estimated workspace for the configured run against the budget."""
    matter_dim = (
        len(config.method.levels) if config.method.kind == "few_level" else config.matter.n_levels
    )
    if config.method.kind == "mean_field":
        mode_dims: tuple[int, ...] = ()
    else:
        mode_dims = tuple(m.n_max + 1 for m in config.modes[_classical_modes(config) :])
    bath = config.bath
    bath_dim = bath_basis_size(bath.count, bath.sector) if bath is not None else 1
    dim = matter_dim * int(np.prod(mode_dims, dtype=np.int64)) * bath_dim
    nnz_per_col = matter_dim * (1 + 2 * len(mode_dims))
    if bath is not None:
        nnz_per_col += matter_dim * 2 * bath.count
    # a float64 entry and an int32 column index per stored entry, the
    # propagator's work vectors and the sums of a full window of records
    est_bytes = dim * nnz_per_col * 12 + dim * 16 * (WORK_VECTORS + WINDOW_CAP)
    budget = _memory_budget_mb()
    return {
        "matter_dim": matter_dim,
        "mode_dims": list(mode_dims),
        "bath_dim": bath_dim if bath is not None else None,
        "total_dim": dim,
        "estimated_mb": est_bytes / 2**20,
        "budget_mb": budget,
    }


def _dims_text(report: dict) -> str:
    """"matter M x modes A x B [x bath C]" of a memory report."""
    modes = " x ".join(str(d) for d in report["mode_dims"]) or "none"
    bath = f" x bath {report['bath_dim']}" if report["bath_dim"] is not None else ""
    return f"matter {report['matter_dim']} x modes {modes}{bath}"


# The bounds a config field may declare as Annotated[type, bound], each a
# test and the words of its refusal; a field may instead declare a tuple of
# the values it allows.  _SECTION_OF gives the sections of the lifted keys.
_BOUNDS = {
    "> 0": (lambda v: v > 0, "positive"),
    ">= 0": (lambda v: v >= 0, "non-negative"),
    ">= 1": (lambda v: v >= 1, "at least 1"),
    "odd >= 9": (lambda v: v >= 9 and v % 2 == 1, "odd and at least 9"),
    "non-empty": (lambda v: len(v) > 0, "non-empty"),
}
_SECTION_OF = {name: section for section, names in _LIFTED.items() for name in names}


def _rule_words(rule) -> str:
    """What a declared rule requires: "positive", "one of a, b, c"."""
    if isinstance(rule, tuple):
        return "one of " + ", ".join(map(str, rule))
    return _BOUNDS[rule][1]


@functools.cache
def _declared_hints(cls) -> dict:
    return get_type_hints(cls, include_extras=True)


def _check_ranges(record, where: str = "") -> None:
    """Refuse the first field of a config record, nested records included,
    that is of the wrong type, a non-finite float or outside the rule declared
    on it; the message names the field by its YAML key, as the parser does."""
    for name, hint in _declared_hints(type(record)).items():
        place, key = where or _SECTION_OF.get(name), _yaml_key(name)
        _check_value(getattr(record, name), hint, f"{place}.{key}" if place else key)


def _check_value(value, hint, where: str) -> None:
    if value is None:
        return
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        hint, rule = args
        _check_value(value, hint, where)
        ok = value in rule if isinstance(rule, tuple) else _BOUNDS[rule][0](value)
        if not ok:
            raise ConfigError(f"{where} must be {_rule_words(rule)}, got {value!r}")
    elif origin in (Union, UnionType):
        (hint,) = (a for a in args if a is not type(None))
        _check_value(value, hint, where)
    elif origin is tuple:
        for i, v in enumerate(value):
            _check_value(v, args[0], f"{where}[{i}]")
    elif hint in _SCALARS:
        _scalar(value, hint, where)
    else:
        # code may give a bath window as a plain tuple
        _check_ranges(value if isinstance(value, hint) else hint(*value), where)


def validate_config(config: ScenarioConfig) -> dict:
    """Check each field against its declared range, then the rules that join
    fields and the memory budget; returns the memory report."""
    _check_ranges(config)
    n_modes = len(config.modes)
    expected = 2 if config.kind == "degenerate" else 3
    if n_modes != expected:
        raise ConfigError(
            f"scenario kind {config.kind!r} takes exactly {expected} modes, got {n_modes}"
        )

    omegas = [m.omega_mev for m in config.modes]
    if config.kind == "degenerate":
        if abs(omegas[1] - 0.5 * omegas[0]) > RESONANCE_RTOL * 0.5 * omegas[0]:
            raise ConfigError(
                f"degenerate resonance violated: omega2 = {omegas[1]} meV is not "
                f"omega1/2 = {0.5 * omegas[0]} meV within {RESONANCE_RTOL:.1%}"
            )
    else:
        if abs(omegas[0] - omegas[1] - omegas[2]) > RESONANCE_RTOL * omegas[0]:
            raise ConfigError(
                f"energy conservation violated: omega1 = {omegas[0]} meV is not "
                f"omega2 + omega3 = {omegas[1] + omegas[2]} meV within {RESONANCE_RTOL:.1%}"
            )

    ini = config.initial
    driven = config.kind in ("current_driven", "field_driven")
    if driven and ini.kind != "ground":
        raise ConfigError("driven scenarios start from the correlated ground state")
    if ini.kind == "fock" and ini.fock_k > config.modes[0].n_max:
        raise ConfigError(
            f"initial Fock level {ini.fock_k} outside mode 1 truncation "
            f"n_max = {config.modes[0].n_max}"
        )
    # every row of an xi1 sweep replaces xi1 and grows n_max to pass the guard
    xi1_swept = config.sweep is not None and config.sweep.parameter == "xi1"
    if ini.kind == "coherent" and not xi1_swept:
        needed = _min_coherent_fock(ini.xi1)
        if config.modes[0].n_max < needed:
            raise ConfigError(
                f"coherent xi1 = {ini.xi1:g} needs mode 1 n_max >= {needed} "
                f"to pass the Poisson tail guard, got {config.modes[0].n_max}"
            )

    if (config.bath is not None) != (config.kind == "nondegenerate_bath"):
        if config.bath is None:
            raise ConfigError("scenario kind 'nondegenerate_bath' requires a bath section")
        raise ConfigError(f"scenario kind {config.kind!r} takes no bath section")
    if config.bath is not None:
        for i, (low, high, _) in enumerate(config.bath.windows):
            if high <= low:
                raise ConfigError(
                    f"bath.windows[{i}] needs low_meV < high_meV, got ({low}, {high})"
                )
        spans = sorted((low, high) for low, high, _ in config.bath.windows)
        for (_, high), (low, _) in zip(spans, spans[1:]):
            if low < high:
                raise ConfigError(f"bath.windows overlap near {low} meV")

    if (config.drive is not None) != driven:
        if config.drive is None:
            raise ConfigError(f"scenario kind {config.kind!r} requires a drive section")
        raise ConfigError(f"scenario kind {config.kind!r} takes no drive section")
    # the calibration range, refused here rather than after the ring solve
    if config.drive is not None and not 0.0 < config.drive.tolerance < config.drive.target_n1:
        raise ConfigError(
            f"drive.tolerance must lie in (0, drive.target_n1 = {config.drive.target_n1}), "
            f"got {config.drive.tolerance}"
        )

    met = config.method
    if met.kind == "few_level":
        if config.kind not in ("degenerate", "nondegenerate_fock", "nondegenerate_coherent"):
            raise ConfigError(f"the few-level method does not support kind {config.kind!r}")
        levels = met.levels
        if not levels:
            raise ConfigError("the few-level method needs a non-empty 'levels' list")
        if len(set(levels)) != len(levels):
            raise ConfigError("few-level 'levels' must be distinct")
        if min(levels) < 0 or max(levels) >= config.matter.n_levels:
            raise ConfigError(
                f"few-level 'levels' must lie in [0, {config.matter.n_levels - 1}]"
            )
        if 0 not in levels:
            raise ConfigError("few-level truncations must retain level 0")
    if met.kind == "mean_field":
        if config.kind not in ("degenerate", "nondegenerate_coherent"):
            raise ConfigError(f"the mean-field method does not support kind {config.kind!r}")
        if ini.kind != "coherent":
            raise ConfigError("the mean-field method needs a coherent initial state")

    if config.sweep is not None:
        _check_monotone(config.sweep.values)
        _check_sweep_base(config, config.sweep.parameter)

    report = memory_report(config)
    if report["estimated_mb"] > report["budget_mb"]:
        raise MemoryBudgetError(
            f"estimated {report['estimated_mb']:.0f} MB for state dimension "
            f"{report['total_dim']} ({_dims_text(report)}) exceeds the budget "
            f"{report['budget_mb']:.0f} MB; lower the truncations or raise {MEMORY_BUDGET_ENV}"
        )
    return report


def validate_sweep(sweep: SweepSpec) -> None:
    _check_ranges(sweep, "sweep")
    _check_monotone(sweep.values)


def _refuse_sweep(config: ScenarioConfig) -> None:
    """Send a sweep config to run_sweep, after naming any out-of-range field."""
    if config.sweep is not None:
        _check_ranges(config)
        raise ConfigError("this config declares a sweep; use run_sweep")


def _check_monotone(values) -> None:
    diffs = np.diff(values)
    if len(diffs) and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigError("sweep values must be strictly monotone")


def _check_sweep_base(base: ScenarioConfig, parameter: str) -> None:
    """Refuse a parameter that no row of a sweep over `base` could run."""
    if parameter == "xi1" and base.initial.kind != "coherent":
        raise ConfigError("xi1 sweeps need a coherent initial state")
    if parameter == "V0" and base.kind != "degenerate":
        raise ConfigError(
            "V0 sweeps retune the mode table from the ring gap and are defined "
            "for the degenerate scenario"
        )


# ---------------------------------------------------------------------------
# pipeline pieces


_MATTER_LOCK = threading.Lock()


def prepare_matter(spec: MatterSpec, store: dict | None = None):
    """Solve (or fetch) the ring eigenbasis and its transition matrices."""
    grid = GridSpec(points=spec.grid_points, step=length_to_eff(spec.grid_step_nm))
    pot = RingPotentialParams(
        omega0=energy_to_eff(spec.omega0_mev),
        d=length_to_eff(spec.d_nm),
        v0=energy_to_eff(spec.v0_mev),
    )
    with _MATTER_LOCK:
        if store is not None and spec in store:
            return store[spec]
        matter = solve_ring(grid, pot, spec.n_levels)
        tm = transition_matrices(matter)
        if store is not None:
            store[spec] = (matter, tm)
    return matter, tm


def polarization_vectors(theta2: float, theta3: float) -> tuple[tuple[float, float], ...]:
    """Three-mode geometry: pump along x, signal vectors tilted by theta2/theta3
    (radians).  The reproduction scenarios stay within [0, pi/2]; other values
    simply tilt the vectors."""
    return (
        (1.0, 0.0),
        (-math.sin(theta2), math.cos(theta2)),
        (math.sin(theta3), math.cos(theta3)),
    )


def degenerate_polarization_vectors(theta1: float) -> tuple[tuple[float, float], ...]:
    """Two-mode geometry: pump tilted by theta1, signal fixed along y."""
    return ((math.cos(theta1), math.sin(theta1)), (0.0, 1.0))


# Polarization components at or below this are zeros that the trigonometry
# missed (cos 90 deg = 6e-17); _build_modes sets them to exactly 0.
POLARIZATION_TOL = 1e-12


def _build_modes(config: ScenarioConfig) -> tuple[FockMode, ...]:
    """Mode table as FockModes carrying the geometry polarization vectors."""
    if config.kind == "degenerate":
        evecs = degenerate_polarization_vectors(math.radians(config.theta1_deg))
    else:
        evecs = polarization_vectors(
            math.radians(config.theta2_deg), math.radians(config.theta3_deg)
        )
    return tuple(
        FockMode(
            omega=energy_to_eff(m.omega_mev),
            n_max=m.n_max,
            lam=m.lam,
            polarization=tuple(0.0 if abs(c) <= POLARIZATION_TOL else float(c) for c in e),
        )
        for m, e in zip(config.modes, evecs)
    )


def _matter_reflection(modes: Sequence[FockMode]) -> str | None:
    """Axis a of a grid reflection a -> -a that commutes with H on the matter
    factor alone: no mode (pump, signals, bath, classical pump) has an a
    component, so no coupling e . p contains the odd momentum p_a."""
    for axis, comp in (("x", 0), ("y", 1)):
        if all(abs(m.polarization[comp]) <= POLARIZATION_TOL for m in modes):
            return axis
    return None


def _time_grid(config: ScenarioConfig) -> tuple[float, float]:
    """(dt, t_final) in effective units, t_final snapped to the grid."""
    dt = time_to_eff(config.propagation.dt_fs)
    span = ps_to_eff(config.propagation.t_final_ps)
    return dt, max(1, int(round(span / dt))) * dt


def calibrate_current_drive(
    matter: MatterEigenbasis,
    tm: TransitionMatrices,
    mode1: FockMode,
    drive: DriveSpec,
    t_check: float,
    target: float = 4.0,
    tol: float = 0.05,
) -> DriveSpec:
    """Bisect the current amplitude j0 so the pump occupation hits the target.

    Reference run: matter coupled to mode 1 alone (pump along mode 1's
    polarization), started in the coupled ground state and driven until
    t_check; n1(t_check) grows monotonically with j0 in the calibration
    regime.  Returns the drive with j0 replaced by the calibrated value.
    """
    if drive.kind != "classical_current":
        raise ValueError("calibration applies to kind = classical_current")
    if not (0.0 < tol < target):
        raise ValueError("tolerance must be positive and below the target")
    basis = CoupledBasis(matter.n_states, (mode1.dim,))
    h = _assemble(basis, matter, tm, [mode1])
    _, psi0 = ground_state(h)
    names, observer = snapshot_columns(basis, [mode1.omega])
    column = names.index("n1")
    config = PropagatorConfig(dt=CALIBRATION_DT)
    bounds = spectral_bounds(h)

    def occupation(j0: float) -> float:
        terms = [drive_term(basis, matter, tm, [mode1], replace(drive, j0=j0))]
        start = CoupledState(psi0.copy(), 0.0)
        final = propagate(h, start, t_check, config, terms=terms, bounds=bounds).final
        return float(observer(final)[column])

    hi = drive.j0 if drive.j0 > 0 else 1.0
    lo = 0.0
    n_hi = occupation(hi)
    doublings = 0
    while n_hi < target:
        lo, hi = hi, 2.0 * hi
        n_hi = occupation(hi)
        doublings += 1
        if doublings > CALIBRATION_MAX_DOUBLINGS:
            raise RuntimeError(
                "calibration failed to bracket the target occupation; "
                "check the pulse window against t_check"
            )
    while True:
        mid = 0.5 * (lo + hi)
        n_mid = occupation(mid)
        if abs(n_mid - target) <= tol:
            return replace(drive, j0=mid)
        if n_mid < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            raise RuntimeError("calibration bisection stalled without meeting tolerance")


def _resolved_drive(config: ScenarioConfig, matter, tm, modes, calibrate: bool) -> DriveSpec:
    """The configured drive, with j0 bisected on the quantized-pump reference
    when calibrate is set.  The reference run drives the quantized pump with
    the current itself, so a field drive takes over the calibrated amplitude."""
    d = config.drive
    omega_mev = d.omega_mev if d.omega_mev is not None else config.modes[0].omega_mev
    drive = DriveSpec(
        kind="classical_field" if config.kind == "field_driven" else "classical_current",
        j0=d.j0,
        t0=ps_to_eff(d.t0_ps),
        tau=ps_to_eff(d.tau_ps),
        omega1=energy_to_eff(omega_mev),
    )
    if calibrate:
        current = calibrate_current_drive(
            matter,
            tm,
            modes[0],
            replace(drive, kind="classical_current"),
            t_check=ps_to_eff(d.t_check_ps),
            target=d.target_n1,
            tol=d.tolerance,
        )
        drive = replace(drive, j0=current.j0)
    return drive


def calibrate_drive(config: ScenarioConfig, *, matter_store: dict | None = None) -> dict:
    """Bisect the drive amplitude against the quantized-pump reference run."""
    validate_config(config)
    if config.drive is None:
        raise ConfigError("config has no drive section")
    matter, tm = prepare_matter(config.matter, matter_store)
    drive = _resolved_drive(config, matter, tm, _build_modes(config), calibrate=True)
    return {
        "kind": drive.kind,
        "j0": drive.j0,
        "target_n1": config.drive.target_n1,
        "t_check_ps": config.drive.t_check_ps,
        "tolerance": config.drive.tolerance,
        "omega_meV": energy_to_mev(drive.omega1),
    }


def _ground_index(config: ScenarioConfig) -> int:
    if config.method.kind == "few_level":
        # the coupled basis keeps the levels in their configured order
        return config.method.levels.index(0)
    return 0


def _initial_photon_vectors(config: ScenarioConfig, modes: Sequence[FockMode]):
    vecs = []
    for slot, mode in enumerate(modes):
        if slot == 0 and config.initial.kind == "fock":
            v = np.zeros(mode.dim, dtype=complex)
            v[config.initial.fock_k] = 1.0
        elif slot == 0 and config.initial.kind == "coherent":
            v = coherent_state(config.initial.xi1, mode.n_max)
        else:
            v = np.zeros(mode.dim, dtype=complex)
            v[0] = 1.0
        vecs.append(v)
    return vecs


# ---------------------------------------------------------------------------
# the run itself


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    names: list[str]
    times_ps: np.ndarray
    rows: np.ndarray
    summary: dict
    csv_path: Path
    json_path: Path


def _quantum_series(config: ScenarioConfig, matter, tm):
    """Assemble, propagate and record; returns (names, times, rows, info)."""
    started = time.perf_counter()
    p = config.propagation
    dt, t_final = _time_grid(config)
    modes = _build_modes(config)
    info: dict = {}
    terms: list = []
    bath_modes, bath_basis = (), None
    if config.bath is not None:
        bath_modes, bath_basis = sample_bath(config.bath)
    # a matter-only reflection confines the run to the even matter sector;
    # few-level levels index the solved basis, so it reduces only the full method
    full = config.method.kind == "full"
    reflection = _matter_reflection((*modes, *bath_modes)) if full else None
    if reflection is not None:
        matter, tm = reflection_even(matter, tm, reflection)

    classical = _classical_modes(config)
    quantized = modes[classical:]
    dims = tuple(m.dim for m in quantized)
    if config.method.kind == "few_level":
        # the levels of the coupled basis, in its order
        matter, tm = restrict_levels(matter, tm, config.method.levels)
    basis = CoupledBasis(matter.n_states, dims, bath_basis)

    psi0 = None
    if config.initial.kind != "ground":
        matter_vec = np.zeros(basis.shape[0], dtype=complex)
        matter_vec[_ground_index(config)] = 1.0
        psi0 = CoupledState(
            product_state(basis, matter_vec, _initial_photon_vectors(config, quantized)), 0.0
        )
    # a Fock start (driven runs start from the ground state) lies wholly in one
    # inversion sector, and only that sector is built; coherent and ground
    # starts occupy both and skip the parity work
    inversion = index = None
    if config.initial.kind == "fock":
        parity = inversion_parity(basis, matter)
        if parity is not None:
            occupied = np.unique(parity[psi0.amplitudes != 0])
            if len(occupied) == 1:
                inversion = int(occupied[0])
                index = np.flatnonzero(parity == inversion)
                psi0 = CoupledState(psi0.amplitudes[index], 0.0)

    if config.kind == "field_driven":
        h = assemble_signal_pair(basis, matter, tm, quantized)
    else:
        build = assemble_degenerate if config.kind == "degenerate" else assemble_system
        h = build(basis, matter, tm, modes, bath_modes=bath_modes, sector=inversion)
    if config.drive is not None:
        drive = _resolved_drive(config, matter, tm, modes, config.drive.calibrate)
        info["drive"] = drive
        t_grid = np.arange(0.0, t_final + 2.0 * dt, dt)
        terms = [drive_term(basis, matter, tm, modes, drive, t_grid)]

    if psi0 is None:
        _, vec = ground_state(h)
        psi0 = CoupledState(vec, 0.0)
    assembled = time.perf_counter()

    first_mode = classical + 1
    names, observer = snapshot_columns(
        basis, [m.omega for m in quantized], first_mode=first_mode
    )
    if index is not None:
        observer = _scattered(observer, index, basis.dim)

    pconfig = PropagatorConfig(dt=dt, krylov_tol=p.krylov_tol, record_stride=p.record_stride)
    # bounds from the CSR here: propagate may see h only as a callable
    bounds = spectral_bounds(h)
    result = propagate(
        h, psi0, t_final, pconfig, terms=terms, observables={"row": observer}, bounds=bounds
    )
    info["timings"] = {
        "assemble_s": assembled - started,
        "propagate_s": time.perf_counter() - assembled,
        "observe_s": result.observe_s,
    }
    # each record holds the series row, then the Fock-edge population per mode
    records = np.real(np.asarray(result.records["row"]))
    rows, edges = records[:, : len(names)], records[:, len(names) :]
    info["truncation_drift"] = {
        f"mode_{first_mode + m}": float(np.max(edges[:, m])) for m in range(edges.shape[1])
    }
    info["norm_drift"] = abs(float(np.linalg.norm(result.final.amplitudes)) - 1.0)
    info["krylov"] = asdict(result.krylov)
    info["operator_mb"] = (h.data.nbytes + h.indices.nbytes + h.indptr.nbytes) / 2**20
    info["symmetry"] = {
        "reflection": reflection,
        "inversion": inversion,
        "matter_states": basis.matter_dim,
        "total_dim": h.shape[0],
    }
    return names, result.times, rows, info


def _scattered(observer, index: np.ndarray, dim: int):
    """observer of the full layout, fed a state propagated on `index` only."""

    def call(state):
        amplitudes = np.zeros(dim, dtype=complex)
        amplitudes[index] = state.amplitudes
        return observer(amplitudes)

    return call


def _mean_field_series(config: ScenarioConfig, matter, tm):
    started = time.perf_counter()
    p = config.propagation
    dt, t_final = _time_grid(config)
    modes = _build_modes(config)
    system = MeanFieldSystem(matter.h_matrix(), tm.px, tm.py, modes)
    matter_vec = np.zeros(matter.n_states, dtype=complex)
    matter_vec[0] = 1.0
    xis = [config.initial.xi1] + [0.0] * (len(modes) - 1)
    state = mean_field_initial(matter_vec, system, xis)
    assembled = time.perf_counter()
    _, times, snaps = propagate_mf(state, system, t_final, dt, record_stride=p.record_stride)
    observing = time.perf_counter()
    names = list(mf_observables(snaps[0], system))
    rows = np.asarray([list(mf_observables(s, system).values()) for s in snaps], dtype=float)
    observed = time.perf_counter()
    info = {
        "truncation_drift": {},
        "symmetry": {
            "reflection": None,
            "inversion": None,
            "matter_states": matter.n_states,
            "total_dim": matter.n_states,
        },
        "norm_drift": abs(float(np.linalg.norm(snaps[-1].amplitudes)) - 1.0),
        "timings": {
            "assemble_s": assembled - started,
            "propagate_s": observed - assembled,
            "observe_s": observed - observing,
        },
    }
    return names, times, rows, info


def run_scenario(
    config: ScenarioConfig, *, matter_store: dict | None = None, out_dir=None
) -> ScenarioResult:
    """Validate, solve, assemble, propagate, and write CSV + JSON outputs
    to out_dir (default: the config's output directory)."""
    _refuse_sweep(config)
    report = validate_config(config)
    started = time.perf_counter()
    matter, tm = prepare_matter(config.matter, matter_store)
    matter_s = time.perf_counter() - started

    if config.method.kind == "mean_field":
        names, times, rows, info = _mean_field_series(config, matter, tm)
    else:
        names, times, rows, info = _quantum_series(config, matter, tm)

    times_ps = np.asarray([eff_to_ps(t) for t in times])
    columns = dict(zip(names, rows.T))
    extrema = series_extrema(times_ps, columns)
    try:
        eta = efficiency_eta(columns)
    except ValueError:
        eta = None

    csv_path, json_path = _output_paths(config, out_dir, _base_name(config))
    writing = time.perf_counter()
    write_series_csv(csv_path, times_ps, names, rows)
    output_s = time.perf_counter() - writing

    summary = {
        "scenario": config.kind,
        "method": _method_label(config.method),
        "label": config.label,
        "frequencies_meV": [m.omega_mev for m in config.modes],
        "lambdas": [m.lam for m in config.modes],
        "couplings_g": [
            effective_coupling(m.lam, energy_to_eff(m.omega_mev)) for m in config.modes
        ],
        "theta_deg": [config.theta1_deg, config.theta2_deg, config.theta3_deg],
        "v0_meV": config.matter.v0_mev,
        # the configured product space; symmetry is what was propagated
        "dims": {
            "matter": report["matter_dim"],
            "modes": report["mode_dims"],
            "bath": report["bath_dim"],
            "total": report["total_dim"],
        },
        "symmetry": info["symmetry"],
        "samples": len(times_ps),
        "t_final_ps": float(times_ps[-1]),
        "dt_fs": config.propagation.dt_fs,
        "columns": ["time_ps"] + names,
        "extrema": {
            "n2_max": extrema.n2_max,
            "t_n2_max_ps": extrema.t_n2_max,
            "q2_min": extrema.q2_min,
            "t_q2_min_ps": extrema.t_q2_min,
        },
        "eta": eta,
        "truncation_drift": info["truncation_drift"],
        "norm_drift": info["norm_drift"],
        "krylov": info.get("krylov"),
        "operator_mb": info.get("operator_mb"),
        # peak RSS of this process so far (Linux reports KiB)
        "memory": {
            "estimated_mb": report["estimated_mb"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        # phase wall times cut to whole ms, so the phases never sum past
        # runtime_s; observe_s is the observers' share of propagate_s and
        # output_s the CSV write (the JSON summary is written after it)
        "timings": {
            name: math.floor(seconds * 1000.0) / 1000.0
            for name, seconds in {
                "matter_s": matter_s,
                **info["timings"],
                "output_s": output_s,
            }.items()
        },
        "runtime_s": round(time.perf_counter() - started, 3),
    }
    if "drive" in info:
        drive = info["drive"]
        summary["drive"] = {
            "kind": drive.kind,
            "j0": drive.j0,
            "t0_ps": config.drive.t0_ps,
            "tau_ps": config.drive.tau_ps,
            "omega_meV": energy_to_mev(drive.omega1),
            "calibrated": bool(config.drive.calibrate),
        }

    _write_json(json_path, summary)
    return ScenarioResult(config, list(names), times_ps, rows, summary, csv_path, json_path)


# ---------------------------------------------------------------------------
# output files


def _fmt_cell(value: float | None) -> str:
    """A number as a CSV cell: 12 significant digits, empty if None or not finite."""
    return "" if value is None or not math.isfinite(value) else format(float(value), ".12g")


def _base_name(config: ScenarioConfig) -> str:
    """File-name stem of a config's outputs: its basename, label or kind."""
    return _safe_name(config.output.basename or config.label or config.kind)


def _output_paths(config: ScenarioConfig, out_dir, stem: str) -> tuple[Path, Path]:
    """(CSV, JSON) paths of stem in out_dir (default: the config's output
    directory), which is created if missing."""
    directory = Path(out_dir) if out_dir is not None else Path(config.output.directory)
    directory.mkdir(parents=True, exist_ok=True)
    return directory / f"{stem}.csv", directory / f"{stem}.json"


def _write_csv(path, header: Sequence[str], rows) -> None:
    """header, then one line per row of already formatted cells; "\n" line ends."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True))


def write_series_csv(path, times_ps, names: Sequence[str], rows: np.ndarray) -> None:
    """One row per snapshot; sub-floor (NaN) cells are left empty."""
    cells = ([_fmt_cell(t), *map(_fmt_cell, row)] for t, row in zip(times_ps, rows))
    _write_csv(path, ["time_ps", *names], cells)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._=-]+", "_", name.strip()) or "run"


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepResult:
    parameter: str
    values: tuple[float, ...]
    rows: list[dict]
    results: list[ScenarioResult | None]
    table_path: Path
    json_path: Path


def sweep_row_config(
    base: ScenarioConfig,
    parameter: str,
    value: float,
    *,
    matter_store: dict | None = None,
) -> ScenarioConfig:
    """The exact per-row config a sweep runs, derivable independently."""
    validate_sweep(SweepSpec(parameter, (value,)))
    _check_sweep_base(base, parameter)
    value = float(value)
    cfg = replace(base, sweep=None)
    if parameter == "theta1":
        cfg = replace(cfg, theta1_deg=value)
    elif parameter == "lambda":
        cfg = replace(cfg, modes=tuple(replace(m, lam=value) for m in base.modes))
    elif parameter == "xi1":
        modes = list(base.modes)
        modes[0] = replace(modes[0], n_max=max(modes[0].n_max, _min_coherent_fock(value)))
        cfg = replace(cfg, modes=tuple(modes), initial=replace(base.initial, xi1=value))
    else:  # V0, the one declared parameter left
        mspec = replace(base.matter, v0_mev=value)
        matter, _ = prepare_matter(mspec, matter_store)
        gap_mev = energy_to_mev(float(matter.energies[1] - matter.energies[0]))
        cfg = replace(
            cfg,
            matter=mspec,
            modes=(
                replace(base.modes[0], omega_mev=gap_mev),
                replace(base.modes[1], omega_mev=0.5 * gap_mev),
            ),
        )
    suffix = f"{parameter}={value:g}"
    label = f"{base.label} {suffix}".strip()
    basename = f"{_base_name(base)}_{_safe_name(suffix)}"
    return replace(cfg, label=label, output=replace(base.output, basename=basename))


# parameter and error are text; the columns between them are numbers or missing
_SWEEP_COLUMNS = (
    "parameter",
    "value",
    "n2_max",
    "t_n2_max_ps",
    "q2_min",
    "t_q2_min_ps",
    "eta",
    "runtime_s",
    "error",
)


def run_sweep(
    config: ScenarioConfig,
    *,
    matter_store: dict | None = None,
    out_dir=None,
    max_workers: int | None = None,
) -> SweepResult:
    """One scenario run per value of config.sweep, on max_workers threads
    (default: one per row, at most one per CPU); failures are recorded per row."""
    sweep = config.sweep
    if sweep is None:
        raise ConfigError("no sweep specified: declare it in the config")
    if max_workers is not None and max_workers < 1:
        raise ConfigError(f"max_workers must be at least 1, got {max_workers}")
    # what every row would refuse (a kind the parameter cannot vary, a budget
    # the base config exceeds, a malformed environment) refuses the whole sweep
    # before any row runs
    validate_config(config)
    base = replace(config, sweep=None)
    store = matter_store if matter_store is not None else {}

    def one(value: float) -> tuple[ScenarioResult | None, dict]:
        row = {"parameter": sweep.parameter, "value": value, "error": None}
        try:
            cfg = sweep_row_config(base, sweep.parameter, value, matter_store=store)
            res = run_scenario(cfg, matter_store=store, out_dir=out_dir)
            row.update(
                label=cfg.label,
                n2_max=res.summary["extrema"]["n2_max"],
                t_n2_max_ps=res.summary["extrema"]["t_n2_max_ps"],
                q2_min=res.summary["extrema"]["q2_min"],
                t_q2_min_ps=res.summary["extrema"]["t_q2_min_ps"],
                eta=res.summary["eta"],
                runtime_s=res.summary["runtime_s"],
            )
            return res, row
        except Exception as exc:  # noqa: BLE001 - per-row failures must not stop the sweep
            row["error"] = f"{type(exc).__name__}: {exc}"
            return None, row

    workers = max_workers or min(len(sweep.values), os.cpu_count() or 1)
    with ThreadPoolExecutor(workers) as pool:
        pairs = list(pool.map(one, sweep.values))
    rows = [row for _, row in pairs]

    stem = f"{_base_name(base)}_{sweep.parameter}_sweep"
    table_path, json_path = _output_paths(base, out_dir, stem)
    numbers = _SWEEP_COLUMNS[1:-1]
    table = (
        [row["parameter"], *(_fmt_cell(row.get(c)) for c in numbers), row["error"] or ""]
        for row in rows
    )
    _write_csv(table_path, _SWEEP_COLUMNS, table)
    summary = {"parameter": sweep.parameter, "values": list(sweep.values), "rows": rows}
    _write_json(json_path, summary)
    results = [res for res, _ in pairs]
    return SweepResult(sweep.parameter, tuple(sweep.values), rows, results, table_path, json_path)


# ---------------------------------------------------------------------------
# method comparison


@dataclass
class ComparisonResult:
    reference: str
    runs: dict[str, ScenarioResult]
    deviations: dict
    table_path: Path
    json_path: Path


def compare_methods(
    config: ScenarioConfig,
    methods: Sequence[str],
    *,
    matter_store: dict | None = None,
    out_dir=None,
) -> ComparisonResult:
    """Run the same scenario per method, in turn and on one grid; tabulate
    signed deviations from the first method."""
    _refuse_sweep(config)
    requested = list(dict.fromkeys(methods))
    if not requested:
        raise ConfigError("no methods requested")
    store = matter_store if matter_store is not None else {}
    base_name = _base_name(config)

    def method_config(m: str) -> ScenarioConfig:
        cfg = with_method(config, m)
        label = _method_label(cfg.method)
        return replace(cfg, output=replace(config.output, basename=f"{base_name}_{label}"))

    configs = {m: method_config(m) for m in requested}
    # refuse a bad config, an unknown method included, before any method's
    # ring solve; the runs share that solve
    for cfg in configs.values():
        validate_config(cfg)
    runs = {m: run_scenario(cfg, matter_store=store, out_dir=out_dir) for m, cfg in configs.items()}

    ref_name = requested[0]
    ref = runs[ref_name]
    for name, res in runs.items():
        if len(res.times_ps) != len(ref.times_ps) or not np.allclose(
            res.times_ps, ref.times_ps, rtol=0.0, atol=1e-9
        ):
            raise RuntimeError(
                f"method {name} produced a different time grid than {ref_name}; "
                "methods must share dt, t_final and record_stride"
            )

    labels = {m: _method_label(runs[m].config.method) for m in requested}
    deviations: dict = {"reference": labels[ref_name], "methods": {}}
    ref_cols = dict(zip(ref.names, ref.rows.T))
    for m in requested[1:]:
        res = runs[m]
        cols = dict(zip(res.names, res.rows.T))
        entries = []
        for name in (n for n in res.names if n in ref_cols):
            a, b = ref_cols[name], cols[name]
            mask = np.isfinite(a) & np.isfinite(b)
            if not mask.any():
                continue
            diff = np.where(mask, b - a, 0.0)
            i = int(np.argmax(np.abs(diff)))
            entries.append(
                {
                    "column": name,
                    "max_signed_deviation": float(diff[i]),
                    "t_ps": float(ref.times_ps[i]),
                }
            )
        deviations["methods"][labels[m]] = entries

    table_path, json_path = _output_paths(config, out_dir, f"{base_name}_methods")
    header = ["time_ps"] + [f"{n}.{labels[m]}" for m in requested for n in runs[m].names]
    table = (
        [_fmt_cell(t), *(_fmt_cell(v) for m in requested for v in runs[m].rows[k])]
        for k, t in enumerate(ref.times_ps)
    )
    _write_csv(table_path, header, table)
    _write_json(json_path, deviations)
    return ComparisonResult(labels[ref_name], runs, deviations, table_path, json_path)
