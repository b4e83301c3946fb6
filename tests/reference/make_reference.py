"""Write the tiny-grid reference series of every shipped preset.

Run from the repository root, only when the program's output is meant to
change (and say why in the change that does it):

    PYTHONPATH=src python3 tests/reference/make_reference.py [preset ...]

Each preset runs on a 31-point grid with three matter levels and small
signal truncations, over several record intervals; the two driven presets
run past the end of their pump pulse, and a sweep runs its first two
values.  tests/test_reference.py reruns the same configs and compares every
CSV written here with the benchmark's gate.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from ringpdc import scenarios as sc

HERE = Path(__file__).resolve().parent
TINY_MATTER = sc.MatterSpec(v0_mev=200.0, n_levels=3, grid_points=31, grid_step_nm=2.8)
# undriven runs: four record intervals of RECORD_STRIDE dt and a two-dt tail
RECORD_STRIDE = 5
UNDRIVEN_STEPS = 4 * RECORD_STRIDE + 2
# driven runs: the pulse envelope is below 1e-13 of its peak after this time
DRIVEN_T_FINAL_PS = 0.35
DRIVEN_RECORD_STRIDE = 20


def reference_config(name: str) -> sc.ScenarioConfig:
    """The shipped preset `name`, shrunk to the tiny grid."""
    cfg = sc.load_preset(name)
    pump = cfg.modes[0]
    if cfg.initial.kind == "coherent":
        pump = replace(pump, n_max=sc._min_coherent_fock(cfg.initial.xi1))
    elif cfg.initial.kind == "fock":
        pump = replace(pump, n_max=min(pump.n_max, cfg.initial.fock_k + 1))
    # a driven pump keeps its truncation: the calibration must reach target_n1
    signals = tuple(replace(m, n_max=min(m.n_max, 2)) for m in cfg.modes[1:])
    p = cfg.propagation
    if cfg.drive is not None:
        p = replace(p, t_final_ps=DRIVEN_T_FINAL_PS, record_stride=DRIVEN_RECORD_STRIDE)
    else:
        p = replace(p, t_final_ps=UNDRIVEN_STEPS * p.dt_fs * 1e-3, record_stride=RECORD_STRIDE)
    cfg = replace(cfg, matter=TINY_MATTER, modes=(pump, *signals), propagation=p)
    if cfg.sweep is not None:
        cfg = replace(cfg, sweep=replace(cfg.sweep, values=cfg.sweep.values[:2]))
    return cfg


def run_reference(name: str, out_dir: Path, store: dict | None = None) -> dict[str, bytes]:
    """{csv file name: bytes} of every series the reference config of `name` writes."""
    cfg = reference_config(name)
    store = {} if store is None else store
    if cfg.sweep is None:
        results = [sc.run_scenario(cfg, matter_store=store, out_dir=out_dir)]
    else:
        swept = sc.run_sweep(cfg, matter_store=store, out_dir=out_dir, max_workers=1)
        errors = [row["error"] for row in swept.rows if row["error"]]
        if errors:
            raise RuntimeError(f"{name}: {errors}")
        results = swept.results
    return {res.csv_path.name: res.csv_path.read_bytes() for res in results}


def main(names) -> None:
    store: dict = {}
    for name in names or [n for n, _ in sc.list_presets()]:
        with tempfile.TemporaryDirectory() as tmp:
            series = run_reference(name, Path(tmp), store)
        folder = HERE / name
        if folder.exists():
            shutil.rmtree(folder)
        folder.mkdir()
        for csv_name, data in series.items():
            (folder / csv_name).write_bytes(data)
        print(f"{name}: wrote {len(series)} series to {folder}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
