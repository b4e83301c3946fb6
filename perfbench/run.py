"""Layered benchmark of ringpdc: shortened presets timed end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload degenerate --seed 0 --seconds 20 --trace 0

Every workload is a shipped preset run through the public `ringpdc.scenarios`
API (`load_preset`, `run_scenario`, `run_sweep`), the path the CLI wraps, with
only `t_final_ps` shortened (and, for the sweep, a subset of its values).  A
run first makes one small warm-up call, so that lazy imports inside numpy and
scipy do not land on the first timed call, then repeats whole calls, closed
loop from one process, until at least MIN_CALLS calls are done and `--seconds`
have passed.

Seed 0 runs the preset values.  Other seeds draw `theta1_deg` of
`degenerate` and the swept V0 values of `v0_sweep` from the presets' ranges;
the other two workloads do not depend on the seed.  Each call is gated:

* with seed 0, every series CSV must equal the stored reference
  (`reference/`, written by `make_reference.py`) column by column, with
  identical empty (NaN) cells and values within RTOL/ATOL;
* every call after the first must write bit-identical CSVs;
* each JSON summary's `norm_drift` must stay below NORM_DRIFT_GATE.

A call that raises or fails a gate counts as failed; `pass_frac` is the share
of calls that passed.

`--trace 0` prints the end-to-end metrics, medians over the calls: `setup_s`
(see `run_call`), `run_s` (the whole call, CSV and JSON written),
`sim_ps_per_s` (simulated ps summed over rows / (run_s - setup_s)),
`peak_rss_mb` (this process, from getrusage) and `pass_frac`.
`--trace 1` ignores `--seconds` and makes one traced call, one untraced call
(its CSVs must be bit-identical to the traced ones) and, for the sweep, one
untraced call with a single worker; it prints the per-layer metrics of
`tracing.Tracer`.

The last line of stdout is the JSON result; the lines above it give every
metric with its unit, the environment fingerprint and the gates.  The full
record (per-call samples, gates, spans) is written to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference"

sys.path.insert(0, str(HERE))
from tracing import Tracer, maxrss_mb, patched  # noqa: E402

MIN_CALLS = 3
NORM_DRIFT_GATE = 1e-10
# Column tolerance against the stored reference: |got - ref| <= ATOL + RTOL |ref|.
# Changes at the level of the Krylov tolerance pass: moving krylov_tol anywhere
# from 1e-12 to 1e-8 shifts no cell by more than 4e-10.  A change of physics
# (coupling, geometry, time grid) moves cells by far more.
RTOL = 1e-6
ATOL = 1e-8


@dataclass(frozen=True)
class Workload:
    preset: str
    t_final_ps: float
    # Seed 0 keeps the preset; other seeds draw theta1_deg from this range.
    theta1_range: tuple[float, float] | None = None
    # Seed 0 sweeps these preset values; other seeds draw one per equal slice of the range.
    sweep_values: tuple[float, ...] = ()
    sweep_range: tuple[float, float] | None = None
    workers: int | None = None


# Why each workload is here is in BENCHMARK.json.  The spans are chosen so that
# propagation takes a few seconds of every call, while MIN_CALLS calls of the
# slowest workload take about 30 s, which keeps all runs inside the time budget.
WORKLOADS = {
    "degenerate": Workload("degenerate", t_final_ps=2.0, theta1_range=(0.0, 90.0)),
    "coherent_pump": Workload("coherent_pump", t_final_ps=0.006),  # 2 steps
    "reduced_bath": Workload("reduced_bath", t_final_ps=0.0932),  # 8 steps
    "v0_sweep": Workload(
        "v0_sweep",
        t_final_ps=0.5,
        sweep_values=(0.0, 150.0, 300.0),
        sweep_range=(0.0, 300.0),
        workers=2,
    ),
}


def load_scenarios():
    """Import `ringpdc.scenarios` from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ringpdc" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no ringpdc sources under {src}")
    sys.path.insert(0, str(src))
    from ringpdc import scenarios

    if Path(scenarios.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"benchmark: imported ringpdc from {scenarios.__file__}, not {src}")
    return scenarios


def workload_config(scenarios, name: str, seed: int):
    """The scenario config of one workload; seed 0 keeps the preset values."""
    w = WORKLOADS[name]
    cfg = scenarios.load_preset(w.preset)
    cfg = replace(cfg, propagation=replace(cfg.propagation, t_final_ps=w.t_final_ps))
    rng = np.random.default_rng(seed)
    if w.theta1_range is not None and seed != 0:
        cfg = replace(cfg, theta1_deg=round(float(rng.uniform(*w.theta1_range)), 3))
    if w.sweep_values:
        values = w.sweep_values
        if seed != 0:
            # one draw per slice keeps the spread of barrier heights the same for every seed
            edges = np.linspace(*w.sweep_range, len(w.sweep_values) + 1)
            values = tuple(round(float(rng.uniform(lo, hi)), 3) for lo, hi in zip(edges, edges[1:]))
        cfg = replace(cfg, sweep=replace(cfg.sweep, values=values))
    return cfg


def warmup_config(scenarios):
    """A tiny degenerate run touching every module once, so lazy imports are done."""
    cfg = scenarios.load_preset("degenerate")
    return replace(
        cfg,
        matter=replace(cfg.matter, grid_points=31, grid_step_nm=2.8, n_levels=3),
        modes=tuple(replace(m, n_max=3) for m in cfg.modes),
        initial=replace(cfg.initial, kind="fock", fock_k=1),
        propagation=replace(cfg.propagation, t_final_ps=0.05),
    )


# ---------------------------------------------------------------------------
# one call


@dataclass
class Call:
    label: str
    setup_s: float
    run_s: float
    sim_ps: float
    series: dict[str, bytes]
    summaries: dict[str, dict]
    ok: bool = False


def run_call(scenarios, cfg, workers, out_dir: Path, tracer: Tracer | None = None) -> Call:
    """One run_scenario/run_sweep call, timed from outside, outputs read back.

    The set-up time of a row runs from its start (the call, or for a sweep the
    row's `sweep_row_config`) until its `propagate` starts; `setup_s` is the
    mean over rows.  For a sweep this is steadier than the first row's alone,
    because which row waits on the matter lock changes from call to call.
    """
    if out_dir.exists():
        shutil.rmtree(out_dir)
    events: list[tuple[str, int, float]] = []

    def mark(name):
        def wrap(fn):
            def marked(*args, **kwargs):
                events.append((name, threading.get_ident(), time.perf_counter()))
                return fn(*args, **kwargs)

            return marked

        return wrap

    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.active(scenarios))
        stack.enter_context(
            patched(scenarios, {"propagate": mark("propagate"), "sweep_row_config": mark("row")})
        )
        begin = time.perf_counter()
        if cfg.sweep is not None:
            sweep = scenarios.run_sweep(cfg, out_dir=out_dir, max_workers=workers)
            errors = [row["error"] for row in sweep.rows if row["error"]]
            if errors:
                raise RuntimeError("sweep rows failed: " + "; ".join(errors))
            results = sweep.results
        else:
            results = [scenarios.run_scenario(cfg, out_dir=out_dir)]
        run_s = time.perf_counter() - begin
    row_start: dict[int, float] = {}
    setups = []
    for name, thread, at in events:
        if name == "propagate":
            setups.append(at - row_start.pop(thread, begin))
        else:
            row_start[thread] = at
    return Call(
        label=out_dir.name,
        setup_s=statistics.mean(setups),
        run_s=run_s,
        sim_ps=sum(float(r.times_ps[-1] - r.times_ps[0]) for r in results),
        series={r.csv_path.name: r.csv_path.read_bytes() for r in results},
        summaries={r.csv_path.name: json.loads(r.json_path.read_text()) for r in results},
    )


# ---------------------------------------------------------------------------
# correctness gates


def parse_series(data: bytes) -> tuple[list[str], np.ndarray]:
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    cells = [[float(c) if c else math.nan for c in line.split(",")] for line in lines[1:]]
    return header, np.asarray(cells, dtype=float).reshape(len(cells), len(header))


def compare_series(got: bytes, ref: bytes) -> str | None:
    """None if `got` matches `ref` column by column, else what differs."""
    g_names, g = parse_series(got)
    r_names, r = parse_series(ref)
    if g_names != r_names:
        return f"columns {g_names} != reference {r_names}"
    if g.shape != r.shape:
        return f"{g.shape[0]} rows != reference {r.shape[0]}"
    for j, name in enumerate(g_names):
        nan = np.isnan(g[:, j])
        if not np.array_equal(nan, np.isnan(r[:, j])):
            return f"empty cells of {name} differ from the reference"
        err = np.abs(g[~nan, j] - r[~nan, j])
        allowed = ATOL + RTOL * np.abs(r[~nan, j])
        if np.any(err > allowed):
            return f"{name} off the reference by {err.max():.3e}"
    return None


def load_reference(name: str) -> dict[str, bytes]:
    folder = REFERENCE / name
    return {p.name: p.read_bytes() for p in sorted(folder.glob("*.csv"))}


def gate(call: Call, reference: dict[str, bytes] | None, first: Call | None) -> list[str]:
    problems = []
    for csv_name, summary in call.summaries.items():
        drift = summary.get("norm_drift")
        if drift is None or not drift < NORM_DRIFT_GATE:
            problems.append(f"{csv_name}: norm_drift {drift} not below {NORM_DRIFT_GATE:g}")
    if reference is not None:
        if sorted(call.series) != sorted(reference):
            problems.append(f"series {sorted(call.series)} != reference {sorted(reference)}")
        for csv_name in sorted(set(call.series) & set(reference)):
            problem = compare_series(call.series[csv_name], reference[csv_name])
            if problem:
                problems.append(f"{csv_name}: {problem}")
    if first is not None and call.series != first.series:
        problems.append(f"CSV output not bit-identical to call {first.label}")
    return problems


def truncation_drift(call: Call) -> float:
    return max(
        (v for s in call.summaries.values() for v in s["truncation_drift"].values()),
        default=0.0,
    )


# ---------------------------------------------------------------------------
# reporting


def fingerprint(workers) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "max_workers": workers,
    }


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def log(msg: str) -> None:
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# the two kinds of run


class Runner:
    """Runs calls of one workload, gates them and keeps the tally."""

    def __init__(self, scenarios, name: str, seed: int):
        self.scenarios = scenarios
        self.cfg = workload_config(scenarios, name, seed)
        self.workers = WORKLOADS[name].workers
        # sweep rows differ only in V0 and mode frequencies, not in dimensions
        self.estimated_mb = scenarios.memory_report(replace(self.cfg, sweep=None))["estimated_mb"]
        self.reference = load_reference(name) if seed == 0 else None
        self.out = OUT / name
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.samples: list[dict] = []
        self.first: Call | None = None

    def call(self, label: str, workers=None, tracer: Tracer | None = None) -> Call | None:
        """One gated call; None if it raised.  Gate failures are counted in `failed`."""
        self.attempted += 1
        workers = workers if workers is not None else self.workers
        try:
            call = run_call(self.scenarios, self.cfg, workers, self.out / label, tracer)
        except Exception as exc:  # noqa: BLE001 - a failed call is counted, not fatal
            traceback.print_exc()
            problems = [f"{type(exc).__name__}: {exc}"]
            call = None
        else:
            problems = gate(call, self.reference, self.first)
            call.ok = not problems
            self.first = self.first or call
            self.samples.append(
                {
                    "label": label,
                    "workers": workers,
                    "setup_s": call.setup_s,
                    "run_s": call.run_s,
                    "sim_ps": call.sim_ps,
                    "truncation_drift": truncation_drift(call),
                    "norm_drift": [s["norm_drift"] for s in call.summaries.values()],
                    "gates": problems or "ok",
                }
            )
            log(
                f"call {label}: setup {call.setup_s:.3f} s, run {call.run_s:.3f} s, "
                f"truncation drift {truncation_drift(call):.3e}"
            )
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)
            log(f"call {label}: FAILED " + "; ".join(problems))
        return call

    def warm_up(self) -> None:
        self.scenarios.run_scenario(warmup_config(self.scenarios), out_dir=self.out / "warmup")

    def end_to_end(self, seconds: float) -> dict[str, float]:
        done = []
        deadline = time.perf_counter() + seconds
        while self.attempted < MIN_CALLS or time.perf_counter() < deadline:
            call = self.call(f"call{self.attempted}")
            if call is not None:
                done.append(call)
        if not done:
            raise SystemExit("benchmark: every call raised: " + " | ".join(self.failures))
        # time the passing calls; if none passed, the result reports correct = false
        calls = [c for c in done if c.ok] or done
        return {
            "setup_s": statistics.median(c.setup_s for c in calls),
            "run_s": statistics.median(c.run_s for c in calls),
            "sim_ps_per_s": statistics.median(c.sim_ps / (c.run_s - c.setup_s) for c in calls),
            "peak_rss_mb": maxrss_mb(),
            "pass_frac": sum(c.ok for c in done) / self.attempted,
        }

    def per_layer(self) -> tuple[dict[str, float], list[dict]]:
        # traced call first: the RSS peaks it reports must not include another call's
        tracer = Tracer()
        traced = self.call("traced", tracer=tracer)
        rss = maxrss_mb()
        plain = self.call("untraced")
        single = self.call("one_worker", workers=1) if self.cfg.sweep is not None else None
        if traced is None or plain is None or (self.cfg.sweep is not None and single is None):
            raise SystemExit("benchmark: a traced-run call raised: " + " | ".join(self.failures))
        metrics = tracer.layer_metrics()
        if single is not None:
            metrics["scenarios.pool_speedup"] = single.run_s / plain.run_s
        else:
            # one run_scenario call has no pool: one and two workers do the same work
            metrics["scenarios.pool_speedup"] = 1.0
        metrics["scenarios.estimated_mb"] = self.estimated_mb
        metrics["scenarios.mem_estimate_ratio"] = rss / self.estimated_mb
        metrics["trace.overhead_frac"] = traced.run_s / plain.run_s - 1.0
        return metrics, tracer.to_json()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scenarios = load_scenarios()
    runner = Runner(scenarios, args.workload, args.seed)
    env = fingerprint(runner.workers)
    cfg = runner.cfg
    inputs = {
        "preset": WORKLOADS[args.workload].preset,
        "t_final_ps": cfg.propagation.t_final_ps,
        "theta1_deg": cfg.theta1_deg,
        "sweep_values": list(cfg.sweep.values) if cfg.sweep is not None else None,
        "memory_report_mb": runner.estimated_mb,
    }
    log(f"workload {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(inputs)}")
    log(f"env {json.dumps(env)}")

    runner.warm_up()
    spans = None
    if args.trace:
        metrics, spans = runner.per_layer()
        units = metric_units("per_layer")
    else:
        metrics = runner.end_to_end(args.seconds)
        units = metric_units("end_to_end")
    for key, unit in units.items():
        log(f"  {key:36s} {metrics[key]:14.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    record = {
        "args": vars(args),
        "inputs": inputs,
        "env": env,
        "samples": runner.samples,
        "failures": runner.failures,
        "result": result,
        "spans": spans,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    log(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
