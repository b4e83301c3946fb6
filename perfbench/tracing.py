"""Spans and counters around the calls `ringpdc.scenarios` makes into each module.

Nothing inside `src/` is instrumented.  Instead the names that
`ringpdc.scenarios` imports (and the pipeline functions it defines and calls
through its own globals) are swapped for timing wrappers for the duration of
one benchmark call, then restored.  The assembled Hamiltonian is handed to
`propagate` inside a callable that counts and times each `H @ psi`, and the
observers passed to `propagate` are timed the same way.  All of this only
reads arguments and return values, so a traced run writes the same bytes as
an untraced one; the benchmark checks that.

Spans are kept in memory (`Tracer.spans`) and reduced to per-layer numbers by
`Tracer.layer_metrics`.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

# (layer, name) of every scenarios-module global that gets a span.
TRACED = (
    ("matter", "prepare_matter"),
    ("matter", "solve_ring"),
    ("matter", "transition_matrices"),
    ("hamiltonian", "assemble_system"),
    ("hamiltonian", "assemble_degenerate"),
    ("hamiltonian", "assemble_signal_pair"),
    ("hamiltonian", "assemble_few_level"),
    ("hamiltonian", "assemble_bath_terms"),
    ("hamiltonian", "product_state"),
    ("propagator", "ground_state"),
    ("propagator", "propagate"),
    ("observables", "snapshot_columns"),
    ("scenarios", "write_series_csv"),
    ("scenarios", "sweep_row_config"),
    ("scenarios", "run_scenario"),
    ("scenarios", "run_sweep"),
)
# First span of a run after the Hamiltonian is complete; ends the assembly window.
_AFTER_ASSEMBLY = ("product_state", "ground_state", "snapshot_columns", "propagate")


def maxrss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextlib.contextmanager
def patched(module, wrappers: dict):
    """Replace module globals by wrap(original) for the block, then restore them."""
    saved = {name: getattr(module, name) for name in wrappers}
    try:
        for name, wrap in wrappers.items():
            setattr(module, name, wrap(saved[name]))
        yield
    finally:
        for name, original in saved.items():
            setattr(module, name, original)


def fixed_dt_steps(span: float, dt: float) -> int:
    """Steps `propagate` takes over `span`: whole dt steps plus one short tail step."""
    n_full = int(math.floor(span / dt + 1e-9))
    remainder = span - n_full * dt
    return n_full + (1 if remainder >= 1e-9 * dt else 0)


class CountedOperator:
    """Callable `H @ psi` that counts and times every product.

    It has no `.matrix` attribute, so `propagate` applies it as a callable.
    """

    def __init__(self, matrix):
        self._matrix = matrix
        self.count = 0
        self.seconds = 0.0

    def __call__(self, vec):
        start = time.perf_counter()
        out = self._matrix @ vec
        self.seconds += time.perf_counter() - start
        self.count += 1
        return out


@dataclass
class Span:
    name: str
    layer: str
    thread: int
    start: float
    parent: "Span | None"
    end: float = math.nan
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for every traced call made while `active(module)` is entered."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack = threading.local()

    def _open(self, layer: str, name: str) -> Span:
        stack = self._stack.__dict__.setdefault("spans", [])
        span = Span(
            name=name,
            layer=layer,
            thread=threading.get_ident(),
            start=time.perf_counter(),
            parent=stack[-1] if stack else None,
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.spans.pop()

    def _wrap(self, layer: str, name: str, fn):
        if name == "propagate":
            return self._wrap_propagate(fn)

        def traced(*args, **kwargs):
            span = self._open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _wrap_propagate(self, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            span = self._open("propagator", "propagate")
            matrix = getattr(a["h"], "matrix", a["h"])
            op = CountedOperator(matrix)
            info = span.info
            info.update(
                rss_mb=maxrss_mb(),  # peak so far: the Hamiltonian is built, no step taken
                steps=fixed_dt_steps(a["t_final"] - a["state"].time, a["config"].dt),
                nnz=int(matrix.nnz),
                csr_bytes=int(
                    matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
                ),
                vec_bytes=int(a["state"].amplitudes.nbytes),
                observer_s=0.0,
                observer_calls=0,
                observers=len(a["observables"] or {}),
            )

            def timed(observer):
                def call(state):
                    start = time.perf_counter()
                    out = observer(state)
                    info["observer_s"] += time.perf_counter() - start
                    info["observer_calls"] += 1
                    return out

                return call

            a["h"] = op
            if a["observables"] is not None:
                a["observables"] = {k: timed(f) for k, f in a["observables"].items()}
            try:
                return fn(**a)
            finally:
                info.update(matvecs=op.count, matvec_s=op.seconds)
                self._close(span)

        return traced

    def active(self, module):
        """Context manager that traces every name in TRACED on `module`."""
        return patched(
            module,
            {
                name: (lambda fn, layer=layer, name=name: self._wrap(layer, name, fn))
                for layer, name in TRACED
            },
        )

    # -- reduction ---------------------------------------------------------

    def _named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def _total(self, name: str) -> float:
        return sum(s.seconds for s in self._named(name))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers of everything traced so far (one benchmark call)."""
        runs = self._named("run_scenario")
        props = self._named("propagate")
        if not runs or not props:
            raise RuntimeError("traced call recorded no run_scenario/propagate span")

        solve_s = self._total("solve_ring")
        transition_s = self._total("transition_matrices")

        assemble_s = 0.0
        output_s = 0.0
        rows = []
        for run in runs:
            kids = sorted((s for s in self.spans if s.parent is run), key=lambda s: s.start)
            first = next(s for s in kids if s.name.startswith("assemble_"))
            done = next(s for s in kids if s.name in _AFTER_ASSEMBLY and s.start >= first.end)
            assemble_s += done.start - first.start
            writes = [s for s in kids if s.name == "write_series_csv"]
            if writes:
                output_s += run.end - writes[0].start
            # a sweep row starts in sweep_row_config, which re-solves the ring for V0
            configs = [
                s
                for s in self._named("sweep_row_config")
                if s.thread == run.thread and s.end <= run.start
            ]
            begin = max(configs, key=lambda s: s.start).start if configs else run.start
            rows.append(run.end - begin)
        for sweep in self._named("run_sweep"):
            output_s += sweep.end - max(r.end for r in runs)

        steps = sum(p.info["steps"] for p in props)
        matvecs = sum(p.info["matvecs"] for p in props)
        matvec_s = sum(p.info["matvec_s"] for p in props)
        observer_s = sum(p.info["observer_s"] for p in props)
        records = sum(p.info["observer_calls"] // max(1, p.info["observers"]) for p in props)
        # bytes one CSR matvec must move at least: the matrix, psi read, H psi written
        moved = sum(
            p.info["matvecs"] * (p.info["csr_bytes"] + 2 * p.info["vec_bytes"]) for p in props
        )
        matvec_ms = 1e3 * matvec_s / matvecs
        step_ms = 1e3 * (sum(p.seconds for p in props) - observer_s) / steps
        per_step = matvecs / steps
        return {
            "matter.solve_s": solve_s,
            "matter.solves": float(len(self._named("solve_ring"))),
            "matter.transition_s": transition_s,
            "matter.lock_wait_s": self._total("prepare_matter") - solve_s - transition_s,
            "hamiltonian.assemble_s": assemble_s,
            "hamiltonian.rss_after_assemble_mb": max(p.info["rss_mb"] for p in props),
            "hamiltonian.nnz": float(max(p.info["nnz"] for p in props)),
            "hamiltonian.csr_mb": max(p.info["csr_bytes"] for p in props) / 2**20,
            "hamiltonian.matvecs": float(matvecs),
            "hamiltonian.matvec_ms": matvec_ms,
            "hamiltonian.matvec_gbps_computed": moved / matvec_s / 1e9,
            "propagator.steps": float(steps),
            "propagator.matvecs_per_step": per_step,
            "propagator.step_ms": step_ms,
            "propagator.overhead_ms_per_step": step_ms - per_step * matvec_ms,
            "observables.records": float(records),
            "observables.snapshot_ms": 1e3 * observer_s / records,
            "scenarios.output_s": output_s,
            "scenarios.row_s_p50": statistics.median(rows),
            "scenarios.row_s_max": max(rows),
        }

    def to_json(self) -> list[dict]:
        """Spans as plain records, times relative to the first span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "id": i,
                "parent": index[id(s.parent)] if s.parent is not None else None,
                "layer": s.layer,
                "name": s.name,
                "thread": s.thread,
                "start_s": s.start - t0,
                "end_s": s.end - t0,
                **s.info,
            }
            for i, s in enumerate(self.spans)
        ]
