"""Every shipped preset against its stored tiny-grid series (tests/reference/).

The tolerance is the benchmark's gate, |got - ref| <= 1e-8 + 1e-6 |ref| with
identical empty (sub-floor) cells, so a numerical rewrite that keeps every
series inside the Krylov tolerance passes, and a change of physics does not.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ringpdc import scenarios as sc

REFERENCE = Path(__file__).resolve().parent / "reference"
RTOL = 1e-6
ATOL = 1e-8

_spec = importlib.util.spec_from_file_location(
    "make_reference", REFERENCE / "make_reference.py"
)
make_reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_reference)


def parse_csv(data: bytes) -> tuple[list[str], np.ndarray]:
    header, *lines = data.decode().splitlines()
    rows = [[float(cell) if cell else np.nan for cell in line.split(",")] for line in lines]
    return header.split(","), np.asarray(rows, dtype=float)


@pytest.fixture(scope="module")
def store():
    return {}


@pytest.mark.parametrize("name", [name for name, _ in sc.list_presets()])
def test_preset_matches_reference(name, tmp_path, store):
    stored = {path.name: path.read_bytes() for path in (REFERENCE / name).glob("*.csv")}
    assert stored, f"no reference series for {name}"
    got = make_reference.run_reference(name, tmp_path, store)
    assert sorted(got) == sorted(stored)
    for csv_name, data in stored.items():
        want_names, want = parse_csv(data)
        got_names, rows = parse_csv(got[csv_name])
        assert got_names == want_names, csv_name
        assert rows.shape == want.shape, csv_name
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(rows), nan), csv_name
        excess = np.abs(rows[~nan] - want[~nan]) - (ATOL + RTOL * np.abs(want[~nan]))
        assert excess.max(initial=-1.0) <= 0.0, (csv_name, excess.max())
