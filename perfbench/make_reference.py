"""Write the seed-0 reference series that every benchmark call is gated against.

Run from the repository root, only when the program's output is meant to
change (and say so in the change that does it):

    python3 perfbench/make_reference.py [workload ...]
"""

from __future__ import annotations

import shutil
import sys

from run import OUT, REFERENCE, WORKLOADS, load_scenarios, run_call, workload_config


def main(names) -> None:
    scenarios = load_scenarios()
    for name in names or sorted(WORKLOADS):
        cfg = workload_config(scenarios, name, seed=0)
        call = run_call(scenarios, cfg, WORKLOADS[name].workers, OUT / name / "reference")
        folder = REFERENCE / name
        if folder.exists():
            shutil.rmtree(folder)
        folder.mkdir(parents=True)
        for csv_name, data in call.series.items():
            (folder / csv_name).write_bytes(data)
        print(f"{name}: wrote {len(call.series)} series to {folder}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
