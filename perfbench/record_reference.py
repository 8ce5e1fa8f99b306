"""Record the reference CSVs that benchmark rows are checked against.

    python3 perfbench/record_reference.py [--seeds 20]

Run from the root of a dimspectra checkout at the commit whose enclosures
are the reference.  For every workload and seed it runs each command once,
requires exit code 0 and seed 0's stopping rule, and writes the CSV to
`perfbench/reference/<workload>/seed-<n>/<command>.csv`.  Seed 0 is
recorded first, since the other seeds are compared with it.
"""

from __future__ import annotations

import argparse
import math
import shutil
import sys
from pathlib import Path

from run import HERE, Bench
import workloads as wl

# Columns that name the stopping rule a row ended by.
STOP_COLUMNS = {"pressure": ("level", "mode")}


def record(root: Path, workload: str, seed: int) -> list[str]:
    bench = Bench(root, workload, seed)
    out = HERE / "reference" / workload / f"seed-{seed}"
    problems, lines = [], []
    try:
        for doc, cfg in zip(bench.docs, bench.configs):
            name = doc["command"]["name"]
            rec = bench.spawn("run", cfg)
            lines.append(f"{workload} seed {seed} {name}: exit {rec['exit']} {rec['run_s']:.2f} s")
            if rec["exit"] != 0:
                problems.append(f"{workload} seed {seed} {name}: exit {rec['exit']}")
                continue
            rows = wl.read_csv(cfg.with_suffix(".csv"))
            for col in STOP_COLUMNS.get(name, ()) if seed else ():
                seed0 = wl.read_csv(HERE / "reference" / workload / "seed-0" / f"{name}.csv")
                if [r[col] for r in rows] != [r[col] for r in seed0]:
                    problems.append(f"{workload} seed {seed} {name}: {col} differs from seed 0")
            if any(math.isnan(float(r[v])) for r in rows for v, _, _ in wl.BRACKETS[name] if v):
                problems.append(f"{workload} seed {seed} {name}: a row ended as an enclosure")
            out.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(cfg.with_suffix(".csv"), out / f"{name}.csv")
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    return lines + [f"PROBLEM {p}" for p in problems]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=20, help="record seeds 0 .. N-1")
    args = ap.parse_args()
    root = Path.cwd()
    problems = 0
    # Seed 0 first: the stop rules of the other seeds are checked against it.
    # One at a time, since every Bench of this process shares its work folder.
    for seed in range(args.seeds):
        for w in wl.WORKLOADS:
            for line in record(root, w, seed):
                print(line, flush=True)
                problems += line.startswith("PROBLEM")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
