"""Run the benchmark on several seeds per workload and report, for each
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
next to the metric's bound in BENCHMARK.json; with --trace, also make two
traced runs per workload and check that their per-layer counts repeat.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--trace]
                                [--record perfbench/baseline.json]

Run from the root of a dimspectra checkout; `--seeds 1` is the quick way to
run every workload once.  Each workload's report also shows the full
report of its seed-1 run (oracle error, failed-row fraction, sample counts).
--record writes the medians, quartiles, per-layer values and the machine
description to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import CHILD_ENV, HERE
import workloads as wl


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One invocation of run.py: its JSON result and its report lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def machine() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "caches": caches,
        "child_env": CHILD_ENV,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(wl.WORKLOADS))
    ap.add_argument("--seeds", type=int, default=10, help="seeds 1 .. N")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--record", type=Path)
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"machine": machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs, reports = zip(*(bench(workload, seed, spec["run_seconds"], 0)
                              for seed in range(1, args.seeds + 1)))
        entry: dict = {
            "seeds": list(range(1, args.seeds + 1)),
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": {},
        }
        print(f"{workload}: correct {entry['correct']}  failed {entry['failed']} of "
              f"{entry['attempted']} rows; report of seed 1:")
        for line in reports[0]:
            if not line.startswith("sweep"):
                print(f"    {line}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med
            worst = max(worst, spread / bound)
            entry["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "unit": runs[0]["metrics"][name]["unit"], "values": values,
            }
            print(f"  {name:18s} median {med:10.5g}  spread {spread:7.2%}  bound {bound:.0%}"
                  f"  spread/bound {spread / bound:5.2f}")
        if args.trace:
            traced = [bench(workload, 0, spec["run_seconds"], 1)[0] for _ in range(2)]
            counts = [{k: v["value"] for k, v in t["metrics"].items()
                       if v["unit"] not in ("s", "us") and not k.startswith(("trace.", "proc."))}
                      for t in traced]
            entry["per_layer"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
            entry["per_layer_counts_repeat"] = counts[0] == counts[1]
            print(f"  traced: counts repeat {counts[0] == counts[1]}, overhead "
                  + ", ".join(f"{t['metrics']['trace.overhead']['value']:+.1%}" for t in traced))
        report["workloads"][workload] = entry
    print(f"largest spread/bound: {worst:.2f}")
    if args.record:
        args.record.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
