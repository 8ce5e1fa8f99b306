"""dimspectra benchmark: three batch workloads run end to end through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dimspectra checkout.  Each command of a workload is
one fresh Python process running `dimspectra.cli.main` on a seeded config
(closed loop, one client: the next process starts when the previous one has
exited), so nothing carries over between repetitions.  Thread pools are
pinned to one thread (see CHILD_ENV).

One invocation
  1. runs every `configs/*.yaml` once (the shipped-config sweep, untimed
     as a metric) and compares each CSV with `out/`: a value outside its
     `out/` enclosure, or a changed exit code, makes the result incorrect;
  2. runs whole repetitions of the workload while another fits in
     `--seconds`, checking every CSV row;
  3. with `--trace 1`, alternates untraced and traced repetitions instead;
     the traced ones give the per-layer metrics (see `tracer.py`).

Human-readable lines go to stdout; the last line is one JSON object with
`correct`, `attempted`, `failed` (rows) and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer ones with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

SWEEP_WORKERS = 2  # the sweep is untimed as a metric, so it may run in parallel
TIME_LIMIT_S = 170  # a whole invocation; a child still running then is killed
# The whole environment of every child process: thread pools run one thread
# each, and nothing else is passed on.  glibc's malloc is left at its
# defaults, but the heap layout those defaults act on shifts with the
# lengths of the strings a process holds: whether blockopt's level-18
# temporaries reuse heap pages or fault fresh ones in (66k or 2.2M minor
# faults, 3 s or 7 s) flips with the length of the checkout path and of the
# config path.  So the children get no inherited variables, whose number
# and lengths would shift it too, and every path they see below the
# checkout has a fixed length (see Bench.work).  The checkout path itself
# stays as it is, so two checkouts of the same code may land in different
# modes; the minor faults are reported with the per-layer metrics, where
# such a flip shows.
CHILD_ENV = {
    "DIMSPECTRA_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        # Padded to pid_max's seven digits, so that the path's length does
        # not change with the process id.
        self.work = HERE / "_work" / f"{os.getpid():07d}"
        self.docs = wl.commands(workload, seed)
        self.configs = [self._write_config(doc, doc["command"]["name"]) for doc in self.docs]
        ref_dir = HERE / "reference" / workload / f"seed-{seed}"
        self.reference = {
            doc["command"]["name"]: wl.read_csv(ref_dir / f"{doc['command']['name']}.csv")
            for doc in self.docs
        } if ref_dir.is_dir() else None
        self.oracle_p = wl.params(seed).p if workload == "spectrum_linear" else None
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def _write_config(self, doc: dict, stem: str, subdir: str = "") -> Path:
        folder = self.work / subdir
        folder.mkdir(parents=True, exist_ok=True)
        doc = dict(doc)
        doc["output"] = {**doc.get("output", {}), "csv": self._rel(folder / f"{stem}.csv")}
        doc["output"].pop("manifest", None)  # so it lands beside the CSV, never in out/
        path = folder / f"{stem}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
        return path

    def _rel(self, path: Path) -> str:
        """`path` relative to the checkout root, the children's cwd."""
        return os.path.relpath(path, self.root)

    def spawn(self, mode: str, config: Path) -> dict:
        """One fresh process; set-up and run times from its dispatch mark."""
        result = config.with_suffix(".result.json")
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, self._rel(config), self._rel(result)],
            cwd=self.root, env=CHILD_ENV, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - start),
        )
        if proc.returncode != 0 or not result.exists():
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
            raise BenchError(f"{mode} {config.name} failed: " + " | ".join(tail))
        rec = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        rec["wall_s"] = time.monotonic() - start
        dispatch = rec["dispatch"]
        rec["setup_s"] = dispatch - start if dispatch is not None else math.nan
        rec["run_s"] = rec["end"] - dispatch if dispatch is not None else math.nan
        return rec

    def full_rep(self, mode: str) -> dict:
        """Every command once; rows checked against bracket, reference, oracle."""
        rep = {"setup_s": 0.0, "run_s": 0.0, "rss_mb": 0.0, "minflt": 0, "digits": [],
               "attempted": 0, "failures": [], "oracle_err": 0.0, "records": []}
        for doc, cfg in zip(self.docs, self.configs):
            name = doc["command"]["name"]
            csv_path = cfg.with_suffix(".csv")
            if csv_path.exists():
                csv_path.unlink()
            rec = self.spawn(mode, cfg)
            rep["records"].append(rec)
            rep["setup_s"] += rec["setup_s"]
            rep["run_s"] += rec["run_s"]
            rep["rss_mb"] = max(rep["rss_mb"], rec["maxrss_kb"] / 1024.0)
            rep["minflt"] += rec["minflt"]
            ref = self.reference[name] if self.reference else None
            if rec["exit"] != 0 or not csv_path.exists():
                n = len(ref) if ref else 1
                rep["attempted"] += n
                rep["failures"] += [f"{name}: exit {rec['exit']}"] * n
                continue
            rows = wl.read_csv(csv_path)
            fails, err = wl.row_failures(name, rows, ref, self.oracle_p,
                                         wl.reference_pad(doc["command"]))
            rep["attempted"] += max(len(rows), len(ref) if ref else 0)
            rep["failures"] += fails
            rep["oracle_err"] = max(rep["oracle_err"], err)
            rep["digits"].append(wl.certified_digits(name, rows))
        rep["certified_digits"] = statistics.fmean(rep["digits"]) if rep["digits"] else math.nan
        return rep

    # -- shipped-config sweep ------------------------------------------------

    def sweep(self) -> tuple[bool, list[str]]:
        """Run each shipped config once, two at a time; compare with `out/`."""
        configs = sorted((self.root / "configs").glob("*.yaml"))
        with ThreadPoolExecutor(max_workers=SWEEP_WORKERS) as pool:
            verdicts = list(pool.map(self._sweep_one, configs))
        return (not any(v.startswith("FAIL") for v, _ in verdicts),
                [line for _, line in verdicts])

    def _sweep_one(self, config: Path) -> tuple[str, str]:
        doc = yaml.safe_load(config.read_text(encoding="utf-8"))
        cfg = self._write_config(doc, config.stem, "sweep")
        rec = self.spawn("run", cfg)
        verdict = self._compare(
            doc["command"], rec["exit"], cfg.with_suffix(".csv"),
            self.root / "out" / f"{config.stem}.csv",
        )
        return verdict, (f"sweep {config.stem:28s} exit {rec['exit']}  "
                         f"{rec['wall_s']:7.3f} s  {verdict}")

    @staticmethod
    def _compare(command: dict, code: int, new_csv: Path, old_csv: Path) -> str:
        name = command["name"]
        if not old_csv.exists():
            return "no out/ CSV to compare"
        manifest = old_csv.with_suffix(".manifest.yaml")
        status = yaml.safe_load(manifest.read_text(encoding="utf-8"))["status"] \
            if manifest.exists() else "ok"
        if code != (2 if status == "enclosure" else 0):
            return f"FAIL: exit {code}, out/ status {status}"
        if new_csv.read_bytes() == old_csv.read_bytes():
            return "byte-identical to out/"
        if name not in wl.BRACKETS:
            return "FAIL: differs from out/"
        fails, _ = wl.row_failures(name, wl.read_csv(new_csv), wl.read_csv(old_csv), None,
                                   wl.reference_pad(command))
        if fails:
            return f"FAIL: {len(fails)} rows outside out/ enclosures: {fails[0]}"
        return "differs from out/, every value inside its out/ enclosure"


# ---------------------------------------------------------------------------
# metrics


def _spread(values) -> str:
    return (f"median {statistics.median(values):.6g}  min {min(values):.6g}  "
            f"max {max(values):.6g}  n {len(values)}")


def summed_medians(reps: list[dict], key: str) -> float:
    """Sum over the workload's commands of each command's median over reps:
    a slow outlier in one command of one rep moves only that command's
    median."""
    return sum(statistics.median(rec[key] for rec in recs)
               for recs in zip(*(r["records"] for r in reps)))


def end_to_end(reps: list[dict]) -> dict:
    return {
        "setup_s": (summed_medians(reps, "setup_s"), "s"),
        "run_s": (summed_medians(reps, "run_s"), "s"),
        "peak_rss_mb": (statistics.median([r["rss_mb"] for r in reps]), "MB"),
        "certified_digits": (statistics.median([r["certified_digits"] for r in reps]), "digits"),
    }


LAYERS = ("cli", "maps", "symbolic", "numerics", "pressure", "spectrum",
          "finite_measures", "induced")


def per_layer(traced: list[dict], reps: list[dict], overhead: float) -> dict:
    """Per-layer metrics from traced reps: counts from the first rep (they
    repeat exactly), times as medians over reps.  Every metric is reported
    on every workload; one that reads 0 marks a layer the workload bypasses.
    Minor page faults come from the untraced reps."""

    def agg(rec_list, field, key):
        return sum(rec[field].get(key, 0) for rec in rec_list)

    def rep_metrics(records):
        c = lambda key: agg(records, "calls", key)  # noqa: E731
        t = lambda key: agg(records, "total", key)  # noqa: E731
        k = lambda key: agg(records, "counters", key)  # noqa: E731
        lse_calls = c("numerics.log_sum_exp")
        level_calls = c("symbolic.CylinderTable.level")
        pressure_calls = c("pressure.pressure")
        b_solves = c("spectrum.b_of_a")
        m = {
            "cli.parse_s": (t("cli.parse_config"), "s"),
            "cli.emit_s": (t("cli.emit_csv") + t("cli._write_manifest"), "s"),
            "maps.build_s": (t("cli.build_map_from"), "s"),
            "maps.inverse_calls": (c("maps.Branch.inverse"), "count"),
            "maps.inverse_points": (k("inverse_points"), "count"),
            "maps.inverse_s": (t("maps.Branch.inverse"), "s"),
            "symbolic.level_builds": (k("level_builds"), "count"),
            "symbolic.words_built": (k("words_built"), "count"),
            "symbolic.max_level": (max(r["counters"].get("max_level", 0) for r in records), "count"),
            "symbolic.level_build_s": (t("symbolic.CylinderTable._extend")
                                       + t("symbolic.CylinderTable._base_level"), "s"),
            "symbolic.level_hits": (k("level_hits"), "count"),
            "symbolic.level_hit_ratio": (k("level_hits") / level_calls if level_calls else 0.0, "ratio"),
            "symbolic.cylinder_calls": (c("symbolic.cylinder"), "count"),
            "symbolic.cylinder_s": (t("symbolic.cylinder"), "s"),
            "numerics.lse_calls": (lse_calls, "count"),
            "numerics.lse_elems": (k("lse_elems"), "count"),
            "numerics.lse_s": (t("numerics.log_sum_exp"), "s"),
            "numerics.lse_us_per_call": (1e6 * t("numerics.log_sum_exp") / lse_calls if lse_calls else 0.0, "us"),
            "numerics.bisect_calls": (c("numerics.bisect_root"), "count"),
            "numerics.bisect_fevals": (k("bisect_fevals"), "count"),
            "numerics.expand_fevals": (k("expand_fevals"), "count"),
            "numerics.golden_calls": (c("numerics.golden_section_min"), "count"),
            "numerics.golden_fevals": (k("golden_fevals"), "count"),
            "pressure.pressure_calls": (pressure_calls, "count"),
            "pressure.pressure_s": (t("pressure.pressure"), "s"),
            "pressure.stop_level": (k("pressure_stop_level_sum") / pressure_calls if pressure_calls else 0.0, "level"),
            "pressure.ratio_stops": (k("ratio_stops"), "count"),
            "spectrum.legendre_s": (t("spectrum.legendre_spectrum"), "s"),
            "spectrum.b_solves": (b_solves, "count"),
            "spectrum.b_s": (t("spectrum.b_of_a"), "s"),
            "spectrum.b_stop_level_mean": (k("b_stop_level_sum") / b_solves if b_solves else 0.0, "level"),
            "spectrum.endpoints_s": (t("spectrum.spectrum_endpoints"), "s"),
            "finite_measures.blockopt_s": (t("finite_measures.optimize_block_weights"), "s"),
            "finite_measures.connector_calls": (c("finite_measures.connector_length"), "count"),
            "finite_measures.connector_s": (t("finite_measures.connector_length"), "s"),
            "finite_measures.block_measure_s": (t("finite_measures.block_measure"), "s"),
            "induced.build_s": (t("induced.build_induced"), "s"),
            "induced.branches": (k("induced_branches"), "count"),
            "induced.point_calls": (c("induced.induced_b_point"), "count"),
            "induced.point_s": (t("induced.induced_b_point"), "s"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (sum(
                v for rec in records for key, v in rec["self_time"].items()
                if key.startswith(layer + ".")
            ), "s")
        return m

    per_rep = [rep_metrics(rep["records"]) for rep in traced]
    out = {}
    for name, (value, unit) in per_rep[0].items():
        if unit == "s":
            value = statistics.median([m[name][0] for m in per_rep])
        out[name] = (value, unit)
    out["proc.minor_faults"] = (statistics.median([r["minflt"] for r in reps]), "count")
    out["trace.overhead"] = (overhead, "ratio")
    return out


def counts_repeat(traced: list[dict]) -> bool:
    keys = [json.dumps([(r["calls"], r["counters"]) for r in rep["records"]], sort_keys=True)
            for rep in traced]
    return len(set(keys)) == 1


# ---------------------------------------------------------------------------


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[list, list]:
    """Whole reps (untraced and traced in turn with `trace`) while another
    one fits in `seconds`; at least one."""
    start = time.monotonic()
    reps, traced = [], []
    while True:
        rep_start = time.monotonic()
        reps.append(bench.full_rep("run"))
        if trace:
            traced.append(bench.full_rep("trace"))
        now = time.monotonic()
        if now - start + (now - rep_start) > seconds:
            break
    return reps, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dimspectra" / "cli.py").is_file() or not (root / "configs").is_dir():
        print(f"perfbench: {root} is not a dimspectra checkout (no src/dimspectra, configs/)",
              file=sys.stderr)
        return 2

    bench = Bench(root, args.workload, args.seed)
    try:
        sweep_ok, sweep_lines = bench.sweep()
        reps, traced = measure(bench, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    failures = [f for r in reps + traced for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reps + traced)
    oracle_err = max(r["oracle_err"] for r in reps)
    correct = not failures and sweep_ok

    print(f"workload {args.workload}  seed {args.seed}  params {wl.params(args.seed)}")
    print(f"env {CHILD_ENV}  nproc {os.cpu_count()}  python {sys.version.split()[0]}")
    for line in sweep_lines:
        print(line)
    for i, r in enumerate(reps):
        print(f"rep {i}  " + "  ".join(
            f"{doc['command']['name']}: setup {rec['setup_s']:.3f} s run {rec['run_s']:.3f} s "
            f"minflt {rec['minflt']}" for doc, rec in zip(bench.docs, r["records"])))
    for key in ("setup_s", "run_s"):
        print(f"{key:12s} {summed_medians(reps, key):.6g} s (sum of per-command medians); "
              f"per rep: {_spread([r[key] for r in reps])} s")
    print(f"minor_faults {_spread([r['minflt'] for r in reps])} per rep")
    print(f"peak_rss_mb  {_spread([r['rss_mb'] for r in reps])} MB")
    print(f"certified_digits {_spread([r['certified_digits'] for r in reps])} digits")
    if bench.oracle_p is not None:
        print(f"oracle_err   {oracle_err:.3g} abs (max over {len(reps)} reps, tol {wl.ORACLE_TOL:g})")
    print(f"fail_frac    {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted} rows; "
          f"reference {'seed-%d' % args.seed if bench.reference else 'none for this seed'})")
    for f in failures[:10]:
        print(f"  FAIL {f}")

    if args.trace:
        spans = HERE / "_work" / f"trace-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps([r["records"] for r in traced]), encoding="utf-8")
        print(f"spans and per-function aggregates of the traced reps: {spans}")
        overhead = summed_medians(traced, "run_s") / summed_medians(reps, "run_s") - 1.0
        metrics = per_layer(traced, reps, overhead)
        print(f"traced reps {len(traced)}  functions wrapped "
              f"{traced[0]['records'][0]['wrapped_functions']}  counts repeat: "
              f"{counts_repeat(traced)}  tracing overhead {overhead:+.1%} of run_s")
        for name, (value, unit) in metrics.items():
            print(f"  {name:34s} {value:.6g} {unit}")
    else:
        metrics = end_to_end(reps)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
