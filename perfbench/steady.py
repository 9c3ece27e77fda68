"""Steadiness of the benchmark: repeat runs and summarise every metric.

    python3 perfbench/steady.py --workload dimacs-io --runs 10 --first-seed 1
    python3 perfbench/steady.py --workload dimacs-io --runs 10 --first-seed 101 \
        --baseline perfbench/out/steady-dimacs-io-seed1.json
    python3 perfbench/steady.py --workload analyze-corpus --traced 2

Each run is ``run.py`` with its own seed.  For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json;
a spread at or above a third of the bound is flagged.  With ``--baseline``
it also prints how far each median moved from a previous summary.  Every
run measures for ``run_seconds`` of BENCHMARK.json, as the bounds assume.
``--traced N`` makes N traced runs instead and checks that every exact
count repeats.  Summaries go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_UNITS = ("count", "bytes")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: run failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(results, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows, flagged = {}, []
    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        rows[name] = {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread}
        mark = ""
        if spread >= bound / 3:
            mark = "  <- spread >= bound/3"
            flagged.append(name)
        print(f"{name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} {bound:6.2f}{mark}")
    return rows, flagged


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--baseline", type=Path, help="a summary written by an earlier call")
    ap.add_argument("--traced", type=int, default=0, help="make this many traced runs instead")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    status = 0
    for workload in args.workload:
        trace = 1 if args.traced else 0
        n = args.traced or args.runs
        print(f"== {workload}: {n} {'traced ' if trace else ''}runs, seeds "
              f"{args.first_seed}..{args.first_seed + n - 1}, {seconds} s each")
        results = [run_once(workload, args.first_seed + i, seconds, trace) for i in range(n)]
        shares = sorted({(r["failed"], r["attempted"]) for r in results})
        print("failed/attempted per run:", ", ".join(f"{f}/{a}" for f, a in shares))
        if not all(r["correct"] for r in results):
            print("some run reported correct: false")
            status = 1
        summary = {"workload": workload, "seeds": [args.first_seed, args.first_seed + n - 1],
                   "seconds": seconds, "failed_attempted": shares}
        if trace:
            exact = {k for k, v in results[0]["metrics"].items() if v["unit"] in EXACT_UNITS}
            differ = sorted(k for k in exact
                            if len({r["metrics"][k]["value"] for r in results}) > 1)
            print("exact counts differ between runs:", differ or "none")
            status |= bool(differ)
            summary["per_layer"] = {k: [r["metrics"][k]["value"] for r in results]
                                    for k in results[0]["metrics"]}
            for k, values in summary["per_layer"].items():
                print(f"  {k:42s} {statistics.median(values):14.6g}")
        else:
            summary["end_to_end"], flagged = summarise(results, spec)
            status |= bool(flagged)
            if args.baseline:
                base = json.loads(args.baseline.read_text())["end_to_end"]
                bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
                for name, row in summary["end_to_end"].items():
                    change = row["median"] / base[name]["median"] - 1
                    worse = change > bounds[name]
                    status |= worse
                    print(f"median {name}: {change:+.2%} against the baseline"
                          + ("  <- worse than the bound" if worse else ""))
        kind = "traced" if trace else "steady"
        path = out_dir / f"{kind}-{workload}-seed{args.first_seed}.json"
        path.write_text(json.dumps(summary, indent=1))
        print(f"summary written to {path.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
