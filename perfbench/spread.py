"""Run-to-run spread of the end-to-end metrics, one workload at a time.

    python3 perfbench/spread.py [--seeds 1,2,3] [--out FILE]

Runs `run.py --trace 0` once per (workload, seed), in sequence, from the
checkout root, for every workload and at the run length BENCHMARK.json
gives.  For each metric it reports the median of the runs and the
spread (Q3 - Q1) / median, with quartiles as `statistics.quantiles(values,
n=4)` gives them, next to the metric's bound in BENCHMARK.json.  A spread
wider than the bound means the metric cannot resolve a change of that
size.  With --out it also writes every value and the provenance as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return {"median": centre, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / centre if centre else 0.0}


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]

    seconds = bench["run_seconds"]
    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs, run_s = [], []
        for seed in seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            run_s.append(time.perf_counter() - started)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
            runs.append(result)
            report.setdefault("provenance", json.loads(
                Path(f".perfbench_out/{workload}-seed{seed}-trace0/"
                     "result.json").read_text(encoding="utf-8"))["provenance"])
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"values": values, **spread(values),
                             "bound": bound}
            m = metrics[name]
            print(f"{workload:22s} {name:12s} median {m['median']:.6g}  "
                  f"spread {m['spread']:.4f}  bound {bound}"
                  + ("" if m["spread"] <= bound / 3 else "  WIDE"))
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_s": run_s,
            "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
