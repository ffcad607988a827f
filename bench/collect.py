"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 bench/collect.py --seeds 1-10 [--workloads mass-n6,covrad-n5]
        [--trace]

Each run lasts BENCHMARK.json's ``run_seconds``. Untraced runs give, per
workload and end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, i.e. the
interquartile distance over the median. With ``--trace`` one traced run per
workload at the first seed is added. Runs are sequential, one process at a
time. The summary goes to bench/out/collect.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import OUT, WORKLOADS  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seeds = seed_range(args.seeds)
    report: dict = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in args.workloads.split(","):
        results = [run_once(name, s, seconds, 0) for s in seeds]
        entry = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": {},
        }
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            entry["metrics"][metric] = {
                "unit": results[0]["metrics"][metric]["unit"],
                **summarise(values)}
        if args.trace:
            traced = run_once(name, seeds[0], seconds, 1)
            entry["traced"] = {"seed": seeds[0], "correct": traced["correct"],
                               "metrics": {k: v["value"] for k, v in
                                           traced["metrics"].items()}}
        report["workloads"][name] = entry
        for metric, m in entry["metrics"].items():
            print(f"{name:12s} {metric:16s} median {m['median']:12.6g}  "
                  f"q1 {m['q1']:12.6g}  q3 {m['q3']:12.6g}  "
                  f"spread {m['spread']:.4f}", flush=True)
        print(f"{name:12s} correct {entry['correct']}  failed "
              f"{entry['failed']}/{entry['attempted']}", flush=True)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "collect.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
