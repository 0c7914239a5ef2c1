"""Run the benchmark on several seeds and report, per metric, the median,
the quartiles and the spread (interquartile range over median), as
``statistics.quantiles(values, n=4)`` gives them.

    python3 perfbench/spread.py --workload cli-mix --seeds 1-10 --seconds 30 [--trace 1]

Each run's result line is appended to ``--out`` (JSON lines) when given, so a
parent and a change can be compared from the saved runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": q2, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / q2 if q2 else float("nan"),
                         "unit": results[0]["metrics"][name]["unit"]}
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, required=True, help="LO-HI")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        if args.out is not None:
            with args.out.open("a") as fh:
                fh.write(json.dumps({"workload": args.workload, **result}) + "\n")
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']}",
              flush=True)
    for name, s in summarize(results).items():
        print(f"{name:36s} median {s['median']:.6g} {s['unit']:6s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
