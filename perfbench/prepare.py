"""One set-up of a benchmark run, in a fresh process so that its time
includes importing bubbledyn: write the run's inputs, import bubbledyn from
the checkout, and run the workload's warm-up job.

    python3 perfbench/prepare.py WORKLOAD SEED SECONDS WORKDIR
"""

import sys
from pathlib import Path

import spans
import workloads


def main(argv: list[str]) -> int:
    workload, seed, seconds, workdir = argv
    plan = workloads.prepare(workload, int(seed), float(seconds), Path(workdir))
    cli = spans.import_program(Path.cwd())
    warmup = plan["warmup"]
    try:
        workloads.check(warmup, workloads.run_inprocess(cli.main, warmup))
    except workloads.CheckFailed as exc:
        print(f"warm-up job failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
