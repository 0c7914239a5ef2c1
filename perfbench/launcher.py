"""Run one bubbledyn CLI command with the benchmark's tracing wrappers
installed, and write the trace to a JSON file when it ends.

    python3 perfbench/launcher.py TRACE_FILE JOB_ID -- CLI_ARGS...
"""

import json
import sys
from pathlib import Path

import spans


def main(argv: list[str]) -> int:
    trace_file, job_id, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: launcher.py TRACE_FILE JOB_ID -- CLI_ARGS...")
    cli = spans.import_program(Path.cwd())
    tracer = spans.Tracer()
    tracer.job = job_id
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        Path(trace_file).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
