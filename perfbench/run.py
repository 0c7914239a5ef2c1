"""The bubbledyn benchmark: run one seeded workload through the CLI and the
public API, check every output, and print the metrics of BENCHMARK.json.

    python3 perfbench/run.py --workload combined-fit --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The full record (metadata, every job with its generating
parameters and check result, and with ``--trace 1`` the spans) is written
to ``.perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Fresh ``-X importtime`` children per traced run; the import metrics are
#: their medians.
IMPORT_PROBES = 3
#: A tail percentile needs this many jobs beyond it.
TAIL_BEYOND = 10
FIT_COMMANDS = ("fit-combined", "fit-sd", "fit-sd:noisy")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, jobs beyond it) of the highest percentile with
    ``TAIL_BEYOND`` jobs beyond it; with too few jobs, the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    if n > TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return ordered[-1], 100.0, 0


def run_pass(jobs: list[dict], runner, tracer=None) -> list[dict]:
    records = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        result = runner(job)
        record = {"id": job["id"], "command": job["command"],
                  "argv": job["argv"], "wall_s": result["wall_s"],
                  "exit": result["exit"],
                  "inputs": job["inputs"], "ok": True}
        if "rss_mb" in result:
            record["rss_mb"] = result["rss_mb"]
        try:
            record.update(workloads.check(job, result))
        except workloads.CheckFailed as exc:
            record.update(ok=False, cause=str(exc))
        records.append(record)
    return records


def make_runner(mode: str, cli, workdir: Path, env: dict, dumps=None):
    """A function running one job: in this process through ``cli.main``, or
    as a fresh ``python -m bubbledyn.cli`` (through the tracing launcher
    when ``dumps`` collects traces)."""
    if mode == "inprocess":
        return lambda job: workloads.run_inprocess(cli.main, job)

    def run(job):
        command = [sys.executable, "-m", "bubbledyn.cli"]
        if dumps is not None:
            trace_file = workdir / f"{job['id']}.trace.json"
            command = [sys.executable, str(HERE / "launcher.py"),
                       str(trace_file), job["id"], "--"]
        result = workloads.run_subprocess(command, job, workdir, env)
        if dumps is not None and trace_file.exists():
            dumps.append(json.loads(trace_file.read_text()))
        return result

    return run


def import_times(root: Path, env: dict) -> tuple[float, float]:
    """Median cumulative import time of ``bubbledyn`` and of
    ``scipy.optimize`` in fresh interpreters (``-X importtime``), seconds."""
    pattern = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")
    package, optimize = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import bubbledyn"], cwd=root, env=env,
                              capture_output=True, text=True, check=True)
        cumulative = {m.group(2): int(m.group(1)) * 1e-6
                      for m in map(pattern.match, proc.stderr.splitlines()) if m}
        package.append(cumulative["bubbledyn"])
        optimize.append(cumulative.get("scipy.optimize", 0.0))
    return statistics.median(package), statistics.median(optimize)


def fit_rel_sse(records: list[dict]) -> float:
    """Median SSE/SST over the fit jobs, 0 when the workload has none."""
    values = [r["rel_sse"] for r in records
              if r["command"] in FIT_COMMANDS and "rel_sse" in r]
    return statistics.median(values) if values else 0.0


def layer_metrics(dump: dict, import_s: float, optimize_s: float,
                  overhead_s: float, rel_sse: float) -> dict:
    calls, total, self_s = dump["calls"], dump["total"], dump["self_s"]
    counts = dump["counts"]

    def get(table, key):
        return float(table.get(key, 0))

    objective_calls = get(calls, "combined.objective")
    winner = sum(f["winner_nfev"] for f in dump["fits"])
    nfev = sum(f["nfev"] for f in dump["fits"])
    return {
        "import.s": (import_s, "s"),
        "import.scipy_optimize_s": (optimize_s, "s"),
        "cli.main.self_s": (get(self_s, "cli.main"), "s"),
        "data_io.load_series.calls": (get(calls, "data_io.load_series"), "count"),
        "data_io.load_series.s": (get(total, "data_io.load_series"), "s"),
        "data_io.emit.s": (get(total, "data_io.emit"), "s"),
        "data_io.emit.bytes": (get(counts, "data_io.emit.bytes"), "bytes"),
        "timeseries.calls": (get(dump["layer_calls"], "timeseries"), "count"),
        "timeseries.s": (get(dump["layer_s"], "timeseries"), "s"),
        "speculators.classify.calls": (get(calls, "speculators.classify"), "count"),
        "speculators.classify.s": (get(total, "speculators.classify"), "s"),
        "speculators.phase_grid.self_s": (get(self_s, "speculators.phase_grid"), "s"),
        "speculators.simulate.s": (get(total, "speculators.simulate_first_order")
                                   + get(total, "speculators.simulate_second_order"), "s"),
        "combined.fit_combined.s": (get(total, "combined.fit_combined"), "s"),
        "combined.fit_background_trend.s": (get(total, "combined.fit_background_trend"), "s"),
        "combined.objective.calls": (objective_calls, "count"),
        "combined.objective.s": (get(total, "combined.objective"), "s"),
        "combined.objective.us_per_call": (
            1e6 * get(total, "combined.objective") / objective_calls
            if objective_calls else 0.0, "us"),
        "fitting.minimize.calls": (get(calls, "fitting.minimize"), "count"),
        "fitting.minimize.self_s": (get(self_s, "fitting.minimize"), "s"),
        "fitting.starts": (get(counts, "fitting.starts"), "count"),
        "fitting.nfev": (get(counts, "fitting.nfev"), "count"),
        "fitting.reported_nfev": (sum(f["reported_nfev"] for f in dump["fits"]), "count"),
        "fitting.useful_ratio": (winner / nfev if nfev else 0.0, "1"),
        "supply_demand.fit_supply_demand.s": (get(total, "supply_demand.fit_supply_demand"), "s"),
        "supply_demand.objective.calls": (get(calls, "supply_demand.objective"), "count"),
        "supply_demand.objective.s": (get(total, "supply_demand.objective"), "s"),
        "ethanol.trend_comparison.s": (get(total, "ethanol.trend_comparison"), "s"),
        "ethanol.quadratic_fit.calls": (get(calls, "ethanol.quadratic_fit"), "count"),
        "fit.rel_sse": (rel_sse, "1"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def git_commit(root: Path):
    """The checkout's commit when it is a git work tree, read from .git
    directly so that nothing outside the checkout is consulted."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(root: Path) -> dict:
    src = root / "src" / "bubbledyn"
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(root),
        "src_lines": {p.name: len(p.read_text().splitlines())
                      for p in sorted(src.glob("*.py"))},
    }


def benchmark(args, root: Path, workdir: Path) -> int:
    env = workloads.python_env(root)
    setup_times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), args.workload,
             str(args.seed), repr(args.seconds), str(workdir)],
            cwd=root, env=env, capture_output=True, text=True)
        setup_times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            print(f"perfbench: set-up failed:\n{proc.stderr}", file=sys.stderr)
            return 1
    plan = json.loads((workdir / "jobs.json").read_text())
    cli = spans.import_program(root)
    runner = make_runner(plan["mode"], cli, workdir, env)
    try:
        workloads.check(plan["warmup"], runner(plan["warmup"]))
    except workloads.CheckFailed as exc:
        print(f"perfbench: warm-up job failed: {exc}", file=sys.stderr)
        return 1

    records = run_pass(plan["jobs"], runner)
    times = [r["wall_s"] for r in records]
    if plan["mode"] == "inprocess":
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak_rss_mb = max(r["rss_mb"] for r in records)
    run_s = sum(times)
    tail_s, tail_pct, tail_beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (run_s, "s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    all_records = list(records)
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "metadata": run_metadata(root), "setup_s_samples": setup_times,
              "job_s.tail": {"percentile": tail_pct, "beyond": tail_beyond,
                             "samples": len(times)},
              "fit.rel_sse": fit_rel_sse(records), "jobs": records}

    if args.trace:
        if plan["mode"] == "inprocess":
            tracer = spans.Tracer()
            tracer.install()
            traced = run_pass(plan["jobs"], runner, tracer)
            dump = tracer.dump()
        else:
            dumps = []
            traced = run_pass(plan["jobs"], make_runner(plan["mode"], cli, workdir,
                                                        env, dumps))
            dump = spans.merge(dumps)
        for record in traced:
            fits = [f for f in dump["fits"] if f["job"] == record["id"]]
            if fits:
                record["counted_nfev"] = sum(f["nfev"] for f in fits)
        import_s, optimize_s = import_times(root, env)
        overhead = sum(r["wall_s"] for r in traced) - run_s
        metrics = layer_metrics(dump, import_s, optimize_s, overhead,
                                fit_rel_sse(records))
        all_records += traced
        detail.update(traced_jobs=traced, spans=dump["spans"])

    failures = [r for r in all_records if not r["ok"]]
    detail["fail_ratio"] = len(failures) / len(all_records)
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(detail))

    for r in failures:
        print(f"FAILED {r['id']} ({r['command']}): {r['cause']}")
    print(f"{len(all_records)} jobs, {len(failures)} failed; record: "
          f"{record_file.relative_to(root)}")
    print(json.dumps({"correct": not failures, "attempted": len(all_records),
                      "failed": len(failures), "metrics": detail["metrics"]}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bubbledyn" / "__init__.py").is_file():
        print("perfbench: no src/bubbledyn here; run from the root of a "
              "bubbledyn checkout", file=sys.stderr)
        return 2
    workdir = root / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return benchmark(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
