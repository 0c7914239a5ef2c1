"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

They run the benchmark at its smallest size (one job), so they take about a
minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [
    ("phase-grid", 0), ("phase-grid", 1), ("cli-mix", 0), ("cli-mix", 1),
    ("combined-fit", 1)])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_fails_without_a_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("phase-grid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def combined_warmup(tmp_path_factory):
    """A real fit-combined output: the 3-candidate warm-up job."""
    workdir = tmp_path_factory.mktemp("cf")
    plan = workloads.prepare("combined-fit", 7, 1, workdir)
    cli = spans.import_program(ROOT)
    job = plan["warmup"]
    result = workloads.run_inprocess(cli.main, job)
    workloads.check(job, result)
    return job, result


def test_tampered_sse_is_a_failure(combined_warmup):
    job, result = combined_warmup
    output = Path(job["output"])
    report = json.loads(output.read_text())
    report["sse"] *= 1.0 + 1e-6
    output.write_text(json.dumps(report))
    with pytest.raises(workloads.CheckFailed, match="SSE"):
        workloads.check(job, result)


def test_traceback_and_exit_code_are_failures():
    job = {"id": "x", "command": "correlate", "output": None, "inputs": {}}
    crashed = {"exit": 1, "stdout": "", "cause": None,
               "stderr": "Traceback (most recent call last):\nValueError: boom\n"}
    with pytest.raises(workloads.CheckFailed, match="traceback: ValueError"):
        workloads.check(job, crashed)
    with pytest.raises(workloads.CheckFailed, match="exit code 3"):
        workloads.check(job, {**crashed, "exit": 3, "stderr": '{"error": "x"}'})


def test_tampered_phase_label_is_a_failure(tmp_path):
    job = workloads._phase_job("t", (0.0, 5.0), (0.0, 2.0), 20, tmp_path / "p.csv", 0)
    cli = spans.import_program(ROOT)
    result = workloads.run_inprocess(cli.main, job)
    workloads.check(job, result)
    lines = Path(job["output"]).read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        lines[i] = line.replace("DampedOscillation", "AmplifiedOscillation")
    Path(job["output"]).write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailed, match="label"):
        workloads.check(job, result)


def test_classification_reference_matches_known_regimes():
    assert workloads.expected_node(0.098, 1.29)[0] == "AmplifiedOscillation"
    assert workloads.expected_node(1.0, 0.5)[0] == "DampedOscillation"
    assert workloads.expected_node(3.5, 0.1)[0] == "RealDivergent"
    assert workloads.expected_node(0.5, 0.0)[0] == "FirstOrderMonotoneConvergent"
    assert workloads.expected_node(1.5, 0.0)[0] == "FirstOrderAlternating"
    assert workloads.expected_node(0.5, 1.0) is None  # sustained: a boundary


def test_tail_needs_ten_jobs_beyond_it():
    from run import tail

    assert tail([float(i) for i in range(20)]) == (9.0, 50.0, 10)
    assert tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)
