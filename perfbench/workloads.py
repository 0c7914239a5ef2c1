"""The three workloads: their seeded job lists, how a job runs, and how its
output is checked.

A run's job list is fixed by (workload, seed, seconds): ``--seconds`` sets
how many jobs it holds, at the rate of one job per ``JOB_S`` seconds (a
nominal job time, roughly the baseline commit's on a 2-core machine),
so the list does not change when the program gets faster.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import inputs

WORKLOADS = ("combined-fit", "phase-grid", "cli-mix")

#: Nominal seconds per job; a run holds max(1, round(seconds / JOB_S)) jobs.
JOB_S = {"combined-fit": 7.5, "phase-grid": 1.5, "cli-mix": 1.25}

#: The combined-fit problems, cycled through in order, as (kind, noise).
#: Their parameters, markets and switch month come from a fixed bank seed, as
#: does "bank" noise; the run's seed draws the "seed" noise.  Nelder-Mead's
#: evaluation count is chaotic in the data: at the baseline a fresh draw of
#: a problem costs 1.7 s to 14.5 s, and fresh noise on the noisy paper
#: problem 10.4 s to 15.3 s, more than four jobs a run can average out.  So
#: only the cheapest problem's noise follows the run's seed.
COMBINED_BANK = (("paper", None), ("paper", "bank"), ("damped", "seed"),
                 ("amplified", None))
BANK_SEED = 1109

#: cli-mix commands; each cycle of the job list runs them in a seeded order.
CLI_MIX = ("simulate-spec", "simulate-sd", "phase", "correlate", "lagscan",
           "fit-ethanol", "fit-sd", "fit-sd:noisy")

PHASE_N = 300
SMALL_PHASE_N = 40
MAX_LAG = 24

#: Box of the combined fit (k_sd, k_sp, each coupling).
COMBINED_BOX = ((1e-4, 1.5), (0.0, 3.0), (-1000.0, 100.0))

#: Phase nodes closer than this to a regime boundary are not re-classified.
BOUNDARY_MARGIN = 1e-6
PHASE_SAMPLE = 200


class CheckFailed(Exception):
    """A job's output does not match what the benchmark expects."""


def job_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / JOB_S[workload]))


# -- job lists ---------------------------------------------------------------

def prepare(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Write the run's input files under ``workdir`` and return its job list
    and warm-up job (also saved as ``workdir/jobs.json``)."""
    workdir.mkdir(parents=True, exist_ok=True)
    make = {"combined-fit": _combined_jobs, "phase-grid": _phase_jobs,
            "cli-mix": _cli_jobs}[workload]
    plan = make(seed, job_count(workload, seconds), workdir)
    (workdir / "jobs.json").write_text(json.dumps(plan))
    return plan


def _public(params: dict) -> dict:
    return {k: v for k, v in params.items() if not isinstance(v, np.ndarray)}


def _write_series(problem: dict, names: tuple, stem: Path, monthly: bool) -> dict:
    """Write ``problem[name]`` for each name to its own CSV; return the
    problem's scalar parameters with the file paths."""
    start = inputs.FOOD_START if monthly else (inputs.ANNUAL_START, 1)
    files = {name: f"{stem}-{name}.csv" for name in names}
    for name, path in files.items():
        inputs.write_csv(Path(path), start, problem[name], monthly)
    return {**_public(problem), "files": files}


def _combined_job(job_id: str, problem: dict, workdir: Path) -> dict:
    params = _write_series(problem, ("food", "equity", "yields"),
                           workdir / job_id, monthly=True)
    files, output = params["files"], workdir / f"{job_id}-fit.json"
    argv = ["fit-combined", "--food", files["food"], "--market", files["equity"],
            "--market", files["yields"] + ":inverse", "--switch-year", "2007",
            "-o", str(output)]
    return {"id": job_id, "command": "fit-combined", "argv": argv,
            "output": str(output), "inputs": params}


def _combined_jobs(seed: int, n: int, workdir: Path) -> dict:
    jobs = []
    for k in range(n):
        slot = k % len(COMBINED_BANK)
        kind, noise = COMBINED_BANK[slot]
        noise_rng = {None: None, "bank": np.random.default_rng([BANK_SEED, slot, 1]),
                     "seed": np.random.default_rng([seed, k])}[noise]
        problem = inputs.combined_problem(np.random.default_rng([BANK_SEED, slot]),
                                          kind, noise_rng)
        jobs.append(_combined_job(f"cf{k:02d}", problem, workdir))
    # warm-up: the paper problem cut at 2007-03, so only 3 switch candidates
    problem = inputs.combined_problem(np.random.default_rng([BANK_SEED, 0]),
                                      "paper", None)
    warmup = _combined_job("warm", {**problem, "food": problem["food"][:39]}, workdir)
    return {"mode": "inprocess", "jobs": jobs, "warmup": warmup}


def _phase_ranges(rng: np.random.Generator) -> tuple[tuple, tuple]:
    """Seeded (k_sd, k_sp) ranges around the paper's 0:5 x 0:2."""
    return ((float(rng.uniform(0.0, 0.25)), float(rng.uniform(4.75, 5.25))),
            (float(rng.uniform(0.0, 0.1)), float(rng.uniform(1.9, 2.1))))


def _phase_job(job_id: str, sd: tuple, sp: tuple, n: int, output,
               sample_seed: int) -> dict:
    argv = ["phase", "--ksd", f"{sd[0]!r}:{sd[1]!r}:{n}",
            "--ksp", f"{sp[0]!r}:{sp[1]!r}:{n}"]
    if output is not None:
        argv += ["-o", str(output)]
    return {"id": job_id, "command": "phase", "argv": argv,
            "output": None if output is None else str(output),
            "inputs": {"ksd": list(sd), "ksp": list(sp), "n": n,
                       "sample_seed": sample_seed}}


def _phase_jobs(seed: int, n: int, workdir: Path) -> dict:
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for k in range(n):
        # the paper's diagram first
        sd, sp = ((0.0, 5.0), (0.0, 2.0)) if k == 0 else _phase_ranges(rng)
        jobs.append(_phase_job(f"pg{k:02d}", sd, sp, PHASE_N, workdir / "phase.csv",
                               int(rng.integers(2**31))))
    warmup = _phase_job("warm", (0.0, 5.0), (0.0, 2.0), 50, workdir / "warm.csv", 0)
    return {"mode": "inprocess", "jobs": jobs, "warmup": warmup}


def _cli_job(command: str, k: int, rng: np.random.Generator, workdir: Path) -> dict:
    job_id = f"cm{k:02d}"
    stem = workdir / job_id
    if command == "simulate-spec":
        k_sd = float(rng.uniform(0.05, 0.5))
        first_order = bool(rng.random() < 0.25)
        k_sp = 0.0 if first_order else float(rng.uniform(0.1, 1.8))
        k_c = float(rng.uniform(5.0, 20.0))
        p_e = k_c / k_sd
        p0 = float(rng.uniform(0.5, 1.5) * p_e) if first_order else p_e
        params = {"ksd": k_sd, "ksp": k_sp, "kc": k_c, "p0": p0, "steps": 120}
        argv = ["simulate-spec", f"--ksd={k_sd!r}", f"--ksp={k_sp!r}",
                f"--kc={k_c!r}", f"--p0={p0!r}", "--steps=120"]
        if not first_order:
            params["p1"] = p0 + float(rng.uniform(-5.0, 5.0))
            argv.append(f"--p1={params['p1']!r}")
    elif command in ("simulate-sd", "fit-sd", "fit-sd:noisy"):
        problem = inputs.supply_demand_problem(rng, noise=command == "fit-sd:noisy")
        params = _write_series(problem, ("price", "consumption", "surplus"),
                               stem, monthly=False)
        files = params["files"]
        if command == "simulate-sd":
            # "--flag=value": argparse takes "-1e+02" for an option
            argv = ["simulate-sd", "--surplus", files["surplus"],
                    f"--lambda={problem['lambda']!r}",
                    f"--alpha-d={problem['alpha_d0']!r}",
                    f"--beta-d={problem['beta_d']!r}",
                    f"--alpha-s={problem['alpha_s0']!r}",
                    f"--beta-s={problem['beta_s']!r}"]
        else:
            argv = ["fit-sd", "--price", files["price"],
                    "--consumption", files["consumption"],
                    "--surplus", files["surplus"]]
    elif command == "phase":
        sd, sp = _phase_ranges(rng)
        return _phase_job(job_id, sd, sp, SMALL_PHASE_N, None,
                          int(rng.integers(2**31)))
    elif command in ("correlate", "fit-ethanol"):
        problem = inputs.ethanol_problem(rng)
        params = _write_series(problem, ("ethanol", "food"), stem, monthly=False)
        files = params["files"]
        if command == "correlate":
            argv = ["correlate", "--a", files["ethanol"], "--b", files["food"]]
        else:
            begin, end = problem["exclude"]
            argv = ["fit-ethanol", "--ethanol", files["ethanol"],
                    "--food", files["food"], "--exclude", f"{begin}:{end}"]
    else:  # lagscan
        params = _write_series(inputs.lag_problem(rng), ("deviation", "inventory"),
                               stem, monthly=True)
        files = params["files"]
        argv = ["lagscan", "--a", files["deviation"], "--b", files["inventory"],
                "--max-lag", str(MAX_LAG)]
    return {"id": job_id, "command": command, "argv": argv, "output": None,
            "inputs": params}


def _cli_jobs(seed: int, n: int, workdir: Path) -> dict:
    rng = np.random.default_rng([seed, 3])
    jobs = []
    order: list[str] = []
    for k in range(n):
        if not order:
            order = list(rng.permutation(CLI_MIX))
        jobs.append(_cli_job(str(order.pop(0)), k, rng, workdir))
    warmup = _cli_job("correlate", n, np.random.default_rng([seed, 4]), workdir)
    warmup["id"] = "warm"
    return {"mode": "subprocess", "jobs": jobs, "warmup": warmup}


# -- running -------------------------------------------------------------------

def run_inprocess(main, job: dict) -> dict:
    """Run one job through ``bubbledyn.cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    cause = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(job["argv"]))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback is a failed job, not a failed benchmark
        code = None
        cause = "traceback: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    wall = time.perf_counter() - start
    return {"wall_s": wall, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "cause": cause}


def run_subprocess(command: list[str], job: dict, workdir: Path, env: dict) -> dict:
    """Run one job as a fresh process; ``wait4`` gives that child's own
    peak resident memory."""
    out_path = workdir / f"{job['id']}.stdout"
    err_path = workdir / f"{job['id']}.stderr"
    with out_path.open("w") as out, err_path.open("w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command + list(job["argv"]), stdout=out,
                                stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit": proc.returncode,
            "stdout": out_path.read_text(), "stderr": err_path.read_text(),
            "cause": None, "rss_mb": usage.ru_maxrss / 1024.0}


# -- checks --------------------------------------------------------------------

def check(job: dict, result: dict) -> dict:
    """Raise :class:`CheckFailed` with the cause if the job failed; return
    the facts the job record keeps (fit quality, chosen switch, ...)."""
    if result["cause"] is not None:
        raise CheckFailed(result["cause"])
    if "Traceback (most recent call last)" in result["stderr"]:
        raise CheckFailed("traceback: " + result["stderr"].strip().splitlines()[-1])
    if result["exit"] != 0:
        last = (result["stderr"].strip().splitlines() or [""])[-1]
        raise CheckFailed(f"exit code {result['exit']}: {last[:300]}")
    try:
        text = Path(job["output"]).read_text() if job["output"] else result["stdout"]
        return CHECKS[job["command"]](job, text)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckFailed(f"bad output: {type(exc).__name__}: {exc}") from None


def _close(got: float, want: float, rel: float, what: str) -> None:
    if not abs(got - want) <= rel * max(abs(want), 1e-300):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r} (rel {rel})")


def _check_fit_combined(job: dict, text: str) -> dict:
    from bubbledyn import CombinedParams, Frequency, TimeSeries, simulate_combined

    report = json.loads(text)
    files = job["inputs"]["files"]
    food = inputs.read_csv_values(Path(files["food"]))
    equity = inputs.read_csv_values(Path(files["equity"]))
    inverse = [1.0 / float(v) for v in inputs.read_csv_values(Path(files["yields"]))]
    if not report["switch_date"].startswith("2007-"):
        raise CheckFailed(f"switch_date {report['switch_date']} not in 2007")
    values = [report["k_sd"], report["k_sp"]] + list(report["couplings"])
    boxes = list(COMBINED_BOX[:2]) + [COMBINED_BOX[2]] * len(report["couplings"])
    for name, v, (lo, hi) in zip(["k_sd", "k_sp"] + ["coupling"] * 2, values, boxes):
        if not lo <= v <= hi:
            raise CheckFailed(f"{name} = {v!r} outside the fit's box [{lo}, {hi}]")
    params = CombinedParams(report["k_sd"], report["k_sp"], tuple(report["couplings"]),
                            report["trend_a"], report["trend_b"], report["switch_index"])
    markets = [TimeSeries(inputs.FOOD_START, Frequency.MONTHLY, tuple(equity)),
               TimeSeries(inputs.FOOD_START, Frequency.MONTHLY, tuple(inverse))]
    path = simulate_combined(params, markets, float(food[0]), float(food[1]),
                             len(food) - 1).to_array()
    sse = float(np.sum((food - path) ** 2))
    _close(report["sse"], sse, 1e-9, "reported SSE vs SSE recomputed")
    sst = float(np.sum((food - food.mean()) ** 2))
    return {"rel_sse": sse / sst, "switch_index": report["switch_index"],
            "switch_date": report["switch_date"],
            "reported_nfev": report["evaluations"]}


def expected_node(k_sd: float, k_sp: float):
    """(label, period) from the characteristic roots, or None within
    ``BOUNDARY_MARGIN`` of a regime boundary."""
    b = k_sd - k_sp - 1.0
    delta = b * b - 4.0 * k_sp
    if k_sp == 0.0:
        ratio = 1.0 - k_sd
        if abs(ratio) < BOUNDARY_MARGIN or abs(abs(ratio) - 1.0) < BOUNDARY_MARGIN:
            return None
        if abs(ratio) < 1.0:
            label = ("FirstOrderMonotoneConvergent" if ratio >= 0
                     else "FirstOrderAlternating")
        else:
            label = "FirstOrderMonotoneDivergent" if ratio >= 0 else "RealDivergent"
        return label, None, delta
    if abs(delta) < BOUNDARY_MARGIN or abs(k_sp - 1.0) < BOUNDARY_MARGIN:
        return None
    roots = np.roots([1.0, b, k_sp])
    modulus = float(np.max(np.abs(roots)))
    if delta < 0:
        root = roots[0]
        theta = math.atan2(abs(root.imag), abs(root.real))
        label = "DampedOscillation" if k_sp < 1.0 else "AmplifiedOscillation"
        return label, 2.0 * math.pi / theta, delta
    if abs(modulus - 1.0) < BOUNDARY_MARGIN:
        return None
    return ("RealConvergent" if modulus < 1.0 else "RealDivergent"), None, delta


def _check_phase(job: dict, text: str) -> dict:
    n = job["inputs"]["n"]
    lines = text.splitlines()
    if lines[0] != "k_sd,k_sp,delta,label,period":
        raise CheckFailed(f"unexpected header {lines[0]!r}")
    if len(lines) != n * n + 1:
        raise CheckFailed(f"{len(lines) - 1} rows, expected {n * n}")
    # the program's axes: k_sd = 0 is nudged to 1e-9, negative k_sp to 0
    sd_axis = np.linspace(*job["inputs"]["ksd"], n)
    sd_axis[sd_axis <= 0] = 1e-9
    sp_axis = np.linspace(*job["inputs"]["ksp"], n)
    sp_axis[sp_axis < 0] = 0.0
    rng = np.random.default_rng(job["inputs"]["sample_seed"])
    checked = 0
    for row in rng.choice(n * n, size=min(PHASE_SAMPLE, n * n), replace=False):
        i_sp, j_sd = divmod(int(row), n)
        k_sd, k_sp, delta, label, period = lines[row + 1].split(",")
        k_sd, k_sp = float(k_sd), float(k_sp)
        _close(k_sd, float(sd_axis[j_sd]), 1e-12, f"row {row} k_sd")
        _close(k_sp, float(sp_axis[i_sp]), 1e-12, f"row {row} k_sp")
        want = expected_node(k_sd, k_sp)
        if want is None:
            continue
        want_label, want_period, want_delta = want
        if label != want_label:
            raise CheckFailed(f"row {row} ({k_sd!r}, {k_sp!r}): label {label}, "
                              f"expected {want_label}")
        if abs(float(delta) - want_delta) > 1e-9 * max(1.0, abs(want_delta)):
            raise CheckFailed(f"row {row}: delta {delta}, expected {want_delta!r}")
        if want_period is None:
            if period != "":
                raise CheckFailed(f"row {row}: period {period} for a real-root node")
        else:
            _close(float(period), want_period, 1e-9, f"row {row} period")
        checked += 1
    if checked < PHASE_SAMPLE // 2:
        raise CheckFailed(f"only {checked} sampled nodes away from boundaries")
    return {"nodes_checked": checked}


def _check_simulate_spec(job: dict, text: str) -> dict:
    p = job["inputs"]
    values = np.array([float(line.split(",")[1]) for line in text.splitlines()[1:]])
    if len(values) != p["steps"] + 1:
        raise CheckFailed(f"{len(values)} prices, expected {p['steps'] + 1}")
    t = np.arange(p["steps"] + 1)
    p_e = p["kc"] / p["ksd"]
    if "p1" not in p:  # first order: (P0 - Pe)(1 - k_sd)^t + Pe
        dev = (p["p0"] - p_e) * (1.0 - p["ksd"]) ** t
    else:  # P(0) = Pe: dev(t) = d (m1^t - m2^t) / (m1 - m2)
        m1, m2 = np.roots([1.0, p["ksd"] - p["ksp"] - 1.0, p["ksp"]]).astype(complex)
        d = p["p1"] - p_e
        if abs(m1 - m2) < 1e-6 * max(1.0, abs(m1)):
            m = (m1 + m2) / 2.0
            dev = (d * t * m ** np.maximum(t - 1, 0)).real
        else:
            dev = (d * (m1 ** t - m2 ** t) / (m1 - m2)).real
    scale = np.maximum.accumulate(np.abs(dev)) + abs(p_e)
    worst = int(np.argmax(np.abs(values - p_e - dev) / scale))
    if abs(values[worst] - p_e - dev[worst]) > 1e-8 * scale[worst]:
        raise CheckFailed(f"step {worst}: price {values[worst]!r}, closed form "
                          f"{p_e + dev[worst]!r}")
    return {}


def _check_simulate_sd(job: dict, text: str) -> dict:
    path = json.loads(text)
    want = inputs.read_csv_values(Path(job["inputs"]["files"]["price"]))
    got = np.array(path["prices"])
    if got.shape != want.shape:
        raise CheckFailed(f"{got.size} prices, expected {want.size}")
    worst = int(np.argmax(np.abs(got - want)))
    _close(float(got[worst]), float(want[worst]), 1e-9, f"price at step {worst}")
    return {}


def _check_correlate(job: dict, text: str) -> dict:
    files = job["inputs"]["files"]
    a = inputs.read_csv_values(Path(files["ethanol"]))
    b = inputs.read_csv_values(Path(files["food"]))
    want = float(np.corrcoef(a, b)[0, 1])
    rho = json.loads(text)["rho"]
    if abs(rho - want) > 1e-12:
        raise CheckFailed(f"rho {rho!r}, numpy.corrcoef {want!r}")
    return {}


def _check_lagscan(job: dict, text: str) -> dict:
    lines = text.splitlines()
    if lines[0] != "lag,rho":
        raise CheckFailed(f"unexpected header {lines[0]!r}")
    lags = [int(line.split(",")[0]) for line in lines[1:]]
    rhos = [float(line.split(",")[1]) for line in lines[1:]]
    if lags != list(range(MAX_LAG + 1)) or not all(-1 - 1e-12 <= r <= 1 + 1e-12
                                                   for r in rhos):
        raise CheckFailed("lag scan rows are not lags 0..max with rho in [-1, 1]")
    return {}


def _check_fit_ethanol(job: dict, text: str) -> dict:
    report = json.loads(text)
    values = [report["series_a"]["b"], report["series_b"]["b"],
              report["coefficient_gap"], report["rho"]]
    if not all(math.isfinite(float(v)) for v in values):
        raise CheckFailed(f"non-finite trend comparison {values}")
    return {}


def _check_fit_sd(job: dict, text: str) -> dict:
    report = json.loads(text)
    files = job["inputs"]["files"]
    out = {}
    for name, key in (("price", "residual_price"),
                      ("consumption", "residual_consumption")):
        observed = inputs.read_csv_values(Path(files[name]))
        residual = np.array(report[key])
        if residual.shape != observed.shape:
            raise CheckFailed(f"{residual.size} {name} residuals, expected {observed.size}")
        out[f"rel_sse_{name}"] = float(np.sum(residual ** 2)
                                       / np.sum((observed - observed.mean()) ** 2))
    if job["command"] == "fit-sd":  # noiseless: the model is exact
        for name in ("price", "consumption"):
            if 1.0 - out[f"rel_sse_{name}"] <= 0.999:
                raise CheckFailed(f"noiseless fit: R^2 of {name} = "
                                  f"{1.0 - out[f'rel_sse_{name}']:.6f} <= 0.999")
    return {"rel_sse": out["rel_sse_price"], **out,
            "reported_nfev": report["evaluations"]}


CHECKS = {"fit-combined": _check_fit_combined, "phase": _check_phase,
          "simulate-spec": _check_simulate_spec, "simulate-sd": _check_simulate_sd,
          "correlate": _check_correlate, "lagscan": _check_lagscan,
          "fit-ethanol": _check_fit_ethanol, "fit-sd": _check_fit_sd,
          "fit-sd:noisy": _check_fit_sd}


def python_env(root: Path) -> dict:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env
