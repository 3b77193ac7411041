"""Benchmark of the mimopam command line, run from outside as users run it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--out results.json]
    python3 bench/run.py --self-test

One closed-loop client starts one CLI process at a time (`python3 -m
mimopam.cli` on the checkout's `src/`) and waits for it. Children run with
one BLAS thread, so the two Monte Carlo workers use nproc = 2 cores.

Workloads (only monte-carlo passes the seed on, as the CLI's --seed):
  theory-sweep  `predict` on theory_sweep.cfg: the fig2 scenario at every
                fifth point of the preset's 0..35 dB sweep, i.e. eight cold
                box saddle solves plus closed-form ridge rows. Moves with the
                saddle kernel and solver; the control for Monte Carlo changes.
  knob-search   `predict` on the fig5 preset: the numeric lambda and box
                threshold searches, i.e. many warm-started saddle solves.
  monte-carlo   `simulate --workers 2` on monte_carlo.cfg: the fig2 scenario
                at 5/15/25 dB with ls,rls,box,lmmse. Moves with the
                simulator and decoders; the control for saddle changes.
BENCHMARK.json lists theory-sweep and monte-carlo only. On the shared 2-core
host the benchmark was tuned on, pure-Python speed drifted by up to a factor
of two, in stretches lasting from seconds to many minutes, and a run lasts at
most a minute. A knob-search call takes about 20 s, so a run holds two or
three calls and cannot separate the program's cost from a slow stretch. It
still runs by name and with `--workload all`.

--trace 0 repeats CLI calls while the next one still fits in --seconds
(at least one call) and reports the end-to-end metrics: best_wall_s, the
fastest call's wall time (spawn to exit, CSV written); setup_s, the median
time for a fresh interpreter to import mimopam.cli and load the config; and
peak_rss_mb, the median over calls of the child's peak RSS (from wait4). The
median and tail of the call times are printed too. The fastest call is
reported because a busy host only ever adds time to a call: in two sets of
ten interleaved one-minute runs of each workload, the fastest call's
quartiles lay 0.08-0.17 (theory-sweep) and 0.07-0.14 (monte-carlo) of its
median apart; in one of them the median call's lay 0.23 and 0.08 apart.

--trace 1 runs one untraced call and one traced in-process call (tracer.py)
with the same arguments and reports per-layer metrics from the spans. Every
call's CSV is checked; error rows, failed checks and non-zero exits are
counted in `failed` against the rows attempted. The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import select
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PRESETS = SRC / "mimopam" / "presets"

WORKERS = 2
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPS = 5
RUN_LIMIT_S = 170.0

# Published ridge theory curve at the optimal coefficient for the fig2
# scenario, 0..35 dB (the reference table the acceptance suite quotes).
FIG2_RLS_TABLE = [
    0.871446072678727, 0.83402783533993, 0.791568725279436, 0.745122063159603,
    0.695948460707339, 0.645332509678497, 0.594442537355299, 0.54425266239889,
    0.495519859221039, 0.448797037747719, 0.404463487622635, 0.36275967912656,
    0.323819403046235, 0.287696519183532, 0.254385987629118, 0.223839905167041,
    0.195979545129218, 0.170704321165657, 0.147898404716632, 0.127435538501213,
    0.10918244834212, 0.0930011715704469, 0.0787505839609838, 0.0662874020557637,
    0.0554669417298609, 0.0461439021455937, 0.0381733954740033, 0.0314123483189251,
    0.0257212726167438, 0.0209662738459123, 0.0170210722015505, 0.0137687861471301,
    0.0111032703921362, 0.00892988974130204, 0.00716571221438941, 0.00573918927522137,
]
FIG2_BOX_MSE_20DB = 0.042277
THEORY_SWEEP_DB = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0)  # theory_sweep.cfg
# Box theory MSE of the fig2 preset at 5/15/25 dB, as the fig2 preset's full
# sweep computes it; the saddle solver's tolerance allows 1e-6 relative.
FIG2_BOX_MSE = {5.0: 0.6339013014673127, 15.0: 0.14174748559536593, 25.0: 0.011531570189056352}
MC_SIGMAS = 5.0

PER_LAYER = (
    "asymptotics.box_saddle_solve.calls",
    "asymptotics.box_saddle_solve.p50_ms",
    "asymptotics.box_saddle_solve.tail_ms",
    "asymptotics.box_saddle_solve.self_s",
    "asymptotics.box_theta_min.calls",
    "asymptotics.box_theta_min.calls_per_solve",
    "asymptotics.lambda_star_numeric.s",
    "asymptotics.t_star_numeric.s",
    "asymptotics.scalar_solution.s",
    "asymptotics.predict.s",
    "runner.resolve_decoder.s",
    "runner.run.self_s",
    "simulate.run_batch.s",
    *(f"simulate.run_trial.{kind}.{stat}"
      for kind in ("ls", "rls", "box", "lmmse") for stat in ("p50_ms", "tail_ms")),
    "simulate.make_pilots.calls",
    "simulate.make_pilots.first_ms",
    "simulate.make_pilots.p50_ms",
    "simulate.estimate_channel.p50_ms",
    "decoders.rls_solve.calls",
    "decoders.rls_solve.p50_ms",
    "decoders.box_rls_solve.calls",
    "decoders.box_rls_solve.p50_ms",
    "decoders.box_rls_solve.tail_ms",
    "decoders.box_rls_solve.errors",
    "decoders.lmmse_decode.p50_ms",
    "cli.main.s",
    "trace.overhead_frac",
)
UNITS = {
    "calls": "count", "calls_per_solve": "count", "errors": "count",
    "p50_ms": "ms", "tail_ms": "ms", "first_ms": "ms", "s": "s", "self_s": "s",
    "overhead_frac": "ratio",
}
END_TO_END = {"best_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def layer_unit(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing program or interpreter)."""


# ---------------------------------------------------------------------------
# Correctness checks: each returns one message per failed check
# ---------------------------------------------------------------------------


def _num(row: dict, key: str) -> float:
    try:
        return float(row.get(key) or "nan")
    except ValueError:
        return math.nan


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def check_theory_sweep(rows: list[dict]) -> list[str]:
    fails = []
    if len(rows) != 2 * len(THEORY_SWEEP_DB):
        fails.append(f"expected {2 * len(THEORY_SWEEP_DB)} rows, got {len(rows)}")
    theory = {(r.get("decoder"), _num(r, "rho_db")): _num(r, "mse_theory") for r in rows}
    rls = [theory.get(("rls", db), math.nan) for db in THEORY_SWEEP_DB]
    if not all(_close(g, FIG2_RLS_TABLE[int(db)], 1e-9) for g, db in zip(rls, THEORY_SWEEP_DB)):
        fails.append("rls mse_theory differs from the published fig2 table by more than 1e-9")
    box20 = theory.get(("box", 20.0), math.nan)
    if round(box20, 6) != FIG2_BOX_MSE_20DB:
        fails.append(f"box mse_theory at 20 dB is {box20}, want {FIG2_BOX_MSE_20DB}")
    for db, want in FIG2_BOX_MSE.items():
        if not _close(theory.get(("box", db), math.nan), want, 1e-6):
            fails.append(f"box mse_theory at {db} dB differs from {want} by more than 1e-6")
    return fails


def check_knob_search(rows: list[dict]) -> list[str]:
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    fails = []
    lam, t_box = _num(rows[0], "lambda"), _num(rows[0], "t_box")
    if not lam < 1e-3:
        fails.append(f"box lambda* = {lam}, want < 1e-3")
    if not abs(t_box - 0.9996) <= 1e-2:  # BPSK, sqrt(E) = 1
        fails.append(f"box t* = {t_box}, want 0.9996 +- 1e-2")
    return fails


def _ls_mse_fig2(rho_db: float) -> float:
    """Closed-form LS MSE 1/((delta-1) rho_eff) of the fig2 scenario."""
    rho = 10.0 ** (rho_db / 10.0)
    rho_d, rho_p = 0.5 * rho, 0.5 * rho
    sigma_delta_sq = 1.0 / (1.0 + rho_p * 456 / 400)
    rho_eff = rho_d * (1.0 - sigma_delta_sq) / (1.0 + rho_d * sigma_delta_sq)
    return 1.0 / ((480 / 400 - 1.0) * rho_eff)


def check_monte_carlo(rows: list[dict]) -> list[str]:
    fails = []
    if len(rows) != 12:
        fails.append(f"expected 12 rows, got {len(rows)}")
    for r in rows:
        rho_db, kind, theory = _num(r, "rho_db"), r.get("decoder"), _num(r, "mse_theory")
        if kind in ("rls", "lmmse"):
            ok = rho_db in (5.0, 15.0, 25.0) and _close(theory, FIG2_RLS_TABLE[int(rho_db)], 1e-9)
        elif kind == "ls":
            ok = _close(theory, _ls_mse_fig2(rho_db), 1e-9)
        else:
            ok = rho_db in FIG2_BOX_MSE and _close(theory, FIG2_BOX_MSE[rho_db], 1e-6)
        if not ok:
            fails.append(f"{kind}@{rho_db}dB mse_theory {theory} differs from the reference")
        gap = abs(_num(r, "mse_sim") - theory)
        if not gap <= MC_SIGMAS * _num(r, "stderr_mse"):
            fails.append(f"{kind}@{rho_db}dB |mse_sim - mse_theory| = {gap:.3g} "
                         f"> {MC_SIGMAS} stderr ({r.get('stderr_mse')})")
    return fails


@dataclass(frozen=True)
class Workload:
    mode: str
    config: str
    rows: int  # CSV rows one call writes
    check: Callable[[list[dict]], list[str]]
    seeded: bool  # Monte Carlo: pass the workers and the benchmark seed on


WORKLOADS = {
    "theory-sweep": Workload("predict", str(HERE / "theory_sweep.cfg"), 2 * len(THEORY_SWEEP_DB),
                             check_theory_sweep, seeded=False),
    "knob-search": Workload("predict", str(PRESETS / "fig5.cfg"), 1, check_knob_search,
                            seeded=False),
    "monte-carlo": Workload("simulate", str(HERE / "monte_carlo.cfg"), 12, check_monte_carlo,
                            seeded=True),
}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    code: int
    wall_s: float
    peak_rss_mb: float
    log: Path


def spawn(argv: list[str], log: Path, deadline: float) -> Call:
    """Run argv to exit in the checkout; wall time is spawn to exit.

    The child is reaped with wait4, which gives its own peak RSS. A child
    still running at the deadline is killed and reported with code -9.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), **CHILD_ENV)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
    try:
        fd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([fd], [], [], max(deadline - time.monotonic(), 0.0))
        finally:
            os.close(fd)
        if not exited:
            proc.kill()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(proc.returncode, wall, usage.ru_maxrss / 1024.0, log)


def cli_args(workload: Workload, seed: int, out_csv: Path) -> list[str]:
    args = [workload.mode, "--config", workload.config, "--out", str(out_csv)]
    if workload.seeded:
        args += ["--workers", str(WORKERS), "--seed", str(seed)]
    return args


def read_rows(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Tally:
    """Rows attempted and failures (error rows, failed checks, bad exits)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, workload: Workload, call: Call, csv_path: Path) -> list[dict]:
        rows = read_rows(csv_path)
        self.attempted += max(workload.rows, len(rows))
        if call.code != 0:
            output = call.log.read_text(errors="replace")[-2000:]
            self.failures.append(f"exit code {call.code}; output ends:\n{output}")
        self.failures += [f"error row {r.get('decoder')}@{r.get('rho_db')}: {r['error']}"
                          for r in rows if r.get("error")]
        self.failures += workload.check(rows)
        return rows

    def summary(self) -> str:
        frac = len(self.failures) / max(self.attempted, 1)
        return f"  failed_frac  {frac:.6g} ratio ({len(self.failures)} of {self.attempted} rows)"


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

SETUP_CODE = (
    "import sys\n"
    "from mimopam.cli import main\n"
    "from mimopam.runner import load_config\n"
    "load_config(sys.argv[1])\n"
)
PROBE_CODE = SETUP_CODE + (
    "import json, numpy, scipy\n"
    "try:\n"
    "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "    blas = f\"{blas['name']} {blas['version']}\"\n"
    "except (AttributeError, KeyError, TypeError):\n"
    "    blas = 'unknown'\n"
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,\n"
    "                  'scipy': scipy.__version__, 'blas': blas}))\n"
)


def environment(config: str, work: Path, deadline: float) -> dict:
    """Versions and settings recorded with every result.

    The probe imports the program as setup does, so it also serves as the
    warm-up that compiles bytecode before setup is timed.
    """
    if not (SRC / "mimopam" / "cli.py").is_file():
        raise BenchError(f"no mimopam sources under {SRC}")
    call = spawn([sys.executable, "-c", PROBE_CODE, config], work / "probe.log", deadline)
    if call.code != 0:
        raise BenchError("cannot import mimopam: " + call.log.read_text(errors="replace")[-2000:])
    env = json.loads(call.log.read_text().strip().splitlines()[-1])
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        head = rev.stdout.strip() if rev.returncode == 0 else "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        head = "git unavailable"
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (SRC / "mimopam").glob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **env,
        "child_env": CHILD_ENV,
        "workers": WORKERS,
        "git_head": head,
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> float:
    """Highest order statistic with at least ten samples above it (the
    maximum when there are fewer than eleven samples)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def describe(values: list[float], unit: str) -> str:
    text = f"median {statistics.median(values):.6g} {unit}, n={len(values)}"
    if len(values) > 10:
        return text + f", tail {tail(values):.6g} {unit}"
    return text + " [" + ", ".join(f"{v:.4g}" for v in values) + "]"


def measure(name: str, seed: int, seconds: float, work: Path) -> dict:
    """Untraced run: setup repetitions, then CLI calls for `seconds`."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment(workload.config, work, deadline)
    setup = [spawn([sys.executable, "-c", SETUP_CODE, workload.config],
                   work / "setup.log", deadline) for _ in range(SETUP_REPS)]
    tally = Tally()
    tally.failures += [f"setup exit code {c.code}" for c in setup if c.code != 0]
    calls, trials = [], 0
    start = time.monotonic()
    while True:
        out_csv = work / f"call{len(calls)}.csv"
        call = spawn([sys.executable, "-m", "mimopam.cli", *cli_args(workload, seed, out_csv)],
                     work / f"call{len(calls)}.log", deadline)
        calls.append(call)
        rows = tally.add(workload, call, out_csv)
        trials += sum(int(r["trials"]) for r in rows if (r.get("trials") or "").isdigit())
        elapsed = time.monotonic() - start
        if call.code != 0 or elapsed + call.wall_s > min(seconds, deadline - start):
            break
    walls = [c.wall_s for c in calls]
    metrics = {
        "best_wall_s": min(walls),
        "setup_s": statistics.median(c.wall_s for c in setup),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in calls),
    }
    lines = [
        f"{name} seed={seed}: {len(calls)} CLI calls, {tally.attempted} rows",
        f"  best_wall_s  {min(walls):.6g} s",
        f"  wall_s       {describe(walls, 's')}",
        f"  setup_s      {describe([c.wall_s for c in setup], 's')}",
        f"  peak_rss_mb  {describe([c.peak_rss_mb for c in calls], 'MiB')}",
    ]
    if workload.seeded:
        lines.append(f"  trials_per_s {trials / sum(walls):.6g} 1/s "
                     f"({trials} Monte Carlo trials in {sum(walls):.6g} s)")
    lines.append(tally.summary())
    return _result(env, tally, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, lines)


def traced_call(name: str, seed: int, work: Path, deadline: float) -> tuple[Call, Path, list]:
    workload = WORKLOADS[name]
    out_csv, spans_path = work / "traced.csv", work / "spans.json"
    call = spawn([sys.executable, str(HERE / "tracer.py"), str(spans_path), "--",
                  *cli_args(workload, seed, out_csv)], work / "traced.log", deadline)
    spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
    return call, out_csv, spans


def trace(name: str, seed: int, work: Path) -> dict:
    """One untraced and one traced call with the same arguments."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment(workload.config, work, deadline)
    tally = Tally()
    plain_csv = work / "plain.csv"
    plain = spawn([sys.executable, "-m", "mimopam.cli", *cli_args(workload, seed, plain_csv)],
                  work / "plain.log", deadline)
    tally.add(workload, plain, plain_csv)
    traced, traced_csv, spans = traced_call(name, seed, work, deadline)
    tally.add(workload, traced, traced_csv)
    if not plain_csv.exists() or not traced_csv.exists() \
            or plain_csv.read_bytes() != traced_csv.read_bytes():
        tally.failures.append("traced CSV differs from the untraced CSV")
    metrics = layer_metrics(spans)
    metrics["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    lines = [f"{name} seed={seed}: traced {traced.wall_s:.6g} s, "
             f"untraced {plain.wall_s:.6g} s, {len(spans)} spans"]
    lines += [f"  {k:44s} {v:.6g} {layer_unit(k)}" for k, v in metrics.items()]
    lines.append(tally.summary())
    return _result(env, tally, {k: (v, layer_unit(k)) for k, v in metrics.items()}, lines)


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics from spans; self time subtracts child spans, which
    always run on their parent's thread. A layer never called reads 0."""
    durations: dict[str, list[float]] = defaultdict(list)
    covered: dict[int, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    errors: Counter = Counter()
    for _, name, start, end, parent, _, raised in sorted(spans, key=lambda s: s[2]):
        durations[name].append(end - start)
        errors[name] += raised
        if parent is not None:
            covered[parent] += end - start
    for span_id, name, start, end, *_ in spans:
        self_s[name] += end - start - covered[span_id]
    stat_of = {
        "calls": len,
        "p50_ms": lambda d: 1e3 * statistics.median(d),
        "tail_ms": lambda d: 1e3 * tail(d),
        "first_ms": lambda d: 1e3 * d[0],
        "s": sum,
    }
    out = {}
    for metric in PER_LAYER:
        layer, stat = metric.rsplit(".", 1)
        d = durations.get(layer, [])
        if stat == "calls_per_solve":
            solves = len(durations["asymptotics.box_saddle_solve"])
            out[metric] = len(d) / solves if solves else 0
        elif stat == "self_s":
            out[metric] = self_s[layer]
        elif stat == "errors":
            out[metric] = errors[layer]
        elif stat in stat_of:
            out[metric] = stat_of[stat](d) if d else 0
    return out


def _result(env: dict, tally: Tally, metrics: dict, lines: list[str]) -> dict:
    return {
        "env": env,
        "lines": lines,
        "failures": tally.failures,
        "result": {
            "correct": not tally.failures,
            "attempted": max(tally.attempted, 1),
            "failed": len(tally.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def report(outcome: dict) -> None:
    for line in outcome["lines"]:
        print(line)
    for failure in outcome["failures"]:
        print(f"  FAILED: {failure}", file=sys.stderr)
    print("env " + json.dumps(outcome["env"], sort_keys=True))


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

TINY_CONFIG = """k = 50
n = 60
t_total = 125
t_pilot = 57
rho_db = 0
alpha = 0.5
m = 2
power_convention = direct
sweep_axis = rho_db
values = 5,25
decoders = ls,rls,box,lmmse
trials = 6
master_seed = 1
"""


def self_test(seed: int, work: Path) -> bool:
    """Worker independence, repeatable counters and metric names."""
    results = []
    deadline = time.monotonic() + 3 * RUN_LIMIT_S
    cfg = work / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    csvs = []
    for workers in (1, 2):
        out = work / f"tiny_w{workers}.csv"
        call = spawn([sys.executable, "-m", "mimopam.cli", "simulate", "--config", str(cfg),
                      "--seed", str(seed), "--workers", str(workers), "--out", str(out)],
                     work / "tiny.log", deadline)
        csvs.append(out.read_bytes() if call.code == 0 and out.exists() else None)
    results.append(("CSV of --workers 1 and --workers 2 byte-identical",
                    csvs[0] is not None and csvs[0] == csvs[1]))

    counters = [m for m in PER_LAYER if m.endswith((".calls", ".calls_per_solve", ".errors"))]
    for name in WORKLOADS:
        runs = []
        for _ in range(2):
            call, _, spans = traced_call(name, seed, work, deadline)
            metrics = layer_metrics(spans)
            runs.append(None if call.code != 0 else {m: metrics[m] for m in counters})
        results.append((f"{name}: counters repeat across two traced runs",
                        runs[0] is not None and runs[0] == runs[1]))
        print(f"  {name} counters: {runs[0]}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results.append(("metric names match BENCHMARK.json",
                    [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
                    and [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
                    and {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)))
    for title, ok in results:
        print(f"[SELF-TEST] {title}: {'PASS' if ok else 'FAIL'}")
    return all(ok for _, ok in results)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0, help="run length of one workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--out", type=Path, default=None,
                        help="with --workload all, also write every result here as JSON")
    args = parser.parse_args(argv)

    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        work = Path(tmp)
        try:
            if args.self_test:
                return 0 if self_test(args.seed, work) else 1
            if args.workload != "all":
                if args.trace:
                    outcome = trace(args.workload, args.seed, work)
                else:
                    outcome = measure(args.workload, args.seed, args.seconds, work)
                report(outcome)
                print(json.dumps(outcome["result"]))
                return 0
            everything = {}
            for name in WORKLOADS:
                for outcome in (measure(name, args.seed, args.seconds, work),
                                trace(name, args.seed, work)):
                    report(outcome)
                    everything.setdefault(name, []).append(outcome)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
    if args.out:
        args.out.write_text(json.dumps(everything, indent=1, sort_keys=True) + "\n")
    ok = all(o["result"]["correct"] for outcomes in everything.values() for o in outcomes)
    print(f"all workloads correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
