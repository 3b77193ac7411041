"""Command-line front end.

    mimopam predict|simulate|compare|optimize-power|optimize-goodput
            --config PATH [--out CSV] [--trials N] [--seed S] [--workers W]

Exit codes: 0 success, 2 config error, 3 a row without a result (a solver
failure, or no theory at that point), 4 theory/simulation disagreement
flagged in compare mode.

OpenBLAS, OpenMP and MKL read their thread counts once, when numpy loads,
and the package loads numpy only on the first Monte Carlo trial. So main
caps them at one thread before it runs: run_batch decodes on the calling
thread and its helper threads, each of which calls into BLAS, and uncapped
every call would start its own team of BLAS threads on top of them. A value
set in the environment wins.

`python -m mimopam.cli` and the `mimopam` console script run run_and_exit,
not main. Once main has returned and stdout and stderr are flushed, it runs
the atexit callbacks and ends the process with os._exit, which skips module
teardown and the final garbage collection: on a 2-core host about 9 ms of a
theory call and 22-25 ms of a call that loaded numpy. It exits the usual
way, by SystemExit, when main raises, when a flush raises OSError (a closed
pipe), and when a trace or profile function or a sys.monitoring tool is
attached, so coverage and cProfile still see the whole run. main itself
returns the exit code and leaves the process running, for callers in the
same process.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
from typing import NoReturn

from .errors import ConfigError
from .runner import MODES, load_config, records_to_csv, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_GATE = 4
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimopam",
        description="Link-level laboratory for massive-MIMO PAM transmission under imperfect CSI",
    )
    parser.add_argument("mode", choices=[mode.replace("_", "-") for mode in MODES])
    parser.add_argument("--config", required=True, help="flat key=value sweep config")
    parser.add_argument("--out", default=None, help="output CSV path (default <mode>.csv)")
    parser.add_argument("--trials", type=int, default=None, help="override trial count")
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="Monte Carlo decoding threads, the calling thread included")
    return parser


def main(argv: list[str] | None = None) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    args = build_parser().parse_args(argv)
    try:
        spec = load_config(args.config)
        if args.trials is not None:
            spec = spec._replace(trials=args.trials)
        if args.seed is not None:
            spec = spec._replace(master_seed=args.seed)
        if args.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        mode = args.mode.replace("-", "_")
        out = args.out or f"{mode}.csv"
        result = run(spec, mode, workers=args.workers)
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(records_to_csv(result.records))
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(result.report, end="")
    print(f"wrote {len(result.records)} rows to {out}")
    if any(rec.error for rec in result.records):
        return EXIT_SOLVER
    if mode == "compare" and result.flagged:
        return EXIT_GATE
    return EXIT_OK


def _flushed() -> bool:
    """Whether stdout and stderr flushed without an OSError."""
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        return False
    return True


def _observed() -> bool:
    """Whether a tracer or profiler watches this process."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # 3.12+
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6))


def run_and_exit(argv: list[str] | None = None) -> NoReturn:
    """Run main and end the process with its exit code, skipping the
    interpreter's teardown where nothing is left to flush or observe."""
    code = main(argv)
    if _observed() or not _flushed():
        raise SystemExit(code)
    atexit._run_exitfuncs()
    if not _flushed():  # what the callbacks wrote
        raise SystemExit(code)
    os._exit(code)


if __name__ == "__main__":
    run_and_exit()
