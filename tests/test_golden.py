"""The CSVs and reports of every preset against the golden files in
tests/golden/.

Every theory cell is held at rtol 1e-12, every simulated cell (compare on
fig6 at 4 trials) at rtol 1e-10, and every text cell and every report
exactly. fig4's box rows find lam~* numerically on a flat optimum of
theta*(lam~), where the last bit of theta* picks the returned point (an
ulp-level change once moved it by 3.2e-7 relative). So on those rows the
cells that move with lam~ at first order, lambda, beta_star and b_norm, are
held at rel 1e-6; theta*, and the MSE, SEP and goodput it implies, are flat
in lam~ there and keep rtol 1e-12. fig4's rls rows take lam~ = 1, the ridge
optimum, with no search, and keep rtol 1e-12 in every cell. Regenerate with
tests/golden/regenerate.py.
"""

import csv
import functools
import importlib.util
import io
import math
from pathlib import Path

import pytest

from mimopam.presets import PRESET_NAMES, preset_path
from mimopam.runner import LambdaPolicy, load_config

GOLDEN_RTOL = 1e-12
FLAT_OPTIMUM_RTOL = 1e-6
FLAT_OPTIMUM_CELLS = ("lambda", "beta_star", "b_norm")
SIMULATED_RTOL = 1e-10
SIMULATED_CELLS = ("mse_sim", "ser_sim", "stderr_mse", "stderr_ser")
REGENERATE = Path(__file__).resolve().parent / "golden" / "regenerate.py"


def load_regenerate():
    spec = importlib.util.spec_from_file_location("golden_regenerate", REGENERATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = load_regenerate()
render = functools.lru_cache(golden.render)  # each case runs once per session


def parse(text):
    return list(csv.reader(io.StringIO(text)))


def as_float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def rtol_of(preset, column, row):
    if column in SIMULATED_CELLS:
        return SIMULATED_RTOL
    # fig4 is numeric_optimal in lambda, so its box rows carry a searched lam~*
    flat = preset == "fig4" and row["decoder"] == "box" and column in FLAT_OPTIMUM_CELLS
    return FLAT_OPTIMUM_RTOL if flat else GOLDEN_RTOL


@pytest.mark.parametrize("mode, preset", golden.CASES)
def test_theory_csv_matches_golden(mode, preset):
    want = parse(golden.golden_path(mode, preset).read_text(encoding="utf-8"))
    got = parse(render(mode, preset)[0])
    assert got[0] == want[0]
    assert len(got) == len(want)
    header = want[0]
    for line, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), start=2):
        row = dict(zip(header, want_row))
        for column, g, w in zip(header, got_row, want_row):
            where = f"{mode}_{preset}.csv line {line} {column}"
            gf, wf = as_float(g), as_float(w)
            if gf is None or wf is None:
                assert g == w, where
            else:
                assert math.isclose(gf, wf, rel_tol=rtol_of(preset, column, row)), \
                    f"{where}: {g} != {w}"


@pytest.mark.parametrize("mode, preset", golden.CASES)
def test_report_matches_golden(mode, preset):
    assert render(mode, preset)[1] == \
        golden.golden_path(mode, preset, ".txt").read_text(encoding="utf-8")


def test_golden_cases_cover_every_preset_predict():
    assert load_config(preset_path("fig4")).lam is LambdaPolicy.NUMERIC_OPTIMAL
    assert {preset for mode, preset in golden.CASES if mode == "predict"} == set(PRESET_NAMES)
    assert all(golden.golden_path(mode, preset, suffix).is_file()
               for mode, preset in golden.CASES for suffix in (".csv", ".txt"))
