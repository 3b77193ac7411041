"""Regenerate the golden theory CSVs kept next to this script.

    PYTHONPATH=src python3 tests/golden/regenerate.py

Each CASES entry (mode, preset) is written to <mode>_<preset>.csv, the CSV
that `mimopam <mode> --config <preset>` writes. tests/test_golden.py holds
the package to these files. A change that moves a golden cell regenerates
them and names the cells that moved, by how much and why.
"""

from pathlib import Path

from mimopam.presets import PRESET_NAMES, preset_path
from mimopam.runner import load_config, records_to_csv, run

HERE = Path(__file__).resolve().parent
CASES = (*(("predict", name) for name in PRESET_NAMES),
         ("optimize_power", "fig6"), ("optimize_goodput", "prop1"))


def golden_path(mode: str, preset: str) -> Path:
    return HERE / f"{mode}_{preset}.csv"


def render(mode: str, preset: str) -> str:
    """The CSV of one case, computed in-process."""
    return records_to_csv(run(load_config(preset_path(preset)), mode).records)


if __name__ == "__main__":
    for mode, preset in CASES:
        golden_path(mode, preset).write_text(render(mode, preset), encoding="utf-8")
        print(f"wrote {golden_path(mode, preset)}")
