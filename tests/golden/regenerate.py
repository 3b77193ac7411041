"""Regenerate the golden CSVs and reports kept next to this script.

    PYTHONPATH=src python3 tests/golden/regenerate.py

Each CASES entry (mode, preset) is written to <mode>_<preset>.csv and
<mode>_<preset>.txt, the CSV and the text report that
`mimopam <mode> --config <preset> --trials 4` writes (the theory modes read
no trial count), and prints whether each file changed. tests/test_golden.py
holds the package to these files. A change that moves a golden cell
regenerates them and names the cells that moved, by how much and why.

Like the CLI and the test session, it caps BLAS at one thread before numpy
loads, unless the environment sets it, so the simulated cells carry the bits
that `mimopam compare` writes.
"""

import os
from pathlib import Path

from mimopam.cli import BLAS_THREAD_VARS

for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

from mimopam.presets import PRESET_NAMES, preset_path  # noqa: E402
from mimopam.runner import load_config, records_to_csv, run  # noqa: E402

HERE = Path(__file__).resolve().parent
TRIALS = 4
CASES = (*(("predict", name) for name in PRESET_NAMES),
         ("optimize_power", "fig6"), ("optimize_goodput", "prop1"), ("compare", "fig6"))


def golden_path(mode: str, preset: str, suffix: str = ".csv") -> Path:
    return HERE / f"{mode}_{preset}{suffix}"


def render(mode: str, preset: str) -> tuple[str, str]:
    """The CSV and the report of one case, computed in-process."""
    result = run(load_config(preset_path(preset))._replace(trials=TRIALS), mode)
    return records_to_csv(result.records), result.report


if __name__ == "__main__":
    for mode, preset in CASES:
        for suffix, text in zip((".csv", ".txt"), render(mode, preset)):
            path = golden_path(mode, preset, suffix)
            old = path.read_text(encoding="utf-8") if path.is_file() else None
            path.write_text(text, encoding="utf-8")
            print(f"{path.name}: {'unchanged' if text == old else 'changed'}")
