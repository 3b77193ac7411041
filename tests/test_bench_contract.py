"""The names the benchmark's tracer patches must exist in the package, and
the benchmark's configs must load.

bench/tracer.py wraps every function in its LAYERS table by module and name,
and labels run_trial spans by the decoder spec passed as its second argument.
Tracer.install imports mimopam.cli alone and then looks each LAYERS module up
in sys.modules. A rename, a deletion, an import made lazy or a stricter
config check should fail here rather than inside a benchmark run.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mimopam
from mimopam.runner import apply_sweep_value, load_config, resolve_decoder
from mimopam.simulate import run_trial

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_a_callable_in_its_module():
    layers = load_tracer().LAYERS
    assert layers
    for module_name, names in layers.items():
        module = importlib.import_module(f"mimopam.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"mimopam.{module_name}.{name}"


def test_run_trial_takes_the_decoder_spec_second():
    params = list(inspect.signature(run_trial).parameters)
    assert params[1] == "decoder_spec"


def test_importing_the_cli_loads_every_traced_module():
    layers = load_tracer().LAYERS
    code = ("import sys, mimopam.cli; "
            "print(' '.join(m for m in sys.modules if m.startswith('mimopam.')))")
    env = {**os.environ, "PYTHONPATH": str(Path(mimopam.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    loaded = set(out.stdout.split())
    assert {f"mimopam.{name}" for name in layers} <= loaded


@pytest.mark.parametrize("name", ["theory_sweep.cfg", "monte_carlo.cfg"])
def test_bench_configs_load(name):
    assert load_config(str(BENCH / name)).values


def test_run_trial_spans_are_labelled_by_the_decoders_kind():
    # the tracer names a run_trial span by spec.kind.value; lmmse resolves to
    # the rls spec at lam~ = 1, so its trials are decoded, and labelled, once
    label = load_tracer()._decoder_label
    spec = load_config(str(BENCH / "monte_carlo.cfg"))
    for value in spec.values:
        point, cfg = apply_sweep_value(spec, value)
        dspecs = {kind.value: resolve_decoder(point, cfg, kind) for kind in spec.decoders}
        assert dspecs["lmmse"] == dspecs["rls"]
        assert {name: label((cfg, dspec), {}) for name, dspec in dspecs.items()} == {
            "ls": "ls", "rls": "rls", "box": "box", "lmmse": "rls"}
        assert label((cfg,), {"decoder_spec": dspecs["box"]}) == "box"
