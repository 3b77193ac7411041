"""The names the benchmark's tracer patches must exist in the package.

bench/tracer.py wraps every function in its LAYERS table by module and name,
and labels run_trial spans by the decoder spec passed as its second argument.
A rename or deletion should fail here rather than inside a benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from mimopam import run_trial

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
