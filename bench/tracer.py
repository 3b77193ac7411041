"""Run one mimopam CLI call in-process with a span around each layer call.

    python3 bench/tracer.py SPANS_JSON -- <mimopam CLI arguments>

The program under test is not modified: before the call, every public layer
function listed in LAYERS is replaced, in each mimopam module that holds it,
by a wrapper that records a span (id, name, start, end, parent id, thread id,
raised). Spans stay in memory and are written to SPANS_JSON as a JSON list
when the call returns. The exit code is the CLI's.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time

LAYERS = {
    "cli": ("main",),
    "runner": ("run", "resolve_decoder"),
    "asymptotics": (
        "box_saddle_solve", "box_theta_min", "lambda_star_numeric", "t_star_numeric",
        "scalar_solution", "predict",
    ),
    "simulate": ("run_batch", "run_trial", "make_pilots", "estimate_channel"),
    "decoders": ("rls_solve", "box_rls_solve", "lmmse_decode"),
}


def _decoder_label(args, kwargs) -> str:
    spec = args[1] if len(args) > 1 else kwargs["decoder_spec"]
    return spec.kind.value


# run_trial spans are named per decoder: simulate.run_trial.<kind>
LABELS = {"simulate.run_trial": _decoder_label}


class Tracer:
    """Collects spans from wrapped functions; the parent is per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, label=None):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            full_name = name if label is None else f"{name}.{label(args, kwargs)}"
            stack.append(span_id)
            raised = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (span_id, full_name, start, end, parent, threading.get_ident(), raised)
                )

        return traced

    def install(self) -> None:
        """Swap each layer function for its wrapper wherever mimopam binds it."""
        import mimopam.cli  # noqa: F401  (the package import loads the other modules)

        modules = [m for name, m in sys.modules.items()
                   if name == "mimopam" or name.startswith("mimopam.")]
        for module, names in LAYERS.items():
            for fname in names:
                qualified = f"{module}.{fname}"
                original = getattr(sys.modules[f"mimopam.{module}"], fname)
                wrapper = self.wrap(qualified, original, LABELS.get(qualified))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from mimopam import cli

    code = cli.main(argv[2:])
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
