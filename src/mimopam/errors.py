"""Exception types shared across the package, and the validity check of
the configuration records."""


class ConfigError(ValueError):
    """A scenario or sweep configuration violates a validity constraint."""


class InfeasibleError(ValueError):
    """A closed-form predictor was evaluated outside its feasible region."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its required tolerance."""


class DegenerateThresholdError(ValueError):
    """The box threshold sits on a decision-boundary lattice point where the
    asymptotic symbol-error expression is discontinuous."""


class Checked:
    """Mixin for a NamedTuple record with a _check method that raises
    ConfigError: it runs on construction and in _make, which builds
    _replace and, like it, would skip __new__. Listed before the NamedTuple
    base: class Spec(Checked, _SpecFields)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        record = super().__new__(cls, *args, **kwargs)
        record._check()
        return record

    @classmethod
    def _make(cls, iterable):
        record = super()._make(iterable)
        record._check()
        return record
