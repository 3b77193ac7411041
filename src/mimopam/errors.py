"""Exception types shared across the package, and the validity check of
the configuration records."""


class ConfigError(ValueError):
    """A scenario or sweep configuration violates a validity constraint."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its required tolerance."""


class UndefinedTheoryError(ValueError):
    """The theory has no value at this point: a box threshold on a decision
    boundary, where the asymptotic SEP jumps, lam = 0 with n <= k, or a
    debias constant B that underflows to 0."""


class Checked:
    """Mixin for a NamedTuple record with a _check method that raises
    ConfigError: it runs on construction and in _make, which builds
    _replace and, like it, would skip __new__. A TypeError from _check, a
    field of the wrong type, becomes a ConfigError that names the record.
    Listed before the NamedTuple base: class Spec(Checked, _SpecFields)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)._checked()

    @classmethod
    def _make(cls, iterable):
        return super()._make(iterable)._checked()

    def _checked(self):
        try:
            self._check()
        except TypeError as exc:
            raise ConfigError(f"{type(self).__name__} has a field of the wrong type: {exc}") from exc
        return self
