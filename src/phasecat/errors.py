"""Shared exception types, and the base of the immutable value types."""


class PhasecatError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PhasecatError, ValueError):
    """Malformed or mathematically inconsistent input."""


class CapExceededError(ValidationError):
    """A hard size cap (group order, object count, ...) was exceeded."""


class Frozen:
    """An immutable value: ``__init__`` sets each field once through
    ``object.__setattr__``, and equality and hashing compare the fields
    named in ``_fields`` between instances of one class."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(
            f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__
