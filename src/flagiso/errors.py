"""Common exception types."""

import copyreg


class FlagisoError(Exception):
    """Base class for all library errors.

    An error pickles as its class, its ``args`` and its attributes, without
    calling ``__init__`` again: a subclass's ``__init__`` builds the message
    from arguments of its own, so it cannot be called with ``args``."""

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ValidationError(FlagisoError, ValueError):
    """Malformed or semantically invalid input data."""


class ResourceLimitError(FlagisoError, RuntimeError):
    """An enumeration would exceed the configured resource bounds."""
