"""Exception hierarchy shared across the package."""

from __future__ import annotations


class IntHamError(Exception):
    """Base class for all errors raised by this package.

    ``context`` names the keywords a subclass carries, each kept as an
    attribute (None when absent); ``pair_index`` / ``field_site`` name the
    failing sub-update when the error surfaces from an evolver or field sweep.
    """

    context: tuple[str, ...] = ()
    pair_index: int | None = None
    field_site: tuple | None = None

    def __init__(self, message: str, **context):
        if not set(context) <= set(self.context):
            raise TypeError(f"{type(self).__name__} carries only {self.context}, got {sorted(context)}")
        super().__init__(message)
        for key in self.context:
            setattr(self, key, context.get(key))


class WindowExceeded(IntHamError):
    """An evaluation was requested outside a table's declared window."""

    context = ("argument",)


class UnboundedContour(IntHamError):
    """A traced level curve left the declared window before closing; ``site``
    is the lower-left corner of the cell the walk could not read, or a touched
    site whose neighbors lie outside."""

    context = ("energy", "site")


class ShellNotClosed(IntHamError):
    """A one-step image left the state set the permutation was built over."""

    context = ("state", "image")


class ShellTooLarge(IntHamError):
    """A dense-operator check was asked for more basis states than allowed."""

    context = ("size", "limit")


class RegimeViolation(IntHamError):
    """Census parameters fall outside the regime where the count law holds."""

    context = ("degenerate",)


class ConfigError(IntHamError):
    """A run configuration file is malformed or inconsistent."""
