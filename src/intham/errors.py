"""Exception hierarchy shared across the package."""

from __future__ import annotations


class IntHamError(Exception):
    """Base class for all errors raised by this package."""


class WindowExceeded(IntHamError):
    """An evaluation was requested outside a table's declared window."""

    def __init__(self, message: str, argument: int | None = None):
        super().__init__(message)
        self.argument = argument


class UnboundedContour(IntHamError):
    """A traced level curve left the declared window before closing.

    ``site`` is the lower-left corner of the cell the walk could not read, or
    a touched site whose neighbors lie outside; ``pair_index`` / ``field_site``
    identify the failing sub-update when the error surfaces from an evolver.
    """

    def __init__(
        self,
        message: str,
        energy: int | None = None,
        site: tuple[int, int] | None = None,
    ):
        super().__init__(message)
        self.energy = energy
        self.site = site
        self.pair_index: int | None = None
        self.field_site: tuple | None = None


class ShellNotClosed(IntHamError):
    """A one-step image left the state set the permutation was built over."""

    def __init__(self, message: str, state=None, image=None):
        super().__init__(message)
        self.state = state
        self.image = image


class ShellTooLarge(IntHamError):
    """A dense-operator check was asked for more basis states than allowed."""

    def __init__(self, message: str, size: int | None = None, limit: int | None = None):
        super().__init__(message)
        self.size = size
        self.limit = limit


class RegimeViolation(IntHamError):
    """Census parameters fall outside the regime where the count law holds."""


class ConfigError(IntHamError):
    """A run configuration file is malformed or inconsistent."""
