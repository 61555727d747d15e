"""Exceptions carrying stable machine-readable error codes.

Every failure surfaced by the library uses one of these classes with a
short kebab-case ``code`` so that callers (and the CLI) can branch on the
code instead of parsing messages.
"""


class TaskClustError(Exception):
    """Base error. ``code`` is a stable identifier like ``"dim-mismatch"``."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message

    def __reduce__(self):
        # Exception pickles its args, the one formatted string, which
        # __init__ cannot take back. A sweep worker's error crosses a pipe.
        return type(self), (self.code, self.message)


class InputError(TaskClustError):
    """Bad inputs, bad configuration, or violated preconditions (CLI exit 2)."""


class NumericalError(TaskClustError):
    """Numerical failure inside a solver or decomposition (CLI exit 3)."""
