"""Shared exception types.

Every failure mode that callers are expected to handle gets its own class;
anything else is a plain ValueError/TypeError bug.
"""


class InvalidElementError(ValueError):
    """An element value is not a valid normal form for the group."""


class GroupMismatchError(ValueError):
    """Two objects that must live over the same group do not."""


class ResourceLimitError(RuntimeError):
    """A ball/enumeration/matrix cap was exceeded.  Carries the cap used."""

    def __init__(self, message, cap=None):
        super().__init__(message)
        self.cap = cap


class NotACycleError(ValueError):
    """A chain handed to a cycle-only operation has nonzero boundary."""
