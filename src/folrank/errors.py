"""Shared exception types."""


class FolrankError(Exception):
    """Base class for all folrank errors."""


class InputError(FolrankError):
    """Malformed input: bad JSON, mismatched group specs, invalid arguments."""


class BudgetExceededError(FolrankError):
    """A configured resource budget was exceeded (window elements, growth steps)."""


class UnsupportedGroupError(FolrankError):
    """The operation is not defined for this group family."""


def check_keys(where: str, obj: dict, known) -> None:
    """Reject an input object with a key that is not in `known`."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise InputError(f"{where}: unknown keys {unknown}, expected some of {sorted(known)}")


def is_int(value) -> bool:
    """Whether a parsed JSON value is an integer.  JSON's true and false
    parse to Python bools, which are ints too, and are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)
