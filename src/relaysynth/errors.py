"""The one base class of the errors the library raises on purpose."""


class RelaysynthError(Exception):
    """A library error.  ``exit_code`` is what the command line returns for
    it: 1 for a bad input or a size cap, 2 for a broken guarantee."""

    exit_code = 2
