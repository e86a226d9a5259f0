"""Input errors and defaults that the command line needs before any engine runs.

This module imports nothing, so ``cli`` can catch every input error and
build its argument parser without executing an engine module.
"""

# The largest monodromy group enumerated unless --max-group-order says otherwise.
DEFAULT_MAX_GROUP_ORDER = 5000


class InputError(Exception):
    """Input a subcommand refuses; the command line prints ``prefix: message`` and exits 2."""

    prefix = "error"
