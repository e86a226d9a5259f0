"""Input errors and defaults that the command line needs before any engine runs.

This module imports nothing, so ``cli`` can catch every input error and
build its argument parser without executing an engine module.
"""

# The largest monodromy group named or enumerated unless --max-group-order says otherwise.
DEFAULT_MAX_GROUP_ORDER = 5000

# Cells a group element costs beyond its images.  A cell is one 8-byte reference, as each image
# in the element's tuple is; the tuple's header and the element's dict and list slots in the
# closure take about 15 more, and the rest is margin.
ELEMENT_OVERHEAD = 100

# The most cells (elements x (sheets + ELEMENT_OVERHEAD)) a group closure may hold, whatever
# --max-group-order says.  Every group the default bound admits fits, since none has more
# sheets than elements; at 8 bytes a cell the budget is about 204 MB.
MAX_GROUP_CELLS = DEFAULT_MAX_GROUP_ORDER * (DEFAULT_MAX_GROUP_ORDER + ELEMENT_OVERHEAD)


class InputError(Exception):
    """Input a subcommand refuses; the command line prints ``prefix: message`` and exits 2."""

    prefix = "error"
