"""``python -m bchkit``: the command line of :mod:`bchkit.cli`."""

from .cli import entry_point

entry_point()
