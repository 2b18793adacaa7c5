"""``python -m bchkit``: the command line of :mod:`bchkit.cli`."""

import sys

from .cli import main

sys.exit(main())
