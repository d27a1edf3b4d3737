"""``python -m hilbworst``: the command-line interface of ``hilbworst.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
