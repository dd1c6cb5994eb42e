"""`python -m nocgf`: the command-line interface (see nocgf.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
