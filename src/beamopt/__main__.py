"""`python -m beamopt`: the command line of beamopt.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
