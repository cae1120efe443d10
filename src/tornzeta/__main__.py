"""``python -m tornzeta``: the same command line as the ``tornzeta`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
