"""``python -m heatbo``: the same command line as the ``heatbo`` script."""

import sys

from .runner import main

if __name__ == "__main__":
    sys.exit(main())
