"""``python -m memlogic``: the same command line as the ``memlogic`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
