"""Run the ``pcraft`` command as ``python -m pcraft``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
