"""``python -m kgdelta``: :func:`kgdelta.cli.run`, which the ``kgdelta`` script runs from here too."""

import sys

from .cli import run

if __name__ == "__main__":
    sys.exit(run())
