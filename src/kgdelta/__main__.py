import gc
import sys

from .cli import main


def run() -> int:
    """Process entry point of the ``kgdelta`` command, ``python -m kgdelta`` and ``python -m kgdelta.cli``.

    Returns :func:`kgdelta.cli.main`'s exit code.  On every way out, argparse's
    ``SystemExit`` included, it then freezes the collector: the interpreter's
    shutdown would otherwise run collection passes over the ~22k objects that
    numpy and kgdelta made at import, about 30 ms a call.  The freeze comes
    after the work, so it moves neither a run's peak memory nor its
    collections.  Code that calls ``main`` in-process gets no freeze.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
