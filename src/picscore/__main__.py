"""``python -m picscore`` and the installed ``picscore`` script: one CLI process."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run the command line on ``sys.argv`` and return its exit code.

    The objects made by the imports live until the process exits, so they
    are frozen (``gc.freeze``) before the command runs: neither the
    command's garbage collections nor the one at exit walk them again.
    ``cli.main`` does not freeze, since it also runs inside other programs.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
