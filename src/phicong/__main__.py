"""The process entry: ``python -m phicong`` and the installed ``phicong``.

`run` moves every object that interpreter start-up left into the
permanent generation (`gc.freeze`) before it imports `cli`, so the cycle
collections at exit do not walk them; the exit still runs the atexit
handlers and flushes stdio.  Importing this module calls nothing, and
`cli.main`, the in-process entry, never freezes.
"""

import gc
import sys


def run() -> int:
    gc.freeze()
    from .cli import main
    return main()


if __name__ == "__main__":
    sys.exit(run())
