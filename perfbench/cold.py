"""Cold start: a fresh interpreter runs ``scheme --q 5 --n 1`` to a verified result.

run.py times this whole process from outside.  Exit code 0 means the
output matched its certified reference, 1 that it did not.
"""

import signal
import sys

# SIGALRM's default action ends the process if a run ever hangs.
signal.alarm(120)

import workloads as wl  # noqa: E402

sys.path.insert(0, str(wl.SRC))

from polarcover.cli import main  # noqa: E402

sys.exit(0 if wl.run_instance(main, wl.WARMUP, 0, wl.load_references()).ok else 1)
