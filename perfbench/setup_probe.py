"""Time the set-up a fresh ``surf`` process pays.

Usage: python3 perfbench/setup_probe.py SRC_DIR OUT_DIR

Imports ``levelsurf`` from SRC_DIR, then makes one tiny call of each
subcommand with its outputs under OUT_DIR, and prints the seconds this
took as its last line.  Exits 1 if a call does not exit 0.
"""

import contextlib
import io
import os
import sys
import time

from workloads import WARMUP_CALLS

t0 = time.perf_counter()
src, out = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
from levelsurf import cli  # noqa: E402  (the import is what is timed)

for i, argv in enumerate(WARMUP_CALLS):
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        rc = cli.main(argv + ["--out", os.path.join(out, str(i))])
    if rc != 0:
        sys.exit(f"setup call {argv} exited {rc}:\n{log.getvalue()}")
print(time.perf_counter() - t0)
