"""Run one program as a child, then record its wall time, exit status and
peak RSS.

    python3 perfbench/launch.py RESULT_PATH PROGRAM ARG...

On Linux a process's peak RSS (ru_maxrss) starts at the resident size of
whatever spawned it, because the high-water mark of the address space it
replaced at exec is kept.  Children spawned straight from the benchmark
would all read at least the benchmark's own size.  This launcher is a fresh,
small interpreter, smaller than any subclose command, so a child's peak RSS
is its own.  The child inherits stdin, stdout and stderr.
"""

import os
import sys
import time

result_path, program, *args = sys.argv[1:]
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execv(program, [program, *args])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
seconds = time.perf_counter() - t0
with open(result_path, "w", encoding="utf-8") as fh:
    fh.write(f"{seconds!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n")
