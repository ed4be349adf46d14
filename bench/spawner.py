"""Start one request at a time and report its wall time and rusage.

Runs as a small separate process, ``python3 -S bench/spawner.py``, that reads
one JSON request per line from stdin and answers one JSON line per request.
On exec a child's max RSS starts from the resident size of the process that
spawned it, so children are spawned from here, where that size is a few MB,
and not from the benchmark process, whose size grows with the outputs it
keeps.

Before and after each request the spawner times a fixed calibration
computation; the mean of the two is the request's ``cal_s``.  The speed of a
shared host drifts by a factor of up to 1.5 over seconds to minutes, and
wall and CPU time drift with it; the benchmark scales each request's times
by its own ``cal_s``, which drifts alike.

Request: {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}
Answer:  {"exit": code, "wall_s": s, "cpu_s": s, "maxrss_kb": kb, "cal_s": s}
"""

import json
import os
import signal
import sys
import time
from fractions import Fraction

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
# the harmonic sum to 1/2999 in Fractions: big-integer gcds and Python-level
# arithmetic, like the program's, in about 15 ms on a 2.1 GHz Xeon
CAL_TERMS = 3000


def calibrate() -> float:
    """Seconds one run of the calibration computation takes."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, CAL_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - start


def _kill(pid: int):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # it ended just as the alarm fired
        pass


def run(request: dict) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], FLAGS, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], FLAGS, 0o644),
    ]
    argv = request["argv"]
    cal_before = calibrate()
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    # past the timeout the alarm handler kills the child, and wait4 reaps it
    signal.signal(signal.SIGALRM, lambda *_: _kill(pid))
    signal.setitimer(signal.ITIMER_REAL, max(request["timeout"], 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    cal_after = calibrate()
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "cal_s": (cal_before + cal_after) / 2,
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
