"""Run one command; print its wall time, CPU time, peak RSS and exit code as JSON.

    python3 -S perfbench/launch.py CMD [ARG ...]

The command's standard output is discarded and its standard error passes
through. Linux carries a process's peak-RSS mark across exec, so a command
started straight from the benchmark would report at least the benchmark's own
peak. Started from this small process instead, the peak os.wait4 reports is
the command's own.
"""

import json
import os
import sys
import time


def main():
    cmd = sys.argv[1:]
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    print(json.dumps({"wall": wall, "cpu": ru.ru_utime + ru.ru_stime, "rss_mb": ru.ru_maxrss / 1024.0,
                      "code": os.waitstatus_to_exitcode(status)}))


if __name__ == "__main__":
    main()
