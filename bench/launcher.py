"""Runs the benchmark's commands from a small process, one at a time.

The kernel folds the resident-set high-water mark of the process a child
was spawned from into the child's ``ru_maxrss`` when the child execs.  A
child spawned by the benchmark itself would therefore report at least the
benchmark's own peak memory.  This helper is started with ``python -S -E``
before the benchmark builds any data, so its small footprint stays below
that of any interpreter that runs the codec, and the peaks it reports are
the commands' own.

Protocol, one JSON object per line:

- stdin: ``{"argv": [...], "env": {...}, "stdin": path, "stdout": path,
  "stderr": path, "timeout_s": seconds}``
- stdout: ``{"rc": int, "wall_s": float, "maxrss_kb": int, "timed_out": bool}``

``wall_s`` runs from just before the spawn to the reaping of the child.
The helper exits when its stdin closes.
"""

import json
import os
import select
import signal
import sys
import time


def run(req):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, req["stdin"], os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    argv = req["argv"]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, req["env"], file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        timed_out = not poller.poll(req["timeout_s"] * 1000)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall_s = time.perf_counter() - start
    return {
        "rc": os.waitstatus_to_exitcode(status),
        "wall_s": wall_s,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": timed_out,
    }


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
