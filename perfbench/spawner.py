"""Starts the benchmark's CLI children from a small process.

On Linux a child's ``ru_maxrss`` includes the resident size of the
process that spawned it, so children started straight from the harness
(which holds parsed inputs) would report the harness's peak, not their
own. This stdlib-only helper stays small and does the spawning.

Protocol, one JSON object per line: the request on stdin is
``{"argv": [...], "env": {...}, "log": path, "timeout": seconds}``; the
literal argument ``{spawn_ns}`` is replaced by the CLOCK_MONOTONIC
reading taken just before the child starts. The reply on stdout is
``{"wall_s", "cpu_s", "maxrss_kb", "code"}``. EOF on stdin ends the helper.
"""

import json
import os
import signal
import sys
import threading
import time


def spawn(argv, env, log, timeout):
    actions = [(os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    argv = [str(start) if a == "{spawn_ns}" else a for a in argv]
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    timer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    return {
        "wall_s": (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - start) / 1e9,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "code": os.waitstatus_to_exitcode(status),
    }


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = spawn(request["argv"], request["env"], request["log"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
