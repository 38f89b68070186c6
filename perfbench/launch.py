"""Start commands one at a time and report each one's times and peak memory.

Reads one JSON request per line on stdin, {"argv": [...], "log": PATH,
"timeout": SECONDS}, runs argv with stdout and stderr sent to PATH, and
answers with one JSON line: {"start", "end", "code", "maxrss_kb"}.  start
and end are time.perf_counter() readings just before the spawn and just
after wait4 returns; maxrss_kb is the command's peak resident set from
wait4.  A command still running after its timeout is killed.

This helper imports nothing heavy on purpose.  On Linux a child's ru_maxrss
also counts the memory of the process that spawned it, so the commands are
spawned from here rather than from the benchmark, whose own resident set is
larger than a small command's.
"""

import json
import os
import signal
import sys
import time


def run(argv: list[str], log: str, timeout: int) -> dict:
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, fd, 1),
        (os.POSIX_SPAWN_DUP2, fd, 2),
    ]
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finally:
        os.close(fd)

    def kill(*_):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.alarm(timeout)
    _, status, usage = os.wait4(pid, 0)
    end = time.perf_counter()
    signal.alarm(0)
    return {
        "start": start,
        "end": end,
        "code": os.waitstatus_to_exitcode(status),
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in iter(sys.stdin.readline, ""):
        print(json.dumps(run(**json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
