"""Start and reap the benchmark's jobs from a small process.

Usage: python3 -S -E spawner.py CHECKOUT_DIR   (one JSON request per stdin line)

On Linux a child's ru_maxrss starts from the resident size of the process
that spawned it, so jobs spawned by the benchmark itself, which holds
parsed reports, would report its size as theirs.  This process stays a
few MB, below any nasharcs run, so the rusage it reads is the job's own.

A request is {"argv", "env", "stderr", "timeout"}; the reply is one JSON
line with the exit code, wall time from spawn to reaping, CPU times and
peak RSS in KB, and whether the timeout killed the job.
"""
import json
import os
import signal
import sys
import time


def run(req: dict) -> dict:
    out = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_DUP2, out, 2),
    ]
    killed = []

    def on_alarm(signum, frame):
        killed.append(True)
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_alarm)
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"],
                             file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, req["timeout"])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        os.close(out)
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "timed_out": bool(killed),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> int:
    os.chdir(sys.argv[1])
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
