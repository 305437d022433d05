"""Start and reap the benchmark's child processes from a small process.

On Linux, exec records the high-water RSS of the memory image it replaces,
so a child started by the benchmark process, which holds the generated
inputs, would report at least the benchmark's own peak as its max RSS. This
launcher stays small, so each step's max RSS is its own.

Protocol: one JSON request per stdin line, {argv, stdout, stderr, timeout};
one JSON reply per stdout line, {code, wall, utime, stime, minflt, maxrss_kb}.
The launcher exits at end of input; on SIGTERM it kills the running child
first.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

running = []


def stop(*_):
    for proc in running:
        proc.kill()
        proc.wait()
    sys.exit(143)


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
        running.append(proc)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            running.remove(proc)
    return {"code": proc.returncode, "wall": wall, "utime": ru.ru_utime, "stime": ru.ru_stime,
            "minflt": ru.ru_minflt, "maxrss_kb": ru.ru_maxrss}


def main() -> None:
    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
