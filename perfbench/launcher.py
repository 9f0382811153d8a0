"""Spawns commands on request and reports each one's wall time, own peak
RSS and exit status.

The benchmark process grows to hundreds of MB while it checks outputs.  On
Linux a child's ``ru_maxrss`` includes the memory image it was forked from,
so children forked from the benchmark would report its size, not their own.
This small process forks them instead; its own image is far smaller than
any ldimkit command, so ``wait4`` gives each command's own peak.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": ..., "stdout": path, "stderr": path, "limit": s}``,
answered by one JSON line ``{"wall": s, "maxrss_kb": n, "status": n}``.
The process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, \
                open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                    stdout=out, stderr=err)
            timer = threading.Timer(request["limit"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"wall": wall, "maxrss_kb": usage.ru_maxrss,
                                     "status": proc.returncode}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
