"""Helper process that runs the benchmark's measured children.

Linux charges a child's peak RSS (``ru_maxrss``) with the peak of the process
that spawned it: until ``exec`` the child shares or copies the parent's
memory map.  The benchmark process holds whole generated datasets, so it
starts this helper while it is still small and has the helper spawn every
child it measures.

Protocol: one JSON request per stdin line, ``{"argv", "stdout", "stderr",
"cwd", "env", "timeout"}``; one JSON reply per stdout line, ``{"rc", "wall",
"cpu", "rss_mb"}``.  End of input ends the helper.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                cwd=req["cwd"], env=req["env"])
        killer = threading.Timer(req["timeout"], proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024.0}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
