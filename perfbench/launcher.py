"""Start commands one at a time and report each one's wall time and peak RSS.

    python3 perfbench/launcher.py LOG

Reads one JSON list (a command) per line on stdin, runs it to completion with
stdout and stderr appended to LOG, and answers with one JSON line
``{"wall": seconds from launch to exit, "rss_mb": peak RSS, "code": exit}``.

``run.py`` starts its commands through this process because Linux folds the
peak RSS of the forking process into the child's ``ru_maxrss``: launched
straight from ``run.py``, which holds numpy, networkx and the reference
graphs, a small child would report ``run.py``'s memory instead of its own.
This process imports only the standard library and stays small.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 150.0


def main(log_path) -> int:
    with open(log_path, "a") as log:
        for line in sys.stdin:
            start = time.perf_counter()
            proc = subprocess.Popen(json.loads(line), stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=log)
            killer = threading.Timer(TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            print(json.dumps({"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                              "code": proc.returncode}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
