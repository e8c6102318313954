"""End-to-end benchmark of ``repro serve`` (see README.md).

    python3 perfbench/run.py --workload point-pool --seed 1 --seconds 10 --trace 0

Builds the workload's inputs from the seed, computes the direct
reference answers, starts a real ``repro serve`` process from this
checkout's ``src`` tree, drives it with closed-loop ``ServiceClient``
traffic, checks every answer, and prints a report followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run replays the same requests one at a time against a plain and
a traced server and reports the per-layer metrics.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.exit("perfbench: no repro source tree at %s"
                 % os.path.join(ROOT, "src"))
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import bench

    sys.exit(bench.main())
