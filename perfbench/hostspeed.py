"""The host's speed while a run is timed, from a fixed loop.

Run as its own small process beside the timed phase: every
``interval`` seconds it runs one fixed pure-Python loop and records
the loop's CPU time (``thread_time``, which leaves out time the
hypervisor stole).  When its standard input closes it prints the
samples, in ms, as one JSON list and exits.

A loop that needs more CPU time than usual means the host runs this
machine's code slower right now, and the program under test slows
down with it: on a 2-vCPU VM, scaling each run's CPU time per query
by the loop's median cut its spread over ten runs of each workload
from 11-23% to 5-17% of the median.
"""

import json
import select
import sys
import time

#: Iterations of the fixed loop.
LOOP = 20_000
#: The loop's CPU time (ms) at the reference speed: a run reports its
#: CPU time per query scaled by REFERENCE_MS / (the loop's median).
REFERENCE_MS = 2.0


def loop_ms(clock=time.thread_time_ns):
    """Milliseconds of ``clock`` (a ``*_ns`` clock) the loop takes."""
    start = clock()
    total = 0
    for value in range(LOOP):
        total += value * value % 7
    return (clock() - start) / 1e6


def main():
    interval = float(sys.argv[1])
    samples = []
    while True:
        samples.append(loop_ms())
        ready, _w, _x = select.select([sys.stdin], [], [], interval)
        if ready:
            break
    print(json.dumps(samples), flush=True)


if __name__ == "__main__":
    main()
