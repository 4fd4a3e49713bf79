"""Two-process capacity check: does a second process get a core of its own?

The s4 suite runs in two processes (curvedchern.cli.run_suite), so its
wall time depends on whether the host gives the forked child a core as
fast as the parent's.  On a shared host another tenant may hold the
second core.  This script times a fixed pure-Python loop alone, then
again while one forked sibling spins the same loop, and prints both
times and their ratio, beside / alone: about 1 when the second core is
free, up to about 2 when the two processes share one.  Each time is the
median of RUNS runs, all of which are printed, so that contention that
comes and goes shows.  It forks exactly once; the sibling is killed and
reaped before the script prints, and leaves on its own should this
process die first.

Run from anywhere:  python3 scripts/capacity.py [--loops N]
"""

from __future__ import annotations

import argparse
import os
import signal
import statistics
import sys
import time

RUNS = 5  # timed runs of the loop alone, and again beside the sibling


def spin(loops: int) -> int:
    """The fixed loop: integer arithmetic in the interpreter, no memory
    traffic to speak of."""
    acc = 0
    for k in range(loops):
        acc = (acc + k * k) % 1_000_003
    return acc


def times(loops: int) -> list[float]:
    """The seconds of each of RUNS runs of spin(loops)."""
    out = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        spin(loops)
        out.append(time.perf_counter() - t0)
    return out


def line(label: str, runs: list[float]) -> str:
    return f"{label}: {statistics.median(runs):.4f} s (runs: {' '.join(f'{t:.4f}' for t in runs)})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--loops", type=int, default=2_000_000, help="iterations of the loop")
    args = parser.parse_args(argv)
    if args.loops < 1:
        parser.error("--loops must be positive")
    if not hasattr(os, "fork"):
        print("capacity: this platform cannot fork", file=sys.stderr)
        return 2
    alone = times(args.loops)
    parent = os.getpid()
    pid = os.fork()
    if pid == 0:
        try:
            while os.getppid() == parent:
                spin(10_000)
        finally:
            os._exit(0)
    try:
        beside = times(args.loops)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    print(line("alone", alone))
    print(line("beside a forked sibling", beside))
    print(f"ratio: {statistics.median(beside) / statistics.median(alone):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
