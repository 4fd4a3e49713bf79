"""A/B timing of two checkouts of the engine in one process.

Imports `curvedchern` afresh from PARENT_DIR/src and from CHANGE_DIR/src,
keeping both copies loaded side by side, then times alternating passes of
the same work on each: every random instance of seeds 0 to SEEDS - 1
(random_module_instance and run_suite, as `verify --random` runs them),
and the s4 corpus file (parse_instance and run_suite, with `cli._forks`
refused, so the whole suite runs in this process).  A pass is timed in
process time; the order of the two sides flips every round.  The Chern-Weil
strings of the two sides must be identical, seed by seed and on s4, or
the script exits 1 before timing anything.  For each workload it prints
each side's minimum and median pass, and in how many rounds the change
was faster.

Run from anywhere:  python3 scripts/ab.py PARENT_DIR CHANGE_DIR [--rounds N] [--seeds N]
"""

from __future__ import annotations

import argparse
import gc
import importlib
import statistics
import sys
import time
from pathlib import Path

S4 = Path("src") / "curvedchern" / "corpus" / "s4_nonflat.json"


def load(tree: Path):
    """The cli and randomgen modules of tree/src, imported afresh; no copy
    of curvedchern is left in sys.modules, so the next tree imports its
    own."""
    src = str(tree / "src")
    for name in [n for n in sys.modules if n.split(".")[0] == "curvedchern"]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        cli = importlib.import_module("curvedchern.cli")
        randomgen = importlib.import_module("curvedchern.randomgen")
    finally:
        sys.path.remove(src)
        for name in [n for n in sys.modules if n.split(".")[0] == "curvedchern"]:
            del sys.modules[name]
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"ab: curvedchern was not loaded from {src}")
    cli._forks = lambda *mats: False  # the whole suite in this process
    return cli, randomgen


def random_pass(mods, seeds: int) -> list[str]:
    cli, randomgen = mods
    return [str(cli.run_suite(*randomgen.random_module_instance(s)).ch_weil) for s in range(seeds)]


def s4_pass(mods, text: str) -> list[str]:
    cli, _ = mods
    inst = cli.parse_instance(text, "s4-nonflat")
    return [str(cli.run_suite(inst.module, inst.connection, **inst.options).ch_weil)]


def timed(run) -> float:
    gc.collect()
    t0 = time.process_time()
    run()
    return time.process_time() - t0


def report(label: str, parent: list[float], change: list[float]) -> str:
    wins = sum(c < p for p, c in zip(parent, change))
    return (
        f"{label}: parent min {min(parent):.4f} s median {statistics.median(parent):.4f} s, "
        f"change min {min(change):.4f} s median {statistics.median(change):.4f} s, "
        f"change faster in {wins} of {len(parent)} rounds"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--rounds", type=int, default=20, help="timed rounds per workload")
    parser.add_argument("--seeds", type=int, default=1000, help="random seeds 0 to N - 1 a pass")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.seeds < 1:
        parser.error("--rounds and --seeds must be positive")
    sides = [load(args.parent.resolve()), load(args.change.resolve())]
    texts = [(tree.resolve() / S4).read_text(encoding="utf-8") for tree in (args.parent, args.change)]
    workloads = [
        (f"random seeds 0-{args.seeds - 1}", [lambda m=m: random_pass(m, args.seeds) for m in sides]),
        ("s4-nonflat", [lambda m=m, t=t: s4_pass(m, t) for m, t in zip(sides, texts)]),
    ]
    for label, (parent, change) in workloads:
        differ = [i for i, (a, b) in enumerate(zip(parent(), change())) if a != b]
        if differ:
            print(f"ab: {label}: the Chern-Weil strings differ, first at instance {differ[0]}", file=sys.stderr)
            return 1
    for label, runs in workloads:
        times: list[list[float]] = [[], []]
        for r in range(args.rounds):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                times[side].append(timed(runs[side]))
        print(report(label, *times), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
