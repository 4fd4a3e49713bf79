"""Benchmark for the curvedchern engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and drives the engine in this one
process, through the public calls its CLI makes.  Workloads (see
workloads.py): s4-nonflat, random-batch, milnor-batch.

--trace 0 sets up (import plus parsing and validating the input), runs
passes over the workload's inputs while another pass fits in S seconds,
at least one pass, then sets up again several times; setup_s is the
median set-up.  Every time it reports is read from speed.SpeedClock,
which samples the host's speed during the run and scales the work to
reference-speed seconds, so that the figures do not follow the shared
host's drift (the raw wall times are printed and recorded beside them).
It prints the end-to-end metrics: wall_s is the median pass,
instances_per_s the verified instances of a pass over its time (median
over passes), instance_p50_s the median over instances of each
instance's median time.

--trace 1 sets up once, runs one pass untraced, then installs the
tracer, parses the inputs again and runs one traced pass, both under the
same clock.  It prints the per-layer metrics of the traced pass, its span
times scaled to reference-speed seconds by the pass's mean host speed;
trace.overhead_s is its wall time minus the untraced pass's.

Every instance's output is checked; an instance fails if it raises, exits
nonzero, gets a verdict other than ok, or differs from the reference in
reference.json.  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record, stamped with the
source revision, Python version, CPU count and seed, goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads
from speed import SpeedClock
from tracer import Tracer

SETUP_REPEATS = 9
RESULTS = Path(__file__).with_name("results")

# name -> unit; every --trace 0 run reports all of them
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "instances_per_s": "1/s",
    "instance_p50_s": "s",
    "peak_rss_mb": "MB",
    "verified_frac": "ratio",
}

# per-layer metric stem -> the span it reads (the tracer names spans
# "<module>.<function>" and "<module>.<Class>.<method>")
_SPAN = {
    "rings.mul": "rings.RingElement.__mul__",
    "rings.add": "rings.RingElement.__add__",
    "matform.matmul": "matform.Mat.__matmul__",
    "matform.supertrace_of_product": "matform.supertrace_of_product",
    "matform.parity_components": "matform.Mat.parity_components",
    "forms.wedge": "forms.DiffForm.wedge",
    "forms.useries_mul": "forms.USeries.__mul__",
    "forms.membership": "forms.module_membership",
    "hochschild.pushforward": "hochschild.pushforward",
    "hochschild.tr_nabla": "hochschild.tr_nabla",
    "hochschild.chern_via_chains": "hochschild.chern_via_chains",
    "modules.chern_weil": "modules.chern_weil",
    "modules.check_module": "modules.check_module",
    "modules.curvature": "modules.curvature_mat",
    "modules.cycle_check": "modules.cycle_check",
    "modules.commutator_check": "modules.commutator_check",
    "randomgen.instance": "randomgen.random_module_instance",
    "groebner.buchberger": "groebner.buchberger",
    "cli.parse_instance": "cli.parse_instance",
    "linalg.solve_sparse": "linalg.solve_sparse",
}
# name -> unit; every --trace 1 run reports all of them, zero where the
# workload never reaches the layer
PER_LAYER = {
    "rings.mul.calls": "count",
    "rings.mul.self_s": "s",
    "rings.mul.term_pairs": "count",
    "rings.mul.quotient_calls": "count",
    "rings.mul.max_terms": "count",
    "rings.add.self_s": "s",
    "scalars.ops": "count",
    "matform.matmul.calls": "count",
    "matform.matmul.self_s": "s",
    "matform.supertrace_of_product.calls": "count",
    "matform.supertrace_of_product.self_s": "s",
    "matform.supertrace_of_product.zero_frac": "ratio",
    "hochschild.pushforward.total_s": "s",
    "hochschild.pushed_chains": "count",
    "hochschild.tr_nabla.total_s": "s",
    "hochschild.chern_via_chains.total_s": "s",
    "modules.chern_weil.total_s": "s",
    "forms.wedge.calls": "count",
    "forms.wedge.self_s": "s",
    "forms.useries_mul.self_s": "s",
    "matform.parity_components.self_s": "s",
    "randomgen.instance.total_s": "s",
    "groebner.buchberger.calls": "count",
    "groebner.buchberger.total_s": "s",
    "groebner.basis_size": "count",
    "cli.parse_instance.total_s": "s",
    "modules.check_module.total_s": "s",
    "modules.curvature.total_s": "s",
    "modules.cycle_check.total_s": "s",
    "modules.commutator_check.total_s": "s",
    "forms.membership.calls": "count",
    "linalg.solve_sparse.calls": "count",
    "trace.overhead_s": "s",
}


def layer_value(tr: Tracer, name: str, overhead_s: float):
    if name == "trace.overhead_s":
        return overhead_s
    if name == "rings.mul.max_terms":
        return tr.max_mul_terms
    if name == "matform.supertrace_of_product.zero_frac":
        calls = tr.calls(_SPAN["matform.supertrace_of_product"])
        zeros = tr.counts["matform.supertrace_of_product.zeros"]
        return zeros / calls if calls else 0.0
    stem, _, kind = name.rpartition(".")
    if stem in _SPAN and kind in ("calls", "self_s", "total_s"):
        return getattr(tr, kind)(_SPAN[stem])
    return tr.counts[name]


# -- set-up and passes ---------------------------------------------------


def set_up(wl):
    """Import the engine and parse the workload's inputs; returns the
    engine namespace, the inputs and the perf_counter stamps around it."""
    t0 = perf_counter()
    mods = workloads.import_engine()
    items = wl.parse(mods)
    return mods, items, (t0, perf_counter())


def wall(a: float, b: float) -> float:
    return b - a


class Pass:
    """One run over a workload's inputs, each output checked.  The
    instances are stamped with perf_counter; `time(span)` turns the stamps
    into durations (wall_s for the pass, times per instance)."""

    def __init__(self, wl, mods, items, tamper=None):
        self.marks: list[tuple[float, float]] = []
        self.failures: list[str] = []
        self.coverage: Counter = Counter()
        self.start = perf_counter()
        for item in items:
            t = perf_counter()
            try:
                out = wl.run(mods, item)
                if tamper is not None:
                    out, tamper = tamper(out), None
                why = wl.check(item, out)
            except Exception as exc:  # an instance that raises counts as failed
                why = f"{item!r:.60}: raised {type(exc).__name__}: {exc}"
            self.marks.append((t, perf_counter()))
            if why is None:
                wl.cover(item, out, self.coverage)
            else:
                self.failures.append(why)
        self.end = perf_counter()
        self.raw_s = self.end - self.start
        self.time(wall)

    def time(self, span) -> "Pass":
        self.times = [span(a, b) for a, b in self.marks]
        self.wall_s = span(self.start, self.end)
        return self


def measure(wl, seconds: float, tamper=None) -> dict:
    start = perf_counter()
    with SpeedClock() as clock:
        mods, items, marks = set_up(wl)
        setups = [marks]
        passes = []
        while True:
            passes.append(Pass(wl, mods, items, tamper))
            tamper = None
            # start no pass that would end past the window, so a workload
            # whose pass fills most of it (s4-nonflat) runs one pass
            if perf_counter() - start + passes[-1].raw_s > seconds:
                break
            items = wl.parse(mods)  # fresh inputs: no caches kept from the last pass
        # read before the extra set-ups, whose imports a user's process never makes
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # the other set-ups come after the passes: each imports the engine
        # anew, and the passes run on the copy a fresh process imports
        for _ in range(SETUP_REPEATS - 1):
            setups.append(set_up(wl)[2])
    setups = [clock.span(a, b) for a, b in setups]
    for p in passes:
        p.time(clock.span)
    per_instance = [statistics.median(ts) for ts in zip(*(p.times for p in passes))]
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setups),
        "instances_per_s": statistics.median(
            (len(p.times) - len(p.failures)) / p.wall_s for p in passes),
        "instance_p50_s": statistics.median(per_instance),
        "peak_rss_mb": peak_rss_mb,
        "verified_frac": (attempted - failed) / attempted,
    }
    notes = {
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_raw_wall_s": [p.raw_s for p in passes],
        "setup_s_all": setups,
        "host_speed": clock.speed(),
        "speed_samples": len(clock.ticks),
        "speed_kernel_s": sum(clock.kernel_times()),
        "instances": attempted,
        "failed_frac": failed / attempted,
    }
    # a tail percentile is reported only with ten samples beyond it
    for pct in (95, 99):
        if len(per_instance) * (100 - pct) / 100 >= 10:
            notes[f"instance_p{pct}_s"] = statistics.quantiles(per_instance, n=100)[pct - 1]
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()},
        "notes": notes,
        "coverage": {"instances": len(passes[0].times), **passes[0].coverage},
        "failures": [f for p in passes for f in p.failures][:20],
    }


def trace(wl, tamper=None) -> dict:
    with SpeedClock() as clock:
        mods, items, _ = set_up(wl)
        plain = Pass(wl, mods, items)
        plain_timing = program_timing(wl)
        tr = Tracer()
        tr.install()
        try:
            items = wl.parse(mods)
            traced = Pass(wl, mods, items, tamper)
        finally:
            tr.remove()
    # the tracer and the program time with perf_counter; a pass's ratio of
    # reference-speed to raw seconds puts their times in reference seconds
    plain_scale = plain.time(clock.span).wall_s / plain.raw_s
    tr.scale = traced.time(clock.span).wall_s / traced.raw_s
    overhead = traced.wall_s - plain.wall_s
    attempted = len(plain.times) + len(traced.times)
    failed = len(plain.failures) + len(traced.failures)
    notes = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
             "untraced_raw_wall_s": plain.raw_s, "traced_raw_wall_s": traced.raw_s,
             "host_speed": clock.speed(), "failed_frac": failed / attempted}
    if plain_timing is not None:
        program = {k: v * plain_scale for k, v in plain_timing.items()}
        notes["timing_split"] = timing_split(program, tr, overhead)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": layer_value(tr, k, overhead), "unit": u}
            for k, u in PER_LAYER.items()
        },
        "notes": notes,
        "coverage": {
            "instances": len(traced.times),
            **traced.coverage,
            **{f"mul operand terms {b}": n for b, n in sorted(tr.mul_sizes.items())},
        },
        "failures": (plain.failures + traced.failures)[:20],
        "spans": tr.table(),
    }


def program_timing(wl) -> dict | None:
    """The `timing` block of a compute workload's last --json output."""
    doc = getattr(wl, "last_doc", None)
    return None if doc is None else doc["timing"]


def timing_split(program: dict, tr: Tracer, overhead_s: float) -> dict:
    """The traced totals of the suite's three stages beside the `timing`
    block the program reported untraced, both in reference seconds; they
    agree when each difference is within the tracing overhead."""
    traced = {
        "chern_weil": tr.total_s("modules.chern_weil"),
        "chern_via_chains": tr.total_s("hochschild.chern_via_chains"),
        "identity_checks": tr.total_s("modules.cycle_check")
        + tr.total_s("modules.commutator_check"),
    }
    return {
        "program_untraced": program,
        "traced": traced,
        "within_overhead": all(
            abs(traced[k] - program[k]) <= overhead_s for k in traced
        ),
    }


# -- stamping and output ---------------------------------------------------


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(workloads.ROOT),
        "src_sha256": source_digest(workloads.SRC / "curvedchern"),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def run(wl, seconds: float, traced: bool, tamper=None) -> dict:
    return trace(wl, tamper) if traced else measure(wl, seconds, tamper)


def summary(result: dict) -> dict:
    """The result line: exactly correct, attempted, failed and metrics."""
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads.import_engine()
    except ImportError as exc:
        print(f"perfbench: cannot import the engine: {exc}", file=sys.stderr)
        return 2
    record = {"stamp": stamp(args)}
    wl = workloads.make(args.workload, args.seed)
    record.update(run(wl, args.seconds, bool(args.trace)))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for key, val in record["stamp"].items():
        print(f"# {key}: {val}")
    for key, val in record["notes"].items():
        print(f"# {key}: {val}")
    for key, val in sorted(record["coverage"].items()):
        print(f"# coverage {key}: {val}")
    for why in record["failures"]:
        print(f"# FAILED {why}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
