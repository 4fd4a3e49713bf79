"""Short self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json names the workloads and metrics run.py
reports, runs each workload once at reduced size (untraced and traced),
validates the schema of each result line, and shows that a deliberately
corrupted output is counted as failed.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import sys

import run
import workloads

BENCHMARK = workloads.ROOT / "BENCHMARK.json"


def small(name: str, reference: dict):
    """The workload called `name` at reduced size."""
    if name == "s4-nonflat":
        return workloads.ComputeFile(name, "mf_xy.json", reference)
    if name == "random-batch":
        return workloads.RandomBatch(0, reference, size=10)
    polys = ("x^2+y^3+z^5", "x^3+y^4+z^5", "x^3*y+y^3*z+z^3*x", "x^3+y^4+z^5+x*y^2*z")
    return workloads.MilnorBatch(0, reference, polys=polys)


# one corrupted output per workload, applied to the first instance
CORRUPT = {
    "s4-nonflat": lambda doc: {**doc, "chern_weil": {**doc["chern_weil"], "u^0": "0"}},
    "random-batch": lambda out: {**out, "digest": "0" * 16},
    "milnor-batch": lambda out: {**out, "mu": out["mu"] + 1},
}


def schema_errors(line: str, units: dict) -> list[str]:
    doc = json.loads(line)
    errors = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(doc)}")
    if not isinstance(doc["correct"], bool):
        errors.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or doc[key] < (1 if key == "attempted" else 0):
            errors.append(f"{key} = {doc[key]!r}")
    if set(doc["metrics"]) != set(units):
        errors.append(f"metrics {sorted(set(doc['metrics']) ^ set(units))} differ")
    for name, m in doc["metrics"].items():
        value = m.get("value")
        if set(m) != {"value", "unit"} or m["unit"] != units.get(name):
            errors.append(f"metric {name}: {m}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"metric {name}: value {value!r}")
    return errors


def main() -> int:
    errors: list[str] = []
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if tuple(w["name"] for w in spec["workloads"]) != workloads.WORKLOADS:
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if e2e != run.END_TO_END:
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if layers != run.PER_LAYER:
        errors.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    reference = workloads.load_reference()
    for name in workloads.WORKLOADS:
        for traced, units in ((False, e2e), (True, layers)):
            result = run.run(small(name, reference), 0, traced)
            line = json.dumps(run.summary(result))
            errors += [f"{name} trace={int(traced)}: {e}" for e in schema_errors(line, units)]
            if result["failed"]:
                errors.append(f"{name} trace={int(traced)}: failures {result['failures']}")
        bad = run.run(small(name, reference), 0, False, tamper=CORRUPT[name])
        summary = run.summary(bad)
        if summary["correct"] or bad["failed"] != 1 or bad["notes"]["failed_frac"] <= 0:
            errors.append(f"{name}: corrupted output not counted as failed")
        print(f"{name}: ok at reduced size; corrupted output gives failed_frac "
              f"{bad['notes']['failed_frac']:.3f} ({bad['failures'][:1]})")
    for e in errors:
        print(f"selfcheck: {e}", file=sys.stderr)
    print("selfcheck: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
