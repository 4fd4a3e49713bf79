"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Writes perfbench/reference.json from the engine in this checkout: the
Chern character digest of each compute corpus file, the ch_weil digest
of every random instance seed the random-batch workload can reach, and
the Milnor number of each mixed-term polynomial.  Run it only on a
revision whose outputs are trusted; the benchmark then fails any later
revision whose outputs differ.
"""

from __future__ import annotations

import json

import workloads

COMPUTE_FILES = ("s4_nonflat.json", "mf_xy.json")


def main() -> None:
    mods = workloads.import_engine()
    cli = mods.cli
    compute = {}
    for filename in COMPUTE_FILES:
        text = (workloads.CORPUS / filename).read_text(encoding="utf-8")
        inst = cli.parse_instance(text, filename)
        res = cli.run_suite(inst.module, inst.connection,
                            bound=inst.options.get("bound"),
                            milnor=bool(inst.options.get("milnor")))
        if not res.ok:
            raise SystemExit(f"{filename}: suite verdict not ok")
        compute[filename] = workloads.useries_digest(res.ch_weil)
    digests = []
    for s in range(workloads.RANDOM_SEED_SPAN + workloads.RANDOM_BATCH):
        M, C = mods.randomgen.random_module_instance(s)
        res = cli.run_suite(M, C)
        if not res.ok:
            raise SystemExit(f"random instance {s}: suite verdict not ok")
        digests.append(workloads.useries_digest(res.ch_weil))
    milnor = {}
    batch = workloads.MilnorBatch(0, {"milnor": {}})
    for poly in workloads.MILNOR_POLYS:
        if workloads.brieskorn_pham_mu(poly) is None:
            out = batch.run(mods, poly)
            if out["rc"] != 0:
                raise SystemExit(f"{poly}: exit code {out['rc']}")
            milnor[poly] = out["mu"]
    reference = {"compute": compute, "milnor": milnor, "random": digests}
    workloads.REFERENCE_FILE.write_text(
        json.dumps(reference, indent=0) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
