"""The benchmark workloads: inputs made from a seed, one instance run
through the engine's public calls, and the correctness gate for it.

Each workload offers
  parse(mods)          -> list of inputs, parsed and validated (set-up)
  run(mods, item)      -> the instance's output
  check(item, out)     -> None when the output is correct, else the reason
  cover(item, out, c)  -> adds the instance's input properties to c
where `mods` is the namespace that `import_engine` returns.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import re
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = SRC / "curvedchern" / "corpus"
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# random-batch draws `verify --random BATCH --seed S` with S = seed mod
# RANDOM_SEED_SPAN, so every instance seed has a recorded reference digest.
# A batch of 1000 is about 9 s of work at reference speed, enough that one
# pass gives a steady total.
RANDOM_BATCH = 1000
RANDOM_SEED_SPAN = 1000

# x^a+y^b+z^c (Brieskorn-Pham, checked against (a-1)(b-1)(c-1)) and
# mixed-term polynomials whose S-pairs do real reduction work (checked
# against Milnor numbers recorded from the engine)
MILNOR_POLYS = (
    "x^2+y^3+z^5",
    "x^3+y^4+z^5",
    "x^4+y^5+z^6",
    "x^5+y^5+z^5",
    "x^5+y^6+z^7",
    "x^6+y^7+z^8",
    "x^3*y+y^3*z+z^3*x",
    "x^3+y^4+z^5+x*y^2*z",
    "x^4+y^4+z^4+x^2*y*z",
    "x^6+y^6+z^7+x^2*y^2*z^2",
    "x^3+y^4+z^6+x*y*z^2",
    "x^6+y^6+z^6+x^2*y^2*z^2",
    "x^4+y^4+z^4+x^2*y^2*z^2",
    "x^4+y^5+z^7+x^2*y*z^2",
    "x^4+y^5+z^6+x^2*y^2*z^2",
    "x^5+y^5+z^5+x^2*y^2*z^2",
    "x^4+y^6+z^7+x^2*y^2*z^2",
    "x^5+y^6+z^7+x^2*y^2*z^2",
)
MILNOR_VARS = ("x", "y", "z")
_BRIESKORN_PHAM = re.compile(r"x\^(\d+)\+y\^(\d+)\+z\^(\d+)")
_MILNOR_LINE = re.compile(r"^milnor number: (\d+)$", re.M)


def import_engine():
    """Import curvedchern afresh from this checkout's src/.

    Any copy already loaded is dropped first, so the import is paid again
    and every module object is new.  Raises ImportError when src/ does not
    hold the engine, rather than falling back to an installed copy.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n.split(".")[0] == "curvedchern"]:
        del sys.modules[name]
    cli = importlib.import_module("curvedchern.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"curvedchern was not loaded from {SRC}")
    return SimpleNamespace(
        cli=cli,
        randomgen=sys.modules["curvedchern.randomgen"],
        rings=sys.modules["curvedchern.rings"],
    )


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def series_digest(coeffs: dict) -> str:
    """Digest of a Chern character given as {"u^J": str(coefficient)}."""
    text = json.dumps(coeffs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def useries_digest(p) -> str:
    return series_digest({f"u^{J}": str(c) for J, c in p.coeffs.items()})


def brieskorn_pham_mu(poly: str) -> int | None:
    m = _BRIESKORN_PHAM.fullmatch(poly)
    if m is None:
        return None
    a, b, c = (int(g) for g in m.groups())
    return (a - 1) * (b - 1) * (c - 1)


class ComputeFile:
    """One corpus problem file through `compute --json`: parse_instance,
    run_suite and render_json, as the CLI calls them."""

    def __init__(self, name: str, filename: str, reference: dict):
        self.label = f"examples:{name}"
        self.filename = filename
        self.expected = reference["compute"][filename]
        self.last_doc = None

    def parse(self, mods) -> list:
        text = (CORPUS / self.filename).read_text(encoding="utf-8")
        return [mods.cli.parse_instance(text, self.label)]

    def run(self, mods, inst) -> dict:
        cli = mods.cli
        res = cli.run_suite(
            inst.module,
            inst.connection,
            bound=inst.options.get("bound"),
            milnor=bool(inst.options.get("milnor")),
        )
        self.last_doc = json.loads(cli.render_json(inst, res))
        return self.last_doc

    def check(self, inst, doc: dict) -> str | None:
        if not doc["route_agreement"]:
            return "routes disagree"
        for key in ("cycle_check", "commutator_check"):
            if not doc[key]["ok"]:
                return f"{key} failed: {doc[key]['detail']}"
        for key in ("chern_weil", "chern_chains"):
            got = series_digest(doc[key])
            if got != self.expected:
                return f"{key} digest {got} differs from reference {self.expected}"
        return None

    def cover(self, inst, doc: dict, cov: Counter) -> None:
        cov["u_powers " + ",".join(sorted(doc["chern_weil"]))] += 1


class RandomBatch:
    """The instances `verify --random N --seed S` runs, one by one."""

    def __init__(self, seed: int, reference: dict, size: int = RANDOM_BATCH):
        self.first = seed % RANDOM_SEED_SPAN
        self.size = size
        self.digests = reference["random"]

    def parse(self, mods) -> list:
        return list(range(self.first, self.first + self.size))

    def run(self, mods, s: int) -> dict:
        M, C = mods.randomgen.random_module_instance(s)
        res = mods.cli.run_suite(M, C)
        return {
            "ok": res.ok,
            "digest": useries_digest(res.ch_weil),
            "nonzero": not res.ch_weil.is_zero(),
            "nvars": M.ring.nvars,
            "rank": len(M.degrees),
            "u_powers": ",".join(str(J) for J in res.ch_weil.u_powers()) or "-",
        }

    def check(self, s: int, out: dict) -> str | None:
        if not out["ok"]:
            return f"seed {s}: suite verdict not ok"
        if out["digest"] != self.digests[s]:
            return f"seed {s}: ch_weil digest {out['digest']} != {self.digests[s]}"
        return None

    def cover(self, s: int, out: dict, cov: Counter) -> None:
        cov["nonzero_ch"] += out["nonzero"]
        cov[f"rank {out['rank']}"] += 1
        cov[f"nvars {out['nvars']}"] += 1
        cov[f"u_powers {out['u_powers']}"] += 1


class MilnorBatch:
    """Three-variable polynomials through the `milnor` subcommand, in an
    order shuffled by the seed."""

    def __init__(self, seed: int, reference: dict, polys=MILNOR_POLYS):
        self.order = list(polys)
        random.Random(f"milnor-batch:{seed}").shuffle(self.order)
        self.recorded = reference["milnor"]

    def parse(self, mods) -> list:
        ring = mods.rings.GradedRing(MILNOR_VARS, (0,) * len(MILNOR_VARS), grading="Z2")
        for poly in self.order:
            ring.from_string(poly)
        return list(self.order)

    def run(self, mods, poly: str) -> dict:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = mods.cli.main(["milnor", poly, "--vars", ",".join(MILNOR_VARS)])
        found = _MILNOR_LINE.search(buf.getvalue())
        return {"rc": rc, "mu": int(found.group(1)) if found else None}

    def check(self, poly: str, out: dict) -> str | None:
        if out["rc"] != 0:
            return f"{poly}: exit code {out['rc']}"
        want = brieskorn_pham_mu(poly)
        if want is None:
            want = self.recorded[poly]
        if out["mu"] != want:
            return f"{poly}: milnor number {out['mu']} != {want}"
        return None

    def cover(self, poly: str, out: dict, cov: Counter) -> None:
        kind = "brieskorn_pham" if brieskorn_pham_mu(poly) is not None else "mixed"
        cov[kind] += 1
        cov["mu_total"] += out["mu"]


def make(name: str, seed: int):
    """The full-size workload called `name`, with inputs from `seed`."""
    reference = load_reference()
    if name == "s4-nonflat":
        return ComputeFile(name, "s4_nonflat.json", reference)
    if name == "random-batch":
        return RandomBatch(seed, reference)
    if name == "milnor-batch":
        return MilnorBatch(seed, reference)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("s4-nonflat", "random-batch", "milnor-batch")
