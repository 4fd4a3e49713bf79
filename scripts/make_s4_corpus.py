"""Build the s4_nonflat corpus file from its defining matrices.

The module is the image of the rank-2 idempotent e on the 4-sphere's
coordinate ring (quaternionic projection), twisted by an odd map built
from a clutching change of basis: with T·U = U·T = (1-x1)·id and the
commuting pair alpha, beta (alpha·beta = (x2x3+x4x5)·id), the
differential has blocks

    upper-right = e · (T beta C U) · (1-e)
    lower-left  = (1-e) · (T C alpha U) · e

on ambient degrees (0,0,0,0,1,1,1,1) with presentation diag(e, 1-e).
The script verifies the inputs (idempotency, T·U), realizes the square
of the differential as a ring multiple of the presentation, and writes
the corpus JSON with the curvature that makes delta^2 = -h·e exact.

Run from the repository root:  python3 scripts/make_s4_corpus.py [--out PATH]
(PATH defaults to the corpus file, src/curvedchern/corpus/s4_nonflat.json).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from curvedchern.rings import GradedRing

NAMES = ("x1", "x2", "x3", "x4", "x5")
RING = GradedRing(NAMES, (0,) * 5, grading="Z2", relation="x1^2+x2^2+x3^2+x4^2+x5^2-1")

E_ROWS = [
    ["1/2*(1-x1)", "1/2*(-x2-i*x3)", "1/2*(x4+i*x5)", "0"],
    ["1/2*(-x2+i*x3)", "1/2*(1+x1)", "0", "1/2*(x4+i*x5)"],
    ["1/2*(x4-i*x5)", "0", "1/2*(1+x1)", "1/2*(x2+i*x3)"],
    ["0", "1/2*(x4-i*x5)", "1/2*(x2-i*x3)", "1/2*(1-x1)"],
]
U_ROWS = [
    ["1/2*(1-x1)", "1/2*(-x2-i*x3)", "1/2*(x4+i*x5)", "0"],
    ["0", "1/2*(x4-i*x5)", "1/2*(x2-i*x3)", "1/2*(1-x1)"],
    ["1/2*(x2-i*x3)", "1/2*(1-x1)", "0", "1/2*(-x4-i*x5)"],
    ["1/2*(-x4+i*x5)", "0", "1/2*(1-x1)", "1/2*(-x2-i*x3)"],
]
T_ROWS = [
    ["1-x1", "0", "x2+i*x3", "-x4-i*x5"],
    ["-x2+i*x3", "x4+i*x5", "1-x1", "0"],
    ["x4-i*x5", "x2+i*x3", "0", "1-x1"],
    ["0", "1-x1", "-x4+i*x5", "-x2+i*x3"],
]
C_ROWS = [
    ["0", "0", "1", "0"],
    ["0", "0", "0", "1"],
    ["1", "0", "0", "0"],
    ["0", "1", "0", "0"],
]
ALPHA_ROWS = [
    ["x2", "-x4", "0", "0"],
    ["x5", "x3", "0", "0"],
    ["0", "0", "x2", "-x4"],
    ["0", "0", "x5", "x3"],
]
BETA_ROWS = [
    ["x3", "x4", "0", "0"],
    ["-x5", "x2", "0", "0"],
    ["0", "0", "x3", "x4"],
    ["0", "0", "-x5", "x2"],
]


def mk(rows):
    return [[RING.from_string(v) for v in row] for row in rows]


def mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [
        [sum((A[r][j] * B[j][c] for j in range(k)), RING.zero()) for c in range(m)]
        for r in range(n)
    ]


def sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def scal(p, A):
    return [[p * v for v in row] for row in A]


def ident(n):
    return [
        [RING.one() if r == c else RING.zero() for c in range(n)] for r in range(n)
    ]


def is_zero(A):
    return all(v.is_zero() for row in A for v in row)


def main():
    parser = argparse.ArgumentParser(description="Write the s4_nonflat corpus file.")
    corpus = ROOT / "src" / "curvedchern" / "corpus" / "s4_nonflat.json"
    parser.add_argument("--out", type=pathlib.Path, default=corpus, help="output file (default: the corpus file)")
    out = parser.parse_args().out
    e, U, T, C = mk(E_ROWS), mk(U_ROWS), mk(T_ROWS), mk(C_ROWS)
    alpha, beta = mk(ALPHA_ROWS), mk(BETA_ROWS)
    one4 = ident(4)
    ce = sub(one4, e)

    assert is_zero(sub(mul(e, e), e)), "e is not idempotent"
    lam = RING.from_string("1-x1")
    assert is_zero(sub(mul(T, U), scal(lam, one4))), "T·U != (1-x1)·id"
    assert is_zero(sub(mul(U, T), scal(lam, one4))), "U·T != (1-x1)·id"
    ab = mul(alpha, beta)
    q = RING.from_string("x2*x3+x4*x5")
    assert is_zero(sub(ab, scal(q, one4))), "alpha·beta != (x2x3+x4x5)·id"

    ur = mul(e, mul(mul(T, mul(beta, C)), mul(U, ce)))
    ll = mul(ce, mul(mul(T, mul(C, alpha)), mul(U, e)))

    # square of the block-off-diagonal differential
    sq_top = mul(ur, ll)
    sq_bot = mul(ll, ur)
    for name, blk, idem in (("upper", sq_top, e), ("lower", sq_bot, ce)):
        for cand in ("(1-x1)^2*(x2*x3+x4*x5)", "(1-x1^2)*(x2*x3+x4*x5)"):
            lam = RING.from_string(cand)
            if is_zero(sub(blk, scal(lam, idem))):
                print(f"{name} block: delta^2 = {cand} · presentation")
                break
        else:
            print(f"{name} block: square is NOT a recognized multiple; dump:")
            for row in blk:
                print("  ", [str(v) for v in row])
            raise SystemExit(1)

    lam = RING.from_string("(1-x1)^2*(x2*x3+x4*x5)")
    if is_zero(sub(sq_top, scal(lam, e))) and is_zero(sub(sq_bot, scal(lam, ce))):
        h_str = "(1-x1)^2*(-x2*x3-x4*x5)"
    else:
        lam = RING.from_string("(1-x1^2)*(x2*x3+x4*x5)")
        h_str = "(1-x1^2)*(-x2*x3-x4*x5)"
    assert (RING.from_string(h_str) + lam).is_zero(), "h string does not negate lambda"

    # stored rows are the images of basis vectors; rows 0-3 carry the
    # odd components (columns 4-7), rows 4-7 the even ones
    delta_rows = []
    for r in range(4):
        delta_rows.append(["0"] * 4 + [str(v) for v in ur[r]])
    for r in range(4):
        delta_rows.append([str(v) for v in ll[r]] + ["0"] * 4)

    idem_rows = []
    for r in range(4):
        idem_rows.append([str(v) for v in e[r]] + ["0"] * 4)
    for r in range(4):
        idem_rows.append(["0"] * 4 + [str(v) for v in ce[r]])

    spec = {
        "ring": {
            "grading": "Z2",
            "variables": list(NAMES),
            "degrees": [0, 0, 0, 0, 0],
            "relation": "x1^2+x2^2+x3^2+x4^2+x5^2-1",
        },
        "curved": {"h": h_str},
        "module": {
            "degrees": [0, 0, 0, 0, 1, 1, 1, 1],
            "idempotent": idem_rows,
            "delta": delta_rows,
        },
        "connection": {"kind": "levi-civita"},
    }
    header = (
        "# Rank-2 image of the quaternionic idempotent on the 4-sphere,\n"
        "# twisted by the clutching data alpha, beta: a curved module whose\n"
        "# connection is genuinely nonflat.  Generated by\n"
        "# scripts/make_s4_corpus.py; do not edit by hand.\n"
    )
    out.write_text(header + json.dumps(spec, indent=2) + "\n")
    print(f"wrote {out}")
    print(f"curvature h = {spec['curved']['h']}")


if __name__ == "__main__":
    main()
