"""Seeded random instances for the verification suites.

Everything here is deterministic in the seed: the same seed always
yields the same module and connection.  Modules are generated so
that delta^2 = -h·e holds by construction (Koszul-type factorizations,
optionally conjugated by a constant unipotent change of basis and
carrying a connection perturbation); a check_module pass is asserted at
generation time so a failure here is a generator bug, not a fuzz result.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InternalCheckFailure
from .forms import DiffForm, USeries
from .matform import Mat
from .modules import (
    CurvedAlgebra,
    CurvedModule,
    connection_with_mu,
    levi_civita,
)
from .rings import GradedRing, RingElement, _divides, monomial_key
from .scalars import Scalar

_NAMES = ("x", "y", "z")

_COEFFS = (
    Scalar(1),
    Scalar(-1),
    Scalar(2),
    Scalar(Fraction(-1, 2)),
    Scalar(0, 1),  # i
)


def _rand_coeff(rng: random.Random) -> Scalar:
    return rng.choice(_COEFFS)


def random_ring(rng: random.Random, *, max_vars: int = 3, grading: str | None = None) -> GradedRing:
    nvars = rng.randint(1, max_vars)
    if grading is None:
        grading = rng.choice(("Z2", "Z2", "Z"))
    names = _NAMES[:nvars]
    if grading == "Z":
        # give the last variable weight two half the time so that
        # curvatures of Gamma-degree two have something to be made of
        degrees = [0] * nvars
        if rng.random() < 0.5:
            degrees[-1] = 2
    else:
        degrees = [0] * nvars
    return GradedRing(names, degrees, grading=grading)


def _nf_monomials_up_to(ring: GradedRing, bound: int) -> list:
    """Normal-form ring monomials of total degree <= bound, sorted."""
    out = []
    stack = [(0,) * ring.nvars]
    seen = set(stack)
    lead = None if ring.relation is None else ring.relation.leading_term()[0]
    while stack:
        m = stack.pop()
        out.append(m)
        for v in range(ring.nvars):
            if sum(m) < bound:
                nxt = m[:v] + (m[v] + 1,) + m[v + 1 :]
                if nxt not in seen:
                    # skip monomials the relation would rewrite
                    if lead is not None and _divides(lead, nxt):
                        continue
                    seen.add(nxt)
                    stack.append(nxt)
    return sorted(out, key=monomial_key)


# (ring shape, max_deg, gamma) -> the pool _monomials returns; the
# generators draw from a few dozen shapes
_POOLS: dict[tuple, tuple] = {}


def _monomials(ring: GradedRing, max_deg: int, gamma: int | None) -> tuple:
    """Monomial tuples of total degree <= max_deg, optionally filtered to
    an exact Gamma-degree (exact as integers; Z/2 rings pass gamma=None),
    sorted; enumerated once per ring shape, relation included."""
    relation = None if ring.relation is None else ring.relation.key()
    key = (ring.variables, ring.degrees, ring.grading, relation, max_deg, gamma)
    got = _POOLS.get(key)
    if got is None:
        got = _POOLS[key] = tuple(
            m for m in _nf_monomials_up_to(ring, max_deg)
            if gamma is None or ring.monomial_gamma(m) == gamma
        )
    return got


def random_poly(
    rng: random.Random,
    ring: GradedRing,
    *,
    max_deg: int = 2,
    gamma: int | None = None,
    max_terms: int = 2,
    allow_zero: bool = False,
) -> RingElement:
    pool = _monomials(ring, max_deg, gamma)
    if not pool:
        return ring.zero()
    k = rng.randint(0 if allow_zero else 1, max_terms)
    terms = {}
    for m in rng.sample(pool, min(k, len(pool))):
        terms[m] = _rand_coeff(rng)
    return ring.element(terms)


# -- modules -----------------------------------------------------------


def _koszul_rank2(rng: random.Random, ring: GradedRing):
    """delta = [[0, p], [q, 0]] on basis degrees (0, d1): h = -p·q."""
    if ring.grading == "Z":
        d1 = rng.choice((1, -1))
        p = random_poly(rng, ring, gamma=1 - d1)
        q = random_poly(rng, ring, gamma=1 + d1, allow_zero=True)
    else:
        d1 = 1
        p = random_poly(rng, ring)
        q = random_poly(rng, ring)
    delta = Mat.from_stored(ring, (0, d1), [[0, p], [q, 0]])
    return (0, d1), delta, [(p, q)]


def _tensor_delta(ring: GradedRing, A: Mat, B: Mat) -> Mat:
    """Graded tensor of two odd operators: delta(v (x) w) =
    (delta_1 v) (x) w + (-1)^{|v|} v (x) (delta_2 w), each stored entry
    of A and B filed once.  The two blocks meet only on the diagonal,
    where an odd operator of ring elements (all of even degree) is zero."""
    d1, d2 = A.target_degrees, B.target_degrees
    n2 = len(d2)
    degrees = tuple(a + b for a in d1 for b in d2)
    rows: list[dict] = [{} for _ in degrees]
    for i, row in enumerate(A.rows):
        for j, a in row.items():
            for l in range(n2):
                rows[i * n2 + l][j * n2 + l] = a
    for j, dj in enumerate(d1):
        for t, row in enumerate(B.rows):
            for s, b in row.items():
                rows[j * n2 + t][j * n2 + s] = -b if dj % 2 else b
    return Mat._make(ring, degrees, degrees, [{s: row[s] for s in sorted(row)} for row in rows])


def _unipotent(rng: random.Random, ring: GradedRing, degrees) -> Mat:
    """id + N with N a constant strictly-nilpotent degree-0 entry."""
    g = Mat.identity(ring, degrees)
    pairs = [
        (t, s)
        for t in range(len(degrees))
        for s in range(len(degrees))
        if t != s and ring.deg_eq(degrees[t], degrees[s])
    ]
    if not pairs:
        return g
    t, s = rng.choice(pairs)
    n = len(degrees)
    entries = [[0] * n for _ in range(n)]
    entries[t][s] = USeries.from_ring(ring.scalar(_rand_coeff(rng)))
    return g + Mat(ring, degrees, degrees, entries)


def _invert_unipotent(g: Mat) -> Mat:
    """g^{-1} = id - N for g = id + N from _unipotent: N has at most one
    off-diagonal entry, so N^2 = 0."""
    one = Mat.identity(g.ring, g.target_degrees)
    return one - (g - one)


def random_mu(rng: random.Random, ring: GradedRing, degrees) -> Mat:
    """A diagonal operator-degree -1 perturbation: entries are
    (polynomial in the weight-zero variables)·d(x_v)."""
    zero_vars = [v for v, d in enumerate(ring.degrees) if d == 0]
    rows = []
    for d in degrees:
        entry = DiffForm.zero(ring)
        if zero_vars and rng.random() < 0.7:
            v = rng.choice(zero_vars)
            coeff = random_poly(rng, ring, max_deg=1, gamma=0 if ring.grading == "Z" else None)
            entry = DiffForm(ring, {(v,): coeff})
        rows.append(entry)
    z = DiffForm.zero(ring)
    stored = [
        [rows[i] if i == j else z for j in range(len(degrees))]
        for i in range(len(degrees))
    ]
    return Mat.from_stored(ring, degrees, stored)


def random_module_instance(seed: int):
    """A seeded (module, connection) pair with delta^2 = -h·e.

    Mixes gradings, ranks two and four, constant changes of basis and
    connection perturbations; suitable for the route-equivalence and
    identity suites.
    """
    rng = random.Random(f"module:{seed}")
    ring = random_ring(rng)
    degrees, delta, factors = _koszul_rank2(rng, ring)
    if rng.random() < 0.45:
        d2, delta2, factors2 = _koszul_rank2(rng, ring)
        delta = _tensor_delta(ring, delta, delta2)
        degrees = tuple(delta.target_degrees)
        factors = factors + factors2
    h = ring.zero()
    for p, q in factors:
        h = h - p * q
    alg = CurvedAlgebra(ring, h)
    if rng.random() < 0.4:
        g = _unipotent(rng, ring, degrees)
        delta = g @ delta @ _invert_unipotent(g)
    M = CurvedModule(alg, degrees, delta)
    verdict = M.verdict()
    if not verdict.ok:
        raise InternalCheckFailure(
            "random module generator produced an invalid instance: "
            + "; ".join(verdict.failures)
        )
    if rng.random() < 0.5:
        mu = random_mu(rng, ring, degrees)
        C = connection_with_mu(M, mu) if not mu.is_zero() else levi_civita(M)
    else:
        C = levi_civita(M)
    return M, C
