from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from curvedchern.cli import instance_to_spec, parse_instance
from curvedchern.modules import check_module, chern_weil
from curvedchern.randomgen import _monomials, _nf_monomials_up_to, random_module_instance
from curvedchern.rings import GradedRing

from chains import random_chain_setup, random_ring_chain


def test_module_instances_are_deterministic_in_seed():
    M1, C1 = random_module_instance(11)
    M2, C2 = random_module_instance(11)
    assert (M1.delta - M2.delta).is_zero()
    assert M1.degrees == M2.degrees
    assert chern_weil(M1, C1) == chern_weil(M2, C2)


@pytest.mark.parametrize("seed", range(8))
def test_module_instances_are_valid(seed):
    M, C = random_module_instance(seed)
    verdict = check_module(M)
    assert verdict.ok, verdict.failures
    assert C.module is M


def test_module_instances_cover_the_knobs():
    # over a modest seed range the generator exercises rank 4, the
    # integer grading and nonflat (perturbed) connections
    ranks, gradings, thetas = set(), set(), set()
    for seed in range(25):
        M, C = random_module_instance(seed)
        ranks.add(len(M.degrees))
        gradings.add(M.ring.grading)
        thetas.add(not C.theta.is_zero())
    assert 4 in ranks and 2 in ranks
    assert gradings == {"Z", "Z2"}
    assert True in thetas and False in thetas


def _chain_text(c) -> list:
    return [
        (str(k), ch.u_exp, ch.degrees, [[[str(v) for v in row] for row in s.display()] for s in ch.slots])
        for k, ch in c.terms()
    ]


def test_chain_setup_deterministic_and_composable():
    drawn = 0
    for seed, dense in [(seed, dense) for seed in range(5) for dense in (False, True)]:
        obj1, C1, c1 = random_chain_setup(seed, dense=dense)
        obj2, C2, c2 = random_chain_setup(seed, dense=dense)
        assert _chain_text(c1) == _chain_text(c2)
        drawn += not c1.is_zero()
        assert C1.module is obj1 and C2.module is obj2
        # every slot is an e-supported endomorphism of the one object
        for _, ch in c1.terms():
            assert all(obj1.e @ s @ obj1.e == s for s in ch.slots)
    assert drawn


def test_ring_chain_is_one_object_rank_one():
    obj, C, c = random_ring_chain(9, with_h=True)
    assert C.module is obj
    assert obj.degrees == (0,)
    assert not obj.algebra.h.is_zero()
    for _, ch in c.terms():
        assert all(len(s.target_degrees) == 1 for s in ch.slots)


# sha256 over seeds 0-99 of json.dumps(instance_to_spec(M, C), sort_keys=True)
# followed by a newline, per seed in order
INSTANCE_SPECS_SHA256 = "ffda6c8f23f08370766cfaed5035da2321dbf9600d4a98fb644d59a087f601b0"


def test_module_instances_match_their_golden_digest():
    # pins δ, e, θ and the ring of every instance, where a digest of ch
    # would miss a change that leaves ch alone
    digest = hashlib.sha256()
    for seed in range(100):
        M, C = random_module_instance(seed)
        digest.update(json.dumps(instance_to_spec(M, C), sort_keys=True).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == INSTANCE_SPECS_SHA256


def test_instances_drawn_out_of_order_match_the_golden_digest():
    # randomgen keeps each ring shape's monomial pool: after a warm-up on
    # other seeds and generators the pools of other shapes are held, and
    # seeds 99..0 drawn in reverse still give the pinned instances
    for seed in range(100, 160):
        random_module_instance(seed)
        random_chain_setup(seed)
        random_ring_chain(seed, with_h=True)
    specs = {}
    for seed in reversed(range(100)):
        M, C = random_module_instance(seed)
        specs[seed] = json.dumps(instance_to_spec(M, C), sort_keys=True)
    digest = hashlib.sha256()
    for seed in range(100):
        digest.update(specs[seed].encode())
        digest.update(b"\n")
    assert digest.hexdigest() == INSTANCE_SPECS_SHA256


def test_a_ring_with_a_relation_gets_its_own_monomial_pool():
    free = GradedRing(("x", "y"), (0, 0), grading="Z2")
    quotients = [GradedRing(("x", "y"), (0, 0), grading="Z2", relation=r) for r in ("x^2 - 1", "y^2 + x*y")]
    for ring in [free, *quotients, free]:
        for max_deg in (1, 2, 3):
            assert list(_monomials(ring, max_deg, None)) == _nf_monomials_up_to(ring, max_deg)
    # the leads x^2 and x·y (graded lex, x first) leave their pools
    assert {(2, 0), (1, 1)} <= set(_monomials(free, 2, None))
    assert (2, 0) not in _monomials(quotients[0], 2, None)
    assert (1, 1) not in _monomials(quotients[1], 2, None)
    # and the exact Gamma-degree filter is part of the shape
    weighted = GradedRing(("x", "T"), (0, 2), grading="Z")
    assert _monomials(weighted, 2, 2) == ((0, 1), (1, 1))
    assert _monomials(weighted, 2, 0) == ((0, 0), (1, 0), (2, 0))


# the benchmark's recorded ch_weil digest per random seed
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_chern_weil_matches_the_benchmark_reference_digests():
    # the digest rule of perfbench/workloads.py:useries_digest, so a change
    # to any coefficient of ch fails here, not only in the benchmark
    digests = json.loads(REFERENCE.read_text(encoding="utf-8"))["random"]
    for seed in range(200):
        M, C = random_module_instance(seed)
        ch = chern_weil(M, C)
        text = json.dumps({f"u^{J}": str(f) for J, f in ch.coeffs.items()}, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digests[seed], seed


def test_every_serialized_connection_parses_back():
    # str() writes a one-form entry with spaced signs; parse_form_entry
    # reads it back through the problem-file path
    explicit = 0
    for seed in range(200):
        M, C = random_module_instance(seed)
        spec = instance_to_spec(M, C)
        if spec["connection"]["kind"] != "explicit":
            continue
        explicit += 1
        inst = parse_instance(json.dumps(spec), f"seed {seed}")
        assert inst.connection.theta == C.theta, seed
    assert explicit
