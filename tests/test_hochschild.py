from __future__ import annotations

import random
from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedchern.errors import InvalidInput
from curvedchern.forms import DiffForm, USeries, de_rham_d
from curvedchern import cli, hochschild, modules
from curvedchern.hochschild import chern_via_chains, pushforward, tr_nabla
from curvedchern import matform
from curvedchern.matform import Mat, WordEvaluator, content_key
from curvedchern.modules import (
    CurvedAlgebra,
    CurvedModule,
    chern_weil,
    connection_with_mu,
    covariant_derivative,
    levi_civita,
)
from curvedchern.randomgen import random_module_instance, random_poly
from curvedchern.scalars import Scalar

from chains import (
    ChainSum,
    b0,
    b2,
    chain,
    connes_B,
    curvature_endo,
    expand_multilinear,
    hkr,
    push,
    random_chain_setup,
    random_ring_chain,
    reduce_chain,
    reference_pushforward,
    truncate_length,
)
from util import d_var, qi_ring, sphere_ring


# -- fixtures ----------------------------------------------------------


def _ring_obj(*variables, h="0"):
    """The rank-1 free object and its connection: ring-entry chains."""
    R = qi_ring(*variables)
    M = CurvedModule(CurvedAlgebra(R, R.from_string(h)), (0,), Mat.zero(R, (0,), (0,)))
    return R, M, levi_civita(M)


def _endo_obj(degrees=(0, 1), h="0"):
    """A free object over Q(i)[x, y] and its connection."""
    R = qi_ring("x", "y")
    M = CurvedModule(CurvedAlgebra(R, R.from_string(h)), degrees, Mat.zero(R, degrees, degrees))
    return R, M, levi_civita(M)


def _odd_pair(R):
    """Odd endomorphisms S: e0 -> x e1 and T: e1 -> y e0 on degrees (0, 1)."""
    S = Mat.from_stored(R, (0, 1), [["0", "x"], ["0", "0"]])
    T = Mat.from_stored(R, (0, 1), [["0", "0"], ["y", "0"]])
    return S, T


def _odd_beta(obj, seed):
    """A seeded e-supported odd endomorphism of the object."""
    rng = random.Random(f"beta:{seed}")
    ring, degrees = obj.ring, obj.degrees
    raw = Mat(ring, degrees, degrees, [
        [random_poly(rng, ring, max_terms=1, allow_zero=True) for _ in degrees] for _ in degrees
    ])
    odd = (obj.e @ raw @ obj.e).parity_components().get(1)
    return odd if odd is not None else Mat.zero(ring, degrees, degrees)


def _u_d(series: USeries) -> USeries:
    """u·(d applied coefficient-wise): the right-hand side of the b2 + uB
    intertwining identity."""
    return USeries(series.ring, {J + 1: de_rham_d(f) for J, f in series.coeffs.items()})


def _dh_wedge(series: USeries, h) -> USeries:
    dh = de_rham_d(DiffForm.from_ring(h))
    return USeries(series.ring, {J: dh.wedge(f) for J, f in series.coeffs.items()})


# -- chain construction ------------------------------------------------


def test_chain_default_single_object_cycle():
    _, obj, _ = _ring_obj("x", "y")
    c = chain(obj, "x", ["y", "x*y"])
    terms = c.terms()
    assert len(terms) == 1
    coeff, ch = terms[0]
    assert coeff == Scalar(1)
    assert ch.n == 2
    assert ch.degrees == (0, 0, 0)


def test_chain_splits_inhomogeneous_slots():
    R, obj, _ = _endo_obj((0, 1))
    raw = Mat.from_stored(R, (0, 1), [["x", "y"], ["1", "2"]])
    c = chain(obj, Mat.identity(R, (0, 1)), [raw])
    terms = c.terms()
    assert len(terms) == 2
    assert sorted(ch.degrees[1] for _, ch in terms) == [0, 1]
    # the components recombine to the original slot
    total = terms[0][1].slots[1] + terms[1][1].slots[1]
    assert (total - raw).is_zero()


def test_chain_requires_slots_supported_on_presentation():
    R = qi_ring("x", "y")
    alg = CurvedAlgebra(R, R.zero())
    e = Mat.from_stored(R, (0, 0), [["1", "0"], ["0", "0"]])
    M = CurvedModule(alg, (0, 0), Mat.zero(R, (0, 0), (0, 0)), e=e)
    bad = Mat.from_stored(R, (0, 0), [["0", "0"], ["0", "x"]])
    with pytest.raises(InvalidInput):
        chain(M, bad, [])


# -- boundary maps -----------------------------------------------------


def test_b2_even_endomorphism_pin():
    # a0[a1] -> a0·a1[] - a1·a0[] when both slots are even
    R, obj, _ = _endo_obj((0, 0))
    A = Mat.from_stored(R, (0, 0), [["x", "0"], ["0", "0"]])
    B = Mat.from_stored(R, (0, 0), [["0", "y"], ["1", "0"]])
    assert not (A @ B - B @ A).is_zero()
    assert b2(chain(obj, A, [B])) == chain(obj, A @ B) - chain(obj, B @ A)


def test_b2_on_head_only_is_zero():
    _, obj, _ = _ring_obj("x")
    assert b2(chain(obj, "x")).is_zero()


def test_b2_odd_slot_signs():
    # e[S|T] with |S| = |T| = 1: merges at j = 0, 1 carry
    # (-1)^{|a_0|} = +1 and (-1)^{|a_0|+|a_1|-1} = +1, the cyclic term
    # (-1)^{(|a_2|-1)(|a_0|+|a_1|-1)} enters with the extra minus
    R, obj, _ = _endo_obj((0, 1))
    S, T = _odd_pair(R)
    e = Mat.identity(R, (0, 1))
    got = b2(chain(obj, e, [S, T]))
    expected = chain(obj, S, [T]) + chain(obj, e, [S @ T]) - chain(obj, T, [S])
    assert got == expected


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=400))
def test_b2_squares_to_zero(seed):
    _, _, c = random_chain_setup(seed)
    assert b2(b2(c)).is_zero()


def test_b0_head_only_pin():
    # even head: a0[] -> +a0[h·e]
    _, obj, _ = _ring_obj("x", "y", h="x*y-2")
    assert b0(chain(obj, "x")) == chain(obj, "x", ["x*y-2"])


def test_b0_zero_curvature_is_zero():
    _, obj, _ = _ring_obj("x", "y")
    assert b0(chain(obj, "x", ["y"])).is_zero()


def test_b0_odd_head_signs():
    # S[T] with odd S, T: both insertion spots contribute with a minus
    R, obj, _ = _endo_obj((0, 1), h="x")
    S, T = _odd_pair(R)
    he = curvature_endo(obj)
    got = b0(chain(obj, S, [T]))
    assert got == -(chain(obj, S, [he, T]) + chain(obj, S, [T, he]))


# -- reduction and Connes' boundary ------------------------------------


def test_reduce_drops_scalar_identity_tails():
    _, obj, _ = _ring_obj("x")
    assert reduce_chain(chain(obj, "x", ["5"])).is_zero()
    kept = chain(obj, "x", ["x"])  # x·1 is not a Scalar multiple of 1
    assert reduce_chain(kept) == kept
    head = chain(obj, "5", ["x"])  # heads are never reduced away
    assert reduce_chain(head) == head


def test_reduce_matrix_identity_multiple():
    R, obj, _ = _endo_obj((0, 1))
    S, _ = _odd_pair(R)
    e2 = Mat.identity(R, (0, 1)).scale(Scalar(2))
    mixed = chain(obj, S, [e2]) + chain(obj, S, [S])
    assert reduce_chain(mixed) == chain(obj, S, [S])


def test_connes_B_head_only_pin():
    _, obj, _ = _ring_obj("x")
    assert connes_B(chain(obj, "x")) == chain(obj, "1", ["x"])
    # B of the identity head dies in the reduced complex
    assert connes_B(chain(obj, "1")).is_zero()


def test_connes_B_even_pair_sign():
    # a0[a1] with even entries: 1[a0|a1] - 1[a1|a0]
    _, obj, _ = _ring_obj("x", "y")
    got = connes_B(chain(obj, "x", ["y"]))
    assert got == chain(obj, "1", ["x", "y"]) - chain(obj, "1", ["y", "x"])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=400))
def test_connes_B_squares_to_zero(seed):
    _, _, c = random_chain_setup(seed)
    assert connes_B(connes_B(c)).is_zero()


@pytest.mark.parametrize("seed", range(6))
def test_b_anticommutes_with_connes_B_reduced(seed):
    _, _, c = random_chain_setup(seed)
    bc = b2(c) + b0(c)
    Bc = connes_B(c)
    anti = b2(Bc) + b0(Bc) + connes_B(bc)
    assert reduce_chain(anti).is_zero()


# -- hkr ---------------------------------------------------------------


def test_hkr_pins():
    R, obj, _ = _ring_obj("x", "y", "z")
    x = R.from_string("x")
    dy = d_var(R, "y")
    dz = d_var(R, "z")
    assert hkr(chain(obj, "x")) == DiffForm.from_ring(x)
    assert hkr(chain(obj, "x", ["y"])) == DiffForm.from_ring(x).wedge(dy)
    half = Scalar(1) * Scalar(2).inv()
    assert hkr(chain(obj, "x", ["y", "z"])) == (
        DiffForm.from_ring(x).wedge(dy).wedge(dz).scale(half)
    )


def test_hkr_rejects_u_and_matrix_content():
    R, obj, _ = _ring_obj("x")
    with pytest.raises(InvalidInput):
        hkr(chain(obj, "x", u_exp=1))
    _, mobj, _ = _endo_obj((0, 0))
    with pytest.raises(InvalidInput):
        hkr(chain(mobj, Mat.identity(R, (0, 0))))


@pytest.mark.parametrize("seed", range(10))
def test_hkr_intertwines_boundaries(seed):
    obj, _, c = random_ring_chain(seed, with_h=True)
    assert hkr(b2(c)).is_zero()
    got = hkr(b0(c))
    dh = de_rham_d(DiffForm.from_ring(obj.algebra.h))
    assert got == dh.wedge(hkr(c))
    assert hkr(connes_B(c)) == de_rham_d(hkr(c))


# -- pushforward -------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_pushforward_identity_morphism_is_identity(seed):
    obj, _, c = random_chain_setup(seed)
    assert push(Mat.zero(obj.ring, obj.degrees, obj.degrees), c, 10) == c


def test_pushforward_beta_expansion_pin():
    # (id, delta) applied to 1[] is the alternating sum of delta-strings
    R = qi_ring("x", "y")
    alg = CurvedAlgebra(R, R.zero())
    M = CurvedModule(alg, (0, 1), Mat.zero(R, (0, 1), (0, 1)))
    delta = Mat.from_stored(R, (0, 1), [["0", "x"], ["y", "0"]])
    got = pushforward(delta, chain(M, M.e), 3)
    expected = ChainSum(M)
    for j in range(4):
        expected = expected + chain(M, M.e, [delta] * j).scale(Scalar((-1) ** j))
    assert got == expected
    assert max(ch.n for _, ch in got.terms()) == 3


# Seeds of random_chain_setup on which a push inserts beta: _odd_beta is
# nonzero there (the object has both basis parities) and the chain is
# shorter than n_max = nvars + 1; for Connes' B, which adds a slot before
# the comparison truncates at n_max - 1, shorter than n_max - 2.  On most
# seeds neither holds and a push is empty or the identity, so each test
# asserts the insertion it compares.  The tests take the k-th seed.
_PUSH_SEEDS = (15, 28, 32, 33, 37)
_B_SEEDS = (50, 96, 115, 117, 133)


def _inserted(beta, c, n_max: int, cap: int) -> int:
    """The chains of push(beta, c, n_max) of length at most cap that
    beta was inserted into: those longer than every chain of c."""
    n = max(ch.n for _, ch in c.terms())
    return sum(1 for _, ch in push(beta, c, n_max).terms() if n < ch.n <= cap)


@pytest.mark.parametrize("k", range(len(_PUSH_SEEDS)))
def test_pushforward_composition_law(k):
    # inserting beta1 then beta2 agrees with inserting beta1 + beta2,
    # compared through the multilinear expansion on a common truncation.
    # The single push is the reference's: both sides of the law hold for
    # any sign w^m on m insertions in place of (-1)^m, as pushing w·beta
    # does, so only an independent side sees a wrong sign
    seed = _PUSH_SEEDS[k]
    obj, _, c = random_chain_setup(seed)
    beta1, beta2 = _odd_beta(obj, 2 * seed), _odd_beta(obj, 2 * seed + 1)
    n_max = obj.ring.nvars + 1
    assert _inserted(beta1, c, n_max, n_max) and _inserted(beta2, c, n_max, n_max)
    comp = truncate_length(push(beta2, push(beta1, c, n_max), n_max), n_max)
    single = reference_pushforward(beta1 + beta2, c, n_max)
    assert expand_multilinear(comp) == expand_multilinear(single)


@pytest.mark.parametrize("k", range(len(_B_SEEDS)))
def test_pushforward_commutes_with_connes_B(k):
    seed = _B_SEEDS[k]
    obj, _, c = random_chain_setup(seed)
    beta = _odd_beta(obj, seed)
    n_max = obj.ring.nvars + 1
    assert _inserted(beta, connes_B(c), n_max, n_max - 1)
    # one side pushes by the reference, as in the composition law
    lhs = truncate_length(reduce_chain(reference_pushforward(beta, connes_B(c), n_max)), n_max - 1)
    rhs = truncate_length(connes_B(push(beta, c, n_max)), n_max - 1)
    assert expand_multilinear(lhs) == expand_multilinear(rhs)


def _ordered(c) -> list:
    return [(coeff, ch.key()) for coeff, ch in c.terms()]


@pytest.mark.parametrize("k", range(len(_PUSH_SEEDS + _B_SEEDS)))
def test_pushforward_collects_terms_as_the_running_sum_did(k):
    # one ChainSum built at the end: the same terms, coefficients and order
    seed = (_PUSH_SEEDS + _B_SEEDS)[k]
    obj, _, c = random_chain_setup(seed)
    n_max = obj.ring.nvars + 1
    beta = _odd_beta(obj, seed)
    assert _inserted(beta, c, n_max, n_max)
    for beta in (Mat.zero(obj.ring, obj.degrees, obj.degrees), beta):
        got = pushforward(beta, c, n_max)
        assert _ordered(got) == _ordered(reference_pushforward(beta, c, n_max))


def _corpus_instance(stem):
    text = files("curvedchern.corpus").joinpath(f"{stem}.json").read_text(encoding="utf-8")
    inst = cli.parse_instance(text, f"{stem}.json")
    return inst.module, inst.connection


def _stripped_class(M):
    """The class 1[] on M's underlying module with zero differential, the
    chain chern_via_chains pushes along (id, delta)."""
    stripped = CurvedModule(M.algebra, M.degrees, Mat.zero(M.ring, M.degrees, M.degrees), e=M.e)
    return chain(stripped, M.e)


def test_pushforward_of_the_s4_class_is_the_running_sum():
    M, _ = _corpus_instance("s4_nonflat")
    gamma = _stripped_class(M)
    n_max = M.ring.nvars  # as chern_via_chains pushes it
    got = pushforward(M.delta, gamma, n_max)
    assert len(got.terms()) > 1
    assert _ordered(got) == _ordered(reference_pushforward(M.delta, gamma, n_max))
    # homogeneous slots are not rebuilt by the parity split
    for _, ch in got.terms():
        assert ch.slots[0] is M.e
        assert all(slot is M.delta for slot in ch.slots[1:])


def test_chain_route_splits_neither_e_nor_delta(monkeypatch):
    # check_module has proved e even and delta odd, so each enters the
    # route as one slot of its parity as it is; the sphere module is flat
    # (delta = 0), and its class 1[] is pushed to itself
    cases = [random_module_instance(seed) for seed in range(50)]
    cases += [_corpus_instance(stem) for stem in ("mf_xy", "s4_nonflat")]
    _, flat = _sphere_module()
    cases.append((flat, levi_civita(flat)))
    assert flat.delta.is_zero()
    expected = [chern_weil(M, C) for M, C in cases]
    split = []
    real = Mat.parity_components
    monkeypatch.setattr(Mat, "parity_components", lambda X: split.append(X) or real(X))
    assert [chern_via_chains(M, C) for M, C in cases] == expected
    assert split == []


@pytest.mark.parametrize("source", ["mf_xy", "s4_nonflat", "random"])
def test_pushing_past_dim_A_changes_no_trace(source):
    # tr_nabla skips chains longer than nvars, so pushing to nvars is enough
    if source == "random":
        cases = [random_module_instance(seed) for seed in range(200)]
    else:
        cases = [_corpus_instance(source)]
    longer = 0
    for M, C in cases:
        gamma = _stripped_class(M)
        n = M.ring.nvars
        short = pushforward(M.delta, gamma, n)
        long = pushforward(M.delta, gamma, n + 1)
        longer += len(long.terms()) > len(short.terms())
        words = WordEvaluator()
        assert tr_nabla(long, C, words) == tr_nabla(short, C, words)
    assert longer


# -- the chain-level trace ---------------------------------------------


def test_tr_nabla_rank_pin():
    R, obj, C = _endo_obj((0, 0))
    assert tr_nabla(chain(obj, Mat.identity(R, (0, 0))), C) == USeries.from_ring(
        R.from_string("2")
    )
    R1, obj1, C1 = _endo_obj((0, 1))
    assert tr_nabla(chain(obj1, Mat.identity(R1, (0, 1))), C1).is_zero()


def test_tr_nabla_on_head_matches_chern_weil_for_flat_idempotent():
    # 1[] traces to str(exp(-uK)), the Chern-Weil value of a flat module
    R, M = _sphere_module()
    C = levi_civita(M)
    assert tr_nabla(chain(M, M.e), C) == chern_weil(M, C)


def test_tr_nabla_kills_identity_tails_on_free_objects():
    # the trace descends to the reduced complex: a Scalar-identity tail
    # slot has zero covariant derivative, so the whole term traces to 0
    R, obj, C = _endo_obj((0, 1))
    S, _ = _odd_pair(R)
    c = chain(obj, S, [Mat.identity(R, (0, 1)).scale(Scalar(2))])
    assert reduce_chain(c).is_zero()
    assert tr_nabla(c, C).is_zero()


@pytest.mark.parametrize("seed", range(12))
def test_tr_nabla_equals_hkr_on_flat_ring_chains(seed):
    _, C, c = random_ring_chain(seed)
    assert tr_nabla(c, C) == USeries.from_form(hkr(c))


def _identity_sides(seed):
    """tr_nabla of (b2 + uB)c and of b0(c), with what each must equal, on
    the dense chain of the seed."""
    obj, C, c = random_chain_setup(seed, dense=True)
    tr = tr_nabla(c, C)
    return [
        (tr_nabla(b2(c) + connes_B(c).shift_u(1), C), _u_d(tr)),
        (tr_nabla(b0(c), C), _dh_wedge(tr, obj.algebra.h)),
    ]


@pytest.mark.parametrize("seed", range(40))
def test_tr_nabla_existence_identities(seed):
    for got, want in _identity_sides(seed):
        assert got == want


def test_the_identity_chains_reach_both_sides():
    # an identity whose sides trace to zero holds whatever tr_nabla does:
    # the dense chains give each side a nonzero value on at least 3/4 of
    # the seeds (b2 + uB on 40 of 40, b0 on 35 of 40)
    nonzero = [0, 0]
    for seed in range(40):
        for k, (got, _) in enumerate(_identity_sides(seed)):
            nonzero[k] += not got.is_zero()
    assert min(nonzero) >= 30, nonzero


# -- chern_via_chains --------------------------------------------------


def _sphere_module():
    R = sphere_ring(3)
    alg = CurvedAlgebra(R, R.zero())
    e_rows = [
        ["1/2*(1-x1)", "1/2*(-x2-i*x3)"],
        ["1/2*(-x2+i*x3)", "1/2*(1+x1)"],
    ]
    zero = [["0", "0"], ["0", "0"]]
    M = CurvedModule.from_stored(alg, [0, 0], zero, idempotent_rows=e_rows)
    return R, M


def _sphere_bundle_module():
    """The sphere fixture's rank-2 projective tensored with the Koszul
    factorization of x1*x2: delta = [[0, x1·e], [x2·e, 0]] on e ⊕ e."""
    R, P = _sphere_module()
    alg = CurvedAlgebra(R, R.from_string("-x1*x2"))
    e = P.e.entry
    z = USeries.zero(R)
    x1, x2 = (USeries.from_ring(R.var(v)) for v in ("x1", "x2"))
    E = [[e(t % 2, s % 2) if t // 2 == s // 2 else z for s in range(4)] for t in range(4)]
    delta = [
        [(x1 if t < 2 else x2) * e(t % 2, s % 2) if t // 2 != s // 2 else z for s in range(4)]
        for t in range(4)
    ]
    degrees = (0, 0, 1, 1)
    return CurvedModule(
        alg, degrees, Mat(R, degrees, degrees, delta), e=Mat(R, degrees, degrees, E)
    )


@pytest.mark.parametrize(
    "make", [lambda: _sphere_module()[1], _sphere_bundle_module], ids=["sphere", "sphere-bundle"]
)
def test_chern_via_chains_differentiates_each_distinct_slot_once(make, monkeypatch):
    M = make()
    C = levi_civita(M)
    # tr_nabla skips chains longer than the number of variables
    pushed = pushforward(M.delta, _stripped_class(M), M.ring.nvars)
    distinct = {
        (ch.degrees[i], content_key(ch.slots[i]))
        for _, ch in pushed.terms()
        for i in range(1, ch.n + 1)
    }
    calls = []
    plain = modules._bracket

    def spy(*args):
        calls.append(args)
        return plain(*args)

    monkeypatch.setattr(modules, "_bracket", spy)
    got = chern_via_chains(M, C)
    assert len(calls) == len(distinct)
    assert got == chern_weil(M, C)


def _koszul_pair_module():
    """The Koszul factorization of x1*x2 + x3*x4 on the exterior algebra of
    a, b (basis 1, ab, a, b), with a diagonal connection perturbation, so
    that nabla^2 is nonzero and four variables leave room for the words
    A·K·A and K·A·A of the chain route, rotations of Chern-Weil's A·A·K."""
    R = qi_ring("x1", "x2", "x3", "x4")
    alg = CurvedAlgebra(R, R.from_string("-x1*x2-x3*x4"))
    degrees = [0, 0, 1, 1]
    delta = [
        ["0", "0", "x2", "x4"],
        ["0", "0", "-x3", "x1"],
        ["x1", "-x4", "0", "0"],
        ["x3", "x2", "0", "0"],
    ]
    M = CurvedModule.from_stored(alg, degrees, delta)
    z = DiffForm.zero(R)
    diagonal = [
        d_var(R, "x2").scale_ring(R.from_string("x1")),
        d_var(R, "x4"),
        d_var(R, "x3").scale_ring(R.from_string("x2")),
        z,
    ]
    mu = Mat.from_stored(R, degrees, [[f if t == s else z for t, f in enumerate(diagonal)]
                                      for s in range(4)])
    return M, connection_with_mu(M, mu)


def test_chern_via_chains_reads_rotations_of_chern_weil_words_for_free(monkeypatch):
    M, C = _koszul_pair_module()
    words = WordEvaluator()
    ch = chern_weil(M, C, words)
    asked = []
    plain = WordEvaluator.supertrace
    monkeypatch.setattr(
        WordEvaluator, "supertrace", lambda self, w: asked.append(w) or plain(self, w)
    )
    calls = []
    for name in ("supertrace_of_product", "supertrace_of_square"):
        kernel = getattr(matform, name)
        monkeypatch.setattr(
            matform, name, lambda *args, kernel=kernel: calls.append(args) or kernel(*args)
        )
    got = chern_via_chains(M, C, words=words)
    assert calls == []
    # the chain route asks for words that are not their least rotation
    assert any(w != min(w[r:] + w[:r] for r in range(len(w))) for w in asked)
    assert got == ch and not ch.is_zero()
    assert ch.coefficient(1).component(4) != DiffForm.zero(M.ring)


def test_chern_via_chains_matches_chern_weil_on_xy():
    R = qi_ring("x", "y")
    alg = CurvedAlgebra(R, R.from_string("-x*y"))
    M = CurvedModule.from_stored(alg, [0, 1], [["0", "x"], ["y", "0"]])
    C = levi_civita(M)
    got = chern_via_chains(M, C)
    assert got == chern_weil(M, C)
    dxdy = d_var(R, "x").wedge(d_var(R, "y"))
    assert got == USeries.from_form(dxdy)


def test_chern_via_chains_matches_chern_weil_on_graded_ci():
    R = qi_ring("x", "T", degrees=[0, 2], grading="Z")
    alg = CurvedAlgebra(R, R.from_string("-x^2*T"))
    M = CurvedModule.from_stored(alg, [0, 1], [["0", "x"], ["x*T", "0"]])
    C = levi_civita(M)
    got = chern_via_chains(M, C)
    assert got == chern_weil(M, C)
    expected = DiffForm.from_ring(R.from_string("x")).wedge(
        d_var(R, "x")
    ).wedge(d_var(R, "T"))
    assert got == USeries.from_form(expected)


def test_chern_via_chains_free_flat_rank():
    R = qi_ring("x")
    alg = CurvedAlgebra(R, R.zero())
    M = CurvedModule(alg, (0, 0, 0), Mat.zero(R, (0, 0, 0), (0, 0, 0)))
    assert chern_via_chains(M, levi_civita(M)) == USeries.from_ring(R.from_string("3"))


def test_chern_via_chains_refuses_an_invalid_module():
    R = qi_ring("x", "y")
    alg = CurvedAlgebra(R, R.from_string("-x*y"))
    M = CurvedModule.from_stored(alg, [0, 1], [["0", "x"], ["x", "0"]])
    with pytest.raises(InvalidInput, match="chern_via_chains needs a valid module: delta"):
        chern_via_chains(M, levi_civita(M))
    # the verdict is remembered, and still refuses
    with pytest.raises(InvalidInput, match="chern_via_chains needs a valid module"):
        chern_via_chains(M, levi_civita(M))


def test_a_matrix_content_key_is_built_once(monkeypatch):
    # the letter interning, the chain key and the bracket cache all key X
    # by its content; a Mat never changes, so its key is built once
    _, obj, _ = _endo_obj((0, 1), h="-x*y")
    M = CurvedModule.from_stored(obj.algebra, (0, 1), [["0", "x"], ["y", "0"]])
    C = levi_civita(M)
    X = M.delta
    built = []
    plain = matform._content
    monkeypatch.setattr(matform, "_content", lambda Y: built.append(Y) or plain(Y))
    WordEvaluator().letter(X)
    hochschild.Chain(0, (X,), (1,)).key()
    covariant_derivative(C, X, 1)
    assert sum(Y is X for Y in built) == 1
