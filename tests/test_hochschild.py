from __future__ import annotations

import random
from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedchern.errors import IncomposableChain, InvalidInput
from curvedchern.forms import DiffForm, USeries, de_rham_d
from curvedchern import cli, hochschild, modules
from curvedchern.hochschild import (
    CategoryData,
    ChainSum,
    b0,
    b2,
    chain,
    chern_via_chains,
    connes_B,
    expand_multilinear,
    hkr,
    pushforward,
    reduce_chain,
    tr_nabla,
    truncate_length,
)
from curvedchern import matform
from curvedchern.matform import Mat, WordEvaluator, content_key
from curvedchern.modules import (
    CurvedAlgebra,
    CurvedModule,
    chern_weil,
    connection_with_mu,
    covariant_derivative_pair,
    levi_civita,
)
from curvedchern.randomgen import (
    random_chain_setup,
    random_module_instance,
    random_poly,
    random_ring_chain,
)
from curvedchern.scalars import Scalar

from util import qi_ring, reference_pushforward, sphere_ring


# -- fixtures ----------------------------------------------------------


def _ring_cat(*variables, h="0"):
    """One-object category on the rank-1 free module: ring-entry chains."""
    R = qi_ring(*variables)
    alg = CurvedAlgebra(R, R.from_string(h))
    M = CurvedModule(alg, (0,), Mat.zero(R, (0,), (0,)))
    return R, CategoryData(alg, [M]), [levi_civita(M)]


def _endo_cat(degrees=(0, 1), h="0"):
    """One-object category on a free module over Q(i)[x, y]."""
    R = qi_ring("x", "y")
    alg = CurvedAlgebra(R, R.from_string(h))
    M = CurvedModule(alg, degrees, Mat.zero(R, degrees, degrees))
    return R, CategoryData(alg, [M]), [levi_civita(M)]


def _odd_pair(R):
    """Odd endomorphisms S: e0 -> x e1 and T: e1 -> y e0 on degrees (0, 1)."""
    S = Mat.from_stored(R, (0, 1), [["0", "x"], ["0", "0"]])
    T = Mat.from_stored(R, (0, 1), [["0", "0"], ["y", "0"]])
    return S, T


def _odd_betas(cat, seed):
    """Seeded e-supported odd endomorphisms, one per category object."""
    rng = random.Random(f"beta:{seed}")
    out = []
    for M in cat.objects:
        raw = Mat(
            cat.ring,
            M.degrees,
            M.degrees,
            [
                [random_poly(rng, cat.ring, max_terms=1, allow_zero=True) for _ in M.degrees]
                for _ in M.degrees
            ],
        )
        odd = (M.e @ raw @ M.e).parity_components().get(1)
        out.append(odd if odd is not None else Mat.zero(cat.ring, M.degrees, M.degrees))
    return out


def _u_d(series: USeries) -> USeries:
    """u·(d applied coefficient-wise): the right-hand side of the b2 + uB
    intertwining identity."""
    return USeries(series.ring, {J + 1: de_rham_d(f) for J, f in series.coeffs.items()})


def _dh_wedge(series: USeries, h) -> USeries:
    dh = de_rham_d(DiffForm.from_ring(h))
    return USeries(series.ring, {J: dh.wedge(f) for J, f in series.coeffs.items()})


# -- chain construction ------------------------------------------------


def test_chain_default_single_object_cycle():
    _, cat, _ = _ring_cat("x", "y")
    c = chain(cat, "x", ["y", "x*y"])
    terms = c.terms()
    assert len(terms) == 1
    coeff, ch = terms[0]
    assert coeff == Scalar(1)
    assert ch.n == 2
    assert ch.objects == (0, 0, 0)
    assert ch.degrees == (0, 0, 0)


def test_chain_splits_inhomogeneous_slots():
    R, cat, _ = _endo_cat((0, 1))
    raw = Mat.from_stored(R, (0, 1), [["x", "y"], ["1", "2"]])
    c = chain(cat, Mat.identity(R, (0, 1)), [raw])
    terms = c.terms()
    assert len(terms) == 2
    assert sorted(ch.degrees[1] for _, ch in terms) == [0, 1]
    # the components recombine to the original slot
    total = terms[0][1].slots[1] + terms[1][1].slots[1]
    assert (total - raw).is_zero()


def test_chain_rejects_mismatched_cycle():
    R, cat, _ = _ring_cat("x")
    with pytest.raises(IncomposableChain):
        chain(cat, "x", ["x"], objects=(0,))
    # a 1x1 head cannot be a hom between rank-2 objects
    R2, cat2, _ = _endo_cat((0, 1))
    with pytest.raises(IncomposableChain):
        chain(cat2, Mat.from_stored(R2, (0,), [["x"]]), [])


def test_chain_requires_slots_supported_on_presentation():
    R = qi_ring("x", "y")
    alg = CurvedAlgebra(R, R.zero())
    e = Mat.from_stored(R, (0, 0), [["1", "0"], ["0", "0"]])
    M = CurvedModule(alg, (0, 0), Mat.zero(R, (0, 0), (0, 0)), e=e)
    cat = CategoryData(alg, [M])
    bad = Mat.from_stored(R, (0, 0), [["0", "0"], ["0", "x"]])
    with pytest.raises(InvalidInput):
        chain(cat, bad, [])


def test_category_rejects_nontrivial_differential():
    R = qi_ring("x", "y")
    alg = CurvedAlgebra(R, R.from_string("-x*y"))
    M = CurvedModule.from_stored(alg, [0, 1], [["0", "x"], ["y", "0"]])
    with pytest.raises(InvalidInput):
        CategoryData(alg, [M])


# -- boundary maps -----------------------------------------------------


def test_b2_even_endomorphism_pin():
    # a0[a1] -> a0·a1[] - a1·a0[] when both slots are even
    R, cat, _ = _endo_cat((0, 0))
    A = Mat.from_stored(R, (0, 0), [["x", "0"], ["0", "0"]])
    B = Mat.from_stored(R, (0, 0), [["0", "y"], ["1", "0"]])
    assert not (A @ B - B @ A).is_zero()
    assert b2(chain(cat, A, [B])) == chain(cat, A @ B) - chain(cat, B @ A)


def test_b2_on_head_only_is_zero():
    _, cat, _ = _ring_cat("x")
    assert b2(chain(cat, "x")).is_zero()


def test_b2_odd_slot_signs():
    # e[S|T] with |S| = |T| = 1: merges at j = 0, 1 carry
    # (-1)^{|a_0|} = +1 and (-1)^{|a_0|+|a_1|-1} = +1, the cyclic term
    # (-1)^{(|a_2|-1)(|a_0|+|a_1|-1)} enters with the extra minus
    R, cat, _ = _endo_cat((0, 1))
    S, T = _odd_pair(R)
    e = Mat.identity(R, (0, 1))
    got = b2(chain(cat, e, [S, T]))
    expected = chain(cat, S, [T]) + chain(cat, e, [S @ T]) - chain(cat, T, [S])
    assert got == expected


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=400))
def test_b2_squares_to_zero(seed):
    _, _, c = random_chain_setup(seed)
    assert b2(b2(c)).is_zero()


def test_b0_head_only_pin():
    # even head: a0[] -> +a0[h·e]
    _, cat, _ = _ring_cat("x", "y", h="x*y-2")
    assert b0(chain(cat, "x")) == chain(cat, "x", ["x*y-2"])


def test_b0_zero_curvature_is_zero():
    _, cat, _ = _ring_cat("x", "y")
    assert b0(chain(cat, "x", ["y"])).is_zero()


def test_b0_odd_head_signs():
    # S[T] with odd S, T: both insertion spots contribute with a minus
    R, cat, _ = _endo_cat((0, 1), h="x")
    S, T = _odd_pair(R)
    he = cat.curvature_endo(0)
    got = b0(chain(cat, S, [T]))
    assert got == -(chain(cat, S, [he, T]) + chain(cat, S, [T, he]))


# -- reduction and Connes' boundary ------------------------------------


def test_reduce_drops_scalar_identity_tails():
    _, cat, _ = _ring_cat("x")
    assert reduce_chain(chain(cat, "x", ["5"])).is_zero()
    kept = chain(cat, "x", ["x"])  # x·1 is not a Scalar multiple of 1
    assert reduce_chain(kept) == kept
    head = chain(cat, "5", ["x"])  # heads are never reduced away
    assert reduce_chain(head) == head


def test_reduce_matrix_identity_multiple():
    R, cat, _ = _endo_cat((0, 1))
    S, _ = _odd_pair(R)
    e2 = Mat.identity(R, (0, 1)).scale(Scalar(2))
    mixed = chain(cat, S, [e2]) + chain(cat, S, [S])
    assert reduce_chain(mixed) == chain(cat, S, [S])


def test_connes_B_head_only_pin():
    _, cat, _ = _ring_cat("x")
    assert connes_B(chain(cat, "x")) == chain(cat, "1", ["x"])
    # B of the identity head dies in the reduced complex
    assert connes_B(chain(cat, "1")).is_zero()


def test_connes_B_even_pair_sign():
    # a0[a1] with even entries: 1[a0|a1] - 1[a1|a0]
    _, cat, _ = _ring_cat("x", "y")
    got = connes_B(chain(cat, "x", ["y"]))
    assert got == chain(cat, "1", ["x", "y"]) - chain(cat, "1", ["y", "x"])


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
    R, cat, _ = _ring_cat("x", "y", "z")
    x = R.from_string("x")
    dy = DiffForm.d_var(R, "y")
    dz = DiffForm.d_var(R, "z")
    assert hkr(chain(cat, "x")) == DiffForm.from_ring(x)
    assert hkr(chain(cat, "x", ["y"])) == DiffForm.from_ring(x).wedge(dy)
    half = Scalar(1) * Scalar(2).inv()
    assert hkr(chain(cat, "x", ["y", "z"])) == (
        DiffForm.from_ring(x).wedge(dy).wedge(dz).scale(half)
    )


def test_hkr_rejects_u_and_matrix_content():
    R, cat, _ = _ring_cat("x")
    with pytest.raises(InvalidInput):
        hkr(chain(cat, "x", u_exp=1))
    _, mcat, _ = _endo_cat((0, 0))
    with pytest.raises(InvalidInput):
        hkr(chain(mcat, Mat.identity(R, (0, 0))))


@pytest.mark.parametrize("seed", range(10))
def test_hkr_intertwines_boundaries(seed):
    cat, _, c = random_ring_chain(seed, with_h=True)
    assert hkr(b2(c)).is_zero()
    got = hkr(b0(c))
    dh = de_rham_d(DiffForm.from_ring(cat.algebra.h))
    assert got == dh.wedge(hkr(c))
    assert hkr(connes_B(c)) == de_rham_d(hkr(c))


# -- pushforward -------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_pushforward_identity_morphism_is_identity(seed):
    _, _, c = random_chain_setup(seed)
    assert pushforward(None, c, 10) == c


def test_pushforward_beta_expansion_pin():
    # (id, delta) applied to 1[] is the alternating sum of delta-strings
    R = qi_ring("x", "y")
    alg = CurvedAlgebra(R, R.zero())
    M = CurvedModule(alg, (0, 1), Mat.zero(R, (0, 1), (0, 1)))
    cat = CategoryData(alg, [M])
    delta = Mat.from_stored(R, (0, 1), [["0", "x"], ["y", "0"]])
    got = pushforward(delta, chain(cat, M.e), 3)
    expected = ChainSum.zero(cat)
    for j in range(4):
        expected = expected + chain(cat, M.e, [delta] * j).scale(Scalar((-1) ** j))
    assert got == expected
    assert max(ch.n for _, ch in got.terms()) == 3


@pytest.mark.parametrize("seed", range(5))
def test_pushforward_composition_law(seed):
    # inserting beta1 then beta2 agrees with inserting beta1 + beta2,
    # compared through the multilinear expansion on a common truncation
    cat, _, c = random_chain_setup(seed)
    b1s = _odd_betas(cat, 2 * seed)
    b2s = _odd_betas(cat, 2 * seed + 1)
    sums = [a + b for a, b in zip(b1s, b2s)]
    n_max = cat.ring.nvars + 1
    comp = truncate_length(
        pushforward(b2s, pushforward(b1s, c, n_max), n_max), n_max
    )
    single = pushforward(sums, c, n_max)
    assert expand_multilinear(comp) == expand_multilinear(single)


@pytest.mark.parametrize("seed", range(5))
def test_pushforward_commutes_with_connes_B(seed):
    cat, _, c = random_chain_setup(seed)
    betas = _odd_betas(cat, seed)
    n_max = cat.ring.nvars + 1
    lhs = truncate_length(
        reduce_chain(pushforward(betas, connes_B(c), n_max)), n_max - 1
    )
    rhs = truncate_length(connes_B(pushforward(betas, c, n_max)), n_max - 1)
    assert expand_multilinear(lhs) == expand_multilinear(rhs)


def _ordered(c: ChainSum) -> list:
    return [(coeff, ch.key()) for coeff, ch in c.terms()]


@pytest.mark.parametrize("seed", range(8))
def test_pushforward_collects_terms_as_the_running_sum_did(seed):
    # one ChainSum built at the end: the same terms, coefficients and order
    cat, _, c = random_chain_setup(seed)
    betas = _odd_betas(cat, seed)
    n_max = cat.ring.nvars + 1
    for beta in (None, betas):
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
    return chain(CategoryData(M.algebra, [stripped]), M.e)


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


def test_chain_route_splits_e_and_delta_once_each(monkeypatch):
    # chain(cat, e) and the pushforward that follows share the category's
    # split memo, so e is not split a second time
    cases = [random_module_instance(seed) for seed in range(50)]
    cases += [_corpus_instance(stem) for stem in ("mf_xy", "s4_nonflat")]
    split = []
    real = Mat.parity_components
    monkeypatch.setattr(Mat, "parity_components", lambda X: split.append(X) or real(X))
    for M, C in cases:
        split.clear()
        chern_via_chains(M, C)
        assert len(split) == 2
        assert split[0] is M.e and split[1] is M.delta


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
        assert tr_nabla(long, [C], words) == tr_nabla(short, [C], words)
    assert longer


# -- the chain-level trace ---------------------------------------------


def test_tr_nabla_rank_pin():
    R, cat, conns = _endo_cat((0, 0))
    assert tr_nabla(chain(cat, Mat.identity(R, (0, 0))), conns) == USeries.from_ring(
        R.from_string("2")
    )
    R1, cat1, conns1 = _endo_cat((0, 1))
    assert tr_nabla(chain(cat1, Mat.identity(R1, (0, 1))), conns1).is_zero()


def test_tr_nabla_checks_connections():
    R, cat, _ = _endo_cat((0, 0))
    with pytest.raises(InvalidInput):
        tr_nabla(chain(cat, Mat.identity(R, (0, 0))), [])


def test_tr_nabla_on_head_matches_chern_weil_for_flat_idempotent():
    # 1[] traces to str(exp(-uK)), the Chern-Weil value of a flat module
    R, M = _sphere_module()
    C = levi_civita(M)
    cat = CategoryData(M.algebra, [M])
    assert tr_nabla(chain(cat, M.e), [C]) == chern_weil(M, C)


def test_tr_nabla_kills_identity_tails_on_free_objects():
    # the trace descends to the reduced complex: a Scalar-identity tail
    # slot has zero covariant derivative, so the whole term traces to 0
    R, cat, conns = _endo_cat((0, 1))
    S, _ = _odd_pair(R)
    c = chain(cat, S, [Mat.identity(R, (0, 1)).scale(Scalar(2))])
    assert reduce_chain(c).is_zero()
    assert tr_nabla(c, conns).is_zero()


@pytest.mark.parametrize("seed", range(12))
def test_tr_nabla_equals_hkr_on_flat_ring_chains(seed):
    _, conns, c = random_ring_chain(seed)
    assert tr_nabla(c, conns) == USeries.from_form(hkr(c))


@pytest.mark.parametrize("seed", range(12))
def test_tr_nabla_existence_identities(seed):
    cat, conns, c = random_chain_setup(seed)
    tr = tr_nabla(c, conns)
    lhs = tr_nabla(b2(c) + connes_B(c).shift_u(1), conns)
    assert lhs == _u_d(tr)
    assert tr_nabla(b0(c), conns) == _dh_wedge(tr, cat.algebra.h)


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
    stripped = CurvedModule(M.algebra, M.degrees, Mat.zero(M.ring, M.degrees, M.degrees), e=M.e)
    cat = CategoryData(M.algebra, [stripped])
    # tr_nabla skips chains longer than the number of variables
    pushed = pushforward(M.delta, chain(cat, M.e), M.ring.nvars)
    distinct = {
        (ch.objects[i], ch.degrees[i], content_key(ch.slots[i]))
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
        DiffForm.d_var(R, "x2").scale_ring(R.from_string("x1")),
        DiffForm.d_var(R, "x4"),
        DiffForm.d_var(R, "x3").scale_ring(R.from_string("x2")),
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
    dxdy = DiffForm.d_var(R, "x").wedge(DiffForm.d_var(R, "y"))
    assert got == USeries.from_form(dxdy)


def test_chern_via_chains_matches_chern_weil_on_graded_ci():
    R = qi_ring("x", "T", degrees=[0, 2], grading="Z")
    alg = CurvedAlgebra(R, R.from_string("-x^2*T"))
    M = CurvedModule.from_stored(alg, [0, 1], [["0", "x"], ["x*T", "0"]])
    C = levi_civita(M)
    got = chern_via_chains(M, C)
    assert got == chern_weil(M, C)
    expected = DiffForm.from_ring(R.from_string("x")).wedge(
        DiffForm.d_var(R, "x")
    ).wedge(DiffForm.d_var(R, "T"))
    assert got == USeries.from_form(expected)


def test_chern_via_chains_free_flat_rank():
    R = qi_ring("x")
    alg = CurvedAlgebra(R, R.zero())
    M = CurvedModule(alg, (0, 0, 0), Mat.zero(R, (0, 0, 0), (0, 0, 0)))
    assert chern_via_chains(M, levi_civita(M)) == USeries.from_ring(R.from_string("3"))


def test_chern_via_chains_rejects_invalid_module():
    R = qi_ring("x", "y")
    alg = CurvedAlgebra(R, R.from_string("-x*y"))
    M = CurvedModule.from_stored(alg, [0, 1], [["0", "x"], ["x", "0"]])
    with pytest.raises(InvalidInput):
        chern_via_chains(M, levi_civita(M))


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
    _, cat, _ = _endo_cat((0, 1), h="-x*y")
    M = CurvedModule.from_stored(cat.algebra, (0, 1), [["0", "x"], ["y", "0"]])
    C = levi_civita(M)
    X = M.delta
    built = []
    plain = matform._content
    monkeypatch.setattr(matform, "_content", lambda Y: built.append(Y) or plain(Y))
    WordEvaluator().letter(X)
    hochschild.Chain(cat, 0, (0,), (X,), (1,)).key()
    covariant_derivative_pair(C, C, X, 1)
    assert sum(Y is X for Y in built) == 1
