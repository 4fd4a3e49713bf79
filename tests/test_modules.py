from __future__ import annotations

from importlib.resources import files

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedchern import cli, forms, matform, modules
from curvedchern.errors import InvalidInput, NonLinearCurvature
from curvedchern.forms import DiffForm, USeries, de_rham_d
from curvedchern.matform import Mat, content_key
from curvedchern.modules import (
    Connection,
    CurvedAlgebra,
    CurvedModule,
    check_curvature,
    check_module,
    chern_power_series,
    chern_weil,
    commutator_check,
    commutator_residue,
    connection_with_mu,
    covariant_derivative,
    curvature_mat,
    curvature_R,
    cycle_check,
    levi_civita,
)
from curvedchern.randomgen import random_module_instance

from util import d_var, not_a_derivation, qi_ring, reference_commutator_residue, reference_curvature, sphere_ring


def _mf_xy():
    R = qi_ring("x", "y")
    alg = CurvedAlgebra(R, R.from_string("-x*y"))
    M = CurvedModule.from_stored(alg, [0, 1], [["0", "x"], ["y", "0"]])
    return R, alg, M


def _a1_ci():
    R = qi_ring("x", "T", degrees=[0, 2], grading="Z")
    alg = CurvedAlgebra(R, R.from_string("-x^2*T"))
    M = CurvedModule.from_stored(alg, [0, 1], [["0", "x"], ["x*T", "0"]])
    return R, alg, M


def _dx(R, v):
    return d_var(R, v)


def test_check_module_accepts_mf_xy():
    _, _, M = _mf_xy()
    verdict = check_module(M)
    assert verdict.ok, verdict.failures


def test_run_suite_validates_a_parsed_module_once(monkeypatch):
    calls = []
    body = modules.check_module

    def spy(M):
        calls.append(M)
        return body(M)

    monkeypatch.setattr(modules, "check_module", spy)
    text = files("curvedchern.corpus").joinpath("mf_xy.json").read_text(encoding="utf-8")
    inst = cli.parse_instance(text, "mf_xy.json")
    res = cli.run_suite(inst.module, inst.connection)
    assert res.ok
    assert len(calls) == 1  # by parse_instance; the routes reuse its verdict


def test_run_suite_differentiates_delta_once(monkeypatch):
    # delta != 0 and theta != 0: Chern-Weil and the chain route both need
    # [nabla, delta], and the commutator check needs it inside R
    R, alg, M = _mf_xy()
    mu = Mat.from_stored(R, [0, 1], [[_dx_form(R, "x", "y"), "0"], ["0", _dx_form(R, "y", "x")]])
    C = connection_with_mu(M, mu)
    assert not C.theta.is_zero() and not M.delta.is_zero()
    target = content_key(M.delta)
    calls = []
    body = Mat.row_sign_d

    def spy(X):
        if content_key(X) == target:
            calls.append(X)
        return body(X)

    monkeypatch.setattr(Mat, "row_sign_d", spy)
    res = cli.run_suite(M, C)
    assert res.ok
    assert len(calls) == 1  # not once per route


def test_chern_weil_words_are_listed_per_evaluator():
    # the words depend on the evaluator only through the letter ids of A
    # and K: another evaluator, whose ids are shifted by a letter interned
    # first, gets the same words shifted, and the first one's key gives
    # back the tuple listed for it
    M, C = random_module_instance(4)  # six words, both letters, ch != 0
    first = modules.WordEvaluator()
    listed = modules.chern_weil_words(M, C, first)
    assert listed and isinstance(listed, tuple)
    assert modules.chern_weil_words(M, C, first) is listed
    other = modules.WordEvaluator()
    other.letter(M.e)
    shifted = modules.chern_weil_words(M, C, other)
    assert shifted == tuple(tuple(x + 1 for x in w) for w in listed)
    assert modules.chern_weil_words(M, C, first) is listed
    ch = modules.chern_weil(M, C, other)
    assert not ch.is_zero() and ch == modules.chern_weil(M, C, first) == modules.chern_weil(M, C)


def _dx_form(R, coeff, var):
    return DiffForm.from_ring(R.from_string(coeff)).wedge(d_var(R, var))


def test_check_module_catches_wrong_square():
    R = qi_ring("x", "y")
    alg = CurvedAlgebra(R, R.from_string("-x*y"))
    M = CurvedModule.from_stored(alg, [0, 1], [["0", "x"], ["x", "0"]])
    verdict = check_module(M)
    assert not verdict.ok
    assert any("delta^2" in f for f in verdict.failures)


def test_check_module_catches_degree_violation():
    R = qi_ring("x", "T", degrees=[0, 2], grading="Z")
    alg = CurvedAlgebra(R, R.from_string("-x^2*T"))
    M = CurvedModule.from_stored(alg, [0, 1], [["0", "T"], ["x*T", "0"]])
    verdict = check_module(M)
    assert any("degree rule" in f for f in verdict.failures)


def test_check_module_catches_non_idempotent():
    R = qi_ring("x", "y")
    alg = CurvedAlgebra(R, R.zero())
    M = CurvedModule.from_stored(
        alg, [0, 1], [["0", "0"], ["0", "0"]], idempotent_rows=[["x", "0"], ["0", "1"]]
    )
    verdict = check_module(M)
    assert any("e^2" in f for f in verdict.failures)


def test_covariant_derivative_display_pin():
    # stored [[0,x],[y,0]] with the flat connection: displayed derivative
    # is entrywise d of the stored matrix, [[0,dx],[dy,0]]
    R, _, M = _mf_xy()
    C = levi_civita(M)
    dprime = covariant_derivative(C, M.delta, 1)
    disp = dprime.display()
    assert disp[0][1] == USeries.from_form(_dx(R, "x"))
    assert disp[1][0] == USeries.from_form(_dx(R, "y"))
    assert disp[0][0].is_zero() and disp[1][1].is_zero()


def test_chern_weil_mf_xy_is_dx_dy():
    R, _, M = _mf_xy()
    ch = chern_weil(M, levi_civita(M))
    expected = USeries.from_form(_dx(R, "x").wedge(_dx(R, "y")))
    assert ch == expected


def test_chern_weil_a1_ci_is_x_dx_dT():
    R, _, M = _a1_ci()
    ch = chern_weil(M, levi_civita(M))
    expected = USeries.from_form(
        _dx(R, "x").wedge(_dx(R, "T")).scale_ring(R.from_string("x"))
    )
    assert ch == expected


def test_cycle_and_commutator_exact_on_mf_xy():
    _, _, M = _mf_xy()
    C = levi_civita(M)
    assert cycle_check(M, chern_weil(M, C)).mode == "exact"
    assert commutator_check(M, C).mode == "exact"


def test_cycle_and_commutator_exact_on_a1_ci():
    _, _, M = _a1_ci()
    C = levi_civita(M)
    assert cycle_check(M, chern_weil(M, C)).mode == "exact"
    assert commutator_check(M, C).mode == "exact"


def test_free_flat_module_has_rank_chern_character():
    R = qi_ring("x", "y")
    alg = CurvedAlgebra(R, R.zero())
    M = CurvedModule.from_stored(alg, [0, 0], [["0", "0"], ["0", "0"]])
    ch = chern_weil(M, levi_civita(M))
    assert ch == USeries.from_ring(R.from_string("2"))


def test_balanced_free_module_has_zero_rank():
    R = qi_ring("x", "y")
    alg = CurvedAlgebra(R, R.zero())
    M = CurvedModule.from_stored(alg, [0, 1], [["0", "0"], ["0", "0"]])
    assert chern_weil(M, levi_civita(M)).is_zero()


def _sphere_module():
    R = sphere_ring(3)
    alg = CurvedAlgebra(R, R.zero())
    half = "1/2"
    e_rows = [
        [f"{half}*(1-x1)", f"{half}*(-x2-i*x3)"],
        [f"{half}*(-x2+i*x3)", f"{half}*(1+x1)"],
    ]
    zero = [["0", "0"], ["0", "0"]]
    M = CurvedModule.from_stored(alg, [0, 0], zero, idempotent_rows=e_rows)
    return R, M


def test_sphere_idempotent_module_checks_out():
    _, M = _sphere_module()
    verdict = check_module(M)
    assert verdict.ok, verdict.failures


def test_sphere_curvature_nonzero_and_ch_two_terms():
    R, M = _sphere_module()
    C = levi_civita(M)
    K = curvature_mat(C)
    assert not K.is_zero()
    ch = chern_weil(M, C)
    # str(e) = 1; K^2 = 0 by form degree over 3 variables on a rank-1 image
    assert ch.coefficient(0) == DiffForm.from_ring(R.one())
    assert ch.coefficient(1) == -K.supertrace().coefficient(0)
    assert ch.coefficient(2).is_zero()


def test_sphere_chern_class_is_cycle():
    R, M = _sphere_module()
    C = levi_civita(M)
    # c1 = str(K): closed modulo the relation submodule
    c1 = curvature_mat(C).supertrace().coefficient(0)
    from curvedchern.forms import vanishes_mod_relation

    assert vanishes_mod_relation(de_rham_d(c1))


def test_curvature_closed_form_matches_double_application():
    # nabla^2 = e·D(e)·D(e)·e + e·D(theta)·e + theta^2; here e = id so
    # the first summand drops and K = D(theta) + theta^2
    R = qi_ring("x", "y")
    alg = CurvedAlgebra(R, R.zero())
    M = CurvedModule.from_stored(alg, [0, 1, 0], [["0"] * 3 for _ in range(3)])
    z = DiffForm.zero(R)
    mu = Mat.from_stored(
        R,
        [0, 1, 0],
        [
            [z, z, _dx(R, "y").scale_ring(R.from_string("x"))],
            [z, z, z],
            [_dx(R, "x").scale_ring(R.from_string("y")), z, z],
        ],
    )
    C = connection_with_mu(M, mu)
    K = curvature_mat(C)
    closed = mu.row_sign_d() + (mu @ mu)
    assert not (mu @ mu).is_zero()
    assert K == closed


def test_curvature_closed_form_with_idempotent():
    # levi-civita on im(e): K = e·D(e)·D(e)·e.  On the quotient ring the
    # two sides differ by relation forms (d of a normal form is not a
    # derivation there), so compare modulo the relation submodule.
    from curvedchern.forms import vanishes_mod_relation

    _, M = _sphere_module()
    K = curvature_mat(levi_civita(M))
    e = M.e
    de = e.row_sign_d()
    diff = K - e @ de @ de @ e
    assert not diff.is_zero()  # the representatives genuinely differ
    for t in range(2):
        for s in range(2):
            entry = diff.entry(t, s)
            assert all(
                vanishes_mod_relation(entry.coefficient(J))
                for J in entry.u_powers()
            )


def test_perturbed_connection_still_satisfies_identities():
    R, _, M = _mf_xy()
    mu = Mat.from_stored(
        R,
        [0, 1],
        [
            [_dx(R, "x").scale_ring(R.from_string("x")), DiffForm.zero(R)],
            [DiffForm.zero(R), _dx(R, "y").scale_ring(R.from_string("-2*x"))],
        ],
    )
    C = connection_with_mu(M, mu)
    assert cycle_check(M, chern_weil(M, C)).mode == "exact"
    assert commutator_check(M, C).mode == "exact"


def test_supertrace_entry_point():
    R, _, M = _mf_xy()
    assert M.e.supertrace() == USeries.zero(R)  # degrees (0,1): 1 - 1


entry = st.sampled_from(["0", "x", "y", "x+y", "x*y", "2*x^2"])


@settings(deadline=None, max_examples=10)
@given(entry, entry)
def test_commutator_identity_random_koszul(a, b):
    # rank-2 factorization [[0,p],[q,0]] of h = -pq: the commutator and
    # cycle identities hold exactly over the free ring
    R = qi_ring("x", "y")
    p, q = R.from_string(a), R.from_string(b)
    alg = CurvedAlgebra(R, -(p * q))
    M = CurvedModule.from_stored(alg, [0, 1], [["0", str(p)], [str(q), "0"]])
    assert check_module(M).ok
    C = levi_civita(M)
    assert commutator_check(M, C).ok
    assert cycle_check(M, chern_weil(M, C)).ok


# -- the commutator check: its residue, its teeth, its kernel calls -----


def _mf_xy_with_theta():
    R, _, M = _mf_xy()
    mu = Mat.from_stored(R, [0, 1], [[_dx_form(R, "x", "y"), "0"], ["0", _dx_form(R, "y", "x")]])
    C = connection_with_mu(M, mu)
    assert not C.theta.is_zero()
    return R, M, C


def _s4():
    text = files("curvedchern.corpus").joinpath("s4_nonflat.json").read_text(encoding="utf-8")
    inst = cli.parse_instance(text, "s4_nonflat.json")
    return inst.module, inst.connection


def _sphere_with_theta():
    R, M = _sphere_module()
    raw = Mat(R, [0, 0], [0, 0], [[_dx_form(R, "x2", "x1"), "0"], ["0", "0"]])
    return M, connection_with_mu(M, M.e @ raw @ M.e)


def _with_curvature(M, C, K):
    """A fresh connection with the same theta and its cached curvature
    replaced by K."""
    out = Connection(M, C.theta)
    out._curvature = K
    return out


def test_commutator_check_fails_on_a_perturbed_curvature_over_a_free_ring():
    # theta != 0, e = 1: adding a 2-form to nabla^2 breaks [delta, R] = ...
    R, M, C = _mf_xy_with_theta()
    K = curvature_mat(C)
    assert commutator_check(M, C).mode == "exact"
    Z = Mat.from_stored(R, [0, 1], [[_dx_form(R, "1", "x").wedge(_dx(R, "y")), "0"], ["0", "0"]])
    verdict = commutator_check(M, _with_curvature(M, C, K + Z))
    assert verdict.mode == "failed" and not verdict.ok


def test_commutator_check_fails_on_a_perturbed_curvature_mod_relation():
    # the mod-relation path with a nontrivial idempotent: on the 4-sphere a
    # 3-form residue need not lie in the relation submodule.  (On the
    # 2-sphere of _sphere_module every residue is a 3-form in three
    # variables, which always does, so no perturbation can fail there.)
    M, C = _s4()
    R = M.ring
    K = curvature_mat(C)
    rows = [["0"] * len(M.degrees) for _ in M.degrees]
    rows[0][0] = DiffForm(R, {(0, 1): R.from_string("x3")})
    Z = M.e @ Mat.from_stored(R, M.degrees, rows) @ M.e
    assert not Z.is_zero() and M.e @ Z @ M.e == Z
    assert commutator_check(M, _with_curvature(M, C, K), 6).mode == "mod-relation"
    verdict = commutator_check(M, _with_curvature(M, C, K + Z), 6)
    assert verdict.mode == "failed" and not verdict.ok


@pytest.mark.parametrize("seed", range(200))
def test_commutator_residue_is_the_composed_residue_on_random_instances(seed):
    M, C = random_module_instance(seed)
    assert commutator_residue(M, C) == reference_commutator_residue(M, C)


@pytest.mark.parametrize("make", [lambda: levi_civita(_sphere_module()[1]), lambda: _sphere_with_theta()[1]],
                         ids=["levi-civita", "theta"])
def test_commutator_residue_is_the_composed_residue_on_the_sphere(make):
    C = make()
    M = C.module
    residue, want = commutator_residue(M, C), reference_commutator_residue(M, C)
    assert not want.is_zero()  # nonzero u^2 3-forms, zero modulo the relation
    assert residue == want
    # with no bound each entry picks its own, and the detail names the largest
    assert commutator_check(M, C) == modules._mat_vanishes(want, None)


def test_residue_verdict_reads_content_not_assembly_order():
    # two top forms on the 3-sphere, zero modulo the relation, whose
    # default bounds differ (2 and 5); the two sums store them in opposite
    # orders, and both report the largest bound
    R = sphere_ring(3)
    z = "0"
    one = DiffForm(R, {(0, 1, 2): R.one()})
    big = DiffForm(R, {(0, 1, 2): R.from_string("x1*x2*x3")})
    P = Mat(R, [0, 0], [0, 0], [[one, z], [z, z]])
    Q = Mat(R, [0, 0], [0, 0], [[z, big], [z, z]])
    left, right = P + Q, Q + P
    assert left == right and list(left.rows[0]) != list(right.rows[0])
    verdict = modules._mat_vanishes(left, None)
    assert verdict == modules._mat_vanishes(right, None)
    assert (verdict.ok, verdict.mode, verdict.detail) == (True, "mod-relation", "bound 5")


def _count_kernel_calls(monkeypatch) -> list:
    """Kernel calls made before the residue goes to the vanishing test
    (which, over a relation, forms products of its own)."""
    calls: list = []
    counting = [True]
    body, vanishes = forms.sum_of_products, modules._mat_vanishes

    def spy(ring, contributions, added=()):
        if counting[0]:
            calls.append(1)
        return body(ring, contributions, added)

    def stop(*args):
        counting[0] = False
        return vanishes(*args)

    monkeypatch.setattr(forms, "sum_of_products", spy)
    monkeypatch.setattr(modules, "_mat_vanishes", stop)
    return calls


@pytest.mark.parametrize("make", [lambda: _mf_xy_with_theta()[1:], _s4], ids=["mf-xy-theta", "s4"])
def test_commutator_check_makes_one_kernel_call_per_entry(make, monkeypatch):
    M, C = make()
    R = curvature_R(C)  # nabla^2 and [nabla, delta] are built before counting
    stored = sum(len(row) for row in (R.row_sign_d() @ M.e).rows)
    calls = _count_kernel_calls(monkeypatch)
    assert commutator_check(M, C, 6).ok
    assert len(calls) <= stored + len(M.degrees) ** 2


# -- the curvature: its double application and its linearity check ----


def test_curvature_matches_the_column_by_column_double_application():
    sphere = _sphere_with_theta()[1]
    assert not sphere.theta.is_zero()
    for C in [sphere, _s4()[1]] + [random_module_instance(seed)[1] for seed in range(200)]:
        assert curvature_mat(C) == reference_curvature(C)


@pytest.mark.parametrize(
    "variables, seed, message",
    [
        ((0,), 6, "x on column 3"),
        ((0,), 7, "x on column 1"),
        ((0,), 31, "x on column 0"),
        # x fails on column 3 and z on column 0: the lowest column is named
        ((0, 1, 2), 6, "z on column 0"),
    ],
)
def test_linearity_check_catches_a_derivative_that_is_not_a_derivation(
    variables, seed, message, monkeypatch
):
    monkeypatch.setattr(Mat, "row_sign_d", not_a_derivation(variables))
    want = f"curvature fails linearity in {message}"
    C = random_module_instance(seed)[1]
    with pytest.raises(NonLinearCurvature) as got:
        check_curvature(C, curvature_mat(C))
    assert str(got.value) == want
    with pytest.raises(NonLinearCurvature) as old:
        reference_curvature(random_module_instance(seed)[1])
    assert str(old.value) == want


@pytest.mark.parametrize("variables, message", [((1,), "x2 on column 4"), ((3,), "x4 on column 4")])
def test_linearity_check_reads_the_block_column_mod_relation(variables, message, monkeypatch):
    # s4 has rank 8, so x_v·I holds its column j at v·8 + j.  Its e is
    # block diagonal in the basis degrees, and the mutant breaks D on the
    # odd rows only, so the failures sit in columns 4-7.  The x1 residues
    # of columns 0-4 are nonzero there too, but lie in the relation
    # submodule: the first failure, x_{k+1} on column 4 (block column
    # 8·k + 4), is named only when vanishes_mod_relation reads them.
    monkeypatch.setattr(Mat, "row_sign_d", not_a_derivation(variables, 1, True))
    want = f"curvature fails linearity in {message}"
    with pytest.raises(NonLinearCurvature) as old:
        reference_curvature(_s4()[1])
    assert str(old.value) == want
    C = _s4()[1]
    with pytest.raises(NonLinearCurvature) as got:
        check_curvature(C, curvature_mat(C))
    assert str(got.value) == want
    monkeypatch.setattr(modules, "vanishes_mod_relation", lambda form: form.is_zero())
    C = _s4()[1]
    with pytest.raises(NonLinearCurvature) as strict:
        check_curvature(C, curvature_mat(C))
    assert str(strict.value) == "curvature fails linearity in x1 on column 0"


def _curvature_passes(monkeypatch, C) -> tuple[int, list]:
    """(Mat.sum_of_products passes, rings.sum_of_products contributions)
    of check_curvature(C, curvature_mat(C)), the kernel spied on in every
    module that holds it."""
    from curvedchern import rings

    passes, contributions = [0], []
    whole, kernel = Mat.sum_of_products, rings.sum_of_products

    def count(*args):
        passes[0] += 1
        return whole(*args)

    def spy(ring, batch, added=()):  # added rows are not products
        contributions.extend(batch)
        return kernel(ring, batch, added)

    monkeypatch.setattr(Mat, "sum_of_products", staticmethod(count))
    for mod in (rings, forms, matform):
        monkeypatch.setattr(mod, "sum_of_products", spy)
    check_curvature(C, curvature_mat(C))
    monkeypatch.undo()
    return passes[0], contributions


def test_the_linearity_check_makes_a_fixed_number_of_passes(monkeypatch):
    # random seeds 3, 2 and 4 have 1, 2 and 3 variables, e = 1 and theta
    # != 0.  K = nabla(nabla(e)) and the block nabla(nabla(S)) - K·S are
    # two passes each at any number of variables; e·S = S forms nothing.
    for seed, nvars in [(3, 1), (2, 2), (4, 3)]:
        C = random_module_instance(seed)[1]
        assert C.module.ring.nvars == nvars and C.module.e.is_identity()
        passes, contributions = _curvature_passes(monkeypatch, C)
        assert passes == 4
        # with e = 1 every product has a form factor (theta, D(.) or K):
        # none is the product of two functions e[t][t]·x_v, keyed (0, 0)
        assert contributions and all(key[1] for key, *_ in contributions)
    # a nontrivial e forms e·S in one more pass
    assert _curvature_passes(monkeypatch, _s4()[1])[0] == 5


def test_verify_exits_4_when_the_linearity_check_trips(monkeypatch, capsys):
    monkeypatch.setattr(Mat, "row_sign_d", not_a_derivation((0,)))
    assert cli.main(["verify", "--random", "1", "--seed", "6"]) == 4


@pytest.mark.parametrize(
    "argv",
    [["verify", str(files("curvedchern.corpus").joinpath("s4_nonflat.json"))], ["examples", "s4-nonflat"]],
    ids=["verify-file", "examples"],
)
def test_every_s4_command_exits_4_when_the_linearity_check_trips(argv, monkeypatch, capsys):
    # the suite's check stage is the only one that runs: the mutant D is
    # named as x2 on column 4, as by check_curvature itself (above)
    monkeypatch.setattr(Mat, "row_sign_d", not_a_derivation((1,), 1, True))
    assert cli.main(argv) == 4
    assert capsys.readouterr().err == "internal consistency failure: curvature fails linearity in x2 on column 4\n"


def test_the_curvature_is_formed_once_held_and_not_checked(monkeypatch):
    # seed 6 under the mutant fails the check as x on column 3, yet
    # curvature_mat forms K in its two passes (the check would add two
    # more) without raising, then hands back the K it holds; the check,
    # run on its own, still trips
    monkeypatch.setattr(Mat, "row_sign_d", not_a_derivation((0,)))
    C = random_module_instance(6)[1]
    passes, whole = [0], Mat.sum_of_products

    def count(*args):
        passes[0] += 1
        return whole(*args)

    with monkeypatch.context() as spied:
        spied.setattr(Mat, "sum_of_products", staticmethod(count))
        K = curvature_mat(C)
        assert curvature_mat(C) is K
    assert passes == [2]
    with pytest.raises(NonLinearCurvature, match="x on column 3"):
        check_curvature(C, K)
    assert curvature_mat(C) is K


def test_the_power_series_equals_chern_weil_on_mf_xy_and_random_seeds():
    inst = cli.parse_instance(cli._corpus_text("mf_xy.json"), "mf-xy")
    M, C, R = inst.module, inst.connection, inst.module.ring
    assert chern_power_series(M, C) == chern_weil(M, C) == USeries.from_form(_dx(R, "x").wedge(_dx(R, "y")))
    for seed in range(50):
        M, C = random_module_instance(seed)
        assert chern_power_series(M, C) == chern_weil(M, C), seed


def test_verify_exits_3_when_the_power_series_differs(monkeypatch, tmp_path, capsys):
    # seeds 0 and 1 have ch = 0, which a shifted series leaves alone, and
    # seed 2 has a ch at u^0 only, where the shifted series has nothing;
    # every check of the suite passes on it
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "chern_power_series", lambda M, C: chern_weil(M, C).shift_u(1))
    assert cli.main(["verify", "--random", "3", "--seed", "0"]) == 3
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert [line.split(" (")[0] for line in lines[:3]] == ["PASS instance 00", "PASS instance 01", "FAIL instance 02"]
    assert lines[3:] == ["failing instance written to failing-instance-2.json"]
    assert err.startswith("identity failure: power-series check failed: u^0: chern-weil gives (3*i*x^2*y")
    assert err.rstrip().endswith("power series gives 0")
    assert (tmp_path / "failing-instance-2.json").exists()


def test_connection_with_mu_refuses_a_perturbation_off_the_image_of_e():
    R, M = _sphere_module()
    mu = Mat(R, [0, 0], [0, 0], [[_dx_form(R, "x2", "x1"), "0"], ["0", "0"]])
    with pytest.raises(InvalidInput, match=r"^connection perturbation must be supported on im\(e\)$"):
        connection_with_mu(M, mu)


def test_connection_with_mu_refuses_a_perturbation_of_the_wrong_degree():
    R, _, M = _mf_xy()
    mu = Mat.from_stored(R, [0, 1], [["x", "0"], ["0", "0"]])
    with pytest.raises(InvalidInput, match="^connection perturbation must have operator degree -1$"):
        connection_with_mu(M, mu)
