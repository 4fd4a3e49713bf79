from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedchern.errors import InvalidInput, NotTopForm
from curvedchern.forms import (
    DiffForm,
    _exterior_d,
    _indices,
    _wedge_row,
    USeries,
    de_rham_d,
    hn_differential,
    milnor_representative,
    relation_differential,
    vanishes_mod_relation,
)
from curvedchern.rings import GradedRing, RingElement
from curvedchern.scalars import Scalar

from util import (
    d_var,
    qi_ring,
    reference_de_rham_d,
    reference_derivative,
    reference_exterior_d,
    reference_merge_indices,
    sphere_ring,
)


def _dx(R, name):
    return d_var(R, name)


def _f(R, s):
    return DiffForm.from_ring(R.from_string(s))


def _series(R, terms):
    """The USeries of a flat map {(J, S): RingElement}."""
    forms = {}
    for (J, S), p in terms.items():
        forms.setdefault(J, {})[S] = p
    return USeries(R, {J: DiffForm(R, f) for J, f in forms.items()})


@pytest.mark.parametrize(
    "S",
    [(1, 0), (0, 0), (0, 2, 1), (3,), (-1,), (0, 3)],
    ids=["unsorted", "repeated", "unsorted-triple", "past-the-end", "negative", "one-out"],
)
def test_constructor_refuses_bad_wedge_indices(S):
    R = qi_ring("x", "y", "z")
    with pytest.raises(InvalidInput):
        DiffForm(R, {S: R.one()})


def test_internal_results_keep_sorted_nonzero_parts():
    R = qi_ring("x", "y", "z")
    w = _f(R, "x+1").wedge(_dx(R, "z")).wedge(_dx(R, "x")) + _dx(R, "y")
    for form in (w, -w, w.scale(Scalar(2)), w.scale_ring(R.from_string("y")), w.component(2)):
        assert all(list(S) == sorted(set(S)) for S in form.parts)
        assert not any(c.is_zero() for c in form.parts.values())
    assert w.scale(Scalar(0)).is_zero()
    assert w.scale_ring(R.zero()).is_zero()
    assert (w - w).is_zero()


def test_useries_refuses_negative_u_powers():
    R = qi_ring("x", "y")
    with pytest.raises(InvalidInput):
        USeries(R, {-1: _dx(R, "x")})
    p = USeries.from_form(_dx(R, "x"), 1)
    with pytest.raises(InvalidInput):
        p.shift_u(-2)
    assert p.shift_u(-1) == USeries.from_form(_dx(R, "x"), 0)


def test_internal_useries_results_keep_nonzero_forms():
    R = qi_ring("x", "y")
    p = USeries.from_form(_f(R, "x"), 0) + USeries.from_form(_dx(R, "y"), 2)
    q = USeries.from_form(_f(R, "y"), 1)
    for s in (p + q, p - q, -p, p.scale(Scalar(3)), p.shift_u(2), p * q, p + (-p)):
        coeffs = s.coeffs
        assert tuple(sorted(coeffs)) == s.u_powers()
        for J, form in coeffs.items():
            assert isinstance(J, int) and J >= 0
            assert form == s.coefficient(J) and not form.is_zero()
            for S, c in form.parts.items():
                assert list(S) == sorted(set(S))
                assert not c.is_zero()
    assert p.scale(Scalar(0)).is_zero()
    assert (p + (-p)).is_zero()


def test_wedge_anticommutes_on_one_forms():
    R = qi_ring("x", "y")
    dx, dy = _dx(R, "x"), _dx(R, "y")
    assert dx.wedge(dy) == -dy.wedge(dx)
    assert dx.wedge(dx).is_zero()


def test_wedge_inversion_sign():
    R = qi_ring("x", "y", "z")
    dx, dy, dz = (_dx(R, v) for v in "xyz")
    dzy = dz.wedge(dy)  # one inversion: -dy∧dz
    assert dzy == -dy.wedge(dz)
    assert dx.wedge(dzy) == -dx.wedge(dy.wedge(dz))


def test_d_squares_to_zero():
    R = qi_ring("x", "y", "z")
    omega = _f(R, "x^2*y").wedge(_dx(R, "z")) + _f(R, "x*z")
    assert de_rham_d(de_rham_d(omega)).is_zero()


def test_d_leibniz_relation_free():
    R = qi_ring("x", "y")
    a, b = _f(R, "x^2+y"), _f(R, "x*y-1")
    lhs = de_rham_d(a.wedge(b))
    rhs = de_rham_d(a).wedge(b) + a.wedge(de_rham_d(b))
    assert lhs == rhs


def test_d_on_quotient_is_not_a_derivation():
    # the reason identity checks fall back to membership over quotients:
    # on normal forms, d(NF(x1*x1)) != 2 x1 dx1 in k[x1,x2]/(x1^2+x2^2-1)
    R = sphere_ring(2)
    x1 = _f(R, "x1")
    lhs = de_rham_d(x1.wedge(x1))
    rhs = de_rham_d(x1).wedge(x1) + x1.wedge(de_rham_d(x1))
    assert lhs != rhs
    # ... but the discrepancy lies in the relation submodule
    assert vanishes_mod_relation(lhs - rhs)


def test_hn_differential_shape():
    R = qi_ring("x", "y")
    h = R.from_string("-x*y")
    p = USeries.from_form(_f(R, "x"), 0) + USeries.from_form(_dx(R, "x"), 1)
    out = hn_differential(p, h)
    # u^0: dh∧x ; u^1: d(x) + dh∧dx ; u^2: d(dx) = 0
    dh = de_rham_d(_f(R, "-x*y"))
    assert out.coefficient(0) == dh.wedge(_f(R, "x"))
    assert out.coefficient(1) == _dx(R, "x") + dh.wedge(_dx(R, "x"))
    assert out.coefficient(2).is_zero()


def test_hn_differential_squares_to_zero_relation_free():
    R = qi_ring("x", "y")
    h = R.from_string("x^2*y")
    p = USeries.from_form(_f(R, "y").wedge(_dx(R, "x")), 0) + USeries.from_form(
        _f(R, "x^3"), 2
    )
    assert hn_differential(hn_differential(p, h), h).is_zero()


def test_useries_add_and_mul():
    R = qi_ring("x")
    p = USeries.from_form(_f(R, "x"), 1)
    q = USeries.from_form(_dx(R, "x"), 0)
    assert (p + q).coefficient(1) == _f(R, "x")
    assert (p * q).coefficient(1) == _f(R, "x").wedge(_dx(R, "x"))


def test_relation_submodule_generators_sphere():
    R = sphere_ring(3)
    df0 = de_rham_d(_f(R, "x1^2+x2^2+x3^2-1"))
    target = df0.wedge(_dx(R, "x2")).scale_ring(R.from_string("x1*x3"))
    assert vanishes_mod_relation(target)


# the Jacobian criterion: k[x]/(f0) is smooth iff 1 ∈ (f0, ∂f0)
_SMOOTH = [qi_ring("x", "y", relation="x*y-1"), qi_ring("x", "y", "z", relation="x^2-1"),
           qi_ring("x", "y", "z", relation="x^3+y^3+z^3-1")]
_COEFFS = ["0", "1", "x", "y", "x*y", "x^2-1", "x+2*y", "i*y^2", "x^2*y+i"]


@pytest.mark.parametrize("relation", ["x^2-y^3", "x^2-y^2-y^3"], ids=["cusp", "node"])
def test_a_singular_relation_is_refused_naming_the_jacobian_criterion(relation):
    R = qi_ring("x", "y", relation=relation)
    message = r"relation is singular: 1 is not in \(f0, d\(f0\)/dx, d\(f0\)/dy\), the Jacobian criterion"
    with pytest.raises(InvalidInput, match=message):
        relation_differential(R)
    # the library's test refuses it too, zero forms included
    for form in (DiffForm.zero(R), _dx(R, "x")):
        with pytest.raises(InvalidInput, match=message):
            vanishes_mod_relation(form)


def test_a_ring_without_a_relation_has_only_the_zero_form_to_vanish():
    R = qi_ring("x", "y")
    assert relation_differential(R) is None
    assert vanishes_mod_relation(DiffForm.zero(R))
    assert not vanishes_mod_relation(_dx(R, "x"))


@pytest.mark.parametrize("R", _SMOOTH, ids=["xy-1", "x2-1", "fermat-cubic"])
def test_a_smooth_relation_gives_its_differential(R):
    df0 = relation_differential(R)
    assert df0.form_degrees() == {1}
    for v, name in enumerate(R.variables):
        assert df0.coefficient((v,)) == R.relation.derivative(name)
    assert relation_differential(R) == df0  # held, and read back the same


def _drawn_form(data, R) -> DiffForm:
    """A form with a drawn coefficient on every dx_S."""
    out = DiffForm.zero(R)
    for k in range(R.nvars + 1):
        for S in combinations(range(R.nvars), k):
            out = out + DiffForm(R, {S: R.from_string(data.draw(st.sampled_from(_COEFFS)))})
    return out


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(range(len(_SMOOTH))), st.sampled_from(["1", "x", "x*y+2", "i*y-1"]), st.data())
def test_the_wedge_with_df0_decides_the_relation_submodule(k, p, data):
    # df0 ∧ η is a member; adding a nonzero function p is not, as
    # df0 ∧ (df0 ∧ η + p) = p·df0, which vanishes only when p does
    R = _SMOOTH[k]
    df0 = relation_differential(R)
    member = df0.wedge(_drawn_form(data, R))
    assert vanishes_mod_relation(member)
    outside = member + _f(R, p)
    assert not df0.wedge(outside).is_zero()
    assert not vanishes_mod_relation(outside)


def test_milnor_representative_xy():
    R = qi_ring("x", "y")
    omega = _f(R, "1").wedge(_dx(R, "x")).wedge(_dx(R, "y"))
    rep = milnor_representative(omega, R.from_string("x*y"))
    assert rep == R.one()


def test_milnor_representative_rejects_lower_forms():
    R = qi_ring("x", "y")
    with pytest.raises(NotTopForm):
        milnor_representative(_dx(R, "x"), R.from_string("x*y"))


def test_milnor_representative_kills_jacobian_multiples():
    R = qi_ring("x", "y")
    top = _dx(R, "x").wedge(_dx(R, "y"))
    omega = top.scale_ring(R.from_string("3*x^2 + x"))  # x^2, x in J(x^3+y^2)... x^2 only
    rep = milnor_representative(omega, R.from_string("x^3+y^2"))
    # Jacobian ideal is (3x^2, 2y): 3x^2 dies, x survives
    assert rep == R.from_string("x")


small_polys = st.sampled_from(["x", "y", "x*y", "x^2-1", "x+2*y", "1"])


_D_FREE = qi_ring("x1", "x2", "x3")
_D_SPHERE = sphere_ring(3)


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([_D_FREE, _D_SPHERE]),
    st.dictionaries(
        st.sampled_from([(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]),
        st.sampled_from(["1", "x1", "-x2^3", "x1*x2*x3", "2*x1^2-x3", "i*x2*x3+x1^4", "x3^2+x2"]),
        max_size=4,
    ),
)
def test_de_rham_d_matches_the_wedge_formula(ring, parts):
    # forms of mixed degree, top forms included, over a free and a quotient ring
    omega = DiffForm(ring, {S: ring.from_string(p) for S, p in parts.items()})
    got = de_rham_d(omega)
    assert got == reference_de_rham_d(omega)
    assert all(not c.is_zero() for c in got.parts.values())


_D_POLYS = ["1", "x1", "-x2^3", "x1*x2*x3", "2*x1^2-x3", "i*x2*x3+x1^4", "x3^2+x2", "x1/3-x2/6"]
_D_INDICES = [S for k in range(4) for S in combinations(range(3), k)]


@settings(deadline=None, max_examples=80)
@given(
    st.sampled_from([_D_FREE, _D_SPHERE]),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.sampled_from(_D_INDICES)),
        st.sampled_from(_D_POLYS),
        max_size=6,
    ),
    st.booleans(),
)
def test_exterior_d_matches_one_derivative_per_variable(ring, raw, negate):
    # u-powers 0-2, form degrees 0-3
    terms = {key: ring.from_string(p) for key, p in raw.items()}
    got = _exterior_d(_series(ring, terms), negate)
    assert got == _series(ring, reference_exterior_d(ring, terms, negate))
    for c in terms.values():
        for name in ring.variables:
            assert c.derivative(name) == reference_derivative(c, name)


def test_exterior_d_forms_no_derivative_call_and_no_normal_form(monkeypatch):
    ring = _D_SPHERE
    terms = {(J, S): ring.from_string(p) for J, S, p in [
        (0, (), "x1*x2*x3+x2^3"), (1, (0,), "i*x2*x3+x1^4"), (0, (1, 2), "2*x1^2-x3"),
        (2, (0, 2), "x3^2+x2"),
    ]}
    series = _series(ring, terms)
    want = _series(ring, reference_exterior_d(ring, terms, True))
    calls = []

    def spy(cls, name):
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    spy(RingElement, "derivative")
    spy(GradedRing, "_normal_forms")
    got = _exterior_d(series, True)
    assert calls == []
    assert got == want


@settings(deadline=None, max_examples=30)
@given(small_polys, small_polys, small_polys)
def test_wedge_associative_and_distributive(a, b, c):
    R = qi_ring("x", "y")
    fa = _f(R, a).wedge(_dx(R, "x"))
    fb = _f(R, b).wedge(_dx(R, "y"))
    fc = _f(R, c)
    assert fa.wedge(fb.wedge(fc)) == fa.wedge(fb).wedge(fc)
    assert fa.wedge(fb + fc) == fa.wedge(fb) + fa.wedge(fc)


def test_scale_by_i():
    R = qi_ring("x")
    form = _dx(R, "x").scale(Scalar(0, 1))
    assert str(form) == "i*d(x)"


def test_memoized_merge_indices_agrees_with_the_formula_on_every_pair():
    # the wedge sign of every pair of masks on five variables (1 024 pairs),
    # each asked twice so the second answer comes from the memo: zero on an
    # overlap, else the sign that sorts the concatenated indices
    tuples = [S for k in range(6) for S in combinations(range(5), k)]
    assert len(tuples) ** 2 == 1024
    for _ in range(2):
        for S1 in tuples:
            for S2 in tuples:
                m1, m2 = sum(1 << v for v in S1), sum(1 << v for v in S2)
                want = reference_merge_indices(S1, S2)
                if want is None:
                    assert _wedge_row(m1)[m2] == 0, (S1, S2)
                else:
                    assert (_indices(m1 | m2), _wedge_row(m1)[m2]) == want, (S1, S2)
