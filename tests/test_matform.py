from __future__ import annotations

import contextlib
import io
import json
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedchern import cli, forms, matform
from curvedchern.errors import InternalCheckFailure, InvalidInput
from curvedchern.forms import DiffForm, USeries, de_rham_d
from curvedchern.matform import (
    Mat,
    WordEvaluator,
    content_key,
    supertrace_of_product,
    supertrace_of_square,
)
from curvedchern.randomgen import random_module_instance
from curvedchern.scalars import Scalar

from util import (
    ReferenceMat,
    column,
    qi_ring,
    reference_parity_components,
    reference_supertrace_of_product,
    sphere_ring,
)


def _ring2():
    return qi_ring("x", "y")


def test_from_stored_is_transpose_for_ring_entries():
    R = _ring2()
    m = Mat.from_stored(R, [0, 1], [["0", "x"], ["y", "0"]])
    assert m.entry(0, 1) == USeries.from_ring(R.from_string("y"))
    assert m.entry(1, 0) == USeries.from_ring(R.from_string("x"))
    assert m.entry(0, 0).is_zero() and m.entry(1, 1).is_zero()


def test_display_round_trip_with_forms():
    R = _ring2()
    dx = DiffForm.d_var(R, "x")
    dy = DiffForm.d_var(R, "y")
    # internal matrix with a one-form in an odd row picks up the twist
    m = Mat(
        R,
        [0, 1],
        [0, 1],
        [
            [USeries.zero(R), USeries.from_form(dy)],
            [USeries.from_form(dx).scale(Scalar(-1)), USeries.zero(R)],
        ],
    )
    disp = m.display()
    assert disp[0][1] == USeries.from_form(dx)  # (-1)^{|e_1|} * (-dx)
    assert disp[1][0] == USeries.from_form(dy)
    again = Mat.from_stored(R, [0, 1], disp)
    assert again == m


def test_composition_is_plain_product():
    R = _ring2()
    a = Mat.from_stored(R, [0, 1], [["0", "x"], ["y", "0"]])
    sq = a @ a
    assert sq.entry(0, 0) == USeries.from_ring(R.from_string("x*y"))
    assert sq.entry(1, 1) == USeries.from_ring(R.from_string("x*y"))


def test_degree_rule_checks():
    R = qi_ring("x", "T", degrees=[0, 2], grading="Z")
    delta = Mat.from_stored(R, [0, 1], [["0", "x"], ["x*T", "0"]])
    assert delta.has_operator_degree(1)
    assert not delta.has_operator_degree(0)
    bad = Mat.from_stored(R, [0, 1], [["0", "T"], ["x*T", "0"]])
    assert not bad.has_operator_degree(1)


def test_supertrace_weights_even_component():
    R = _ring2()
    # diag(a, b) on degrees (0, 1): classical signs on the 0-form part
    m = Mat(
        R,
        [0, 1],
        [0, 1],
        [
            [USeries.from_ring(R.from_string("x")), USeries.zero(R)],
            [USeries.zero(R), USeries.from_ring(R.from_string("y"))],
        ],
    )
    assert m.supertrace() == USeries.from_ring(R.from_string("x-y"))


def test_supertrace_odd_component_is_plain_trace():
    R = _ring2()
    dx = DiffForm.d_var(R, "x")
    dy = DiffForm.d_var(R, "y")
    m = Mat(
        R,
        [0, 1],
        [0, 1],
        [
            [USeries.from_form(dx), USeries.zero(R)],
            [USeries.zero(R), USeries.from_form(dy)],
        ],
    )
    # odd form degree: plain trace, no parity weights
    assert m.supertrace() == USeries.from_form(dx + dy)


def test_supertrace_vanishes_on_even_odd_commutator():
    # str([X, Y]) = 0 with the graded commutator; the form degree counts
    # toward parity, so [[0,dx],[0,0]] on degrees (0,1) is EVEN and the
    # bracket is a difference
    R = _ring2()
    z = USeries.zero(R)
    X = Mat(R, [0, 1], [0, 1], [[z, USeries.from_form(DiffForm.d_var(R, "x"))], [z, z]])
    Y = Mat(R, [0, 1], [0, 1], [[z, z], [USeries.from_ring(R.from_string("y")), z]])
    comm = X @ Y - Y @ X
    assert comm.supertrace().is_zero()


def test_supertrace_vanishes_on_odd_odd_anticommutator():
    # two odd ring-entry operators: bracket is the anticommutator, and the
    # cancellation happens through the parity weights, not term by term
    R = _ring2()
    X = Mat.from_stored(R, [0, 1], [["0", "x"], ["y", "0"]])
    Y = Mat.from_stored(R, [0, 1], [["0", "y^2"], ["x^2", "0"]])
    comm = X @ Y + Y @ X
    assert not (X @ Y).supertrace().is_zero()  # the pieces do not vanish alone
    assert comm.supertrace().is_zero()


def test_supertrace_even_commutator_also_vanishes():
    R = _ring2()
    z = USeries.zero(R)
    A = Mat(R, [0, 1], [0, 1], [[USeries.from_ring(R.from_string("x")), z], [z, USeries.from_ring(R.from_string("x*y"))]])
    X = Mat(R, [0, 1], [0, 1], [[z, USeries.from_form(DiffForm.d_var(R, "x"))], [z, z]])
    comm = A @ X - X @ A  # even-odd commutator
    assert comm.supertrace().is_zero()


def test_supertrace_of_odd_ring_matrix_is_zero():
    # with ring entries and the degree rule enforced, odd operators have
    # zero diagonal, hence zero supertrace
    R = qi_ring("x", "T", degrees=[0, 2], grading="Z")
    delta = Mat.from_stored(R, [0, 1], [["0", "x"], ["x*T", "0"]])
    assert delta.has_operator_degree(1)
    assert delta.supertrace().is_zero()


def test_row_sign_d_and_trace_compatibility():
    # str(D(X)) = d(str(X)) for a free module: diag(a,b) on degrees (0,1)
    R = _ring2()
    m = Mat(
        R,
        [0, 1],
        [0, 1],
        [
            [USeries.from_ring(R.from_string("x^2")), USeries.zero(R)],
            [USeries.zero(R), USeries.from_ring(R.from_string("x*y"))],
        ],
    )
    lhs = m.row_sign_d().supertrace()
    str_m = m.supertrace()
    rhs = USeries(R, {J: de_rham_d(f) for J, f in str_m.coeffs.items()})
    assert lhs == rhs


def test_row_sign_d_product_rule():
    # D(XY) = D(X)Y + (-1)^{m_X} X D(Y) for ring-entry matrices
    R = _ring2()
    X = Mat.from_stored(R, [0, 1], [["0", "x^2"], ["y", "0"]])  # odd
    Y = Mat.from_stored(R, [0, 1], [["x*y", "0"], ["0", "y^2"]])  # even
    lhs = (X @ Y).row_sign_d()
    rhs = X.row_sign_d() @ Y - X @ Y.row_sign_d()  # (-1)^{m_X} = -1
    assert lhs == rhs
    lhs2 = (Y @ X).row_sign_d()
    rhs2 = Y.row_sign_d() @ X + Y @ X.row_sign_d()
    assert lhs2 == rhs2


def test_apply_matches_columns():
    R = _ring2()
    X = Mat.from_stored(R, [0, 1], [["x", "y"], ["1", "0"]])
    Y = Mat.from_stored(R, [0, 1], [["y", "x^2"], ["0", "x"]])
    prod = X @ Y
    for j in range(2):
        assert column(prod, j) == X.apply(column(Y, j))


def test_shape_mismatch_raises():
    R = _ring2()
    a = Mat.identity(R, [0, 1])
    b = Mat.identity(R, [0, 0, 1])
    with pytest.raises(InvalidInput):
        a @ b
    with pytest.raises(InvalidInput):
        a + b


entries = st.sampled_from(["0", "x", "y", "x*y", "x^2-1", "2*y"])


@settings(deadline=None, max_examples=25)
@given(entries, entries, entries, entries)
def test_supertrace_linear(a, b, c, d):
    R = _ring2()
    X = Mat.from_stored(R, [0, 1], [[a, b], [c, d]])
    Y = Mat.from_stored(R, [0, 1], [[d, c], [b, a]])
    assert (X + Y).supertrace() == X.supertrace() + Y.supertrace()
    assert X.scale(Scalar(3)).supertrace() == X.supertrace().scale(Scalar(3))


# -- WordEvaluator -----------------------------------------------------


def test_word_evaluator_interns_letters_by_content():
    R = _ring2()
    X = Mat.from_stored(R, [0, 2], [["x", "y"], ["x*y", "1"]])
    Y = Mat.from_stored(R, [0, 2], [["x", "y"], ["x*y", "1"]])
    assert X is not Y
    words = WordEvaluator()
    a = words.letter(X)
    assert words.letter(Y) == a
    tr = words.supertrace((a, a, a))
    assert tr == (X @ X @ X).supertrace()
    assert words.supertrace((a, a, a)) is tr


def test_word_evaluator_separates_a_letter_from_its_negative():
    R = _ring2()
    X = Mat.from_stored(R, [0, 2], [["x", "y"], ["x*y", "1"]])
    words = WordEvaluator()
    a, b = words.letter(X), words.letter(-X)
    assert a != b
    tr, square = words.supertrace((a, b)), words.supertrace((a, a))
    assert tr == supertrace_of_product(X, -X) == -square and tr != square


def test_word_evaluators_over_different_rings_do_not_share():
    # the same entries print alike over the sphere and over the free ring
    # on the same names, but their products reduce differently
    sphere = sphere_ring(3)
    free = qi_ring("x1", "x2", "x3")
    rows = [["x1", "x2"], ["x3", "x1"]]
    Xs = Mat.from_stored(sphere, [0, 0], rows)
    Xf = Mat.from_stored(free, [0, 0], rows)
    assert [[str(v) for v in r] for r in Xs.display()] == [[str(v) for v in r] for r in Xf.display()]
    on_sphere, on_free = WordEvaluator(), WordEvaluator()
    a, b = on_sphere.letter(Xs), on_free.letter(Xf)
    assert on_sphere.supertrace((a, a)) == (Xs @ Xs).supertrace()
    assert on_free.supertrace((b, b)) == (Xf @ Xf).supertrace()
    assert str(on_sphere.supertrace((a, a))) != str(on_free.supertrace((b, b)))
    # one evaluator given both keeps them apart as well
    both = WordEvaluator()
    assert both.letter(Xs) != both.letter(Xf)


D = (0, 1, 1)


def _graded_letters():
    """Letters on degrees D whose parities (μ, σ) are defined: A of
    one-forms linking the even and the odd basis vectors (μ = 0, σ = 1),
    K of even forms on the diagonal (μ = 0, σ = 0)."""
    R = qi_ring("w", "x", "y", "z")
    z = USeries.zero(R)
    dw, dx, dy, dz = (USeries.from_form(DiffForm.d_var(R, v)) for v in "wxyz")
    w, x, y = (USeries.from_ring(R.from_string(v)) for v in "wxy")
    A = Mat(R, D, D, [[z, x * dx, dz + dy], [dy, z, z], [y * dw, z, z]])
    K = Mat(R, D, D, [[x * dx * dy + y, z, z], [z, x - dw * dz, z], [z, z, w]])
    return A, K


def _plain_supertrace(letters, word) -> USeries:
    """str of the product of letters[i] over the word, formed in full."""
    P = letters[word[0]]
    for i in word[1:]:
        P = P @ letters[i]
    return P.supertrace()


def _kernel_spy(monkeypatch) -> list:
    calls = []
    square, product = matform.supertrace_of_square, matform.supertrace_of_product
    monkeypatch.setattr(matform, "supertrace_of_square", lambda P: calls.append("square") or square(P))
    monkeypatch.setattr(
        matform, "supertrace_of_product", lambda X, Y: calls.append("product") or product(X, Y)
    )
    return calls


def test_word_evaluator_reuses_row_class_products_and_rotations(monkeypatch):
    A, K = _graded_letters()
    words = WordEvaluator()
    a, k = words.letter(A), words.letter(K)
    matmuls = []
    plain = Mat.__matmul__
    monkeypatch.setattr(Mat, "__matmul__", lambda P, Q: matmuls.append(1) or plain(P, Q))
    calls = _kernel_spy(monkeypatch)
    # A^4 is twice str_E(A^4), the square of the even rows of A·A: one
    # product, one kernel call
    got = {(a, a, a, a): words.supertrace((a, a, a, a))}
    assert (len(matmuls), calls) == (1, ["square"])
    # A·A·K: str_E(A·A·K) from the even rows of A·A, built already, and
    # str_O from str_E(A·K·A), which builds the even rows of A·K
    got[(a, a, k)] = words.supertrace((a, a, k))
    assert (len(matmuls), calls) == (2, ["square", "product", "product"])
    # the other rotations of A·A·K build nothing and call no kernel
    for w in [(k, a, a), (a, k, a)]:
        got[w] = words.supertrace(w)
    assert (len(matmuls), len(calls)) == (2, 3)
    monkeypatch.undo()
    for w, tr in got.items():
        assert tr == _plain_supertrace({a: A, k: K}, w) and not tr.is_zero(), w


def test_word_evaluator_takes_the_square_path_for_even_square_halves(monkeypatch):
    A, K = _graded_letters()
    words = WordEvaluator()
    a, k = words.letter(A), words.letter(K)
    calls = _kernel_spy(monkeypatch)
    plan = [
        ((k, k), ["square", "square"]),  # no σ = 1 letter: both row classes
        ((a, a), ["product"]),  # σ(A) = 1: str(A·A) = 2·str_E(A·A)
        ((a, k, a, k), ["product", "product"]),  # σ(A·K) = 1: no square
        ((a, a, a, a), ["square"]),  # σ(A·A) = 0
    ]
    got = {}
    for w, want in plan:
        del calls[:]
        got[w] = words.supertrace(w)
        assert calls == want, w
    monkeypatch.undo()
    for w, tr in got.items():
        assert tr == _plain_supertrace({a: A, k: K}, w) and not tr.is_zero(), w


def test_a_three_letter_word_cuts_where_the_missing_product_is_cheaper():
    # s4's A·A·K: its even rows, str_E(A·A·K), are str(P_0(A·A)·P_0(K)) at
    # ceil(3/2) = 2 and str(P_0(A)·P_1(A·K)) at 1, equal by cyclicity.  The
    # product P_0(A·A) forms 287 914 term pairs and P_1(A·K) 42 948, so an
    # evaluator that holds neither cuts at 1, and one that holds P_0(A·A),
    # as A^4 leaves it, cuts at 2, where it has nothing left to form.
    from curvedchern.modules import covariant_derivative, curvature_mat

    inst = cli.parse_instance(cli._corpus_text("s4_nonflat.json"), "s4")
    K = curvature_mat(inst.connection)
    A = covariant_derivative(inst.connection, inst.module.delta, 1)
    fresh, holding = WordEvaluator(), WordEvaluator()
    for words in (fresh, holding):
        a, k = words.letter(A), words.letter(K)
    holding.supertrace((a, a, a, a))
    got = fresh.supertrace((a, a, k)), holding.supertrace((a, a, k))
    assert got[0] == got[1] and not got[0].is_zero()
    assert ((a, k), 1) in fresh._products and ((a, a), 0) not in fresh._products
    assert ((a, k), 1) not in holding._products
    at_one = supertrace_of_product(fresh._product((a,), 0), fresh._product((a, k), 1))
    at_two = supertrace_of_product(holding._product((a, a), 0), holding._product((k,), 0))
    assert at_one == at_two == fresh._traces[((a, a, k), 0)] == holding._traces[((a, a, k), 0)]
    assert not at_one.is_zero()



@pytest.mark.parametrize("which", ["s4", "seed-4"])
def test_the_two_halves_of_the_even_rows_of_a_square_are_those_rows(monkeypatch, which):
    # cli.run_suite's two processes form the first and the later half of
    # the even rows of A·A, P_0(A·A), each: s4 has 4 even basis rows, and
    # seed 4's module, a tensor of two rank-2 Koszul modules, has 2
    from curvedchern.modules import covariant_derivative

    if which == "s4":
        inst = cli.parse_instance(cli._corpus_text("s4_nonflat.json"), "s4")
        M, C = inst.module, inst.connection
    else:
        M, C = random_module_instance(4)
    A = covariant_derivative(C, M.delta, 1)
    assert sum(d % 2 == 0 for d in A.target_degrees) >= 2
    whole = WordEvaluator()
    a = whole.letter(A)
    P = whole._product((a, a), 0)
    first, later = cli._even_rows_half(A, False), cli._even_rows_half(A, True)
    # each row of P, entry for entry, in exactly one half, the other's empty
    assert all(not (f and g) for f, g in zip(first.rows, later.rows))
    assert [f or g for f, g in zip(first.rows, later.rows)] == P.rows
    assert first.rows != P.rows != later.rows
    assert first + later == P and not P.is_zero()
    # held, the sum leaves A^4 only its square to form
    held = WordEvaluator()
    assert held.letter(A) == a
    held.hold((a, a), 0, first + later)
    matmuls = []
    plain = Mat.__matmul__
    monkeypatch.setattr(Mat, "__matmul__", lambda X, Y: matmuls.append(1) or plain(X, Y))
    calls = _kernel_spy(monkeypatch)
    got = held.supertrace((a, a, a, a))
    assert (matmuls, calls) == ([], ["square"])
    monkeypatch.undo()
    assert got == whole.supertrace((a, a, a, a))


def test_hold_refuses_a_product_that_does_not_fit():
    A, K = _graded_letters()
    words = WordEvaluator()
    a, k = words.letter(A), words.letter(K)
    P = A @ A
    shifted = Mat.zero(A.ring, [d + 1 for d in D], D)
    with pytest.raises(InternalCheckFailure, match="do not fit"):
        words.hold((a, a), 0, shifted)
    # A·A stores the odd rows as well
    with pytest.raises(InternalCheckFailure, match="outside row class 0"):
        words.hold((a, a), 0, P)
    with pytest.raises(InternalCheckFailure, match="does not hold"):
        words.hold((a, 2), 0, P)
    assert words._products == {}
    even = matform._restrict(A, 0) @ A
    words.hold((a, a), 0, even)
    assert words._products == {((a, a), 0): even}

def _ungraded_letters():
    """Letters on degrees D without both parities: X of ring entries in
    every position has no σ, and Y, with a 0-form and a 1-form in one
    diagonal entry, has no μ."""
    R = qi_ring("w", "x", "y", "z")
    X = Mat.from_stored(R, D, [["x", "y", "1"], ["1", "w*y", "x"], ["w", "0", "y"]])
    z = USeries.zero(R)
    v = USeries.from_ring(R.one()) + USeries.from_form(DiffForm.d_var(R, "x"))
    Y = Mat(R, D, D, [[v, z, z], [z, z, z], [z, z, z]])
    return X, Y


@pytest.mark.parametrize("which", [0, 1], ids=["no-sigma", "no-mu"])
def test_word_evaluator_refuses_a_letter_without_both_parities(which):
    words = WordEvaluator()
    with pytest.raises(InternalCheckFailure):
        words.letter(_ungraded_letters()[which])


def test_word_evaluator_forms_nothing_for_a_word_of_odd_shift(monkeypatch):
    A, K = _graded_letters()
    words = WordEvaluator()
    a, k = words.letter(A), words.letter(K)
    formed = []
    for name in ("__matmul__", "supertrace"):
        plain = getattr(Mat, name)
        monkeypatch.setattr(Mat, name, lambda *args, plain=plain: formed.append(1) or plain(*args))
    calls = _kernel_spy(monkeypatch)
    odd = [(a,), (a, k), (k, a, k), (a, a, a), (a, k, a, a, k)]
    got = {w: words.supertrace(w) for w in odd}
    assert (formed, calls) == ([], [])
    monkeypatch.undo()
    for w, tr in got.items():
        assert tr.is_zero() and tr == _plain_supertrace({a: A, k: K}, w), w


def _two_evaluators():
    """An evaluator holding A and K, and one that has evaluated the A·A·K
    class and K·K under the same letter ids."""
    A, K = _graded_letters()
    mine, theirs = WordEvaluator(), WordEvaluator()
    for words in (mine, theirs):
        a, k = words.letter(A), words.letter(K)
    theirs.supertrace((k, a, a))
    theirs.supertrace((k, k))
    return mine, theirs, (a, k)


def test_an_adopted_class_forms_nothing(monkeypatch):
    mine, theirs, (a, k) = _two_evaluators()
    classes = theirs.classes()
    assert set(classes) == {(a, a, k), (k, k)}
    mine.adopt(classes)
    again = _two_evaluators()[1].classes()
    compared = []
    plain_eq = USeries.__eq__
    monkeypatch.setattr(USeries, "__eq__", lambda P, Q: compared.append(1) or plain_eq(P, Q))
    # its own classes, the very objects it holds, are not compared
    mine.adopt(mine.classes())
    assert compared == []
    # equal values as other objects are compared, and are no conflict
    mine.adopt(again)
    assert len(compared) == len(again)
    monkeypatch.undo()
    formed = []
    plain = Mat.__matmul__
    monkeypatch.setattr(Mat, "__matmul__", lambda P, Q: formed.append(1) or plain(P, Q))
    calls = _kernel_spy(monkeypatch)
    got = {w: mine.supertrace(w) for w in [(a, k, a), (a, a, k), (k, k)]}
    assert (formed, calls) == ([], [])
    assert mine.classes() == classes
    monkeypatch.undo()
    A, K = _graded_letters()
    for w, tr in got.items():
        assert tr == _plain_supertrace({a: A, k: K}, w), w


def test_adopt_refuses_a_class_it_holds_with_another_value():
    mine, theirs, (a, k) = _two_evaluators()
    held = mine.supertrace((a, a, k))
    tampered = theirs.classes()
    tampered[(a, a, k)] = held + held
    with pytest.raises(InternalCheckFailure, match="differs from the one held"):
        mine.adopt(tampered)
    # nothing adopted, the held value kept
    assert mine.classes() == {(a, a, k): held}


def test_adopt_refuses_a_class_over_a_letter_it_does_not_hold():
    mine, theirs, (a, k) = _two_evaluators()
    # an evaluator with a third letter, -A, under id 2
    A, K = _graded_letters()
    extra = WordEvaluator()
    extra.letter(A), extra.letter(K)
    b = extra.letter(-A)
    classes = {(a, b): extra.supertrace((a, b)), **theirs.classes()}
    with pytest.raises(InternalCheckFailure, match="does not hold"):
        mine.adopt(classes)
    assert mine.classes() == {}


# -- sparse storage against the dense reference ------------------------

FREE = qi_ring("x1", "x2", "x3")
SPHERE = sphere_ring(3)
_POLYS = ["1", "-1", "x1", "x2*x3", "x1^2-2*x2", "i*x3+1", "x1*x2*x3"]
_WEDGES = [(), (0,), (2,), (0, 1), (1, 2)]


def _entries(ring):
    """Entries with several u-powers and mixed form degrees, zero half the
    time."""
    form = st.dictionaries(
        st.sampled_from(_WEDGES), st.sampled_from(_POLYS).map(ring.from_string), max_size=2
    ).map(lambda parts: DiffForm(ring, parts))
    nonzero = st.dictionaries(st.sampled_from([0, 1, 2]), form, min_size=1, max_size=2)
    return st.one_of(st.just(USeries.zero(ring)), nonzero.map(lambda c: USeries(ring, c)))


def _grid(data, ring, nt, ns):
    """A dense nt x ns grid of entries, some rows and columns all zero."""
    z = USeries.zero(ring)
    grid = [[data.draw(_entries(ring)) for _ in range(ns)] for _ in range(nt)]
    zero_rows = data.draw(st.sets(st.integers(0, nt - 1), max_size=nt))
    zero_cols = data.draw(st.sets(st.integers(0, ns - 1), max_size=ns))
    return [
        [z if t in zero_rows or s in zero_cols else grid[t][s] for s in range(ns)]
        for t in range(nt)
    ]


def _dense(X: Mat):
    assert all(v.coeffs for row in X.rows for v in row.values()), "a stored entry is zero"
    assert all(0 <= s < len(X.source_degrees) for row in X.rows for s in row)
    return [[X.entry(t, s) for s in range(len(X.source_degrees))] for t in range(len(X.target_degrees))]


def _same(X: Mat, R: ReferenceMat) -> bool:
    return (
        X.target_degrees == R.target_degrees
        and X.source_degrees == R.source_degrees
        and _dense(X) == R.entries
    )


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([FREE, SPHERE]),
    st.sampled_from([(1, 1), (2, 2), (4, 4), (2, 3), (3, 1), (1, 4)]),
    st.data(),
)
def test_sparse_mat_agrees_with_the_dense_reference(ring, shape, data):
    nt, ns = shape

    def degrees(n):
        return tuple(data.draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n)))

    tgt = degrees(nt)
    src = tgt if nt == ns and data.draw(st.booleans()) else degrees(ns)
    ga, gb, gc = _grid(data, ring, nt, ns), _grid(data, ring, ns, nt), _grid(data, ring, nt, ns)
    A, B, C = Mat(ring, tgt, src, ga), Mat(ring, src, tgt, gb), Mat(ring, tgt, src, gc)
    rA, rB, rC = ReferenceMat(ring, tgt, src, ga), ReferenceMat(ring, src, tgt, gb), ReferenceMat(ring, tgt, src, gc)
    assert _same(A, rA) and _same(B, rB)

    assert _same(A @ B, rA @ rB) and _same(B @ A, rB @ rA)
    assert _same(A + C, rA + rC) and _same(A - C, rA - rC) and _same(A - A, rA - rA)
    c = data.draw(st.sampled_from([Scalar(0), Scalar(-1), Scalar(2, 1)]))
    assert _same(A.scale(c), rA.scale(c))
    p = ring.from_string(data.draw(st.sampled_from(["0", "x1", "x1^2+x2^2+x3^2-1"])))
    assert _same(A.scale_ring(p), rA.scale_ring(p))
    assert _same(A.shift_u(2), rA.shift_u(2))
    assert _same(A.row_sign_d(), rA.row_sign_d())
    parts, rparts = A.parity_components(), rA.parity_components()
    assert sorted(parts) == sorted(rparts)
    assert all(_same(parts[k], rparts[k]) for k in parts)
    for m in (-1, 0, 1):
        assert A.has_operator_degree(m) == rA.has_operator_degree(m)
    assert A.is_zero() == rA.is_zero()

    # equality and content keys agree with entrywise equality
    assert (A == C) == (rA.entries == rC.entries)
    assert (content_key(A) == content_key(C)) == (rA.entries == rC.entries)
    again = Mat(ring, tgt, src, _dense(A))
    assert again == A and content_key(again) == content_key(A)
    assert hash(content_key(A)) == hash(content_key(again))

    # stored convention: from_stored and display are each other's inverse
    assert A.display() == rA.display()
    assert Mat.from_stored(ring, src, rA.display(), target_degrees=tgt) == A
    assert _same(
        Mat.from_stored(ring, src, gb, target_degrees=tgt),
        ReferenceMat.from_stored(ring, src, gb, target_degrees=tgt),
    )

    col = [data.draw(_entries(ring)) for _ in range(ns)]
    assert A.apply(col) == rA.apply(col)
    assert supertrace_of_product(A, B) == reference_supertrace_of_product(rA, rB)
    assert supertrace_of_product(A, B) == (A @ B).supertrace()
    if tgt == src:
        assert A.supertrace() == rA.supertrace()
        assert (A @ C).supertrace() == (rA @ rC).supertrace()


# -- the square path against the reference -----------------------------


_ALL_WEDGES = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]


def _nonzero_entries(ring, wedges, parts: int):
    """Nonzero entries over u-powers 0..2, one or two of them, each a form
    of one to `parts` components with wedge indices from `wedges`."""
    form = st.dictionaries(
        st.sampled_from(wedges), st.sampled_from(_POLYS).map(ring.from_string),
        min_size=1, max_size=parts,
    ).map(lambda f: DiffForm(ring, f))
    nonzero = st.dictionaries(st.sampled_from([0, 1, 2]), form, min_size=1, max_size=2)
    return nonzero.map(lambda c: USeries(ring, c))


def _square_entries(ring):
    """Entries of one to six components over u-powers 0..2, odd forms as
    likely as even ones, so that odd·odd pairs with disjoint wedge indices
    are common; zero a quarter of the time."""
    entry = _nonzero_entries(ring, _ALL_WEDGES, 3)
    return st.one_of(st.just(USeries.zero(ring)), entry, entry, entry)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([FREE, SPHERE]), st.integers(1, 3), st.data())
def test_supertrace_of_square_agrees_with_the_reference(ring, n, data):
    # entries of mixed form degree (odd forms included), several u-powers
    # and arbitrary Gamma-degrees, so operator parities mix, on basis
    # degrees of both parities, so entries link even and odd basis vectors
    degrees = tuple(data.draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n)))
    grid = [[data.draw(_square_entries(ring)) for _ in range(n)] for _ in range(n)]
    P = Mat(ring, degrees, degrees, grid)
    rP = ReferenceMat(ring, degrees, degrees, grid)
    assert supertrace_of_square(P) == reference_supertrace_of_product(rP, rP)


@pytest.mark.parametrize("ring", [FREE, SPHERE], ids=["free", "sphere"])
@pytest.mark.parametrize("degree", [0, 1])
def test_supertrace_of_square_cancels_odd_odd_pairs_on_the_diagonal(ring, degree):
    # v = w + u·x1 with w = x1·dx1 + dx3: in v·v the odd·odd pairs of w
    # cancel (w∧w = 0), while the odd·even and even·even ones do not
    x1 = ring.from_string("x1")
    w = DiffForm(ring, {(0,): x1, (2,): ring.one()})
    v = USeries(ring, {0: w, 1: DiffForm.from_ring(x1)})
    P = Mat(ring, [degree], [degree], [[v]])
    rP = ReferenceMat(ring, (degree,), (degree,), [[v]])
    got = supertrace_of_square(P)
    assert got == reference_supertrace_of_product(rP, rP)
    assert got.u_powers() == (1, 2)
    assert got.coefficient(1) == w.scale_ring(x1).scale(Scalar(2))
    assert got.coefficient(2) == DiffForm.from_ring(x1 * x1).scale(Scalar((-1) ** degree))


# -- the word evaluator's cyclic plan against the plain product ---------

FREE_Z = qi_ring("x1", "x2", "x3", degrees=[0, 2, 0], grading="Z")
# (μ, σ) of a letter, σ = 1 twice as likely
_LETTER_PARITIES = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 1), (1, 1)]


# wedge indices by the parity of their size, 0-forms the likeliest, so
# that words of several letters are often nonzero over three variables
_WEDGES_OF_PARITY = ([(), (), (), (0, 1), (1, 2)], [(0,), (1,), (2,)])


def _letter(data, ring, degrees, kind) -> Mat:
    """A letter on `degrees` whose every component u^J p dx_S at [t][s]
    has σ = |e_t| + |e_s| and μ = σ + |S| (mod 2) equal to kind = (μ, σ)."""
    n = len(degrees)
    grid = [[USeries.zero(ring)] * n for _ in range(n)]
    for t in range(n):
        for s in range(n):
            shift = (degrees[t] + degrees[s]) % 2
            if shift == kind[1]:
                wedges = _WEDGES_OF_PARITY[(shift + kind[0]) % 2]
                grid[t][s] = data.draw(_nonzero_entries(ring, wedges, 2))
    X = Mat(ring, degrees, degrees, grid)
    assert matform._parities(X) == (kind if not X.is_zero() else (0, 0))
    return X


@settings(deadline=None, max_examples=80)
@given(st.sampled_from([FREE_Z, SPHERE]), st.data())
def test_word_evaluator_agrees_with_the_plain_product(ring, data):
    # basis degrees of both parities, some outside {0, 1}; letters of every
    # (μ, σ) mixed in one word, of either σ (a word of odd σ has no
    # diagonal, and its zero must match the plain product's); every
    # rotation of the word, in a drawn order, so that a rotation class is
    # met first at any of its members and the others are read with the
    # rotation sign
    degrees = [data.draw(st.sampled_from([-2, 0, 2])), data.draw(st.sampled_from([-1, 1, 3]))]
    degrees += data.draw(st.lists(st.integers(-2, 3), max_size=1))
    degrees = tuple(data.draw(st.permutations(degrees)))
    kinds = data.draw(st.lists(st.sampled_from(_LETTER_PARITIES), min_size=2, max_size=3))
    letters = [_letter(data, ring, degrees, kind) for kind in kinds]
    word = data.draw(st.lists(st.integers(0, len(letters) - 1), min_size=2, max_size=5))
    words = WordEvaluator()
    ids = [words.letter(X) for X in letters]
    for r in data.draw(st.permutations(range(len(word)))):
        w = word[r:] + word[:r]
        assert words.supertrace(tuple(ids[i] for i in w)) == _plain_supertrace(letters, w)


# -- identity factors --------------------------------------------------


def _reference_identity(ring, degrees) -> ReferenceMat:
    n = len(degrees)
    one, z = USeries.from_ring(ring.one()), USeries.zero(ring)
    return ReferenceMat(ring, degrees, degrees, [[one if t == s else z for s in range(n)] for t in range(n)])


def _identities(ring, degrees):
    """Mat.identity and an identity built from written entries: the rule
    reads the content, so both must take it."""
    n = len(degrees)
    written = Mat(ring, degrees, degrees, [["1" if t == s else "0" for s in range(n)] for t in range(n)])
    return [Mat.identity(ring, degrees), written]


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([FREE, SPHERE]),
    st.sampled_from([(1, 1), (2, 2), (4, 4), (2, 3), (3, 1), (1, 4)]),
    st.data(),
)
def test_identity_factors_agree_with_the_reference(ring, shape, data):
    nt, ns = shape

    def degrees(n):
        return tuple(data.draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n)))

    tgt, src = degrees(nt), degrees(ns)
    grid = _grid(data, ring, nt, ns)
    X, rX = Mat(ring, tgt, src, grid), ReferenceMat(ring, tgt, src, grid)
    col = [data.draw(_entries(ring)) for _ in range(nt)]
    for I_t, I_s in zip(_identities(ring, tgt), _identities(ring, src)):
        assert I_t.is_identity() and I_s.is_identity()
        assert _same(I_t @ X, _reference_identity(ring, tgt) @ rX)
        assert _same(X @ I_s, rX @ _reference_identity(ring, src))
        got = I_t.apply(col)
        assert got == _reference_identity(ring, tgt).apply(col)
        assert got is not col
    if nt == ns and tgt == src:
        I = Mat.identity(ring, tgt)
        assert I @ I == I and _same(I @ X @ I, rX)


def _look_alikes(ring):
    """(name, matrix) pairs that are not identities but come close: a
    diagonal with one entry -1, i, u·1 or 1·dx_0, an identity with one
    extra off-diagonal entry, and a unit diagonal between different
    degrees."""
    one = USeries.from_ring(ring.one())
    z = USeries.zero(ring)
    degrees = (0, 1, 1)

    def diagonal(last):
        return Mat(ring, degrees, degrees, [[one, z, z], [z, one, z], [z, z, last]])

    extra = [[one, z, z], [z, one, z], [z, USeries.from_ring(ring.from_string("x1")), one]]
    return [
        ("minus-one", diagonal(one.scale(Scalar(-1)))),
        ("i", diagonal(one.scale(Scalar(0, 1)))),
        ("u", diagonal(one.shift_u(1))),
        ("dx0", diagonal(USeries.from_form(DiffForm(ring, {(0,): ring.one()})))),
        ("off-diagonal", Mat(ring, degrees, degrees, extra)),
        ("degrees-differ", Mat(ring, degrees, (1, 0, 1), [[one, z, z], [z, one, z], [z, z, one]])),
    ]


@pytest.mark.parametrize("ring", [FREE, SPHERE], ids=["free", "sphere"])
def test_identity_look_alikes_are_multiplied_in_full(ring):
    for name, L in _look_alikes(ring):
        assert not L.is_identity(), name
        rL = ReferenceMat(ring, L.target_degrees, L.source_degrees, _dense(L))
        rows = [["x1", "0", "x2*x3"], ["1", "x1^2-2*x2", "0"], ["0", "i*x3+1", "x1"]]
        left = Mat(ring, L.source_degrees, L.source_degrees, rows)
        right = Mat(ring, L.target_degrees, L.target_degrees, rows)
        r_left = ReferenceMat(ring, left.target_degrees, left.source_degrees, _dense(left))
        r_right = ReferenceMat(ring, right.target_degrees, right.source_degrees, _dense(right))
        assert _same(L @ left, rL @ r_left), name
        assert _same(right @ L, r_right @ rL), name
        col = column(left, 0)
        assert L.apply(col) == rL.apply(col), name


def test_identity_factors_form_no_product(monkeypatch):
    ring = FREE
    degrees = (0, 1)
    X = Mat.from_stored(ring, degrees, [["x1", "x2"], ["x3", "1"]])
    calls = []
    plain = USeries.sum_of_products
    monkeypatch.setattr(
        USeries, "sum_of_products", staticmethod(lambda r, *args: calls.append(1) or plain(r, *args))
    )
    for I in _identities(ring, degrees):
        assert I @ X is X and X @ I is X
        assert I.apply(column(X, 0)) == column(X, 0)
    assert calls == []
    X @ X  # the spy does see an ordinary product
    assert calls


def test_mat_subtraction_builds_no_negated_matrix(monkeypatch):
    R = _ring2()
    # stored entries on both sides (equal and unequal), on the left alone
    # and on the right alone
    A = Mat.from_stored(R, [0, 1], [["x", "y"], ["0", "x*y"]])
    B = Mat.from_stored(R, [0, 1], [["x", "0"], ["y", "1"]])
    want = A + B.scale(Scalar(-1))

    def refuse(*args):
        raise AssertionError("Mat.__sub__ negated a whole matrix")

    monkeypatch.setattr(Mat, "scale", refuse)
    monkeypatch.setattr(Mat, "__neg__", refuse)
    assert A - B == want
    assert (A - A).is_zero()


def test_explicit_identity_idempotent_changes_no_output(tmp_path):
    text = (Path(cli.__file__).parent / "corpus" / "mf_xy.json").read_text(encoding="utf-8")
    with_e = text.replace('"module": {', '"module": {\n    "idempotent": [["1", "0"], ["0", "1"]],', 1)
    assert with_e != text
    docs = []
    for name, body in (("plain.json", text), ("with_e.json", with_e)):
        path = tmp_path / name
        path.write_text(body, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["compute", "--json", str(path)]) == 0
        doc = json.loads(out.getvalue())
        # timing, and the fields that describe the input: its file name,
        # its echo and that echo's digest
        for key in ("timing", "input", "sha256"):
            doc.pop(key)
        docs.append(doc)
    assert docs[1]["spec"]["module"].pop("idempotent") == [["1", "0"], ["0", "1"]]
    assert docs[0] == docs[1]


# -- sums of products --------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([FREE, SPHERE]), st.integers(1, 3), st.integers(1, 3), st.data())
def test_sum_of_products_agrees_with_the_composed_sum(ring, nt, ns, data):
    # terms of several inner sizes, identity factors among them; the
    # reference forms each product in full and adds them up
    def degrees(n):
        return tuple(data.draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n)))

    tgt, src = degrees(nt), degrees(ns)
    terms, want = [], None
    for _ in range(data.draw(st.integers(0, 4))):
        sign, shift = data.draw(st.sampled_from([1, -1])), data.draw(st.integers(0, 2))
        kind = data.draw(st.sampled_from(["product", "left identity", "right identity"]))
        mid = tgt if kind == "left identity" else src if kind == "right identity" else degrees(data.draw(st.integers(1, 3)))
        gx, gy = _grid(data, ring, nt, len(mid)), _grid(data, ring, len(mid), ns)
        X = Mat.identity(ring, tgt) if kind == "left identity" else Mat(ring, tgt, mid, gx)
        Y = Mat.identity(ring, src) if kind == "right identity" else Mat(ring, mid, src, gy)
        rX = _reference_identity(ring, tgt) if kind == "left identity" else ReferenceMat(ring, tgt, mid, gx)
        rY = _reference_identity(ring, src) if kind == "right identity" else ReferenceMat(ring, mid, src, gy)
        terms.append((sign, shift, X, Y))
        part = (rX @ rY).shift_u(shift).scale(Scalar(sign))
        want = part if want is None else want + part
    got = Mat.sum_of_products(ring, tgt, src, terms)
    if want is None:
        assert got.is_zero() and got.target_degrees == tgt and got.source_degrees == src
    else:
        assert _same(got, want)


def test_sum_of_products_refuses_terms_of_the_wrong_shape():
    R = _ring2()
    A = Mat.from_stored(R, [0, 1], [["0", "x"], ["y", "0"]])
    B = Mat.from_stored(R, [0], [["x", "y"]], target_degrees=[0, 1])
    with pytest.raises(InvalidInput):
        Mat.sum_of_products(R, (0, 1), (0, 1), [(1, 0, A, A), (1, 0, A, B)])
    with pytest.raises(InvalidInput):
        Mat.sum_of_products(R, (0, 1), (0, 1), [(1, 0, A, A), (1, 0, Mat.identity(R, (0,)), B)])


def test_sum_of_products_makes_one_kernel_call_per_entry(monkeypatch):
    R = _ring2()
    A = Mat.from_stored(R, [0, 1], [["x", "y"], ["x*y", "1"]])
    B = Mat.from_stored(R, [0, 1], [["y", "0"], ["x", "x^2"]])
    calls = []
    body = forms.sum_of_products
    monkeypatch.setattr(forms, "sum_of_products", lambda r, c: calls.append(1) or body(r, c))
    got = Mat.sum_of_products(R, (0, 1), (0, 1), [(1, 0, A, B), (-1, 1, B, A), (1, 2, Mat.identity(R, (0, 1)), A)])
    assert len(calls) == 4  # one per entry; the identity term forms nothing
    assert got == A @ B - (B @ A).shift_u(1) + A.shift_u(2)


def _parity_modules():
    """The modules of both corpus files and of random seeds 0-49."""
    for stem in ("mf_xy", "s4_nonflat"):
        text = files("curvedchern.corpus").joinpath(f"{stem}.json").read_text(encoding="utf-8")
        yield stem, cli.parse_instance(text, f"{stem}.json").module
    for seed in range(50):
        yield seed, random_module_instance(seed)[0]


def test_parity_components_of_a_homogeneous_matrix_is_the_matrix_itself():
    for label, M in _parity_modules():
        for X, parity in ((M.e, 0), (M.delta, 1)):
            parts = X.parity_components()
            if X.is_zero():
                assert parts == {}, label
                continue
            assert list(parts) == [parity], label
            assert parts[parity] is X, label
            assert parts == reference_parity_components(X), label


def test_parity_components_of_an_inhomogeneous_matrix_is_the_rebuild():
    # parities mixed across entries, within one entry (a dx term), and in
    # the sum δ + e of each module with δ ≠ 0
    R = _ring2()
    mixed = USeries.from_ring(R.from_string("x+y")) + USeries(R, {1: DiffForm.d_var(R, "y")})
    built = [
        Mat.from_stored(R, [0, 1], [["1+x", "y"], ["x*y", "x+y^2"]]),
        Mat(R, (0, 0), (0, 0), [[mixed, 0], [0, USeries.from_ring(R.one())]]),
    ]
    built += [M.delta + M.e for _, M in _parity_modules() if not M.delta.is_zero()]
    for X in built:
        parts = X.parity_components()
        want = reference_parity_components(X)
        assert len(parts) == 2
        assert list(parts) == list(want)
        assert all(parts[p] == want[p] and parts[p] is not X for p in parts)
