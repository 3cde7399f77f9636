"""Algebraic laws as hypothesis properties over small random instances."""

import itertools
from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

from conftest import intersect, kernel, mul_vec
from polydarboux.exterior import (VectorValuedForm, add, contract, evaluate, form,
                                  project, pullback, wedge)
from polydarboux.linalg import Matrix, Subspace, annihilator, rank, subspace_sum

settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("suite")

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def forms(dim: int, degree: int):
    idx = list(itertools.combinations(range(1, dim + 1), degree))
    return st.builds(
        lambda cs: form(dim, degree, dict(zip(idx, cs))),
        st.lists(rationals, min_size=len(idx), max_size=len(idx)))


def vectors(dim: int):
    return st.lists(rationals, min_size=dim, max_size=dim)


@given(forms(5, 2), forms(5, 2))
def test_wedge_symmetric_in_even_degrees(a, b):
    assert wedge(a, b) == wedge(b, a)


@given(forms(5, 1), forms(5, 2), forms(5, 1))
def test_wedge_associative(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@given(forms(5, 2), forms(5, 1), vectors(5))
def test_interior_product_antiderivation(a, b, v):
    lhs = contract(v, wedge(a, b))
    rhs = add(wedge(contract(v, a), b), wedge(a, contract(v, b)))
    assert lhs == rhs


@given(forms(4, 2), vectors(4), vectors(4))
def test_contract_evaluates_first_slot(a, v, w):
    assert evaluate(a, [v, w]) == evaluate(contract(v, a), [w])


@st.composite
def forms_with_a_vector(draw):
    """A scalar or two-component form of degree 1..dim on R^dim, dim 1..6, and a vector."""
    dim = draw(st.integers(1, 6))
    degree = draw(st.integers(1, dim))
    comps = draw(st.lists(forms(dim, degree), min_size=1, max_size=2))
    x = comps[0] if len(comps) == 1 else VectorValuedForm(tuple(comps))
    return x, draw(vectors(dim))


@given(forms_with_a_vector(), st.booleans())
def test_contract_on_a_dict_equals_contract_on_the_dense_list(case, keep_zeros):
    x, v = case
    assert contract({j: c for j, c in enumerate(v) if c or keep_zeros}, x) == contract(v, x)
    # integer entries, as echelon rows hold them, against the equal Fraction list
    scale = lcm(*(c.denominator for c in v))
    ints = {j: int(c * scale) for j, c in enumerate(v) if c}
    assert contract(ints, x) == contract([c * scale for c in v], x)


@given(forms(4, 2), vectors(4), vectors(4))
def test_evaluate_on_dicts_equals_evaluate_on_dense_lists(a, v, w):
    sparse = [{j: c for j, c in enumerate(u) if c} for u in (v, w)]
    assert evaluate(a, sparse) == evaluate(a, [v, w])


@given(forms(4, 2), forms(4, 2), st.lists(rationals, min_size=2, max_size=2), vectors(4))
def test_projection_commutes_with_contraction(c1, c2, t, v):
    vv = VectorValuedForm((c1, c2))
    assert contract(v, project(vv, t)) == project(contract(v, vv), t)


@given(st.lists(vectors(5), min_size=0, max_size=4),
       st.lists(vectors(5), min_size=0, max_size=4))
def test_span_dimension_formula(rows_a, rows_b):
    a = Subspace.from_vectors(5, rows_a)
    b = Subspace.from_vectors(5, rows_b)
    assert subspace_sum(a, b).dim + intersect(a, b).dim == a.dim + b.dim


@given(st.lists(vectors(4), min_size=0, max_size=4))
def test_double_annihilator_identity(rows):
    a = Subspace.from_vectors(4, rows)
    assert annihilator(annihilator(a)) == a


@given(st.lists(vectors(4), min_size=1, max_size=5))
def test_rank_nullity(rows):
    m = Matrix.from_rows(rows)
    assert rank(m) + kernel(m).dim == m.cols


@given(forms(4, 2), st.lists(st.lists(rationals, min_size=3, max_size=3),
                             min_size=4, max_size=4))
def test_pullback_is_evaluation_composition(a, rows):
    m = Matrix.from_rows(rows)
    pulled = pullback(a, m)
    vs = [[Fraction(1), Fraction(0), Fraction(2)], [Fraction(0), Fraction(1), Fraction(-1)]]
    assert evaluate(pulled, vs) == evaluate(a, [mul_vec(m, v) for v in vs])
