"""Differential tests: scalar forms as their reduced integer views against the ``Fraction`` path.

``exterior.AlternatingForm`` is stored as its view ``({mask: n}, den)``, reduced by its gcd,
and ``add``, ``scale``, ``project``, ``wedge``, ``contract``, ``pullback``,
``restrict_to_leading`` and ``embed_in`` accumulate on it.  ``conftest`` keeps the previous
class, a ``Fraction`` dict with equality on it, and those operations on it as oracles; a
difference is ``add`` of the negated form against the oracle's ``sub``.  Each
result must hold the same coefficients in the same order, print the same terms and ``repr``,
compare equal exactly where the oracle's results do, and fail with the same error text.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (FractionForm, add_oracle, contract_form_oracle, embed_in_oracle,
                      form_oracle, project_oracle, pullback_oracle, restrict_to_leading_oracle,
                      scale_oracle, sub_oracle, wedge_form_oracle)
from polydarboux.exterior import (AlternatingForm, VectorValuedForm, _seeded, add, contract,
                                  embed_in, form, project, pullback, restrict_to_leading, scale,
                                  wedge)
from polydarboux.linalg import Matrix

settings.register_profile("form_view_oracle", deadline=None, max_examples=200, derandomize=True)
PROFILE = settings.get_profile("form_view_oracle")

# mixed denominators, so that sums and products change the view's den
ENTRIES = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-8, 8),
                                                  st.sampled_from([1, 2, 3, 4, 6, 9, 12])))
SCALARS = st.one_of(st.just(0), ENTRIES,
                    st.builds(Fraction, st.integers(-9, -1), st.integers(2, 7)))


def outcome(fn, *args):
    """The result of the call, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except Exception as e:  # the error is the outcome being compared
        return type(e).__name__, str(e)


def assert_same(new, old):
    """``new`` (from the view) is ``old`` (from the oracle): the same error, or a form with the
    same coefficients in the same order, whose view is reduced and unique to it."""
    if isinstance(old, tuple) or isinstance(new, tuple):
        assert new == old
        return
    assert (new.dim, new.degree) == (old.dim, old.degree)
    assert list(new.coeffs.items()) == list(old.coeffs.items())
    assert new.terms() == old.terms() and repr(new) == repr(old)
    nums, den = new._numerators
    assert den > 0 and all(type(n) is int and n for n in nums.values())
    assert gcd(den, *nums.values()) == 1 and list(nums) == list(new.coeffs)
    assert new == AlternatingForm(old.dim, old.degree, old.coeffs)


def assert_equal_where_the_oracle_is(pairs):
    forms = [(n, o) for n, o in pairs if not isinstance(o, tuple)]
    for (n1, o1), (n2, o2) in itertools.product(forms, repeat=2):
        assert (n1 == n2) == (o1 == o2)


@st.composite
def index_terms(draw, dim: int, degree: int):
    """{index tuple: entry}: unsorted and repeated indices, and index sets given twice with
    opposite order, so that signs flip and terms cancel to zero."""
    index = st.lists(st.integers(1, max(dim, 1)), min_size=degree, max_size=degree).map(tuple)
    terms = draw(st.dictionaries(index, ENTRIES, max_size=6))
    for idx, c in list(terms.items()):
        if len(idx) >= 2 and draw(st.booleans()):
            terms[(idx[1], idx[0]) + idx[2:]] = c
    return terms


@st.composite
def partner_terms(draw, terms: dict, dim: int, degree: int):
    """Terms of a second form: some of the first's, kept, negated or doubled, and new ones."""
    out = {idx: c * draw(st.sampled_from([1, -1, 2])) for idx, c in terms.items()
           if draw(st.booleans())}
    out.update(draw(index_terms(dim, degree)))
    return out


@settings(PROFILE)
@given(st.data())
def test_form_arithmetic_matches_the_fraction_path(data):
    dim = data.draw(st.integers(0, 5))
    degree = data.draw(st.integers(0, dim + 1))
    terms = data.draw(index_terms(dim, degree))
    a, fa = outcome(form, dim, degree, terms), outcome(form_oracle, dim, degree, terms)
    assert_same(a, fa)
    if isinstance(fa, tuple):
        return
    b_degree = data.draw(st.sampled_from([degree, degree, degree, degree + 1]))
    b_terms = data.draw(partner_terms(terms, dim, b_degree) if b_degree == degree
                        else index_terms(dim, b_degree))
    b, fb = outcome(form, dim, b_degree, b_terms), outcome(form_oracle, dim, b_degree, b_terms)
    assert_same(b, fb)
    if isinstance(fb, tuple):
        return
    c = data.draw(SCALARS)
    pairs = [(a, fa), (b, fb),
             (outcome(add, a, b), outcome(add_oracle, fa, fb)),
             (outcome(add, a, scale(b, -1)), outcome(sub_oracle, fa, fb)),
             (outcome(add, a, scale(a, -1)), outcome(sub_oracle, fa, fa)),
             (outcome(scale, a, c), outcome(scale_oracle, fa, c)),
             (outcome(scale, b, c), outcome(scale_oracle, fb, c)),
             (outcome(wedge, a, b), outcome(wedge_form_oracle, fa, fb))]
    if b_degree == degree:
        t_star = data.draw(st.lists(SCALARS, min_size=2, max_size=3))
        pairs.append((outcome(project, VectorValuedForm((a, b)), t_star),
                      outcome(project_oracle, [fa, fb], t_star)))
    v = data.draw(st.dictionaries(st.integers(0, dim - 1), ENTRIES, max_size=dim)) if dim else {}
    pairs.append((outcome(contract, v, a), outcome(contract_form_oracle, v, fa)))
    rows = data.draw(st.sampled_from([dim, dim, dim, dim + 1]))
    cols = data.draw(st.lists(st.lists(ENTRIES, min_size=rows, max_size=rows), max_size=4))
    m = Matrix(rows, tuple({i: Fraction(x) for i, x in enumerate(col) if x} for col in cols))
    pairs.append((outcome(pullback, a, m), outcome(pullback_oracle, fa, m)))
    for new_dim in range(-1, dim + 3):
        pairs.append((outcome(restrict_to_leading, a, new_dim),
                      outcome(restrict_to_leading_oracle, fa, new_dim)))
        pairs.append((outcome(embed_in, a, new_dim), outcome(embed_in_oracle, fa, new_dim)))
    for new, old in pairs:
        assert_same(new, old)
    assert_equal_where_the_oracle_is(pairs)


@settings(PROFILE)
@given(st.data())
def test_unreduced_views_are_reduced_to_the_fraction_coefficients(data):
    dim = data.draw(st.integers(0, 5))
    degree = data.draw(st.integers(0, dim))
    masks = [sum(1 << (i - 1) for i in idx)
             for idx in itertools.combinations(range(1, dim + 1), degree)]
    nums = data.draw(st.dictionaries(st.sampled_from(masks), st.integers(-30, 30).filter(bool),
                                     max_size=5))
    den = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(1, 6))
    nums, den = {m: n * k for m, n in nums.items()}, den * k
    old = FractionForm(dim, degree, {m: Fraction(n, den) for m, n in nums.items()})
    new = _seeded(dim, degree, nums, den)
    assert_same(new, old)
    assert_equal_where_the_oracle_is([(new, old), (scale(new, k), scale_oracle(old, k))])


@pytest.mark.parametrize("dim, degree", [(-1, 0), (0, -1), (-2, -3), (2, 3), (0, 0)])
@pytest.mark.parametrize("coeffs", [{}, {0b111: Fraction(1, 2)}, {0b11: 3}])
def test_construction_errors_match_the_fraction_path(dim, degree, coeffs):
    assert_same(outcome(AlternatingForm, dim, degree, coeffs),
                outcome(FractionForm, dim, degree, coeffs))
    assert_same(outcome(form, dim, degree, {}), outcome(form_oracle, dim, degree, {}))
