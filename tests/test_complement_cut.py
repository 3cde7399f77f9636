"""The greedy's complement cut in place, and isotropy tested without a complement.

``_cut`` is compared with ``kernel_subspace`` of the same rows, and
``is_isotropic`` with containment in the level-l complement built as it
used to be (``conftest.orthogonal_complement``).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import intersect, orthogonal_complement, random_form
from test_greedy_oracle import _e13_e24, _embedded, coefficients
from polydarboux import lagrangian, linalg, sparse
from polydarboux.darboux import canonical_poly_model, conjugated_poly_instance
from polydarboux.errors import DimensionMismatch, PreconditionError
from polydarboux.exterior import VectorValuedForm, form
from polydarboux.lagrangian import _cut, greedy_maximal_isotropic, is_isotropic
from polydarboux.linalg import Subspace, kernel_subspace
from polydarboux.sparse import SparseEchelon, _sparse

settings.register_profile("complement_cut", deadline=None, max_examples=150, derandomize=True)


def _rows(sub: Subspace) -> dict:
    return {p: sub.echelon.rows[p] for p in sub.pivot_columns()}


# ---------------------------------------------------------------------------
# the cut


@settings(settings.get_profile("complement_cut"))
@given(st.data())
def test_cuts_equal_the_kernel_of_the_same_rows(data):
    dim = data.draw(st.integers(1, 7))
    row = st.lists(coefficients, min_size=dim, max_size=dim)
    cuts = data.draw(st.lists(row, max_size=6))
    within = None
    if data.draw(st.booleans()):
        within = Subspace.from_vectors(dim, data.draw(st.lists(row, max_size=dim)))
    orth = _rows(within if within is not None else Subspace.full(dim))
    for i, r in enumerate(cuts):
        before = len(orth)
        _cut(orth, _sparse(r))
        want = kernel_subspace([_sparse(x) for x in cuts[:i + 1]], dim)
        if within is not None:
            want = intersect(within, want)
        assert Subspace(dim, SparseEchelon(dict(orth))) == want
        assert list(orth) == sorted(orth)
        assert len(orth) in (before, before - 1)
        assert all(type(x) is int for v in orth.values() for x in v.values())


def test_a_zero_cut_changes_nothing():
    orth = _rows(Subspace.from_vectors(3, [[1, 2, 0], [0, 0, 5]]))
    rows = {p: dict(v) for p, v in orth.items()}
    _cut(orth, {0: Fraction(2), 1: Fraction(-1)})
    assert orth == rows


def test_greedy_builds_no_span(monkeypatch):
    """The complement is cut in place: no echelon is built from a list of vectors."""
    model = conjugated_poly_instance(canonical_poly_model(32, 1, 1), 3)[0]
    cases = [(_embedded(_e13_e24(), 50, 3), [1]), (model, [1]), (model, [33])]
    calls, span_of = [], sparse.span_of
    for mod in (sparse, linalg, lagrangian):
        monkeypatch.setattr(mod, "span_of", lambda vs: calls.append(1) or span_of(vs))
    for v, seed in cases:
        sub = greedy_maximal_isotropic(v, Subspace.span_of_coordinates(v.dim, seed))
        assert sub.dim >= v.dim // 2
    assert calls == []


# ---------------------------------------------------------------------------
# isotropy


@st.composite
def isotropy_cases(draw):
    """A form of degree 2-4 with one to three components, a subspace and a level.

    The subspace is random, or a greedy maximal isotropic subspace, or one
    with a random vector added to it, so both answers turn up.
    """
    dim = draw(st.integers(2, 6))
    degree = draw(st.integers(2, min(4, dim)))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    density = draw(st.sampled_from((0.3, 0.7)))
    v = VectorValuedForm(tuple(random_form(rng, dim, degree, density=density)
                               for _ in range(draw(st.integers(1, 3)))))
    vector = st.lists(st.integers(-2, 2).map(Fraction), min_size=dim, max_size=dim)
    level = draw(st.integers(1, degree - 1))
    kind = draw(st.sampled_from(("random", "greedy", "greedy plus one")))
    if kind == "random":
        vectors = draw(st.lists(vector, min_size=min(dim, level + 1), max_size=dim))
        sub = Subspace.from_vectors(dim, vectors)
    else:
        seed = Subspace.span_of_coordinates(dim, [draw(st.integers(1, dim))])
        sub = greedy_maximal_isotropic(v, seed)
        if kind == "greedy plus one":
            sub = Subspace.from_vectors(dim, sub.rows() + [draw(vector)])
    return v, sub, level


@settings(settings.get_profile("complement_cut"))
@given(isotropy_cases())
def test_isotropy_matches_containment_in_the_complement(case):
    v, sub, level = case
    oracle = orthogonal_complement(sub, v, level)
    assert is_isotropic(sub, v, level) == oracle.contains_subspace(sub)


def test_isotropy_sees_every_row():
    # e^34 on R^4: the first row e_1 lies in the kernel, e_3 pairs with e_4
    v = form(4, 2, {(3, 4): 1})
    assert not is_isotropic(Subspace.span_of_coordinates(4, [1, 3, 4]), v)
    assert is_isotropic(Subspace.span_of_coordinates(4, [1, 2, 3]), v)
    assert not is_isotropic(Subspace.from_vectors(4, [[1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]), v)


def test_isotropy_refusals_are_unchanged():
    v = random_form(random.Random(1), 4, 3)
    with pytest.raises(DimensionMismatch):
        is_isotropic(Subspace.full(5), v, 9)
    for level in (0, 3):
        with pytest.raises(PreconditionError, match=r"1\.\.2"):
            is_isotropic(Subspace.full(4), v, level)
