"""Integer views: the numerators each form keeps for the inner loops.

``AlternatingForm._numerators`` and ``PolyForm._numerators`` are compared
with the numerators their callers used to build per call, and every view
seeded by a result (contraction images, wedge products, exterior
derivatives and primitives) with a fresh one.  A form is its view,
whether it was built from coefficients or born from integers, and builds
its ``Fraction`` coefficients on first read, in the view's order; a
polynomial form's are compared with the eager build of
``conftest.pf_seeded_oracle`` (a scalar form's in
``test_form_view_oracle.py``).  Writing a form and ``uniform_rank``'s
memo read the views and build no ``Fraction``, and neither do the
kernels, annihilators and polylagrangian check of integer forms, since
kernel vectors come out on integers.  The pipelines that read
the views (kernels, isotropy, maximality, the polylagrangian check and
the Darboux basis) are compared with the same pipelines run on the
``Fraction`` constraint rows and images, which ``conftest`` keeps as
oracles.  The forms mix component denominators, so that stacking an
image with one scale per component instead of one per image is caught.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (contraction_oracle, flat_image_vectors_oracle, integer_coeffs_oracle,
                      is_maximal_isotropic, kernel_constraints_oracle, pf_seeded_oracle,
                      poly_numerators_oracle, poly_zero)
from polydarboux import exterior, lagrangian, polyforms
from polydarboux.cli import main
from polydarboux.darboux import (canonical_poly_model, conjugated_poly_instance,
                                 darboux_basis_poly)
from polydarboux.exterior import (AlternatingForm, VectorValuedForm, contract, form, pullback,
                                  scale, wedge)
from polydarboux.lagrangian import (_kernel_constraints, check_polylagrangian,
                                    flat_image_vectors, greedy_maximal_isotropic, is_isotropic,
                                    kernel_of_form)
from polydarboux.corpus import corpus_files
from polydarboux.io import (_ratio_str, alternating_to_document, load_document,
                            poly_form_to_document)
from polydarboux.linalg import Subspace, annihilator, kernel_subspace
from polydarboux.polyforms import (PolyForm, Polynomial, _pf_seeded, exterior_d,
                                   homotopy_primitive, max_vertical_factors, pf_scale, pf_zero,
                                   poly_from_terms, poly_var)
from polydarboux.sparse import span_equal
from test_polyform_oracle import oracle_exterior_d, same_layout

settings.register_profile("integer_views", deadline=None, max_examples=100, derandomize=True)
PROFILE = settings.get_profile("integer_views")

DENOMINATORS = [1, 2, 3, 4, 5, 6, 7]
entries = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-6, 6), st.sampled_from(DENOMINATORS)))


@st.composite
def forms_on(draw, dim: int, degree: int, den: int = 1):
    """A form whose coefficients are drawn entries over ``den``, stored as ints where whole."""
    combos = list(itertools.combinations(range(1, dim + 1), degree))
    chosen = draw(st.lists(st.sampled_from(combos), unique=True, max_size=7))
    coeffs = {}
    for idx in chosen:
        c = Fraction(draw(entries), den)
        if c:
            mask = sum(1 << (i - 1) for i in idx)
            coeffs[mask] = int(c) if c.denominator == 1 and draw(st.booleans()) else c
    return AlternatingForm(dim, degree, coeffs)


@st.composite
def vector_forms(draw):
    """A vector-valued form on R^3..R^6, each component over its own denominator."""
    dim = draw(st.integers(3, 6))
    degree = draw(st.integers(2, 3))
    nhat = draw(st.integers(1, 3))
    dens = draw(st.lists(st.sampled_from(DENOMINATORS), min_size=nhat, max_size=nhat))
    return VectorValuedForm(tuple(draw(forms_on(dim, degree, d)) for d in dens))


@st.composite
def vectors_on(draw, dim: int):
    """A dense vector of mixed int and Fraction entries, as a list or a sparse dict."""
    dense = draw(st.lists(entries, min_size=dim, max_size=dim))
    if draw(st.booleans()):
        return dense
    return {j: x for j, x in enumerate(dense) if x}


@st.composite
def poly_forms(draw):
    x_dim = draw(st.integers(1, 2))
    y_dim = draw(st.integers(1, 2))
    dim = x_dim + y_dim
    degree = draw(st.integers(0, 2))
    combos = list(itertools.combinations(range(1, dim + 1), degree))
    coeffs = {}
    for idx in draw(st.lists(st.sampled_from(combos), unique=True, max_size=3)):
        terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * dim), entries, max_size=3))
        p = poly_from_terms(dim, terms)
        if not p.is_zero():
            coeffs[sum(1 << (i - 1) for i in idx)] = p
    return PolyForm(dim, degree, (x_dim, y_dim), coeffs)


def assert_seeded_and_exact(x):
    """x's view equals the numerators computed afresh, in term order; an ``AlternatingForm``
    result carries it seeded (a ``PolyForm`` is its view)."""
    if isinstance(x, PolyForm):
        nums, den = x._numerators
        want = poly_numerators_oracle(x)
        flat = [(m, e, n) for m, slot in nums.items() for e, n in slot.items()]
        assert all(Fraction(n, den) == x.coeffs[m].terms[e] for m, e, n in flat)
        assert all(n for _, _, n in flat) and all(nums.values())
        assert [list(slot) for slot in nums.values()] == [list(p.terms) for p in x.coeffs.values()]
    else:
        assert "_numerators" in x.__dict__, "the result's view was not seeded"
        nums, den = x.__dict__["_numerators"]
        want = integer_coeffs_oracle(x.coeffs)
        assert all(n and Fraction(n, den) == x.coeffs[m] for m, n in nums.items())
    assert (nums, den) == want
    assert list(nums) == list(x.coeffs)


def wedge_oracle(a: AlternatingForm, b: AlternatingForm) -> AlternatingForm:
    """a ∧ b on index tuples, in Fraction arithmetic: ``form`` sorts and signs each
    concatenation, and a concatenation names its pair of terms."""
    return form(a.dim, a.degree + b.degree,
                {ia + ib: ca * cb for (ia, ca), (ib, cb) in itertools.product(a.terms(), b.terms())})


def assert_positive_multiple(got: dict, true: dict):
    assert list(got) == list(true)
    ratios = {x / true[k] for k, x in got.items()}
    assert len(ratios) <= 1 and all(r > 0 for r in ratios)


# ---------------------------------------------------------------------------
# the views against the per-call numerators


@settings(PROFILE)
@given(st.data())
def test_form_view_is_the_per_call_numerators(data):
    dim = data.draw(st.integers(0, 6))
    a = data.draw(forms_on(dim, data.draw(st.integers(0, dim))))
    nums, den = a._numerators
    assert (nums, den) == integer_coeffs_oracle(a.coeffs)
    assert list(nums) == list(a.coeffs)
    assert all(type(n) is int and n and Fraction(n, den) == a.coeffs[m] for m, n in nums.items())


@settings(PROFILE)
@given(poly_forms())
def test_polyform_view_is_the_per_call_numerators(a):
    nums, den = a._numerators
    assert (nums, den) == poly_numerators_oracle(a)
    assert all(Fraction(n, den) == a.coeffs[m].terms[e]
               for m, slot in nums.items() for e, n in slot.items())


# ---------------------------------------------------------------------------
# seeded views


@settings(PROFILE)
@given(st.data())
def test_contraction_images_carry_exact_seeded_views(data):
    dim = data.draw(st.integers(1, 6))
    degree = data.draw(st.integers(1, dim))
    a = data.draw(forms_on(dim, degree, data.draw(st.sampled_from(DENOMINATORS))))
    u, w = data.draw(vectors_on(dim)), data.draw(vectors_on(dim))
    image = contract(u, a)
    assert image == contraction_oracle(dict(enumerate(u)) if type(u) is list else u, a)
    assert_seeded_and_exact(image)
    if degree >= 2:  # a second contraction reads the seeded view
        again = contract(w, image)
        assert again == contraction_oracle(dict(enumerate(w)) if type(w) is list else w, image)
        assert_seeded_and_exact(again)


def test_int_entries_of_a_mixed_vector_share_its_scale():
    a = form(3, 2, {(1, 2): 1, (1, 3): Fraction(1, 3)})
    # i_v a for v = e1 + (1/2) e2: entries 1 (an int) and 1/2 share the scale 2
    image = contract({0: 1, 1: Fraction(1, 2)}, a)
    assert image == form(3, 1, {(2,): 1, (3,): Fraction(1, 3), (1,): Fraction(-1, 2)})
    assert image._numerators == ({0b010: 6, 0b100: 2, 0b001: -3}, 6)


@settings(PROFILE)
@given(st.data())
def test_wedge_outputs_carry_exact_seeded_views(data):
    dim = data.draw(st.integers(1, 6))
    p = data.draw(st.integers(0, dim))
    q = data.draw(st.integers(0, dim - p))
    a = data.draw(forms_on(dim, p, data.draw(st.sampled_from(DENOMINATORS))))
    b = data.draw(forms_on(dim, q, data.draw(st.sampled_from(DENOMINATORS))))
    out = wedge(a, b)
    assert out == wedge_oracle(a, b)
    assert_seeded_and_exact(out)
    # a product whose operands' views were seeded by an earlier product
    assert wedge(out, b) == wedge_oracle(wedge_oracle(a, b), b)


def test_wedge_scales_each_operand_by_its_own_denominator():
    a = form(4, 1, {(1,): Fraction(1, 2)})
    b = form(4, 1, {(2,): Fraction(1, 3), (3,): 1})
    out = wedge(a, b)
    assert out == form(4, 2, {(1, 2): Fraction(1, 6), (1, 3): Fraction(1, 2)})
    assert out._numerators == ({0b0011: 1, 0b0101: 3}, 6)


@settings(PROFILE)
@given(poly_forms())
def test_derivatives_and_primitives_carry_exact_seeded_views(a):
    d = exterior_d(a)
    assert d == oracle_exterior_d(a)
    assert_seeded_and_exact(d)
    if d.degree >= 1:
        r = max_vertical_factors(d)
        theta = polyforms._primitive(d, r)
        assert_seeded_and_exact(theta)
        checked = homotopy_primitive(d, r)  # d(theta) == d, read through theta's view
        assert checked == theta
        assert exterior_d(checked) == d


def test_views_take_no_part_in_equality_or_repr():
    a = form(4, 2, {(1, 2): Fraction(1, 2), (3, 4): Fraction(2, 3), (1, 4): 5})
    image = contract({0: Fraction(1, 5), 2: 1}, a)
    assert "_numerators" in image.__dict__
    twin = AlternatingForm(image.dim, image.degree, dict(image.coeffs))
    # one store: the form built from coeffs holds the view of the form born from integers
    assert twin.__dict__["_numerators"] == image.__dict__["_numerators"]
    assert image == twin and twin == image and repr(image) == repr(twin)
    assert VectorValuedForm((image,)) == VectorValuedForm((twin,))
    assert twin._numerators == image._numerators and image == twin
    theta = homotopy_primitive(exterior_d(PolyForm(3, 1, (2, 1), {
        0b001: poly_from_terms(3, {(0, 1, 1): Fraction(3, 4)})})), 1)
    plain = PolyForm(theta.dim, theta.degree, theta.split, dict(theta.coeffs))
    assert theta == plain and plain == theta and repr(theta) == repr(plain)


# ---------------------------------------------------------------------------
# constraint rows and images on integers


MIXED = VectorValuedForm((form(4, 2, {(1, 2): Fraction(1, 2)}),
                          form(4, 2, {(1, 3): Fraction(1, 3), (2, 4): 1})))


def test_one_scale_per_stacked_image():
    # i_e1 of (1/2 e12, 1/3 e13 + e24) is (1/2 e2, 1/3 e3): at the scale 6, (3 e2, 2 e3)
    assert flat_image_vectors(MIXED, [{0: 1}]) == [{(0, 0b0010): 3, (1, 0b0100): 2}]
    # i_(e2/7) is (-1/14 e1, 1/7 e4): at the scale 14, (-e1, 2 e4)
    assert flat_image_vectors(MIXED, [{1: Fraction(1, 7)}]) == [{(0, 0b0001): -1, (1, 0b1000): 2}]


@settings(PROFILE)
@given(st.data())
def test_flat_images_span_the_true_images(data):
    v = data.draw(vector_forms())
    vectors = data.draw(st.lists(vectors_on(v.dim), min_size=1, max_size=4))
    got = flat_image_vectors(v, vectors)
    want = flat_image_vectors_oracle(v, vectors)
    assert all(type(x) is int for img in got for x in img.values())
    for g, w in zip(got, want):
        assert_positive_multiple(g, w)
    assert span_equal(got, want)


@settings(PROFILE)
@given(vector_forms())
def test_constraint_rows_are_integer_multiples_of_the_true_rows(v):
    got = _kernel_constraints(v)
    want = kernel_constraints_oracle(v)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert all(type(x) is int for x in g.values())
        assert_positive_multiple(g, w)
    assert kernel_subspace(got, v.dim) == kernel_subspace(want, v.dim)


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except Exception as exc:  # the pipelines must raise alike, too
        return "raised", type(exc).__name__, str(exc)


def _with_fraction_rows(f, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lagrangian, "_kernel_constraints", kernel_constraints_oracle)
        mp.setattr(lagrangian, "flat_image_vectors", flat_image_vectors_oracle)
        return _outcome(f, *args)


def _assert_pipelines_agree(v, sub: Subspace):
    for f, args in [(kernel_of_form, (v,)), (is_maximal_isotropic, (sub, v)),
                    (check_polylagrangian, (sub, v))]:
        assert _outcome(f, *args) == _with_fraction_rows(f, *args), f.__name__
    for level in range(1, v.degree):
        assert _outcome(is_isotropic, sub, v, level) == \
            _with_fraction_rows(is_isotropic, sub, v, level)


@settings(PROFILE)
@given(st.data())
def test_pipelines_agree_with_the_fraction_rows_and_images(data):
    v = data.draw(vector_forms())
    ker = kernel_of_form(v)
    picks = data.draw(st.lists(vectors_on(v.dim), max_size=3))
    seeds = [Subspace.from_vectors(v.dim, [dict(enumerate(u)) if type(u) is list else u])
             for u in picks]
    subs = [Subspace.from_vectors(v.dim, ker.rows() + [dict(enumerate(u)) if type(u) is list
                                                       else u for u in picks])]
    # greedy results are isotropic, and maximal ones make the checks reach their last step
    subs += [greedy_maximal_isotropic(v, s) for s in seeds
             if s.dim and is_isotropic(s, v, 1)]
    for sub in subs:
        _assert_pipelines_agree(v, sub)


SCALES = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))


@pytest.mark.parametrize("model", [(3, 1, 1), (2, 2, 1), (3, 2, 1), (2, 3, 1), (3, 1, 2),
                                   (4, 2, 2), (3, 3, 2)])
def test_darboux_basis_agrees_with_the_fraction_rows_and_images(model):
    moved, sub, _ = conjugated_poly_instance(canonical_poly_model(*model), 5)
    v = VectorValuedForm(tuple(scale(c, s) for c, s in zip(moved.components, SCALES)))
    _assert_pipelines_agree(v, sub)
    assert check_polylagrangian(sub, v) and is_maximal_isotropic(sub, v)
    got = _outcome(darboux_basis_poly, v, sub)
    assert got == _with_fraction_rows(darboux_basis_poly, v, sub)
    assert got[0] == "value"
    basis = got[1]
    # the basis itself pulls the form back to the model: the momentum vectors
    # were solved at the images' true values
    model_form = canonical_poly_model(*model).form
    assert pullback(v, basis.matrix) == model_form


def test_pipelines_agree_on_random_integer_and_mixed_forms():
    rng = random.Random(11)
    for _ in range(20):
        dim = rng.randint(4, 6)
        comps = []
        for den in rng.sample(DENOMINATORS, 2):
            terms = {idx: Fraction(rng.randint(-3, 3), den)
                     for idx in itertools.combinations(range(1, dim + 1), 2)
                     if rng.random() < 0.4}
            comps.append(form(dim, 2, terms))
        v = VectorValuedForm(tuple(comps))
        sub = Subspace.from_vectors(dim, kernel_of_form(v).rows() + [{0: 1}])
        _assert_pipelines_agree(v, sub)


# ---------------------------------------------------------------------------
# a polynomial form is its view and builds its coefficients on first read


def _seeded(a: PolyForm) -> PolyForm:
    """a as a result born from integers: built from its view by ``_pf_seeded``."""
    return _pf_seeded(a.dim, a.degree, a.split, *poly_numerators_oracle(a))


def _built(a: PolyForm) -> PolyForm:
    """a as a caller builds it: from its ``Polynomial`` coefficients."""
    return PolyForm(a.dim, a.degree, a.split, dict(a.coeffs))


@st.composite
def raw_views(draw):
    """Zero-free numerator slots over a den sharing factors with them, as results hold before
    ``_pf_seeded`` reduces them."""
    dim = draw(st.integers(1, 4))
    degree = draw(st.integers(0, dim))
    factor = draw(st.sampled_from([1, 2, 6, 10 ** 13]))
    masks = [sum(1 << (i - 1) for i in idx)
             for idx in itertools.combinations(range(1, dim + 1), degree)]
    nums = {}
    for m in draw(st.lists(st.sampled_from(masks), unique=True, max_size=3)):
        slot = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * dim),
                                    st.integers(-9, 9).filter(bool).map(lambda n: n * factor),
                                    min_size=1, max_size=3))
        nums[m] = slot
    x_dim = draw(st.integers(0, dim))
    return dim, degree, (x_dim, dim - x_dim), nums, factor * draw(st.integers(1, 7))


@settings(PROFILE)
@given(raw_views())
def test_lazy_coefficients_are_the_eager_ones(view):
    dim, degree, split, nums, den = view
    lazy = _pf_seeded(dim, degree, split, nums, den)
    want = pf_seeded_oracle(dim, degree, split, nums, den)
    assert "coeffs" not in lazy.__dict__
    assert lazy._numerators == want._numerators
    assert lazy.is_zero() == want.is_zero() and lazy == want
    assert "coeffs" not in lazy.__dict__  # neither == nor is_zero builds them
    assert [(m, list(p.terms)) for m, p in lazy.coeffs.items()] == \
        [(m, list(slot)) for m, slot in nums.items()]  # in the order of the view
    assert same_layout(lazy, want) and lazy.coeffs is lazy.__dict__["coeffs"]
    assert all(type(c) is Fraction for p in lazy.coeffs.values() for c in p.terms.values())
    assert repr(lazy) == repr(want) and lazy.terms() == want.terms()


@settings(PROFILE)
@given(st.data())
def test_coefficients_come_out_in_the_order_they_went_in(data):
    a = data.draw(poly_forms())
    given = {m: Polynomial(a.dim, dict(data.draw(st.permutations(list(a.coeffs[m].terms.items())))))
             for m in data.draw(st.permutations(list(a.coeffs)))}
    x = PolyForm(a.dim, a.degree, a.split, given)
    assert "coeffs" not in x.__dict__ and x == a
    assert [(m, list(p.terms.items())) for m, p in x.coeffs.items()] == \
        [(m, list(p.terms.items())) for m, p in given.items()]


def test_a_zero_coefficient_is_dropped_when_the_form_is_built():
    x = PolyForm(2, 2, (1, 1), {0b11: poly_zero(2)})
    assert x.is_zero() and x == pf_zero(2, 2, (1, 1)) and x.coeffs == {}
    y = PolyForm(2, 1, (1, 1), {0b01: poly_zero(2), 0b10: poly_var(2, 1)})
    assert list(y.coeffs) == [0b10] and y == PolyForm(2, 1, (1, 1), {0b10: poly_var(2, 1)})
    assert PolyForm.__hash__ is None  # the view holds dicts
    with pytest.raises(TypeError):
        hash(x)


@settings(PROFILE)
@given(poly_forms())
def test_derivatives_build_the_eager_coefficients_on_first_read(a):
    d = exterior_d(a)
    assert "coeffs" not in d.__dict__
    assert same_layout(d, pf_seeded_oracle(d.dim, d.degree, d.split, *d._numerators))
    assert same_layout(d, oracle_exterior_d(a))


@settings(PROFILE)
@given(poly_forms())
def test_primitives_are_checked_and_written_without_coefficients(a):
    omega = exterior_d(a)
    if omega.degree < 1 or omega.is_zero():
        return
    r = max_vertical_factors(omega)
    built = []
    original = polyforms.exterior_d

    def kept(x):
        built.append(original(x))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyforms, "exterior_d", kept)
        theta = homotopy_primitive(omega, r)
    doc = poly_form_to_document(theta)
    assert [x.degree for x in built] == [omega.degree]  # the post-check's d(theta)
    for x in (theta, *built):
        assert "coeffs" not in x.__dict__
    assert doc == poly_form_to_document(_built(theta))
    assert built[0] == omega and exterior_d(_built(theta)) == omega


def _pairs(a: PolyForm, b: PolyForm):
    """(x, y) for x a seeded or built a, y a seeded or built b, fresh per pair."""
    makers = (_seeded, _built)
    for make_a, make_b in itertools.product(makers, makers):
        yield make_a(a), make_b(b)


def _assert_equality_agrees(a: PolyForm, b: PolyForm):
    same = ((a.dim, a.degree, a.split) == (b.dim, b.degree, b.split)
            and a.coeffs == b.coeffs)
    for x, y in _pairs(a, b):
        assert (x == y) is same and (y == x) is same
        assert (x != y) is not same and (y != x) is not same
        assert "coeffs" not in x.__dict__ and "coeffs" not in y.__dict__  # == reads the views


@settings(PROFILE)
@given(st.data())
def test_equality_agrees_on_seeded_and_built_forms(data):
    a = data.draw(poly_forms())
    half = pf_scale(a, Fraction(1, 2))  # same numerators as a where one of them is odd
    shaped = [PolyForm(a.dim, a.degree + 1, a.split, {}),
              PolyForm(a.dim, a.degree, a.split[::-1], dict(a.coeffs))
              if a.split[0] != a.split[1] else pf_zero(a.dim, a.degree, a.split)]
    for b in (a, half, pf_scale(a, 2), data.draw(poly_forms()), *shaped):
        _assert_equality_agrees(a, b)


def test_equality_tells_equal_numerators_over_other_denominators_apart():
    a = PolyForm(2, 1, (1, 1), {0b01: poly_from_terms(2, {(1, 0): 1, (0, 1): Fraction(3, 2)})})
    b = pf_scale(a, Fraction(1, 3))
    assert a._numerators[0] == b._numerators[0]
    _assert_equality_agrees(a, b)


def test_zero_forms_of_other_degree_or_split_differ_seeded_or_built():
    zeros = [pf_zero(4, 1, (2, 2)), pf_zero(4, 2, (2, 2)), pf_zero(4, 1, (1, 3)),
             pf_zero(3, 1, (2, 1))]
    for a, b in itertools.product(zeros, zeros):
        _assert_equality_agrees(a, b)
    seeded = _pf_seeded(4, 1, (2, 2), {}, 5)
    assert seeded.is_zero() and seeded == zeros[0] and zeros[0] == seeded and seeded != zeros[1]


@settings(PROFILE)
@given(st.integers(-10 ** 13, 10 ** 13),
       st.one_of(st.just(1), st.integers(1, 60), st.integers(10 ** 12, 10 ** 13)))
def test_ratio_str_is_str_of_the_fraction(n, den):
    assert _ratio_str(n, den) == str(Fraction(n, den))
    assert _ratio_str(n * 7, den * 7) == str(Fraction(n, den))


def test_homotopy_op_on_plain_coefficients_builds_no_fraction(tmp_path, capsys):
    """Parsed into the view, integrated, checked and written on integers: the plain
    coefficient strings, 13-digit denominators among them, are read as int pairs."""
    beta = PolyForm(6, 2, (3, 3), {
        0b000011: poly_from_terms(6, {(1, 0, 2, 1, 0, 0): Fraction(2, 3), (0, 0, 0, 1, 0, 0): 5}),
        0b001001: poly_from_terms(6, {(0, 1, 0, 0, 2, 1): Fraction(-7, 10 ** 13),
                                      (2, 0, 0, 0, 0, 0): Fraction(2, 3)}),
        0b000110: poly_from_terms(6, {(1, 1, 1, 0, 0, 0): -1}),
    })
    doc = poly_form_to_document(exterior_d(beta))
    path = tmp_path / "closed.json"
    path.write_text(json.dumps(doc))
    distinct = {mono["coefficient"] for t in doc["terms"] for mono in t["polynomial"]}
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", counted)
        code = main(["homotopy", str(path), "--json"])
    assert code == 0 and json.loads(capsys.readouterr().out)["result"]["derivative_matches"]
    assert built == [] and len(distinct) > 3


@settings(PROFILE)
@given(st.data())
def test_scalar_writer_writes_str_of_each_fraction(data):
    """Written from the view, each coefficient string is ``str`` of the ``Fraction`` that
    ``terms()`` gives, for views handed over unreduced and with negative numerators."""
    dim = data.draw(st.integers(1, 5))
    degree = data.draw(st.integers(0, dim))
    masks = [sum(1 << (i - 1) for i in idx)
             for idx in itertools.combinations(range(1, dim + 1), degree)]
    big = st.integers(-10 ** 13, 10 ** 13).filter(bool)
    comps = []
    for _ in range(data.draw(st.integers(1, 2))):
        nums = data.draw(st.dictionaries(st.sampled_from(masks), big, max_size=4))
        den = data.draw(st.one_of(st.integers(1, 60), st.integers(10 ** 12, 10 ** 13)))
        k = data.draw(st.sampled_from([1, 2, 7, 10 ** 6]))
        comps.append(exterior._seeded(dim, degree, {m: n * k for m, n in nums.items()}, den * k))
    x = comps[0] if len(comps) == 1 else VectorValuedForm(tuple(comps))
    want = [(a, list(idx), str(c)) for a, comp in enumerate(comps, start=1)
            for idx, c in comp.terms()]
    terms = alternating_to_document(x)["terms"]
    assert [(t.get("component", 1), t["indices"], t["coefficient"]) for t in terms] == want


@pytest.mark.parametrize("name, rank", [("appendix_a1.json", None), ("appendix_a2.json", 1),
                                        ("appendix_a3.json", 2)])
def test_uniform_rank_on_the_memo_builds_no_fraction(name, rank):
    """Two or more components walk the wedge-power memo: its budget counts the terms of each
    power's view and the independence test spans the views, so no ``Fraction`` is built."""
    omega = load_document({Path(p).name: p for p in corpus_files()}[name]).payload
    assert omega.value_dim >= 2
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", counted)
        assert lagrangian.uniform_rank(omega) == rank
    assert built == []


def _e13_e24_in_r20():
    lagr = Subspace.span_of_coordinates(20, [1, 2, *range(5, 21)])
    return form(20, 2, {(1, 3): 1, (2, 4): 1}), lagr


def _conjugated_poly_3_2_1():
    moved, lagr, _ = conjugated_poly_instance(canonical_poly_model(3, 2, 1), 5)
    return moved, lagr


@pytest.mark.parametrize("build", [_e13_e24_in_r20, _conjugated_poly_3_2_1])
def test_kernels_annihilators_and_the_check_build_no_fraction(build):
    """On an integer form the exact kernel stays on integers: the form's kernel, a kernel
    of constraint rows, the annihilator of L and the polylagrangian check of L build no
    ``Fraction``.  Each form is built fresh, so no cached image hides a build."""
    omega, lagr = build()
    rows = _kernel_constraints(omega)
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", counted)
        ker = kernel_of_form(omega)
        same = kernel_subspace(rows, omega.dim)
        ann = annihilator(lagr)
        holds = check_polylagrangian(lagr, omega)
    assert built == []
    assert ker == same and lagr.contains_subspace(ker) and holds
    assert ann.dim == omega.dim - lagr.dim
    assert all(not sum(c * x.get(k, 0) for k, c in a.items())
               for a in ann.rows() for x in lagr.rows())
