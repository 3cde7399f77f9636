"""Differential tests: exact primitives, pencil ranks and the report writer
against the code they replaced.

The oracles below are the previous implementations: the Fraction
``exterior_d`` built on ``Polynomial.diff``, the ``homotopy_primitive``
with its closedness pre-check and Fraction accumulator, and the sampler
that projected each covector and ranked the projection.  The form
arithmetic on integer views is compared with its ``Polynomial`` path,
which ``conftest`` keeps as oracles, and so is the parser that read
documents into ``Fraction``s and ``Polynomial``s before it read them into
the view.  The writer is compared with ``json.dumps(sort_keys=True,
indent=2)`` itself.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (constant_spread_oracle, exterior_d_oracle, parse_poly_form_oracle,
                      pf_add_oracle, pf_contract_basis_oracle, pf_scale_oracle, pf_seeded_oracle,
                      pf_wedge_oracle, primitive_oracle, row_rank)
from polydarboux import cli, io, polyforms
from polydarboux.errors import DocumentError, InternalCheckError, PreconditionError
from polydarboux.exterior import VectorValuedForm, form, merge_sign, project, removal_sign
from polydarboux.io import poly_form_to_document, report_json
from polydarboux.lagrangian import (DEFAULT_SEED, constant_rank_sampled, random_covector,
                                    rank_2form)
from polydarboux.moser import perturbed_multisymplectic
from polydarboux.polyforms import (PolyForm, Polynomial, constant_spread, exterior_d,
                                   homotopy_primitive, max_vertical_factors,
                                   moser_potential, pf_add, pf_contract_basis, pf_scale, pf_sub,
                                   pf_wedge, poly_const, poly_from_terms)
from test_elimination_oracle import batch_rref_rows

ZERO = Fraction(0)
ONE = Fraction(1)
BIG = 10 ** 13

settings.register_profile("polyform_oracle", deadline=None, max_examples=80, derandomize=True)


# ---------------------------------------------------------------------------
# oracles: the previous code


def oracle_d_along(a: PolyForm, variables) -> PolyForm:
    out: dict = {}
    for m, p in a.coeffs.items():
        for v in variables:
            bit = 1 << (v - 1)
            if m & bit:
                continue
            dp = p.diff(v)
            if dp.is_zero():
                continue
            s = merge_sign(bit, m)
            q = dp if s > 0 else -dp
            key = m | bit
            cur = out.get(key)
            ns = q if cur is None else cur + q
            if ns.is_zero():
                out.pop(key, None)
            else:
                out[key] = ns
    return PolyForm(a.dim, a.degree + 1, a.split, out)


def oracle_exterior_d(a: PolyForm) -> PolyForm:
    return oracle_d_along(a, range(1, a.dim + 1))


def oracle_homotopy_primitive(omega: PolyForm, r: int) -> PolyForm:
    k = omega.degree
    if k < 1:
        raise PreconditionError("primitive construction needs degree at least 1")
    if not oracle_exterior_d(omega).is_zero():
        raise PreconditionError("form is not closed")
    if max_vertical_factors(omega) > r:
        raise PreconditionError(
            f"a monomial carries more than {r} vertical differentials")
    x_dim = omega.x_dim
    acc: dict = {}

    def put(mask: int, exps: tuple, coeff: Fraction):
        if not coeff:
            return
        slot = acc.setdefault(mask, {})
        nv = slot.get(exps, ZERO) + coeff
        if nv:
            slot[exps] = nv
        else:
            del slot[exps]

    for m, p in omega.coeffs.items():
        s_l = omega.y_count(m)
        for exps, c in p.terms.items():
            y_deg = sum(exps[x_dim:])
            if s_l:
                power = y_deg + s_l - 1
                if power < 0:
                    raise InternalCheckError("negative scale power in the fiber part")
                weight = Fraction(1, power + 1)
                mm = m >> x_dim
                while mm:
                    low = mm & -mm
                    mm ^= low
                    j = low.bit_length() - 1 + x_dim
                    sign = removal_sign(m, j)
                    ne = exps[:j] + (exps[j] + 1,) + exps[j + 1:]
                    put(m ^ (1 << j), ne, (c if sign > 0 else -c) * weight)
            if s_l == 0 and y_deg == 0:
                power = sum(exps) + k - 1
                if power < 0:
                    raise InternalCheckError("negative scale power in the base part")
                weight = Fraction(1, power + 1)
                mm = m
                while mm:
                    low = mm & -mm
                    mm ^= low
                    i = low.bit_length() - 1
                    sign = removal_sign(m, i)
                    ne = exps[:i] + (exps[i] + 1,) + exps[i + 1:]
                    put(m ^ (1 << i), ne, (c if sign > 0 else -c) * weight)

    coeffs = {}
    for m, slot in acc.items():
        p = Polynomial(omega.dim, slot)
        if not p.is_zero():
            coeffs[m] = p
    theta = PolyForm(omega.dim, k - 1, omega.split, coeffs)
    if max_vertical_factors(theta) > max(r - 1, 0):
        raise InternalCheckError("primitive exceeds the expected vertical bound")
    return theta


def oracle_rank_2form(omega) -> int:
    """Half the pivot count of the Fraction coefficient matrix."""
    rows = [[ZERO] * omega.dim for _ in range(omega.dim)]
    for m, c in omega.coeffs.items():
        i = (m & -m).bit_length() - 1
        j = m.bit_length() - 1
        rows[i][j] = -c
        rows[j][i] = c
    return len(batch_rref_rows(rows)[1]) // 2


def oracle_constant_rank_sampled(v: VectorValuedForm, sample_count: int, seed: int):
    rng = random.Random(seed)
    covs = itertools.chain(
        ([ONE if a == b else ZERO for b in range(v.value_dim)] for a in range(v.value_dim)),
        (random_covector(rng, v.value_dim) for _ in range(sample_count)))
    common = None
    for t in covs:
        r = oracle_rank_2form(project(v, t))
        if common is None:
            common = r
        elif r != common:
            return None
    return common


def outcome(fn, *args):
    """The result, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not handled
        return (type(exc), str(exc))


def same_layout(a: PolyForm, b: PolyForm) -> bool:
    """Equal forms with the same mask and term order.

    The float Moser flow evaluates coefficients in dict order, so keeping
    the order keeps its digits.
    """
    return (a == b and list(a.coeffs) == list(b.coeffs)
            and all(list(a.coeffs[m].terms) == list(b.coeffs[m].terms) for m in a.coeffs))


# ---------------------------------------------------------------------------
# strategies

coefficients = st.one_of(
    st.integers(-3, 3).filter(bool).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7)),
    st.builds(Fraction, st.integers(-BIG, BIG).filter(bool), st.integers(BIG // 10, BIG - 1)),
)


@st.composite
def polynomials(draw, dim: int):
    # few small exponents, so derivatives of different monomials collide and cancel
    top = draw(st.integers(1, 2))
    exps = st.lists(st.integers(0, top), min_size=dim, max_size=dim).map(tuple)
    coeff = draw(st.sampled_from([coefficients, st.sampled_from([ONE, -ONE, Fraction(2)])]))
    terms = draw(st.dictionaries(exps, coeff, max_size=4))
    return Polynomial(dim, terms)


@st.composite
def poly_forms(draw, dim=None, degree=None, max_y=None):
    """Polynomial forms on a split space; ``max_y`` bounds the y-differentials."""
    if dim is None:
        dim = draw(st.integers(1, 6))
    x_dim = draw(st.integers(0, dim))
    if degree is None:
        degree = draw(st.integers(0, min(dim, 3)))
    masks = [sum(1 << i for i in idx) for idx in itertools.combinations(range(dim), degree)]
    if max_y is not None:
        masks = [m for m in masks if (m >> x_dim).bit_count() <= max_y]
    chosen = draw(st.lists(st.sampled_from(masks), unique=True, max_size=5)) if masks else []
    coeffs = {}
    for m in chosen:
        p = draw(polynomials(dim))
        if not p.is_zero():
            coeffs[m] = p
    return PolyForm(dim, degree, (x_dim, dim - x_dim), coeffs)


@st.composite
def closed_forms(draw):
    """(d(beta), r) with beta's monomials carrying at most r-1 y-differentials."""
    dim = draw(st.integers(2, 6))
    degree = draw(st.integers(1, min(dim, 3)))
    r = draw(st.integers(1, degree))
    beta = draw(poly_forms(dim=dim, degree=degree - 1, max_y=r - 1))
    return oracle_exterior_d(beta), r


# ---------------------------------------------------------------------------
# the constant spread


@settings(settings.get_profile("polyform_oracle"))
@given(st.data())
def test_constant_spread_reads_the_constant_terms(data):
    """Equal, in the same layout, to the value at the origin as it used to be computed."""
    a = data.draw(poly_forms())
    origin = (0,) * a.dim
    coeffs = {}
    for m, p in a.coeffs.items():
        terms = dict(p.terms)
        choice = data.draw(st.sampled_from(["keep", "add", "drop"]))
        if choice == "add":
            terms[origin] = data.draw(coefficients)
        elif choice == "drop":
            terms.pop(origin, None)
        if terms:
            coeffs[m] = Polynomial(a.dim, terms)
    omega = PolyForm(a.dim, a.degree, a.split, coeffs)
    origin = [ZERO] * omega.dim
    want = PolyForm(omega.dim, omega.degree, omega.split,
                    {m: poly_const(omega.dim, p.eval(origin)) for m, p in omega.coeffs.items()})
    assert same_layout(constant_spread(omega), want)


# ---------------------------------------------------------------------------
# form arithmetic


@st.composite
def partners(draw, a: PolyForm):
    """A form of a's shape that cancels some masks of a whole, cancels others and then refills
    them with new terms, and brings masks of its own, in a drawn order."""
    coeffs = {}
    for m, p in a.coeffs.items():
        choice = draw(st.sampled_from(["cancel", "refill", "other", "none"]))
        if choice == "cancel":
            coeffs[m] = -p
        elif choice == "refill":
            coeffs[m] = -p + draw(polynomials(a.dim))
        elif choice == "other":
            coeffs[m] = draw(polynomials(a.dim))
    for m, p in draw(poly_forms(dim=a.dim, degree=a.degree)).coeffs.items():
        coeffs.setdefault(m, p)
    return PolyForm(a.dim, a.degree, a.split, dict(draw(st.permutations(list(coeffs.items())))))


@settings(settings.get_profile("polyform_oracle"))
@given(st.data())
def test_form_arithmetic_matches_the_polynomial_path(data):
    """Equal, in the same layout, to the arithmetic on ``Polynomial`` coefficients."""
    a = data.draw(poly_forms())
    b = data.draw(partners(a))
    w = data.draw(poly_forms(dim=a.dim, degree=data.draw(st.integers(0, a.dim - a.degree))))
    w = PolyForm(a.dim, w.degree, a.split, w.coeffs)
    cases = [(pf_add(a, b), pf_add_oracle(a, b)), (pf_add(b, a), pf_add_oracle(b, a)),
             (pf_wedge(a, w), pf_wedge_oracle(a, w)), (pf_wedge(w, b), pf_wedge_oracle(w, b)),
             (pf_wedge(a, a), pf_wedge_oracle(a, a)), (constant_spread(a), constant_spread_oracle(a))]
    cases += [(pf_scale(a, c), pf_scale_oracle(a, c)) for c in (0, -1, data.draw(coefficients))]
    cases += [(pf_contract_basis(a, i), pf_contract_basis_oracle(a, i)) for i in range(1, a.dim + 1)]
    for got, want in cases:
        assert same_layout(got, want)


def test_sums_and_products_keep_the_layout_of_the_polynomial_path():
    def poly(*terms):
        return poly_from_terms(3, dict(terms))

    x2, y, x, x3, one = (2, 0, 0), (0, 1, 0), (1, 0, 0), (3, 0, 0), (0, 0, 0)
    # b empties a's first mask and refills it: the mask keeps its place
    a = PolyForm(3, 1, (2, 1), {0b001: poly((x, 1)), 0b010: poly((y, 2))})
    b = PolyForm(3, 1, (2, 1), {0b001: poly((x, -1), (y, 5))})
    assert list(pf_add(a, b).coeffs) == [0b001, 0b010]
    assert same_layout(pf_add(a, b), pf_add_oracle(a, b))
    # p2 q1 cancels x^2 within itself, against the x^2 that p1 q2 left in the sum: the
    # product is added whole, so that x^2 keeps its place
    a = PolyForm(3, 1, (2, 1), {0b001: poly((x, 1), (y, 1)), 0b010: poly((x, 1), (one, 1))})
    b = PolyForm(3, 1, (2, 1), {0b001: poly((x, 1), (x2, -1)), 0b010: poly((x, 1))})
    got = pf_wedge(a, b)
    assert list(got.coeffs[0b011].terms) == [x2, (1, 1, 0), x3, x]
    assert same_layout(got, pf_wedge_oracle(a, b))


# ---------------------------------------------------------------------------
# exterior derivative


@settings(settings.get_profile("polyform_oracle"))
@given(poly_forms())
def test_exterior_d_matches_fraction_d(a):
    got = exterior_d(a)
    assert same_layout(got, oracle_exterior_d(a))
    assert all(type(c) is Fraction for p in got.coeffs.values() for c in p.terms.values())


def test_exterior_d_keeps_variable_then_term_order():
    # dx3 with x2 + x1: the dx1 part comes first although x2 is hit first
    a = PolyForm(3, 1, (3, 0), {0b100: poly_from_terms(3, {(0, 1, 0): 1, (1, 0, 0): 1})})
    assert list(exterior_d(a)._numerators[0]) == [0b101, 0b110]
    # dx3 with x1 x2 + x1: both hits of x1 keep their term order
    b = PolyForm(3, 1, (3, 0), {0b100: poly_from_terms(3, {(1, 1, 0): 2, (1, 0, 0): 1})})
    assert list(exterior_d(b)._numerators[0][0b101]) == [(0, 1, 0), (0, 0, 0)]
    for x in (a, b):
        assert same_layout(exterior_d(x), oracle_exterior_d(x))


@settings(settings.get_profile("polyform_oracle"))
@given(poly_forms(), st.lists(st.floats(-2, 2), min_size=6, max_size=6))
def test_float_coefficients_are_read_off_the_view(a, point):
    point = point[:a.dim]
    want = {m: p.eval_float(point) for m, p in pf_seeded_oracle(
        a.dim, a.degree, a.split, *a._numerators).coeffs.items()}
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", counted)
        got = a.coeffs_float(point)
    assert built == [] and list(got.items()) == list(want.items())


def test_float_coefficients_round_each_rational_once():
    # over the lcm, n and den pass 2^53: float(n) / float(den) would round three times
    c = Fraction(1300214726908, 3585150118155)
    a = PolyForm(2, 1, (1, 1), {0b01: poly_from_terms(2, {(0, 0): c}),
                                0b10: poly_from_terms(2, {(0, 0): Fraction(1, 2736498861273)})})
    assert a._numerators[1] > 2 ** 53
    assert a.coeffs_float([0.0, 0.0])[0b01] == float(c)


def test_exterior_d_cancels_to_the_zero_form():
    # d(d(beta)) = 0 with every term cancelling inside the accumulator
    beta = PolyForm(3, 1, (2, 1), {0b001: Polynomial(3, {(0, 2, 1): Fraction(5, 3)}),
                                   0b100: Polynomial(3, {(1, 1, 0): Fraction(-1, BIG)})})
    assert exterior_d(exterior_d(beta)) == PolyForm(3, 3, (2, 1), {})


# ---------------------------------------------------------------------------
# homotopy primitive


@settings(settings.get_profile("polyform_oracle"))
@given(closed_forms())
def test_primitive_of_closed_forms_matches(case):
    omega, r = case
    got = homotopy_primitive(omega, r)
    assert same_layout(got, oracle_homotopy_primitive(omega, r))
    assert oracle_exterior_d(got) == omega


@settings(settings.get_profile("polyform_oracle"))
@given(poly_forms(), st.integers(0, 3))
def test_primitive_of_arbitrary_forms_matches(omega, r):
    """Non-closed forms, forms over the vertical bound, both, zero and degree-0 forms."""
    got = outcome(homotopy_primitive, omega, r)
    expected = outcome(oracle_homotopy_primitive, omega, r)
    if isinstance(expected, PolyForm):
        assert same_layout(got, expected)
    else:
        assert got == expected


def test_primitive_terms_that_cancel_in_the_accumulator():
    def poly(terms):
        return Polynomial(4, {e: Fraction(c) for e, c in terms.items()})
    beta = PolyForm(4, 1, (3, 1), {0b001: poly({(0, 1, 1, 0): 1, (1, 0, 0, 0): -2}),
                                   0b010: poly({(0, 1, 1, 0): -1, (1, 1, 1, 1): -1}),
                                   0b100: poly({(1, 1, 0, 1): 2, (1, 1, 0, 0): -1})})
    omega = oracle_exterior_d(beta)
    assert same_layout(homotopy_primitive(omega, 1), oracle_homotopy_primitive(omega, 1))


# ---------------------------------------------------------------------------
# d and the primitive against their previous bodies, which ``conftest`` keeps: the same view
# and the same mask and term order.  ``DeformationField`` numbers its monomials in alpha's
# view order, so the order decides the digits of ``moser``.


def perfbench_homotopy_forms(seed: int, tmp: Path) -> list:
    """(omega, r) of the first panel of perfbench's ``homotopy`` round at ``seed``: one form
    of each of its 30 shapes, read back from the documents it writes."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from workloads import HOMOTOPY_SHAPES, build_homotopy
    finally:
        sys.path.pop(0)
    (panel,) = build_homotopy(seed, 1, tmp)
    assert len(panel) == len(HOMOTOPY_SHAPES) == 30
    docs = [io.load_document(op.argvs[0][1]) for op in panel]
    return [(doc.payload, doc.r) for doc in docs]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_d_and_primitive_keep_the_layout_on_the_perfbench_shapes(seed, tmp_path):
    for omega, r in perfbench_homotopy_forms(seed, tmp_path):
        theta = polyforms._primitive(omega, r)
        assert same_layout(theta, primitive_oracle(omega, r))
        assert theta._numerators == primitive_oracle(omega, r)._numerators
        d_theta = exterior_d(theta)
        assert same_layout(d_theta, exterior_d_oracle(theta)) and d_theta == omega
        assert d_theta._numerators == exterior_d_oracle(theta)._numerators
        # a form that is not closed: the primitive differentiates to omega, its d does not
        assert same_layout(exterior_d(omega), exterior_d_oracle(omega))


@pytest.mark.parametrize("seed", range(1, 33))
def test_moser_potential_keeps_the_layout_of_the_previous_primitive(seed):
    fx = perturbed_multisymplectic(seed=seed)
    alpha = moser_potential(fx.omega, fx.omega0)
    want = primitive_oracle(pf_sub(fx.omega0, fx.omega), 1)
    assert same_layout(alpha, want) and alpha._numerators == want._numerators


@settings(settings.get_profile("polyform_oracle"), max_examples=200)
@given(poly_forms(), st.integers(0, 3))
def test_d_and_primitive_match_their_previous_bodies(a, r):
    """Arbitrary forms, closed or not, over the vertical bound or not: the same view and
    layout, or the same error."""
    assert same_layout(exterior_d(a), exterior_d_oracle(a))
    if a.degree >= 1:
        got, want = outcome(polyforms._primitive, a, r), outcome(primitive_oracle, a, r)
        if isinstance(want, PolyForm):
            assert same_layout(got, want) and got._numerators == want._numerators
        else:
            assert got == want


def test_primitive_refuses_a_negative_scale_power():
    """Only a form built with negative exponents reaches it; the homotopy does not."""
    omega = PolyForm(2, 1, (1, 1), {0b10: Polynomial(2, {(0, -1): ONE})})
    with pytest.raises(InternalCheckError, match="negative power of the scale parameter"):
        polyforms._primitive(omega, 1)


@pytest.mark.parametrize("r", [0, 1, 2])
def test_primitive_failure_messages(r):
    not_closed = PolyForm(4, 2, (2, 2), {0b0011: Polynomial(4, {(0, 0, 1, 0): ONE})})
    over_bound = PolyForm(4, 2, (2, 2), {0b1100: Polynomial(4, {(0, 0, 0, 0): ONE})})
    both = PolyForm(4, 2, (2, 2), {0b1100: Polynomial(4, {(1, 0, 0, 0): ONE})})
    zero = PolyForm(4, 2, (2, 2), {})
    for omega in (not_closed, over_bound, both, zero):
        assert outcome(homotopy_primitive, omega, r) == outcome(oracle_homotopy_primitive, omega, r)
    assert outcome(homotopy_primitive, both, r) == (PreconditionError, "form is not closed")


def test_primitive_construction_fault_is_an_internal_check(monkeypatch):
    omega = PolyForm(2, 2, (1, 1), {0b11: Polynomial(2, {(0, 0): ONE})})
    monkeypatch.setattr(polyforms, "_primitive",
                        lambda omega, r: PolyForm(2, 1, (1, 1), {}))
    with pytest.raises(InternalCheckError, match="does not differentiate back"):
        homotopy_primitive(omega, 1)
    not_closed = PolyForm(2, 1, (1, 1), {0b01: Polynomial(2, {(0, 1): ONE})})
    with pytest.raises(PreconditionError, match="form is not closed"):
        homotopy_primitive(not_closed, 1)


def test_homotopy_command_differentiates_once(tmp_path, monkeypatch, capsys):
    omega, r = oracle_exterior_d(PolyForm(6, 2, (3, 3), {
        0b000011: Polynomial(6, {(1, 0, 2, 1, 0, 0): Fraction(2, 3)}),
        0b001001: Polynomial(6, {(0, 1, 0, 0, 2, 1): Fraction(-7, BIG)}),
    })), 2
    doc = poly_form_to_document(omega)
    doc["r"] = r
    path = tmp_path / "closed.json"
    path.write_text(json.dumps(doc))
    calls = []
    original = polyforms.exterior_d

    def counted(a):
        calls.append(a.degree)
        return original(a)

    monkeypatch.setattr(polyforms, "exterior_d", counted)
    monkeypatch.setattr(cli, "exterior_d", counted, raising=False)
    assert cli.main(["homotopy", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["derivative_matches"] is True
    assert calls == [omega.degree - 1]


def test_homotopy_command_exits_three_on_a_construction_fault(tmp_path, monkeypatch, capsys):
    omega = PolyForm(2, 2, (1, 1), {0b11: Polynomial(2, {(0, 0): ONE})})
    path = tmp_path / "closed.json"
    path.write_text(json.dumps(poly_form_to_document(omega)))
    monkeypatch.setattr(polyforms, "_primitive",
                        lambda omega, r: PolyForm(2, 1, (1, 1), {}))
    assert cli.main(["homotopy", str(path), "--r", "1", "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal consistency failure" in captured.err


# ---------------------------------------------------------------------------
# sampled ranks on the integer pencil


@st.composite
def vector_2forms(draw):
    dim = draw(st.integers(2, 9))
    nhat = draw(st.integers(1, 3))
    monomials = list(itertools.combinations(range(1, dim + 1), 2))
    comps = []
    for _ in range(nhat):
        if draw(st.booleans()):
            # shared Darboux planes give covector-dependent ranks
            planes = [(2 * i + 1, 2 * i + 2) for i in range(dim // 2)]
            chosen = draw(st.lists(st.sampled_from(planes), unique=True))
            comps.append(form(dim, 2, {p: draw(coefficients) for p in chosen}))
        else:
            comps.append(form(dim, 2, draw(st.dictionaries(st.sampled_from(monomials),
                                                            coefficients, max_size=6))))
    return VectorValuedForm(tuple(comps))


@settings(settings.get_profile("polyform_oracle"))
@given(vector_2forms(), st.integers(1, 12), st.integers(0, 10 ** 6))
def test_pencil_sampler_matches_projection_sampler(v, samples, seed):
    assert constant_rank_sampled(v, samples, seed) == oracle_constant_rank_sampled(v, samples, seed)


@settings(settings.get_profile("polyform_oracle"))
@given(vector_2forms())
def test_rank_2form_matches_fraction_rows(v):
    for comp in v.components:
        assert rank_2form(comp) == oracle_rank_2form(comp)


def test_pencil_components_share_one_scale():
    # t_1 = 11 t_2 and t_1 = 22 t_2 drop the rank; no sampled covector (entries
    # a/b with |a| <= 9, b <= 4) lies there, but t = (1, 1) would if the first
    # component were scaled by 11 and the second by 1
    v = VectorValuedForm((form(4, 2, {(1, 2): Fraction(1, 11), (3, 4): Fraction(1, 11)}),
                          form(4, 2, {(1, 2): -1, (3, 4): -2})))
    assert constant_rank_sampled(v, 1000, DEFAULT_SEED) == 2
    assert oracle_constant_rank_sampled(v, 1000, DEFAULT_SEED) == 2


@settings(settings.get_profile("polyform_oracle"))
@given(st.lists(st.lists(st.integers(-BIG, BIG), min_size=5, max_size=5), max_size=6))
def test_row_rank_of_int_rows_matches_fraction_rows(rows):
    assert row_rank(rows) == row_rank([[Fraction(x) for x in r] for r in rows])


# ---------------------------------------------------------------------------
# report writer


scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-2 ** 200, 2 ** 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(), st.sampled_from(["", "\"", "\\", "\n\t\x00\x1f", "é", " ", "😀", "\ud800"]),
)
json_trees = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(st.text(max_size=4), inner, max_size=5)),
    max_leaves=40)


@settings(settings.get_profile("polyform_oracle"))
@given(json_trees)
def test_writer_matches_json_dumps(tree):
    assert report_json(tree) == json.dumps(tree, sort_keys=True, indent=2)


def test_writer_matches_json_dumps_on_edge_cases():
    cases = [
        {}, [], (), "", 0, -1, 10 ** 40, True, False, None, 1.5, float("nan"), -float("inf"),
        {"b": [], "a": {}, "": [[], {}, ()], "é": "ü "},
        [[1, 2], ["x", "y"], [1, "x"], [True, 1], [None], [1.0, 2]],
        {"nested": {"deeper": [{"k": [1, [2, [3, []]]]}]}},
    ]
    for case in cases:
        assert report_json(case) == json.dumps(case, sort_keys=True, indent=2)


LEAF_LISTS = [[1, 2], ["x"], [True, 1], [1, "x"], [], (1, 2), [None], [1.5],
              [-(10 ** 30), 0], ["é", "\"", ""]]


@pytest.mark.parametrize("leaf", LEAF_LISTS, ids=repr)
def test_writer_inlines_leaf_lists(leaf):
    """Dict values that are lists of one leaf type are written in place, at every depth."""
    for depth in (1, 2, 3):
        tree = {"k": leaf, "a": 1, "z": [leaf, {"k": leaf}]}
        for _ in range(depth - 1):
            tree = {"m": tree, "n": [tree]}
        assert report_json(tree) == json.dumps(tree, sort_keys=True, indent=2)


def mono(c, e, **extra):
    return {"coefficient": c, "exponents": e, **extra}


def term(idx, *monos, **extra):
    return {"indices": idx, "polynomial": list(monos), **extra}


# poly_form term lists that the one-template path must leave to the generic writer
TERM_FALLBACKS = {
    "bool exponent": [term([1], mono("1", [True, 0]))],  # True == 1 and hash(True) == hash(1)
    "bool exponent later": [term([1], mono("1", [1, 0]), mono("2", [0, True]))],
    "bool index": [term([1], mono("1", [1, 0])), term([False], mono("1", [1, 0]))],
    "float exponent": [term([1], mono("1", [1.0, 0]))],
    "only bool exponents": [term([1], mono("1", [False, False]))],
    "negative exponent": [term([1], mono("1", [-1, 0]))],
    "exponent 256": [term([1], mono("1", [255, 0]), mono("1", [0, 256]))],
    "big exponent": [term([1], mono("1", [10 ** 30, 0]))],
    "negative index": [term([-1], mono("1", [1, 0]))],
    "index 256": [term([2, 256], mono("1", [1, 0]))],
    "no exponents": [term([1], mono("1", []))],
    "no indices": [term([], mono("1", [1, 0]))],
    "mixed exponent widths": [term([1], mono("1", [1, 0]), mono("2", [1, 0, 0]))],
    "mixed widths across terms": [term([1], mono("1", [1, 0])), term([2], mono("2", [0]))],
    "mixed index widths": [term([1], mono("1", [1, 0])), term([1, 2], mono("2", [1, 0]))],
    "exponents a tuple": [term([1], mono("1", (1, 0)))],
    "indices a tuple": [term((1,), mono("1", [1, 0]))],
    "no monomials": [term([1], mono("1", [1, 0])), term([2])],
    "polynomial a dict": [{"indices": [1], "polynomial": {"coefficient": "1"}}],
    "monomial a list": [term([1], ["1", [1, 0]])],
    "extra monomial key": [term([1], mono("1", [1, 0], extra=1))],
    "missing coefficient": [term([1], {"exponents": [1, 0]})],
    "missing exponents": [term([1], {"coefficient": "1"})],
    "other monomial key": [term([1], {"coefficient": "1", "exponent": [1, 0]})],
    "int coefficient": [term([1], mono(1, [1, 0]))],
    "None coefficient": [term([1], mono(None, [1, 0]))],
    "extra term key": [term([1], mono("1", [1, 0]), component=1)],
    "missing polynomial": [{"indices": [1]}],
    "scalar terms": [{"indices": [1, 2], "coefficient": "1"}],
    "a monomial list": [mono("1", [1, 0]), mono("1/2", [0, 1])],
    "stops halfway": [term([1], mono("1", [1, 0])), term([2], mono("1", [0, 1])), {"x": 1}],
}
# and lists it writes itself, which must read the same
TERM_LISTS = {
    "plain": [term([1, 2], mono("1", [1, 0]), mono("-13/1000000000039", [0, 2])),
              term([1, 3], mono("0", [0, 0]))],
    "non-ASCII coefficient": [term([1], mono("é\"\\", [0, 0, 0]), mono("😀", [3, 0, 1]))],
    "every small int": [term(list(range(1, 256)), mono("1", list(range(256))))],
}


@pytest.mark.parametrize("name", list(TERM_FALLBACKS) + list(TERM_LISTS))
def test_writer_writes_term_lists_as_json_dumps(name):
    terms = {**TERM_FALLBACKS, **TERM_LISTS}[name]
    doc = {"terms": terms, "kind": "poly_form", "split": [1, 1]}
    for tree in (terms, doc, [doc, terms], {"result": {"primitive": doc}}):
        assert report_json(tree) == json.dumps(tree, sort_keys=True, indent=2)
    out: list = []
    assert io._write_terms(terms, out, "\n") is (name in TERM_LISTS)
    assert bool(out) is (name in TERM_LISTS)  # a fallback writes nothing


small_or_not = st.integers(0, 59).flatmap(
    lambda i: st.integers(0, 255) if i else st.one_of(
        st.booleans(), st.integers(-2, -1), st.integers(255, 257), st.just(10 ** 20),
        st.just(1.0)))


@st.composite
def term_like_lists(draw):
    """poly_form-like term lists: mostly of one index width and one exponent width and
    ints in 0..255, with now and then each thing that sends ``_write_terms`` to the generic
    writer, and a ``Fraction`` coefficient that both writers refuse."""
    rare = lambda: draw(st.integers(0, 39)) == 0
    widths = [draw(st.integers(1, 3)), draw(st.integers(1, 3))]

    def ints(w):
        return [draw(small_or_not) for _ in range(w + (draw(st.sampled_from([-1, 1]))
                                                      if rare() else 0))]

    terms = []
    for _ in range(draw(st.integers(1, 4))):
        monos = []
        for _ in range(draw(st.integers(0 if rare() else 1, 3))):
            c = draw(st.sampled_from(["1", "-2/3", "é", "", "\"\\"]))
            if rare():
                c = draw(st.sampled_from([1, None, Fraction(1, 2)]))
            m = mono(c, ints(widths[1]) if not rare() else tuple(ints(widths[1])))
            if rare():
                del m[draw(st.sampled_from(["coefficient", "exponents"]))]
            monos.append(m if not rare() else {**m, "extra": None})
        t = term(ints(widths[0]), *monos)
        terms.append(t if not rare() else {**t, "component": 1})
    return terms


@settings(settings.get_profile("polyform_oracle"), max_examples=300)
@given(term_like_lists(), st.integers(0, 2))
def test_writer_matches_json_dumps_on_term_like_lists(terms, depth):
    tree = terms
    for _ in range(depth):
        tree = {"terms": tree, "dim": 2}
    try:
        want = json.dumps(tree, sort_keys=True, indent=2)
    except TypeError as exc:
        with pytest.raises(TypeError) as err:
            report_json(tree)
        assert str(err.value) == str(exc)
    else:
        assert report_json(tree) == want


monomial_like = st.fixed_dictionaries(
    {"coefficient": st.one_of(st.sampled_from(["1", "-2/3", "é", ""]), st.integers(-2, 2)),
     "exponents": st.lists(st.one_of(st.integers(0, 3), st.booleans()), max_size=3)},
    optional={"extra": st.none()})


@settings(settings.get_profile("polyform_oracle"))
@given(st.lists(monomial_like, max_size=4), st.integers(0, 2))
def test_writer_matches_json_dumps_on_monomial_like_lists(monos, depth):
    tree = monos
    for _ in range(depth):
        tree = {"polynomial": tree, "indices": [1]}
    assert report_json(tree) == json.dumps(tree, sort_keys=True, indent=2)


@pytest.mark.parametrize("bad", [{1: "x"}, {None: 1}, {("a",): 1}, {"a": {2.5: 1}},
                                 {1, 2}, b"x", Fraction(1, 2), object(), [complex(1, 2)]])
def test_writer_rejects_other_types(bad):
    with pytest.raises(TypeError):
        report_json(bad)


# ---------------------------------------------------------------------------
# polynomial coefficient parsing


def oracle_rat(s):
    """The previous reading of a polynomial coefficient: ``_rat``, by ``frac``."""
    try:
        return io._rat(s)
    except DocumentError as exc:
        return str(exc)


def new_rat(s):
    """``io._poly_pair``'s int pair, as the ``Fraction`` it stands for."""
    try:
        return Fraction(*io._poly_pair(s))
    except DocumentError as exc:
        return str(exc)


plain_rats = st.from_regex(r"[-+]?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True)
coefficient_values = st.one_of(
    plain_rats,
    st.text(alphabet="0123456789+-/ ._eEinfa", max_size=12),
    st.text(max_size=8),
    st.sampled_from(["1/0", "-0/0", "nan", "inf", "1e3", " 3", "3 ", "1_000", "+7/+2", "٣",
                     "0/5", "-0", "007/010", "1" * 4301, "2/" + "3" * 4301, "-" + "9" * 4300]),
    st.integers(-BIG, BIG), st.booleans(), st.none(), st.floats(), st.lists(st.integers()))


@settings(settings.get_profile("polyform_oracle"))
@given(st.lists(coefficient_values, min_size=1, max_size=6))
def test_poly_coefficients_read_like_frac(values):
    for s in values + values:
        got, want = new_rat(s), oracle_rat(s)
        assert got == want and type(got) is type(want), s


def oracle_parse_poly_terms(doc):
    """The previous assembly: ``_rat`` per coefficient, then ``poly_from_terms``."""
    coeffs: dict = {}
    for term in doc["terms"]:
        terms: dict = {}
        for mono in term["polynomial"]:
            exps = tuple(mono["exponents"])
            c = io._rat(mono["coefficient"])
            terms[exps] = terms[exps] + c if exps in terms else c
        p = poly_from_terms(doc["dim"], terms)
        mask = sum(1 << (i - 1) for i in term["indices"])
        if not p.is_zero():
            cur = coeffs.get(mask)
            coeffs[mask] = p if cur is None else cur + p
    return {m: p for m, p in coeffs.items() if not p.is_zero()}


def _parsed(parse, *args):
    """What ``parse`` reads from ``args``, or the error text ``parse_document`` gives."""
    try:
        return parse(*args)
    except DocumentError as exc:
        return str(exc)
    except Exception as exc:  # wrapped by parse_document
        return f"invalid document: {exc}"


# small pools, so that exponents and masks repeat, repeats cancel and masks are refilled
PAIR_COEFFICIENTS = ["1", "-1", "2", "-2", "1/2", "-1/2", "2/4", "-3/6", "0", "-0", "+3",
                     "1/1000000000039", "-1/1000000000039", "7/9999999999971", "1.5", " 2",
                     "-1.5", "2 ", 1, -1, 0, True, False]
BAD_COEFFICIENTS = ["x", "1/0", "1//2", "", 1.5, None, [1], {"n": 1}]


def _negated(c):
    if type(c) is str:
        c = c.strip()
        return c[1:] if c.startswith("-") else "-" + c.lstrip("+")
    return -c if type(c) in (int, bool, float) else c


@st.composite
def poly_documents(draw):
    """A poly_form document on R^1..R^3; about one in ten carries a malformed field."""
    dim = draw(st.integers(1, 3))
    degree = draw(st.integers(1, min(2, dim)))
    bad = draw(st.integers(0, 9)) == 0

    def maybe(good, wrong):
        return draw(st.sampled_from(wrong)) if bad and draw(st.integers(0, 3)) == 0 else good

    combos = [list(c) for c in itertools.combinations(range(1, dim + 1), degree)]
    exponent_pool = draw(st.lists(st.lists(st.integers(0, 2), min_size=dim, max_size=dim),
                                  min_size=1, max_size=3))
    terms: list = []
    for _ in range(draw(st.integers(0, 6))):
        earlier = [t for t in terms if type(t["polynomial"]) is list and t["polynomial"]]
        if earlier and draw(st.integers(0, 2)) == 0:
            # an earlier term negated, cancelling it, and maybe a refill after it
            old = draw(st.sampled_from(earlier))
            monos = [{"exponents": m["exponents"], "coefficient": _negated(m["coefficient"])}
                     for m in old["polynomial"]]
            terms.append({"indices": old["indices"], "polynomial": monos})
            continue
        monos = []
        for _ in range(draw(st.integers(1, 4))):
            e = maybe(draw(st.sampled_from(exponent_pool)),
                      [[True] + [0] * (dim - 1), [0] * (dim + 1), [-1] + [0] * (dim - 1),
                       [0.0] * dim, "0" * dim, None])
            c = maybe(draw(st.sampled_from(PAIR_COEFFICIENTS)), BAD_COEFFICIENTS)
            monos.append({"exponents": e, "coefficient": c})
            if draw(st.integers(0, 3)) == 0:  # the same exponents again in this term
                monos.append({"exponents": e, "coefficient": _negated(c) if draw(st.booleans())
                              else draw(st.sampled_from(PAIR_COEFFICIENTS))})
        idx = maybe(draw(st.sampled_from(combos)),
                    [[dim + 1] * degree, list(range(degree, 0, -1)), [1] * (degree + 1), [0], "1"])
        terms.append({"indices": idx, "polynomial": maybe(monos, [{}, None])})
    split = maybe([1, dim - 1], [[dim, 1], [dim], [-1, dim + 1], [1.0, dim - 1]])
    return {"dim": dim, "degree": degree, "split": split, "terms": maybe(terms, [{}, "terms"])}


@settings(settings.get_profile("polyform_oracle"), max_examples=300)
@given(poly_documents())
def test_poly_documents_parse_into_the_view_like_the_polynomial_path(doc):
    got, want = _parsed(io._parse_poly_form, doc), _parsed(parse_poly_form_oracle, doc)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, PolyForm) and same_layout(got, want)
        assert got._numerators == want._numerators


def test_parser_keeps_the_layout_of_cancellations_and_refills():
    x, y, one = [1, 0], [0, 1], [0, 0]
    doc = {"dim": 2, "degree": 1, "split": [1, 1], "terms": [
        {"indices": [1], "polynomial": [mono("1", x), mono("2", y)]},
        # cancels x inside the slot, then y: the slot is empty and keeps its place
        {"indices": [2], "polynomial": [mono("1/2", one)]},
        {"indices": [1], "polynomial": [mono("-1", x), mono("-2", y)]},
        # a term that cancels within itself adds nothing, and its zeros never reach the slot
        {"indices": [1], "polynomial": [mono("3", one), mono("-3", one)]},
        # the refill comes back in the first slot, x after y
        {"indices": [1], "polynomial": [mono("5", y), mono("1/3", x)]},
        # inside a term a "0" holds its place for later repeats
        {"indices": [2], "polynomial": [mono("0", x), mono("1", y), mono("2", x)]},
    ]}
    inside = {"dim": 2, "degree": 1, "split": [1, 1], "terms": [
        # and so does a repeat that cancels: zeros are dropped at the term's end
        {"indices": [1], "polynomial": [mono("1", x), mono("1", y), mono("-1", x), mono("3", x)]},
    ]}
    got = io._parse_poly_form(doc)
    assert list(got._numerators[0]) == [0b01, 0b10]
    assert list(got._numerators[0][0b01]) == [(0, 1), (1, 0)]
    assert list(got._numerators[0][0b10]) == [(0, 0), (1, 0), (0, 1)]
    assert list(io._parse_poly_form(inside)._numerators[0][0b01]) == [(1, 0), (0, 1)]
    for d in (doc, inside):
        assert same_layout(io._parse_poly_form(d), parse_poly_form_oracle(d))


def _with(*polynomial, indices=(1,), dim=2, degree=1):
    """A document on R^2 whose first term reads (1, 0) as valid exponents, then a term with
    ``indices`` and the monomials ``polynomial``."""
    return {"dim": dim, "degree": degree, "split": [1, dim - 1], "terms": [
        {"indices": list(range(1, degree + 1)), "polynomial": [mono("1", [1, 0])]},
        {"indices": list(indices) if type(indices) is tuple else indices,
         "polynomial": list(polynomial)}]}


# monomials and terms that the parser reads a list at a time when well-formed, and otherwise
# hands to ``_need`` and ``_ints``: each must read, or be refused, as the previous parser does
FAST_PATH_CASES = {
    # (True, 0) == (1, 0) and hashes alike, so the valid tuples must not let it through
    "bool exponent": _with(mono("1", [True, 0])),
    "float exponent": _with(mono("1", [1.0, 0])),
    "bool exponent, new tuple": _with(mono("1", [0, False])),
    "tuple exponents": _with(mono("1", (1, 0))),
    "empty exponents": _with(mono("1", [])),
    "short exponents": _with(mono("1", [1])),
    "negative exponent": _with(mono("1", [-1, 0])),
    "string exponents": _with(mono("1", "10")),
    "missing exponents": _with({"coefficient": "1"}),
    "missing coefficient": _with({"exponents": [1, 0]}),
    "None coefficient": _with(mono(None, [1, 0])),
    "extra key": _with(mono("1", [0, 1], extra=None)),
    "list monomial": _with([[1, 0], "1"]),
    "list monomial naming the field": _with(["exponents", "coefficient"]),
    "string monomial": _with("exponents"),
    "None monomial": _with(None),
    "int monomial": _with(7),
    "repeats": _with(mono("1", [1, 0]), mono("1/2", [0, 1]), mono("2", [1, 0])),
    "cancelling repeats": _with(mono("1", [0, 1]), mono("-1", [0, 1]), mono("3", [1, 0])),
    "cancelling the first term": _with(mono("-1", [1, 0])),
    "cancelling, then a refill": _with(mono("-1", [1, 0]), mono("2", [0, 1]), mono("1", [1, 0])),
    "zero coefficient": _with(mono("0", [0, 0])),
    # a term that adds nothing opens no slot: its mask comes after the masks opened before
    # it is refilled
    "zero term, refilled later": {"dim": 2, "degree": 1, "split": [1, 1], "terms": [
        {"indices": [2], "polynomial": [mono("0", [1, 0]), mono("1", [0, 1]), mono("-1", [0, 1])]},
        {"indices": [1], "polynomial": [mono("1", [1, 0])]},
        {"indices": [2], "polynomial": [mono("2", [0, 1])]}]},
    "bool index": _with(mono("1", [0, 1]), indices=[True]),
    "float index": _with(mono("1", [0, 1]), indices=[1.0]),
    "index 0": _with(mono("1", [0, 1]), indices=(0,)),
    "index past dim": _with(mono("1", [0, 1]), indices=(3,)),
    "tuple indices": _with(mono("1", [0, 1]), indices=(2,)) | {"terms": [
        {"indices": (2,), "polynomial": [mono("1", [0, 1])]}]},
    "decreasing indices": _with(mono("1", [0, 1]), indices=(2, 1), degree=2),
    "repeated index": _with(mono("1", [0, 1]), indices=(1, 1), degree=2),
    "index count off the degree": _with(mono("1", [0, 1]), indices=(1, 2)),
    "string indices": _with(mono("1", [0, 1]), indices="2"),
    "missing indices": {"dim": 2, "degree": 1, "split": [1, 1],
                        "terms": [{"polynomial": [mono("1", [1, 0])]}]},
    "missing polynomial": {"dim": 2, "degree": 1, "split": [1, 1], "terms": [{"indices": [1]}]},
    "list term": {"dim": 2, "degree": 1, "split": [1, 1], "terms": [["indices", [1]]]},
    "string term": {"dim": 2, "degree": 1, "split": [1, 1], "terms": ["indices"]},
    "degree 0": {"dim": 2, "degree": 0, "split": [1, 1],
                 "terms": [{"indices": [], "polynomial": [mono("2", [0, 3])]}]},
    "repeated mask": _with(mono("2", [0, 1]), indices=(1,)),
    "int coefficient": _with(mono(3, [0, 1])),
    "bad coefficient": _with(mono("1", [0, 1]), mono("x", [1, 1])),
    "bad coefficient, repeated mask": _with(mono("1/0", [0, 1]), indices=(1,)),
    "no monomials": _with(indices=(2,)),
    "int term": {"dim": 2, "degree": 1, "split": [1, 1], "terms": [5]},
    "split off the dimension": _with(mono("1", [0, 1]), indices=(2,)) | {"split": [1, 2]},
}


def checked_route(doc):
    """``io._parse_poly_form`` with the list-at-a-time read turned off, or its error text."""
    with mock.patch.object(io, "_read_terms", return_value=None):
        return _parsed(io._parse_poly_form, doc)


def same_view(a: PolyForm, b: PolyForm) -> bool:
    """The same view in the same dict order of masks, and of exponents in each slot."""
    (na, da), (nb, db) = a._numerators, b._numerators
    return (da == db and list(na.items()) == list(nb.items())
            and all(list(na[m].items()) == list(nb[m].items()) for m in na))


@pytest.mark.parametrize("name", list(FAST_PATH_CASES))
def test_parser_reads_term_lists_like_the_checked_route(name):
    doc = FAST_PATH_CASES[name]
    got, want = _parsed(io._parse_poly_form, doc), _parsed(parse_poly_form_oracle, doc)
    if isinstance(want, str):
        assert got == want == checked_route(doc)
    else:
        assert isinstance(got, PolyForm) and same_layout(got, want)
        assert got._numerators == want._numerators and same_view(got, checked_route(doc))
    full = {"schema_version": "1", "kind": "poly_form", **doc}
    try:
        payload = io.parse_document(full).payload
    except DocumentError as exc:
        assert str(exc) == want
    else:
        assert same_layout(payload, want)


@st.composite
def term_list_documents(draw):
    """(doc, clean): poly_form documents whose terms lists the list-at-a-time read takes when
    ``clean``, with now and then a repeated mask, a repeated exponent tuple in a term, a zero
    coefficient, a term that cancels an earlier one, a term or monomial that is not a JSON
    object, or a malformed field, each of which sends the list to the checked route."""
    knob = lambda: draw(st.integers(0, 5)) == 0
    dim = draw(st.integers(2, 4))
    degree = draw(st.sampled_from([0, dim]) if knob() else st.integers(1, dim - 1))
    combos = [list(c) for c in itertools.combinations(range(1, dim + 1), degree)]
    exponent_pool = [tuple(e) for e in itertools.product(range(3), repeat=dim)]
    nonzero = ["1", "-1", "2", "1/2", "-3/4", "2/4", "+5", "7/9999999999971", "10/5"]
    clean = True
    terms = []
    for idx in draw(st.lists(st.sampled_from(combos), unique_by=tuple, max_size=4)):
        exps = draw(st.lists(st.sampled_from(exponent_pool), unique=True, max_size=4))
        monos = [mono(draw(st.sampled_from(nonzero)), list(e)) for e in exps]
        if monos and knob():  # the same exponents again, maybe cancelling
            e = draw(st.sampled_from(exps))
            monos.append(mono(draw(st.sampled_from(nonzero + ["-1/2", "-2"])), list(e)))
            clean = False
        if monos and knob():
            monos[draw(st.integers(0, len(monos) - 1))]["coefficient"] = draw(
                st.sampled_from(["0", "-0", "0/7"]))
            clean = False
        terms.append(term(list(idx), *monos))
    if terms and knob():  # an earlier term again: its mask repeats, maybe cancelling it
        old = draw(st.sampled_from(terms))
        terms.append(term(old["indices"], *(mono(_negated(m["coefficient"]), m["exponents"])
                                            for m in old["polynomial"])))
        clean = False
    if terms and knob():
        at = draw(st.integers(0, len(terms) - 1))
        wrong = draw(st.sampled_from([5, "indices", None, ["indices", [1]], "monomial 5",
                                      "monomial exponents", "bool exponent", "int coefficient",
                                      "bad coefficient", "index past dim"]))
        t = terms[at]
        if wrong == "monomial 5" or wrong == "monomial exponents":
            t["polynomial"].append(5 if wrong == "monomial 5" else "exponents")
        elif wrong == "bool exponent":
            t["polynomial"].append(mono("1", [True] + [0] * (dim - 1)))
        elif wrong == "int coefficient":
            t["polynomial"].append(mono(1, [2] * dim))
        elif wrong == "bad coefficient":
            t["polynomial"].append(mono("1/0", [2] * dim))
        elif wrong == "index past dim" and degree:
            t["indices"] = t["indices"][:-1] + [dim + 1]
        else:
            terms[at] = wrong
        clean = False
    doc = {"dim": dim, "degree": degree, "split": [1, dim - 1], "terms": terms}
    return doc, clean


@settings(settings.get_profile("polyform_oracle"), max_examples=300)
@given(term_list_documents())
def test_term_lists_read_as_the_oracle_and_the_checked_route_read_them(drawn):
    doc, clean = drawn
    got, want = _parsed(io._parse_poly_form, doc), _parsed(parse_poly_form_oracle, doc)
    checked = checked_route(doc)
    if isinstance(want, str):
        assert got == want == checked
    else:
        assert same_layout(got, want) and got._numerators == want._numerators
        assert same_view(got, checked)
    if clean:
        assert io._read_terms(doc["terms"], doc["dim"], doc["degree"]) is not None


@pytest.mark.parametrize("doc, message", [
    ({"terms": [5]}, "term must be a JSON object, got 5"),
    ({"terms": ["indices"]}, "term must be a JSON object, got 'indices'"),
    ({"terms": [term([1], 5)]}, "monomial must be a JSON object, got 5"),
    ({"terms": [term([1], mono("1", [0, 0]), "exponents")]},
     "monomial must be a JSON object, got 'exponents'"),
])
def test_parser_refuses_terms_and_monomials_that_are_not_objects_by_name(doc, message):
    doc = {"dim": 2, "degree": 1, "split": [1, 1], **doc}
    assert _parsed(io._parse_poly_form, doc) == message == _parsed(parse_poly_form_oracle, doc)


def test_perfbench_inputs_are_read_a_list_at_a_time(tmp_path):
    """Every input of perfbench's seed-1 ``homotopy`` round and each ``moser`` fixture is read
    by the list-at-a-time route, into the view and dict order of the checked route."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    paths = {op.argvs[0][1] for w in ("homotopy", "moser")
             for panel in WORKLOADS[w].build(1, WORKLOADS[w].panels, tmp_path) for op in panel}
    assert len(paths) == 150 + 32
    for path in sorted(paths):
        doc = json.loads(Path(path).read_text())
        assert io._read_terms(doc["terms"], doc["dim"], doc["degree"]) is not None, path
        assert same_view(io._parse_poly_form(doc), checked_route(doc)), path


# mostly plain strings, so that most documents parse; one in twenty any value
doc_coefficients = st.integers(0, 19).flatmap(
    lambda i: coefficient_values if i == 0 else plain_rats)


@settings(settings.get_profile("polyform_oracle"))
@given(st.lists(st.tuples(st.sampled_from([[1, 2], [1, 3], [2, 3]]),
                          st.lists(st.tuples(st.lists(st.integers(0, 2), min_size=3,
                                                      max_size=3),
                                             doc_coefficients), max_size=4)),
                max_size=4))
def test_poly_documents_parse_like_the_frac_path(terms):
    doc = {"schema_version": "1", "kind": "poly_form", "dim": 3, "degree": 2, "split": [1, 2],
           "terms": [{"indices": idx, "polynomial": [{"exponents": e, "coefficient": c}
                                                     for e, c in monos]}
                     for idx, monos in terms]}
    try:
        want = oracle_parse_poly_terms(doc)
    except DocumentError as exc:
        with pytest.raises(DocumentError) as got:
            io.parse_document(doc)
        assert str(got.value) == str(exc)
        return
    got = io.parse_document(doc).payload.coeffs
    assert got == want and list(got) == list(want)
    assert all(list(got[m].terms.items()) == list(want[m].terms.items()) for m in got)
