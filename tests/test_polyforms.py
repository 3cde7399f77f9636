import itertools
import random
from fractions import Fraction

import pytest

from conftest import involutive, involutive_report, lie_bracket, poly_matrix_rank, poly_zero
from polydarboux.errors import PreconditionError
from polydarboux.polyforms import (PolyForm, exterior_d, homotopy_primitive,
                                   max_vertical_factors, moser_potential, pf_add,
                                   pf_contract_basis, pf_scale, pf_sub, pf_wedge, pf_zero,
                                   poly_const, poly_from_terms, poly_var, constant_spread)


def _x(dim, i):
    return poly_var(dim, i)


def test_polynomial_arithmetic():
    p = poly_var(2, 1) + poly_var(2, 2)
    q = p * p
    assert q == poly_from_terms(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert q.diff(1) == poly_from_terms(2, {(1, 0): 2, (0, 1): 2})
    assert q.eval([Fraction(1), Fraction(2)]) == 9
    assert (p - p).is_zero()


def test_exterior_d_basic():
    # d(x dy) = dx ^ dy, d(y dx) = -dx ^ dy
    omega = PolyForm(2, 1, (1, 1), {0b10: _x(2, 1)})
    assert exterior_d(omega) == PolyForm(2, 2, (1, 1), {0b11: poly_const(2, 1)})
    omega2 = PolyForm(2, 1, (1, 1), {0b01: _x(2, 2)})
    assert exterior_d(omega2) == PolyForm(2, 2, (1, 1), {0b11: poly_const(2, -1)})


def test_exterior_d_of_constant_form():
    omega = PolyForm(3, 2, (2, 1), {0b011: poly_const(3, 5)})
    assert exterior_d(omega).is_zero()


def _random_poly(rng, dim, deg=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = [0] * dim
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(dim)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return poly_from_terms(dim, terms)


def _random_polyform(rng, dim, degree, split):
    coeffs = {}
    for idx in itertools.combinations(range(1, dim + 1), degree):
        if rng.random() < 0.5:
            p = _random_poly(rng, dim)
            if not p.is_zero():
                coeffs[sum(1 << (i - 1) for i in idx)] = p
    return PolyForm(dim, degree, split, coeffs)


def test_d_squared_is_zero():
    rng = random.Random(5)
    for _ in range(20):
        dim = rng.randint(2, 5)
        split = (rng.randint(0, dim), 0)
        split = (split[0], dim - split[0])
        omega = _random_polyform(rng, dim, rng.randint(0, 2), split)
        assert exterior_d(exterior_d(omega)).is_zero()


def test_d_leibniz_rule():
    rng = random.Random(7)
    for _ in range(15):
        dim = rng.randint(2, 4)
        split = (1, dim - 1)
        p, q = rng.randint(0, 2), rng.randint(0, 1)
        a = _random_polyform(rng, dim, p, split)
        b = _random_polyform(rng, dim, q, split)
        lhs = exterior_d(pf_wedge(a, b))
        rhs = pf_add(pf_wedge(exterior_d(a), b),
                     pf_scale(pf_wedge(a, exterior_d(b)), -1 if p % 2 else 1))
        assert lhs == rhs


def test_homotopy_worked_example():
    omega = PolyForm(2, 2, (1, 1), {0b11: poly_const(2, 1)})
    theta = homotopy_primitive(omega, 1)
    assert theta == PolyForm(2, 1, (1, 1), {0b01: poly_from_terms(2, {(0, 1): -1})})
    assert exterior_d(theta) == omega


def test_homotopy_zero_form():
    assert homotopy_primitive(pf_zero(3, 2, (2, 1)), 1).is_zero()


def test_homotopy_on_random_exact_forms():
    rng = random.Random(13)
    checked = 0
    for _ in range(60):
        dim = rng.randint(2, 5)
        x_dim = rng.randint(1, dim - 1)
        split = (x_dim, dim - x_dim)
        k = rng.randint(1, min(3, dim))
        beta = _random_polyform(rng, dim, k - 1, split)
        omega = exterior_d(beta)
        if omega.is_zero():
            continue
        theta = homotopy_primitive(omega, k)
        assert exterior_d(theta) == omega
        checked += 1
    assert checked >= 40


def test_homotopy_respects_horizontality():
    rng = random.Random(17)
    for _ in range(20):
        dim = rng.randint(3, 5)
        split = (dim - 2, 2)
        k = rng.randint(2, 3)
        r = rng.randint(1, k)
        # build beta with at most r-1 fiber differentials per monomial
        coeffs = {}
        for idx in itertools.combinations(range(1, dim + 1), k - 1):
            if sum(1 for i in idx if i > split[0]) <= r - 1 and rng.random() < 0.7:
                p = _random_poly(rng, dim)
                if not p.is_zero():
                    coeffs[sum(1 << (i - 1) for i in idx)] = p
        beta = PolyForm(dim, k - 1, split, coeffs)
        omega = exterior_d(beta)
        if omega.is_zero() or max_vertical_factors(omega) > r:
            continue
        theta = homotopy_primitive(omega, r)
        assert exterior_d(theta) == omega
        assert max_vertical_factors(theta) <= r - 1
        # exhaustive contraction check over all r-tuples of fiber directions
        for combo in itertools.combinations(range(split[0] + 1, dim + 1), r):
            cur = theta
            for i in combo:
                if cur.degree == 0:
                    break
                cur = pf_contract_basis(cur, i)
            if cur.degree >= 0 and len(combo) <= theta.degree:
                assert cur.is_zero()


def test_homotopy_rejects_non_closed():
    omega = PolyForm(2, 1, (1, 1), {0b10: _x(2, 1)})  # x dy, not closed
    with pytest.raises(PreconditionError):
        homotopy_primitive(omega, 1)


def test_homotopy_rejects_horizontality_violation():
    omega = PolyForm(2, 2, (1, 1), {0b11: poly_const(2, 1)})
    with pytest.raises(PreconditionError):
        homotopy_primitive(omega, 0)


def test_moser_potential_constant_form_gives_zero():
    omega = PolyForm(4, 2, (2, 2), {0b0101: poly_const(4, 2)})
    alpha = moser_potential(omega, constant_spread(omega))
    assert alpha.is_zero()


def test_moser_potential_identity_and_fiber_annihilation():
    # omega = omega0 + d(x1^2 dx2): exact correction, no fiber differentials
    dim, split = 4, (2, 2)
    omega0 = PolyForm(dim, 2, split, {0b0101: poly_const(dim, 1), 0b1010: poly_const(dim, 1)})
    extra = exterior_d(PolyForm(dim, 1, split,
                                {0b010: poly_from_terms(dim, {(2, 0, 0, 0): 1})}))
    omega = pf_add(omega0, extra)
    alpha = moser_potential(omega, constant_spread(omega))
    assert exterior_d(alpha) == pf_sub(constant_spread(omega), omega)
    for i in range(split[0] + 1, dim + 1):
        assert pf_contract_basis(alpha, i).is_zero()


def test_involutive_coordinate_fields():
    fields = [[poly_const(3, 1), poly_const(3, 0), poly_const(3, 0)],
              [poly_const(3, 0), poly_const(3, 1), poly_const(3, 0)]]
    assert involutive(fields)


def test_involutive_detects_bracket_escape():
    fields = [[poly_const(3, 1), poly_const(3, 0), poly_const(3, 0)],
              [poly_const(3, 0), poly_const(3, 1), poly_var(3, 1)]]
    rep = involutive_report(fields)
    assert not rep.involutive
    assert any("leaves the span" in d for d in rep.diagnostics)


def test_involutive_reports_rank_drop():
    # a field vanishing at the origin but not elsewhere
    fields = [[poly_var(2, 1), poly_const(2, 0)]]
    with pytest.raises(PreconditionError):
        involutive(fields)


def test_lie_bracket_antisymmetry():
    rng = random.Random(23)
    dim = 3
    x = [_random_poly(rng, dim) for _ in range(dim)]
    y = [_random_poly(rng, dim) for _ in range(dim)]
    fwd = lie_bracket(x, y)
    bwd = lie_bracket(y, x)
    for a, b in zip(fwd, bwd):
        assert (a + b).is_zero()


def test_poly_matrix_rank():
    one = poly_const(2, 1)
    zero = poly_zero(2)
    x = poly_var(2, 1)
    assert poly_matrix_rank([[one, zero], [zero, one]]) == 2
    assert poly_matrix_rank([[x, x], [x, x]]) == 1
    assert poly_matrix_rank([[zero]]) == 0
