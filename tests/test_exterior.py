import random
from fractions import Fraction
from math import comb

import pytest

from conftest import (count_horizontal_monomials, eval_wedge_oracle, horizontality_degree,
                      identity, intersect, matmul, mul_vec, random_form, random_vector,
                      std_vector, vectors, zero_matrix)
from polydarboux.darboux import (canonical_multi_model, canonical_poly_model,
                                 conjugated_multi_instance)
from polydarboux.errors import DimensionMismatch, PreconditionError
from polydarboux.exterior import (Flag, VectorValuedForm, add, basis_covector, contract,
                                  coordinate_flag, evaluate, form, horizontal_dim, project,
                                  pullback, scale, wedge, with_splitting)
from polydarboux.io import alternating_to_document, parse_document
from polydarboux.lagrangian import classify_horizontal_form, kernel_of_form
from polydarboux.linalg import Matrix, Subspace


def test_wedge_self_annihilates():
    e1 = basis_covector(3, 1)
    assert wedge(e1, e1).is_zero()


def test_wedge_disjoint_blocks():
    dxdy = form(4, 2, {(1, 2): 1})
    dudv = form(4, 2, {(3, 4): 1})
    assert wedge(dxdy, dudv) == form(4, 4, {(1, 2, 3, 4): 1})


def test_wedge_of_gap_components_vanishes(rank_gap_form):
    w1, w2 = rank_gap_form.components
    assert wedge(w1, w2).is_zero()


def test_wedge_graded_commutative_and_associative():
    rng = random.Random(3)
    for _ in range(25):
        dim = rng.randint(2, 6)
        p, q, r = (rng.randint(0, 3) for _ in range(3))
        a, b, c = (random_form(rng, dim, d) for d in (p, q, r))
        sign = -1 if (p * q) % 2 else 1
        assert wedge(a, b) == scale(wedge(b, a), sign)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_against_shuffle_oracle():
    rng = random.Random(5)
    for _ in range(15):
        dim = rng.randint(2, 5)
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        a, b = random_form(rng, dim, p), random_form(rng, dim, q)
        vectors = [random_vector(rng, dim) for _ in range(p + q)]
        assert evaluate(wedge(a, b), vectors) == eval_wedge_oracle(a, b, vectors)


def test_contract_basis_example():
    dxdy = form(2, 2, {(1, 2): 1})
    assert contract(std_vector(2, 1), dxdy) == basis_covector(2, 2)


def test_contract_detects_kernel_member(area_triple_form):
    # the first component annihilates the first coordinate direction
    w1 = area_triple_form.components[0]
    assert contract(std_vector(3, 1), w1).is_zero()


def test_double_contraction_vanishes():
    rng = random.Random(9)
    for _ in range(10):
        a = random_form(rng, 6, 3)
        v = random_vector(rng, 6)
        assert contract(v, contract(v, a)).is_zero()


def test_contract_degree_zero_rejected():
    with pytest.raises(PreconditionError):
        contract(std_vector(2, 1), form(2, 0, {(): 1}))


def test_contract_is_antiderivation():
    rng = random.Random(21)
    for _ in range(15):
        dim = rng.randint(2, 6)
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        a, b = random_form(rng, dim, p), random_form(rng, dim, q)
        v = random_vector(rng, dim)
        lhs = contract(v, wedge(a, b))
        rhs = add(wedge(contract(v, a), b),
                  scale(wedge(a, contract(v, b)), -1 if p % 2 else 1))
        assert lhs == rhs


def test_project_on_canonical_model():
    model = canonical_poly_model(2, 2, 1)
    p1 = project(model.form, [1, 0])
    assert p1 == model.form.components[0]
    # first component pairs each first-block slot with its index
    assert p1 == form(6, 2, {(3, 1): 1, (4, 2): 1})


def test_project_zero_covector(rank_gap_form):
    assert project(rank_gap_form, [0, 0]).is_zero()


def test_project_is_linear(rank_gap_form):
    w1, w2 = rank_gap_form.components
    assert project(rank_gap_form, [1, 1]) == add(w1, w2)


def test_project_commutes_with_contract(rank_gap_form):
    rng = random.Random(33)
    for _ in range(10):
        t = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        v = random_vector(rng, 4)
        assert contract(v, project(rank_gap_form, t)) == project(contract(v, rank_gap_form), t)


def test_form_kernel_is_component_kernel_intersection():
    rng = random.Random(41)
    for _ in range(10):
        dim = rng.randint(2, 5)
        comps = tuple(random_form(rng, dim, 2) for _ in range(rng.randint(1, 3)))
        if all(c.is_zero() for c in comps):
            continue
        want = Subspace.full(dim)
        for c in comps:
            want = intersect(want, kernel_of_form(VectorValuedForm((c,))))
        assert kernel_of_form(VectorValuedForm(comps)) == want


def test_pullback_identity_and_swap():
    a = form(2, 2, {(1, 2): 1})
    assert pullback(a, identity(2)) == a
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    assert pullback(a, swap) == scale(a, -1)


def test_pullback_diagonal_scales_by_determinant():
    a = form(2, 2, {(1, 2): 1})
    d = Matrix.from_rows([[2, 0], [0, 3]])
    assert pullback(a, d) == scale(a, 6)


def test_pullback_functorial():
    rng = random.Random(55)
    for _ in range(10):
        a = random_form(rng, 4, 2)
        m1 = Matrix.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(4)])
        m2 = Matrix.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)])
        assert pullback(pullback(a, m1), m2) == pullback(a, matmul(m1, m2))


def test_pullback_evaluation_oracle():
    rng = random.Random(57)
    for _ in range(10):
        a = random_form(rng, 4, 2)
        m = Matrix.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(4)])
        vs = [random_vector(rng, 3) for _ in range(2)]
        assert evaluate(pullback(a, m), vs) == evaluate(a, [mul_vec(m, v) for v in vs])


def test_flag_validation():
    flag = coordinate_flag(4, [3, 4])
    assert flag.dim_t == 2
    # a splitting must project to the identity on the quotient
    bad = Matrix.from_cols([[0, 0, 1, 0], [0, 1, 0, 0]])
    with pytest.raises(PreconditionError):
        with_splitting(flag, bad)
    # vertical corrections are fine
    good = Matrix.from_cols([[1, 0, 5, -1], [0, 1, 2, 3]])
    assert with_splitting(flag, good).dim_t == 2


def _flagged_forms():
    """Hand-made forms on coordinate flags, then the flagged documents that
    ``canonical multi --shuffle-seed`` writes, as ``analyze`` reads them."""
    yield form(4, 2, {(1, 2): 1}), coordinate_flag(4, [3, 4])  # from quotient covectors only
    yield form(4, 2, {(1, 2): 1}), coordinate_flag(4, [1, 2])  # a fully vertical plane
    yield form(4, 2, {(1, 3): 1, (2, 4): -1}), coordinate_flag(4, [3, 4])
    for params in [(2, 2, 2, 2), (1, 2, 2, 2), (2, 2, 2, 1), (1, 3, 2, 3), (2, 2, 3, 2)]:
        model = canonical_multi_model(*params)
        for seed in (3, 41):
            moved = conjugated_multi_instance(model, seed)[0]
            doc = parse_document(alternating_to_document(moved, flag=model.flag, r=params[3]))
            yield doc.payload, doc.flag


@pytest.mark.parametrize("omega, flag", list(_flagged_forms()))
def test_horizontality_degree_is_the_r_that_classification_reads_off(omega, flag):
    # brute-force contractions by the vertical basis against the largest vertical count
    # of the form in flag-adapted coordinates
    assert classify_horizontal_form(omega, flag).horizontality[0] == horizontality_degree(
        omega, flag)


def test_horizontal_dim_extremes_and_instance():
    assert horizontal_dim(3, 3, 2, 4) == comb(6, 3)
    assert horizontal_dim(3, 0, 2, 4) == comb(4, 3)
    assert horizontal_dim(2, 1, 1, 2) == 3


def test_horizontal_dim_against_enumeration():
    for dim_v in range(0, 6):
        for dim_t in range(0, 6):
            for r in range(0, 6):
                for s in range(0, r + 1):
                    assert horizontal_dim(r, s, dim_v, dim_t) == \
                        count_horizontal_monomials(r, s, dim_v, dim_t)


def test_form_coefficient_sign_normalization():
    a = form(3, 2, {(2, 1): 1})
    assert a == form(3, 2, {(1, 2): -1})
    assert a.coefficient((2, 1)) == 1
    assert a.coefficient((1, 2)) == -1


def test_fully_summed_input_collapses_to_single_stored_coefficient():
    # entering the redundantly summed expression with factorial weights
    # stores the same coefficients as the increasing-index form
    half = Fraction(1, 2)
    summed = form(3, 2, {(1, 2): 3 * half, (2, 1): -3 * half,
                         (1, 3): half, (3, 1): -half})
    assert summed == form(3, 2, {(1, 2): 3, (1, 3): 1})


@pytest.mark.parametrize("bad", [
    [1, 0, 0, 5, 6],   # long: evaluate used to cut it silently
    [1, 0],            # short: evaluate used to raise a bare IndexError
    {0: 1, 3: 5},      # a coordinate at dim
    {2: 1, -1: 1},     # a negative coordinate
])
@pytest.mark.parametrize("at", [0, 1])
def test_evaluate_checks_every_vector_as_contract_does(bad, at):
    a = form(3, 2, {(1, 3): 1})
    vectors = [[1, 0, 0], [0, 0, 1]]
    vectors[at] = bad
    with pytest.raises(DimensionMismatch):
        evaluate(a, vectors)
    with pytest.raises(DimensionMismatch):
        contract(bad, a)


def test_lift_vertical_combines_the_rref_basis():
    # vertical spaces with pivot entries other than 1, unlike any coordinate flag
    rng = random.Random(5)
    for _ in range(20):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(rng.randint(1, 4))]
        vert = Subspace.from_vectors(5, rows)
        if vert.dim == 0:
            continue
        free = [j for j in range(5) if j not in vert.pivot_columns()]
        splitting = (Matrix.from_cols([[int(i == j) for i in range(5)] for j in free]) if free
                     else zero_matrix(5, 0))
        flag = Flag(5, vert, splitting)
        coords = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(vert.dim)]
                  for _ in range(3)]
        want = [[sum((c * x[j] for c, x in zip(u, vectors(vert))), Fraction(0)) for j in range(5)]
                for u in coords]
        got = flag.lift_vertical(coords)
        assert [[w.get(j, 0) for j in range(5)] for w in got] == want
        assert flag.lift_vertical([{i: c for i, c in enumerate(u) if c} for u in coords]) == got


def test_dimension_mismatch_errors():
    with pytest.raises(DimensionMismatch):
        wedge(basis_covector(2, 1), basis_covector(3, 1))
    with pytest.raises(DimensionMismatch):
        contract([1, 0, 0], form(2, 2, {(1, 2): 1}))
    with pytest.raises(DimensionMismatch):
        project(VectorValuedForm((form(2, 2, {(1, 2): 1}),)), [1, 0])
