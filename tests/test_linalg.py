import random
from fractions import Fraction

import pytest

from conftest import identity, intersect, kernel, matmul, row_list, vectors, zero_matrix
from polydarboux.errors import DimensionMismatch, PreconditionError
from polydarboux.linalg import (Matrix, Subspace, annihilator, complement, frac, inverse, rank,
                                subspace_sum)
from polydarboux.sparse import SparseEchelon, _sparse


def test_frac_parsing():
    assert frac("3/4") == Fraction(3, 4)
    assert frac(5) == Fraction(5)
    with pytest.raises(TypeError):
        frac(0.5)


def test_kernel_identity_and_zero():
    assert kernel(identity(4)).dim == 0
    assert kernel(zero_matrix(3, 4)) == Subspace.full(4)


def test_echelon_of_the_identity_rows_is_the_full_space():
    sub = Subspace.from_vectors(3, row_list(identity(3)))
    assert sub == Subspace.full(3) and sub.pivot_columns() == (0, 1, 2)
    assert sub.unit_rows() == [{0: 1}, {1: 1}, {2: 1}]
    assert rank(identity(3)) == 3


def test_echelon_of_zero_rows_is_the_zero_space():
    sub = Subspace.from_vectors(4, row_list(zero_matrix(2, 4)))
    assert sub == Subspace.zero(4) and sub.rows() == []
    assert rank(zero_matrix(2, 4)) == 0


def test_echelon_of_dependent_rows():
    # hand Gaussian elimination: the second row is twice the first
    m = Matrix.from_rows([[1, 2], [2, 4]])
    sub = Subspace.from_vectors(2, row_list(m))
    assert sub.dim == rank(m) == 1
    assert sub.unit_rows() == [{0: 1, 1: 2}]
    assert kernel(m) == Subspace.from_vectors(2, [[-2, 1]])


def test_kernel_single_constraint():
    # solve x - z = 0 by hand: span{(1,0,1), (0,1,0)}
    m = Matrix.from_rows([[1, 0, -1]])
    want = Subspace.from_vectors(3, [[1, 0, 1], [0, 1, 0]])
    assert kernel(m) == want


def test_inverse_times_the_matrix_is_the_identity():
    m = Matrix.from_rows([[2, 1], [1, 1]])
    assert matmul(inverse(m), m) == identity(2)


def test_subspace_sum_trivial():
    e1 = Subspace.span_of_coordinates(3, [1])
    e2 = Subspace.span_of_coordinates(3, [2])
    assert subspace_sum(e1, e2) == Subspace.span_of_coordinates(3, [1, 2])


def test_intersect_via_constraints():
    a = Subspace.span_of_coordinates(3, [1, 2])
    b = Subspace.span_of_coordinates(3, [2, 3])
    assert intersect(a, b) == Subspace.span_of_coordinates(3, [2])


def test_annihilator_coordinate_plane():
    a = Subspace.span_of_coordinates(3, [1])
    assert annihilator(a) == Subspace.span_of_coordinates(3, [2, 3])


def test_complement_prefers_standard_vectors():
    a = Subspace.from_vectors(3, [[1, 1, 0]])
    c = complement(a)
    assert subspace_sum(a, c) == Subspace.full(3)
    assert intersect(a, c).dim == 0
    # deterministic: picks e1; e2 is then dependent, so e3 comes next
    assert c == Subspace.span_of_coordinates(3, [1, 3])


def test_complement_requires_containment():
    a = Subspace.span_of_coordinates(3, [3])
    inside = Subspace.span_of_coordinates(3, [1, 2])
    with pytest.raises(PreconditionError):
        complement(a, inside)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        subspace_sum(Subspace.full(2), Subspace.full(3))


def _random_subspace(rng, dim, max_dim):
    n = rng.randint(0, max_dim)
    vecs = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(n)]
    return Subspace.from_vectors(dim, vecs)


def test_modular_law_dimensions():
    # dim(sum) + dim(intersection) = dim a + dim b
    rng = random.Random(7)
    for _ in range(40):
        dim = rng.randint(1, 8)
        a = _random_subspace(rng, dim, dim)
        b = _random_subspace(rng, dim, dim)
        assert (subspace_sum(a, b).dim + intersect(a, b).dim) == a.dim + b.dim


def test_double_annihilator():
    rng = random.Random(11)
    for _ in range(30):
        dim = rng.randint(1, 7)
        a = _random_subspace(rng, dim, dim)
        assert annihilator(annihilator(a)) == a


def test_rank_nullity():
    rng = random.Random(13)
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = Matrix.from_rows([[Fraction(rng.randint(-4, 4)) for _ in range(cols)]
                              for _ in range(rows)])
        assert rank(m) + kernel(m).dim == cols


def test_row_echelon_matches_kernel():
    rng = random.Random(17)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        data = [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
        ech = SparseEchelon()
        for r in data:
            ech.insert(_sparse(r))
        got = Subspace.from_vectors(cols, [[x.get(j, Fraction(0)) for j in range(cols)]
                                           for x in ech.kernel(cols)])
        assert got == kernel(Matrix.from_rows(data))


def test_subspace_equality_is_representation_equality():
    a = Subspace.from_vectors(3, [[1, 1, 0], [0, 1, 1]])
    b = Subspace.from_vectors(3, [[1, 0, -1], [0, 1, 1]])
    assert a == b
    assert vectors(a) == vectors(b)
