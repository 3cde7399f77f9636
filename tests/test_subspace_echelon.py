"""A ``Subspace`` is its sparse integer echelon.

Two spanning sets of one span give equal subspaces, equal hashes and
equal dense RREF rows (checked against the Fraction Gauss-Jordan oracle),
and the subspace operations never change the subspaces they are given:
they extend copies of the input echelons, never the echelons themselves.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import intersect, vectors
from polydarboux.darboux import (canonical_multi_model, canonical_poly_model,
                                 conjugated_multi_instance, conjugated_poly_instance,
                                 darboux_basis_multi, darboux_basis_poly)
from polydarboux.lagrangian import greedy_maximal_isotropic
from polydarboux.linalg import Subspace, annihilator, complement, subspace_sum
from test_echelon_oracle import assert_integer_echelon
from test_elimination_oracle import oracle_rref_rows

settings.register_profile("subspace_echelon", deadline=None, max_examples=80, derandomize=True)
PROFILE = settings.get_profile("subspace_echelon")

entries = st.one_of(st.integers(-3, 3).map(Fraction),
                    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


def rows_of(dim: int, max_size: int = 6):
    return st.lists(st.lists(entries, min_size=dim, max_size=dim), max_size=max_size)


def unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A random n x n integer matrix of determinant +-1: a product of row
    additions, swaps and negations applied to the identity."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(3)
        if op == 0 and i != j:
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        elif op == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-a for a in u[i]]
    return u


@settings(PROFILE)
@given(st.data())
def test_spanning_sets_of_one_span_give_one_subspace(data):
    dim = data.draw(st.integers(1, 6))
    rows = data.draw(rows_of(dim))
    rng = data.draw(st.randoms(use_true_random=False))
    u = unimodular(rng, len(rows)) if rows else []
    mixed = [[sum((c * r[j] for c, r in zip(ui, rows)), Fraction(0)) for j in range(dim)]
             for ui in u]
    mixed += [[Fraction(0)] * dim for _ in range(rng.randint(0, 2))]
    mixed += [list(rng.choice(mixed)) for _ in range(rng.randint(0, 2)) if mixed]
    rng.shuffle(mixed)

    a = Subspace.from_vectors(dim, rows)
    b = Subspace.from_vectors(dim, mixed)
    assert a == b and hash(a) == hash(b)
    assert vectors(a) == vectors(b) == [tuple(r) for r in oracle_rref_rows(rows)[0]]
    assert all(type(x) is Fraction for r in vectors(a) for x in r)
    assert a.pivot_columns() == tuple(sorted(a.echelon.rows))
    assert_integer_echelon(a.echelon)

    # == decides the span: it agrees with the oracle on an unrelated spanning set
    other = data.draw(rows_of(dim))
    c = Subspace.from_vectors(dim, other)
    assert (a == c) == (oracle_rref_rows(rows)[0] == oracle_rref_rows(other)[0])


def _twin(sub: Subspace) -> Subspace:
    return Subspace(sub.ambient_dim, sub.echelon.copy())


def assert_unchanged(pairs):
    for sub, twin in pairs:
        assert sub.echelon.rows == twin.echelon.rows
        assert vectors(sub) == vectors(twin)
        assert hash(sub) == hash(twin)


def test_rows_returns_a_fresh_list():
    a = Subspace.span_of_coordinates(3, [1, 3])
    got = a.rows()
    got.append({1: Fraction(1)})
    assert a.rows() == Subspace.from_vectors(3, [[1, 0, 0], [0, 0, 1]]).rows()
    assert a.dim == 2


def test_subspace_operations_leave_their_inputs_unchanged():
    rng = random.Random(20071)
    for _ in range(20):
        dim = rng.randint(1, 6)
        a, b = (Subspace.from_vectors(dim, [[Fraction(rng.randint(-2, 2)) for _ in range(dim)]
                                            for _ in range(rng.randint(0, dim))])
                for _ in range(2))
        inside = subspace_sum(a, b)
        pairs = [(a, _twin(a)), (b, _twin(b)), (inside, _twin(inside))]
        subspace_sum(a, b)
        subspace_sum(b, a)
        intersect(a, b)
        complement(a)
        complement(a, inside=inside)
        complement(intersect(a, b), inside=b)
        annihilator(a)
        annihilator(b)
        assert_unchanged(pairs)


def test_searches_and_darboux_bases_leave_their_inputs_unchanged():
    v = canonical_poly_model(2, 2, 1).form
    seed = Subspace.span_of_coordinates(v.dim, [1])
    within = Subspace.span_of_coordinates(v.dim, [1, 2, 3, 4])
    pairs = [(seed, _twin(seed)), (within, _twin(within))]
    greedy_maximal_isotropic(v, seed, within=within)
    assert_unchanged(pairs)

    moved, lagr, _ = conjugated_poly_instance(canonical_poly_model(2, 2, 1), 5)
    pairs = [(lagr, _twin(lagr))]
    assert darboux_basis_poly(moved, lagrangian=lagr).lagrangian is lagr
    assert_unchanged(pairs)

    model = canonical_multi_model(2, 2, 2, 2)
    moved, lagr, _ = conjugated_multi_instance(model, 5)
    vertical = model.flag.vertical
    pairs = [(lagr, _twin(lagr)), (vertical, _twin(vertical))]
    darboux_basis_multi(moved, model.flag, model.params[3], lagrangian=lagr)
    assert_unchanged(pairs)
