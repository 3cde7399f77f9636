"""Shared fixtures: the counterexample forms and independent oracles."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from polydarboux.errors import DimensionMismatch, PreconditionError
from polydarboux.exterior import AlternatingForm, VectorValuedForm, contract, evaluate, form
from polydarboux.lagrangian import _kernel_constraints, as_vector_form
from polydarboux.linalg import ZERO, ONE, Subspace, kernel_subspace


@pytest.fixture
def rank_gap_form():
    """Two-component 2-form on R^4: constant sampled rank 2, no uniform rank."""
    w1 = form(4, 2, {(1, 2): 1, (3, 4): 1})
    w2 = form(4, 2, {(1, 3): 1, (2, 4): -1})
    return VectorValuedForm((w1, w2))


@pytest.fixture
def area_triple_form():
    """Three coordinate area elements on R^3; kernels span everything."""
    w1 = form(3, 2, {(2, 3): 1})
    w2 = form(3, 2, {(3, 1): 1})
    w3 = form(3, 2, {(1, 2): 1})
    return VectorValuedForm((w1, w2, w3))


@pytest.fixture
def small_candidates_form():
    """Two-component 2-form on R^5 with undersized candidate subspaces."""
    w1 = form(5, 2, {(1, 4): 1, (2, 3): 1})
    w2 = form(5, 2, {(1, 3): 1, (2, 5): -1})
    return VectorValuedForm((w1, w2))


def std_vector(dim: int, i: int):
    v = [ZERO] * dim
    v[i - 1] = ONE
    return v


def eval_wedge_oracle(a: AlternatingForm, b: AlternatingForm, vectors) -> Fraction:
    """Shuffle-sum evaluation of (a wedge b), independent of the wedge code."""
    p, q = a.degree, b.degree
    assert len(vectors) == p + q
    total = Fraction(0)
    for subset in itertools.combinations(range(p + q), p):
        rest = [i for i in range(p + q) if i not in subset]
        inversions = sum(1 for i in subset for j in rest if j < i)
        sign = -1 if inversions % 2 else 1
        va = evaluate(a, [vectors[i] for i in subset]) if p else a.coeffs.get(0, ZERO)
        vb = evaluate(b, [vectors[j] for j in rest]) if q else b.coeffs.get(0, ZERO)
        total += sign * va * vb
    return total


def count_horizontal_monomials(r: int, s: int, dim_v: int, dim_t: int) -> int:
    """Brute-force count of degree-r monomials with at most s vertical factors.

    Coordinates: dim_t horizontal indices then dim_v vertical indices.
    """
    total = 0
    for combo in itertools.combinations(range(dim_t + dim_v), r):
        if sum(1 for c in combo if c >= dim_t) <= s:
            total += 1
    return total


def random_form(rng, dim: int, degree: int, *, density=0.6, span=4) -> AlternatingForm:
    terms = {}
    for idx in itertools.combinations(range(1, dim + 1), degree):
        if rng.random() < density:
            num = rng.randint(-span, span)
            if num:
                terms[idx] = Fraction(num, rng.randint(1, 3))
    return form(dim, degree, terms)


def random_vector(rng, dim: int, span=3):
    return [Fraction(rng.randint(-span, span), rng.randint(1, 2)) for _ in range(dim)]


def orthogonal_complement(sub: Subspace, omega, level: int) -> Subspace:
    """Vectors annihilating omega after ``level`` contractions with the subspace.

    The level-l complement as the isotropy test used to build it: the
    kernel of the constraint rows of every l-fold contraction of the
    subspace's rows.  ``is_isotropic`` is containment in it.
    """
    v = as_vector_form(omega)
    if sub.ambient_dim != v.dim:
        raise DimensionMismatch("subspace does not live on the form's space")
    if not 1 <= level <= v.degree - 1:
        raise PreconditionError(f"contraction level must lie in 1..{v.degree - 1}")
    rows: list[dict] = []
    for combo in itertools.combinations(sub.rows(), level):
        partial = v
        for u in combo:
            partial = contract(u, partial)
        if not partial.is_zero():
            rows.extend(_kernel_constraints(partial))
    return kernel_subspace(rows, v.dim)


def contraction_oracle(v: dict, a: AlternatingForm) -> AlternatingForm:
    """i_v a by a fresh walk over the terms of a, remembering nothing.

    Written on index tuples, not masks: the entry of v at 0-based
    coordinate i - 1 meets index i at position p of an increasing tuple
    and adds (-1)^p v c to the tuple without it.
    """
    terms: dict = {}
    for idx, c in a.terms():
        for p, i in enumerate(idx):
            x = v.get(i - 1)
            if x:
                rest = idx[:p] + idx[p + 1:]
                terms[rest] = terms.get(rest, 0) + (-1) ** p * x * c
    return form(a.dim, a.degree - 1, terms)
