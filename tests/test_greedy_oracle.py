"""Differential tests: greedy isotropic growth against the code it replaced.

The oracles below are the previous implementations: the greedy loop that
rebuilt the span and the complement after every pick (on the dense
Fraction ``RowEchelon`` it used), the dense
``Subspace.reduce`` that did Fraction work on every entry, and
``rank_2form`` as the rank of the Fraction kernel constraint rows.  The
greedy is also compared with its own previous body,
``conftest.greedy_maximal_isotropic_oracle``, which asked ``contains``
before each ``insert``.  The resource budgets of the rank certificates
are tested here as well.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (contains, greedy_maximal_isotropic_oracle, is_maximal_isotropic,
                      orthogonal_complement, row_rank, vectors)
from polydarboux import cli, lagrangian
from polydarboux.darboux import (canonical_multi_model, canonical_poly_model,
                                 conjugated_multi_instance, conjugated_poly_instance)
from polydarboux.errors import InternalCheckError, PreconditionError
from polydarboux.exterior import VectorValuedForm, contract, embed_in, form, pullback, zero_form
from polydarboux.lagrangian import (MAX_RANK_SAMPLES, MAX_WEDGE_TERMS, _kernel_constraints,
                                    as_vector_form, greedy_maximal_isotropic,
                                    is_isotropic, rank_2form, uniform_rank)
from polydarboux.linalg import Matrix, Subspace, annihilator, vec
from polydarboux.sparse import SparseEchelon, _sparse

ZERO = Fraction(0)
BIG = 10 ** 13

settings.register_profile("greedy_oracle", deadline=None, max_examples=60, derandomize=True)


# ---------------------------------------------------------------------------
# oracles: the previous code


def oracle_reduce(sub: Subspace, v) -> list[Fraction]:
    r = list(vec(v))
    for pc, row in zip(sub.pivot_columns(), vectors(sub)):
        c = r[pc]
        if c:
            r = [a - c * b for a, b in zip(r, row)]
    return r


def oracle_contains(sub: Subspace, v) -> bool:
    return not any(oracle_reduce(sub, v))


class RowEchelon:
    """The dense Fraction incremental echelon the greedy used to run on."""

    def __init__(self, cols: int):
        self.cols = cols
        self.pivots: list[int] = []
        self.rows: list[list[Fraction]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row) -> list[Fraction]:
        r = list(row)
        for pc, prow in zip(self.pivots, self.rows):
            c = r[pc]
            if c:
                r = [a - c * b if b else a for a, b in zip(r, prow)]
        return r

    def contains(self, row) -> bool:
        return not any(self.reduce(row))

    def insert(self, row) -> bool:
        r = self.reduce(row)
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is None:
            return False
        inv = Fraction(1) / r[lead]
        r = [x * inv if x else x for x in r]
        for i, pc in enumerate(self.pivots):
            c = self.rows[i][lead]
            if c:
                self.rows[i] = [a - c * b if b else a for a, b in zip(self.rows[i], r)]
        at = next((i for i, pc in enumerate(self.pivots) if pc > lead), len(self.pivots))
        self.pivots.insert(at, lead)
        self.rows.insert(at, r)
        return True

    def kernel_vectors(self) -> list[list[Fraction]]:
        pivot_set = set(self.pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        out = []
        for f in free:
            v = [ZERO] * self.cols
            v[f] = Fraction(1)
            for pc, r in zip(self.pivots, self.rows):
                v[pc] = -r[f]
            out.append(v)
        return out


def oracle_constraints(x, cols: int) -> list[list[Fraction]]:
    """The kernel constraint rows, dense, as the old greedy received them."""
    return [[row.get(j, ZERO) for j in range(cols)] for row in _kernel_constraints(x)]


def oracle_greedy(omega, seed: Subspace, within: Subspace | None = None) -> Subspace:
    v = as_vector_form(omega)
    if not is_isotropic(seed, v, 1):
        raise PreconditionError("seed subspace is not isotropic")
    ech = RowEchelon(v.dim)
    if within is not None:
        for row in vectors(annihilator(within)):
            ech.insert(row)
    cur = seed
    for u in vectors(seed):
        for row in oracle_constraints(contract(u, v), v.dim):
            ech.insert(row)
    while True:
        orth = Subspace.from_vectors(v.dim, ech.kernel_vectors())
        nxt = None
        for w in vectors(orth):
            if not oracle_contains(cur, w):
                nxt = w
                break
        if nxt is None:
            break
        cur = Subspace.from_vectors(v.dim, vectors(cur) + [nxt])
        for row in oracle_constraints(contract(nxt, v), v.dim):
            ech.insert(row)
    return cur


def oracle_rank_2form(omega) -> int:
    return row_rank(_kernel_constraints(omega)) // 2


# ---------------------------------------------------------------------------
# inputs

coefficients = st.one_of(
    st.just(ZERO),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(BIG // 10, BIG - 1)),
)
small_coefficients = st.integers(-2, 2).map(Fraction)


@st.composite
def scalar_forms(draw, dim: int, degree: int, coeffs=coefficients):
    monomials = list(itertools.combinations(range(1, dim + 1), degree))
    terms = draw(st.dictionaries(st.sampled_from(monomials), coeffs,
                                 max_size=len(monomials))) if monomials else {}
    return form(dim, degree, terms)


@st.composite
def small_forms(draw):
    """Nonzero forms of degree 2 or 3 with one or two components, dims 2-7."""
    dim = draw(st.integers(2, 7))
    degree = draw(st.integers(2, min(3, dim)))
    nhat = draw(st.integers(1, 2))
    v = VectorValuedForm(tuple(draw(scalar_forms(dim, degree)) for _ in range(nhat)))
    if v.is_zero():
        v = VectorValuedForm((form(dim, degree, {tuple(range(1, degree + 1)): 1}),)
                             + v.components[1:])
    return v


@st.composite
def isotropic_seeds(draw, v: VectorValuedForm, inside: Subspace | None = None):
    """A random line and, if possible, a random vector of its complement.

    Every line is isotropic, and so is the plane it spans with a vector of
    its level-1 complement.  With ``inside`` both vectors lie in it.
    """
    basis = vectors(inside or Subspace.full(v.dim))
    if not basis:
        return Subspace.zero(v.dim)

    def combination(vectors):
        cs = [draw(small_coefficients) for _ in vectors]
        return [sum((c * x for c, x in zip(cs, col)), ZERO) for col in zip(*vectors)]

    u = combination(basis)
    if not any(u):
        u = list(basis[0])
    seed = Subspace.from_vectors(v.dim, [u])
    if draw(st.booleans()):
        orth = orthogonal_complement(seed, v, 1)
        if inside is not None:
            orth = Subspace.from_vectors(
                v.dim, [w for w in vectors(orth) if contains(inside, w)] or [u])
        w = combination(vectors(orth))
        if any(w):
            seed = Subspace.from_vectors(v.dim, [u, w])
    assert is_isotropic(seed, v, 1)
    return seed


def _embedded(small, dim: int, shuffle: int):
    """A form of small support moved into R^dim by a permutation and six shears."""
    rng = random.Random(shuffle)
    perm = list(range(dim))
    rng.shuffle(perm)
    rows = [[Fraction(int(j == perm[i])) for j in range(dim)] for i in range(dim)]
    for _ in range(6):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return pullback(embed_in(small, dim), Matrix.from_rows(rows))


def _e13_e24():
    return form(4, 2, {(1, 3): 1, (2, 4): 1})


CONJUGATED_MODELS = [conjugated_poly_instance(canonical_poly_model(*p), s)[0]
                     for p, s in [((2, 1, 1), 3), ((3, 2, 1), 5), ((3, 1, 2), 7),
                                  ((4, 2, 1), 11), ((3, 2, 2), 13),
                                  ((32, 1, 1), 3), ((32, 1, 1), 1003)]]
EMBEDDED = ([_embedded(_e13_e24(), d, 1000 + d) for d in (20, 30, 40, 50)]
            + [_embedded(conjugated_poly_instance(canonical_poly_model(3, 2, 1), d)[0], d, d + 1)
               for d in (20, 35, 50)])


# ---------------------------------------------------------------------------
# greedy growth


def _same_outcome(new, old):
    """Both calls return equal subspaces, or both raise the same error type."""
    try:
        want = old()
    except (PreconditionError, InternalCheckError) as exc:
        with pytest.raises(type(exc)):
            new()
        return
    assert new() == want


@settings(settings.get_profile("greedy_oracle"))
@given(st.data())
def test_greedy_matches_rebuilding_loop(data):
    v = data.draw(small_forms())
    seed = data.draw(isotropic_seeds(v))
    _same_outcome(lambda: greedy_maximal_isotropic(v, seed), lambda: oracle_greedy(v, seed))


@settings(settings.get_profile("greedy_oracle"))
@given(st.data())
def test_greedy_within_matches_rebuilding_loop(data):
    v = data.draw(small_forms())
    spanning = data.draw(st.lists(st.lists(small_coefficients, min_size=v.dim, max_size=v.dim),
                                  min_size=1, max_size=v.dim))
    within = Subspace.from_vectors(v.dim, spanning)
    seed = data.draw(isotropic_seeds(v, within))
    _same_outcome(lambda: greedy_maximal_isotropic(v, seed, within=within),
                  lambda: oracle_greedy(v, seed, within=within))


@pytest.mark.parametrize("v", CONJUGATED_MODELS)
def test_greedy_matches_on_conjugated_models(v):
    v = as_vector_form(v)
    # the dim-64 models grow from four coordinate seeds: the oracle takes 0.3 s per seed
    for i in range(v.dim) if v.dim < 64 else (0, 1, v.dim // 2, v.dim - 1):
        seed = Subspace.span_of_coordinates(v.dim, [i + 1])
        got = greedy_maximal_isotropic(v, seed)
        assert got == oracle_greedy(v, seed) and is_maximal_isotropic(got, v)


@pytest.mark.parametrize("index", range(len(EMBEDDED)))
def test_greedy_matches_on_embedded_forms(index):
    v = as_vector_form(EMBEDDED[index])
    for i in (0, 1, v.dim // 2, v.dim - 1):
        seed = Subspace.span_of_coordinates(v.dim, [i + 1])
        assert greedy_maximal_isotropic(v, seed) == oracle_greedy(v, seed)


def test_greedy_within_matches_on_a_multi_model():
    params = (2, 2, 2, 2)
    model = canonical_multi_model(*params)
    moved, _, _ = conjugated_multi_instance(model, 3)
    vertical = model.flag.vertical
    for basis_vector in vectors(vertical):
        seed = Subspace.from_vectors(moved.dim, [basis_vector])
        assert (greedy_maximal_isotropic(moved, seed, within=vertical)
                == oracle_greedy(moved, seed, within=vertical))


@settings(settings.get_profile("greedy_oracle"))
@given(st.data())
def test_greedy_matches_its_contains_then_insert_body(data):
    """One ``insert`` per pick gives what ``contains`` then ``insert`` gave, with and
    without ``within``; the forms carry large and small denominators."""
    v = data.draw(small_forms())
    within = None
    if data.draw(st.booleans()):
        within = Subspace.from_vectors(v.dim, data.draw(st.lists(
            st.lists(small_coefficients, min_size=v.dim, max_size=v.dim),
            min_size=1, max_size=v.dim)))
    seed = data.draw(isotropic_seeds(v, within))
    _same_outcome(lambda: greedy_maximal_isotropic(v, seed, within=within),
                  lambda: greedy_maximal_isotropic_oracle(v, seed, within=within))


@pytest.mark.parametrize("v", CONJUGATED_MODELS[:5] + EMBEDDED[:2])
def test_greedy_contracts_once_per_basis_vector_of_its_result(v, monkeypatch):
    """Beyond the seed's isotropy test, the greedy contracts each seed row and each pick
    that grew the span once: a row already in the span is dropped without a cut.  Its
    answer is the previous body's on every coordinate seed."""
    v = as_vector_form(v)
    calls = []

    def counted(x, form):
        calls.append(1)
        return contract(x, form)

    monkeypatch.setattr(lagrangian, "contract", counted)
    for i in range(v.dim):
        seed = Subspace.span_of_coordinates(v.dim, [i + 1])
        calls.clear()
        is_isotropic(seed, v, 1)
        checked = len(calls)
        calls.clear()
        got = greedy_maximal_isotropic(v, seed)
        assert len(calls) == checked + got.dim
        assert got == greedy_maximal_isotropic_oracle(v, seed)


def test_greedy_builds_no_subspace_per_complement_change(monkeypatch):
    """e13+e24 in R^50 from e_1: 98 builds and 1 270 membership tests before.

    The complement is now cut in place and the span grows in one echelon.
    """
    v = _embedded(_e13_e24(), 50, 3)
    seed = Subspace.span_of_coordinates(50, [1])
    built = []
    from_vectors = Subspace.from_vectors

    def counting_from_vectors(*args):
        built.append(args)
        return from_vectors(*args)

    monkeypatch.setattr(Subspace, "from_vectors", staticmethod(counting_from_vectors))
    got = greedy_maximal_isotropic(v, seed)
    assert got.dim == 48 and built == []
    assert is_maximal_isotropic(got, v)


# ---------------------------------------------------------------------------
# membership and rank


@settings(settings.get_profile("greedy_oracle"))
@given(st.data())
def test_row_echelon_contains_matches_dense_reduce(data):
    dim = data.draw(st.integers(1, 8))
    rows = data.draw(st.lists(st.lists(coefficients, min_size=dim, max_size=dim), max_size=6))
    ech = SparseEchelon()
    for r in rows:
        ech.insert(_sparse(r))
    sub = Subspace.from_vectors(dim, rows)
    queries = data.draw(st.lists(st.lists(coefficients, min_size=dim, max_size=dim),
                                 min_size=1, max_size=4))
    if len(rows) >= 2:
        queries.append([x + 2 * y for x, y in zip(rows[0], rows[1])])
    for q in queries:
        want = oracle_reduce(sub, q)
        assert ech.reduce(_sparse(q)) == _sparse(want)
        assert ech.contains(_sparse(q)) == oracle_contains(sub, q) == contains(sub, q)


@settings(settings.get_profile("greedy_oracle"))
@given(st.integers(0, 10).flatmap(lambda d: scalar_forms(d, 2) if d >= 2 else st.just(None)))
def test_rank_2form_matches_fraction_constraint_rows(omega):
    if omega is None:
        omega = zero_form(4, 2)
    assert rank_2form(omega) == oracle_rank_2form(omega)


@pytest.mark.parametrize("omega, half_support", [
    (zero_form(6, 2), 0),
    (form(6, 2, {(1, 2): Fraction(1, BIG - 1), (3, 4): Fraction(BIG, BIG + 7)}), 2),
    (form(5, 2, {(1, 2): Fraction(3, BIG - 3), (2, 3): Fraction(-7, BIG - 11),
                 (1, 3): Fraction(2, 9999999999971)}), 1),
    # Pfaffian a12*a34 - a13*a24 vanishes only with the denominators kept
    (form(4, 2, {(1, 2): Fraction(1, 2), (3, 4): 2, (1, 3): 1, (2, 4): 1}), 1),
    (form(4, 2, {(1, 2): Fraction(1, BIG - 1), (3, 4): BIG - 1, (1, 3): 3,
                 (2, 4): Fraction(1, 3)}), 1),
])
def test_rank_2form_on_zero_and_large_denominators(omega, half_support):
    assert rank_2form(omega) == oracle_rank_2form(omega) == half_support


# ---------------------------------------------------------------------------
# resource budgets


def test_analyze_refuses_samples_beyond_the_budget(capsys):
    doc = "src/polydarboux/corpus/appendix_a1.json"
    t0 = time.perf_counter()
    code = cli.main(["analyze", doc, "--samples", str(10 ** 9)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    err = capsys.readouterr().err
    assert "MAX_RANK_SAMPLES" in err and str(MAX_RANK_SAMPLES) in err


def test_counterexamples_refuse_samples_beyond_the_budget(capsys):
    assert cli.main(["counterexamples", "--samples", str(MAX_RANK_SAMPLES + 1)]) == 1
    assert "MAX_RANK_SAMPLES" in capsys.readouterr().err


def test_analyze_accepts_samples_at_the_budget(capsys):
    doc = "src/polydarboux/corpus/appendix_a1.json"
    assert cli.main(["analyze", doc, "--samples", str(MAX_RANK_SAMPLES), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["constant_rank_sampled"] is not None


def test_uniform_rank_refuses_wedge_powers_beyond_the_budget():
    """poly 10 3 1 would store about 1.05 M terms; poly 8 3 1 stores 65 535."""
    assert MAX_WEDGE_TERMS < 4 ** 10 - 1
    omega = canonical_poly_model(10, 3, 1).form
    t0 = time.perf_counter()
    with pytest.raises(PreconditionError, match="MAX_WEDGE_TERMS"):
        uniform_rank(omega)
    assert time.perf_counter() - t0 < 10.0
