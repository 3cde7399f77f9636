"""Differential tests: the one incremental echelon against the code it replaced.

``sparse.SparseEchelon`` now carries every span grown one vector at a
time: the solver, complements, the greedy isotropic growth and the two
intersections of ``conftest``.  The oracles below are the previous
implementations: the dense Fraction ``RowEchelon``, the sparse echelon
that reduced against every row in pivot order, the solver with its own
elimination loop and generator tags, the span intersection through a
dense kernel of the concatenated coefficient map, and ``intersect``
through the kernel of the stacked annihilator constraints.  The echelon's rows are
primitive integer vectors, so they are compared monic, each divided by its
pivot entry, and their integer form is checked on its own.  Kernel vectors
are integer multiples of the ``Fraction`` vectors of ``conftest``'s
``echelon_kernel_oracle``, and the annihilator, read off a subspace's own
echelon, equals ``annihilator_oracle``'s re-elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (annihilator_oracle, echelon_kernel_oracle, intersect, intersect_spans,
                      scaled_oracle, vectors)
from polydarboux import sparse
from polydarboux.linalg import Subspace, annihilator, kernel_basis
from polydarboux.sparse import SparseEchelon, SparseSolver, _scaled, _sparse, span_of

ZERO = Fraction(0)
ONE = Fraction(1)
BIG = 10 ** 13

settings.register_profile("echelon_oracle", deadline=None, max_examples=80, derandomize=True)
PROFILE = settings.get_profile("echelon_oracle")


# ---------------------------------------------------------------------------
# oracles: the previous code


def _axpy(target: dict, c, source: dict):
    for k, x in source.items():
        nv = target.get(k, 0) - c * x
        if nv:
            target[k] = nv
        else:
            target.pop(k, None)


class OracleRowEchelon:
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
        inv = ONE / r[lead]
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
            v[f] = ONE
            for pc, r in zip(self.pivots, self.rows):
                v[pc] = -r[f]
            out.append(v)
        return out


class OracleSparseEchelon:
    def __init__(self):
        self.rows: list[tuple[object, dict]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: dict) -> dict:
        r = dict(v)
        for key, row in self.rows:
            c = r.get(key)
            if c:
                _axpy(r, c, row)
        return r

    def insert(self, v: dict) -> bool:
        r = self.reduce(v)
        if not r:
            return False
        pivot = min(r)
        inv = Fraction(1) / Fraction(r[pivot])
        self.rows.append((pivot, {k: x * inv for k, x in r.items()}))
        self.rows.sort(key=lambda t: t[0])
        return True

    def contains(self, v: dict) -> bool:
        return not self.reduce(v)

    def canonical(self) -> tuple:
        rows = [dict(row) for _, row in self.rows]
        pivots = [p for p, _ in self.rows]
        for i in range(len(rows)):
            for j in range(len(rows)):
                if i == j:
                    continue
                c = rows[i].get(pivots[j])
                if c:
                    _axpy(rows[i], c, rows[j])
        return tuple(sorted(tuple(sorted(r.items())) for r in rows))


class OracleSparseSolver:
    def __init__(self):
        self.rows: list[tuple[object, dict, dict]] = []
        self.ngen = 0

    def add_generator(self, v: dict):
        j = self.ngen
        self.ngen += 1
        r = dict(v)
        tags = {j: Fraction(1)}
        for key, row, rtags in self.rows:
            c = r.get(key)
            if c:
                _axpy(r, c, row)
                _axpy(tags, c, rtags)
        if not r:
            return
        pivot = min(r)
        inv = Fraction(1) / Fraction(r[pivot])
        self.rows.append((pivot, {k: x * inv for k, x in r.items()},
                          {k: x * inv for k, x in tags.items()}))
        self.rows.sort(key=lambda t: t[0])

    def solve(self, target: dict):
        r = dict(target)
        combo: dict = {}
        for key, row, rtags in self.rows:
            c = r.get(key)
            if c:
                _axpy(r, c, row)
                _axpy(combo, -c, rtags)
        if r:
            return None
        return [Fraction(combo.get(j, 0)) for j in range(self.ngen)]


def oracle_intersect_spans(vectors_a, vectors_b) -> list[dict]:
    va = list(vectors_a)
    vb = list(vectors_b)
    if not va or not vb:
        return []
    support = sorted({k for v in va + vb for k in v})
    p, q = len(va), len(vb)
    rows = []
    for k in support:
        row = [ZERO] * (p + q)
        for i, v in enumerate(va):
            if k in v:
                row[i] = Fraction(v[k])
        for j, w in enumerate(vb):
            if k in w:
                row[p + j] = -Fraction(w[k])
        rows.append(row)
    out = []
    for sol in kernel_basis(rows, p + q):
        combo: dict = {}
        for i, c in enumerate(densify(sol, p + q)[:p]):
            if c:
                _axpy(combo, -c, va[i])
        if combo:
            out.append(combo)
    return out


def oracle_intersect(a: Subspace, b: Subspace) -> Subspace:
    constraints = vectors(annihilator(a)) + vectors(annihilator(b))
    return Subspace.from_vectors(
        a.ambient_dim, kernel_basis([list(r) for r in constraints], a.ambient_dim))


def oracle_span(vectors) -> tuple:
    ech = OracleSparseEchelon()
    for v in vectors:
        ech.insert(v)
    return ech.canonical()


# ---------------------------------------------------------------------------
# inputs

coefficients = st.one_of(
    st.just(ZERO),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(BIG // 10, BIG - 1)),
)
nonzero = st.one_of(
    st.sampled_from([-3, -2, -1, 1, 2, 3]).map(Fraction),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 7)),
    st.builds(Fraction, st.integers(-BIG, -1), st.integers(BIG // 10, BIG - 1)),
)
small = st.integers(-2, 2).map(Fraction)


def dense_rows(dim: int, max_size: int = 7):
    return st.lists(st.lists(coefficients, min_size=dim, max_size=dim), max_size=max_size)


# stacked-form keys: (component, mask) with masks of a few 2- and 3-index monomials
STACKED_KEYS = [(a, m) for a in range(3) for m in (0b0011, 0b0101, 0b0110, 0b1001, 0b0111, 0b1110)]


def stacked_vectors(max_size: int = 7):
    return st.lists(st.dictionaries(st.sampled_from(STACKED_KEYS), nonzero,
                                    max_size=6), max_size=max_size)


def with_combinations(draw, vectors: list[dict]) -> list[dict]:
    """The vectors plus a few random combinations of them, so dependencies occur."""
    out = list(vectors)
    for _ in range(draw(st.integers(0, 2))):
        if not vectors:
            break
        combo: dict = {}
        for v in vectors:
            _axpy(combo, -draw(small), v)
        out.insert(draw(st.integers(0, len(out))), combo)
    return out


def canonical(ech: SparseEchelon) -> tuple:
    """The rows made monic, each divided by its pivot entry, in key order."""
    return tuple(sorted(tuple(sorted((k, Fraction(x, r[p])) for k, x in r.items()))
                        for p, r in ech.rows.items()))


def assert_integer_echelon(ech: SparseEchelon):
    """Each row: primitive integers, pivot at its smallest key with a positive
    entry, and zero at every other row's pivot."""
    for p, row in ech.rows.items():
        assert row and all(type(x) is int and x for x in row.values())
        assert min(row) == p and row[p] > 0
        assert gcd(*row.values()) == 1
        assert not any(q in row for q in ech.rows if q != p)


def densify(v: dict, dim: int) -> list[Fraction]:
    return [v.get(j, ZERO) for j in range(dim)]


# ---------------------------------------------------------------------------
# the echelon


@settings(PROFILE)
@given(st.data())
def test_int_keyed_echelon_matches_row_echelon(data):
    dim = data.draw(st.integers(1, 8))
    rows = [_sparse(r) for r in data.draw(dense_rows(dim))]
    rows = with_combinations(data.draw, rows)
    new, dense, old = SparseEchelon(), OracleRowEchelon(dim), OracleSparseEchelon()
    for r in rows:
        grew = new.insert(r)
        assert grew == dense.insert(densify(r, dim)) == old.insert(r)
        assert new.rank == dense.rank == old.rank
    assert canonical(new) == old.canonical()
    assert_integer_echelon(new)
    assert sorted(new.rows) == dense.pivots
    got = Subspace.from_vectors(dim, [densify(x, dim) for x in new.kernel(dim)])
    assert got == Subspace.from_vectors(dim, dense.kernel_vectors())
    queries = data.draw(dense_rows(dim, 4)) + [densify(r, dim) for r in rows[:2]]
    for q in queries:
        assert new.reduce(_sparse(q)) == _sparse(dense.reduce(q))
        assert new.contains(_sparse(q)) == dense.contains(q) == old.contains(_sparse(q))


@settings(PROFILE)
@given(st.data())
def test_stacked_echelon_matches_old_sparse_echelon(data):
    vectors = with_combinations(data.draw, data.draw(stacked_vectors()))
    new, old = SparseEchelon(), OracleSparseEchelon()
    for v in vectors:
        assert new.insert(v) == old.insert(v)
        assert new.rank == old.rank
    assert canonical(new) == old.canonical()
    assert_integer_echelon(new)
    for q in data.draw(stacked_vectors(4)) + vectors[:2]:
        assert new.contains(q) == old.contains(q)
        # both bases share one pivot set, and the residue is the one vector of
        # q + span that is zero at every pivot
        assert new.reduce(q) == old.reduce(q)


def test_kernel_vectors_of_an_empty_echelon_are_the_unit_vectors():
    assert [densify(x, 3) for x in SparseEchelon().kernel(3)] == [
        [ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    assert list(SparseEchelon().kernel(0)) == []
    for cols in range(5):
        assert_positive_multiples(list(SparseEchelon().kernel(cols)),
                                  echelon_kernel_oracle(SparseEchelon(), cols))


# ---------------------------------------------------------------------------
# integer kernel vectors and the integer path into the echelon


def assert_positive_multiples(got: list[dict], want: list[dict]):
    """Kernel vectors against the ``Fraction`` kernel: the same vectors in the same order,
    each with the same keys in the same order, all ``int``, positive at its free column
    (its first key) and, divided by that entry, exactly the oracle's vector."""
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert list(x) == list(y)
        assert all(type(c) is int for c in x.values())
        f = next(iter(x))
        assert x[f] > 0 and y[f] == 1
        assert {k: Fraction(c, x[f]) for k, c in x.items()} == y


def some_integers(draw, vectors: list[dict]) -> list[dict]:
    """The vectors, each with its entries made ``int`` when all are whole and a coin says
    so: all-int vectors take the copy of ``_scaled``, the others its lcm pass."""
    out = []
    for v in vectors:
        whole = all(x.denominator == 1 for x in v.values())
        out.append({k: int(x) for k, x in v.items()} if whole and draw(st.booleans()) else v)
    return out


def kernel_inputs(data) -> tuple[list[dict], int]:
    """Vectors with dense column keys and a column count, or with stacked keys, which
    hold no column, so that every column is free."""
    if data.draw(st.booleans()):
        cols = data.draw(st.integers(0, 8))
        vectors = [_sparse(r) for r in data.draw(dense_rows(cols))]
        if cols and data.draw(st.booleans()):  # a few large integer rows
            vectors += [_sparse(r) for r in data.draw(st.lists(st.lists(
                st.integers(-BIG, BIG), min_size=cols, max_size=cols), max_size=3))]
    else:
        cols = data.draw(st.integers(0, 4))
        vectors = data.draw(stacked_vectors())
    return some_integers(data.draw, with_combinations(data.draw, vectors)), cols


@settings(PROFILE)
@given(st.data())
def test_scaled_copies_integer_vectors_and_matches_the_lcm_pass(data):
    vectors, _ = kernel_inputs(data)
    for v in vectors + [{0: 0, 1: 2}, {0: True, 1: -2}, {0: 2, 1: Fraction(1, 2)}, {}]:
        before = dict(v)
        r, s = _scaled(v)
        assert (r, s) == scaled_oracle(v)
        assert all(type(x) is int and x for x in r.values()) and type(s) is int
        assert r is not v and v == before


@settings(PROFILE)
@given(st.data())
def test_integer_kernel_is_a_positive_multiple_of_the_fraction_kernel(data):
    vectors, cols = kernel_inputs(data)
    ech = span_of(vectors)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "_scaled", scaled_oracle)
        old = span_of(vectors)
    assert ech.rows == old.rows and list(ech.rows) == list(old.rows)
    assert_integer_echelon(ech)
    got = list(ech.kernel(cols))
    assert_positive_multiples(got, echelon_kernel_oracle(ech, cols))
    for x in got:
        for p, row in ech.rows.items():
            assert not sum(c * x.get(k, 0) for k, c in row.items())
        s = x[next(iter(x))]
        # s is the lcm of the pivot entries of the rows that hold an entry at f
        assert s == lcm(*(row[p] for p, row in ech.rows.items() if next(iter(x)) in row))


@settings(PROFILE)
@given(st.data())
def test_annihilator_read_off_the_echelon_matches_the_re_elimination(data):
    dim = data.draw(st.integers(0, 8))
    rows = some_integers(data.draw, [_sparse(r) for r in data.draw(dense_rows(dim, dim + 1))])
    for a in (Subspace.from_vectors(dim, rows), Subspace.zero(dim), Subspace.full(dim)):
        got = annihilator(a)
        assert got == annihilator_oracle(a)
        assert got.dim == dim - a.dim and annihilator(got) == a


# ---------------------------------------------------------------------------
# intersections


@settings(PROFILE)
@given(st.data())
def test_intersect_spans_matches_kernel_construction(data):
    if data.draw(st.booleans()):
        dim = data.draw(st.integers(1, 7))
        va = [_sparse(r) for r in data.draw(dense_rows(dim, 5))]
        vb = [_sparse(r) for r in data.draw(dense_rows(dim, 5))]
    else:
        va = data.draw(stacked_vectors(5))
        vb = data.draw(stacked_vectors(5))
    va = with_combinations(data.draw, va)
    vb = with_combinations(data.draw, vb)
    if va and data.draw(st.booleans()):
        vb.append(dict(va[0]))  # a shared vector, so the intersection is not always zero
    got = intersect_spans(iter(va), iter(vb))
    assert oracle_span(got) == oracle_span(oracle_intersect_spans(va, vb))
    assert all(got)
    assert len(got) == len(oracle_span(got))  # a basis, not just a spanning set


@settings(PROFILE)
@given(st.data())
def test_subspace_intersect_matches_annihilator_construction(data):
    dim = data.draw(st.integers(1, 7))
    a = Subspace.from_vectors(dim, data.draw(dense_rows(dim, dim)))
    rows_b = data.draw(dense_rows(dim, dim))
    if a.dim and data.draw(st.booleans()):
        rows_b.append(list(vectors(a)[0]))
    b = Subspace.from_vectors(dim, rows_b)
    assert intersect(a, b) == oracle_intersect(a, b)
    assert intersect(b, a) == oracle_intersect(a, b)


# ---------------------------------------------------------------------------
# the solver


def densified(answer: dict | None, ngen: int) -> list | None:
    """``SparseSolver.solve``'s answer as the dense list the previous solver returned; the
    answer holds nonzero coefficients only, keyed by generator index in increasing order."""
    if answer is None:
        return None
    assert list(answer) == sorted(answer) and all(0 <= j < ngen for j in answer)
    assert all(answer.values())
    return [answer.get(j, ZERO) for j in range(ngen)]


def combine(coeffs, generators) -> dict:
    out: dict = {}
    for c, g in zip(coeffs, generators):
        if c:
            _axpy(out, -c, g)
    return out


def solver_inputs(data):
    if data.draw(st.booleans()):
        dim = data.draw(st.integers(1, 7))
        gens = [_sparse(r) for r in data.draw(dense_rows(dim, 6))]
        targets = [_sparse(r) for r in data.draw(dense_rows(dim, 3))]
    else:
        gens = data.draw(stacked_vectors(6))
        targets = data.draw(stacked_vectors(3))
    return gens, targets


@settings(PROFILE)
@given(st.data())
def test_solver_matches_old_solver_on_independent_generators(data):
    gens, targets = solver_inputs(data)
    independent, span = [], OracleSparseEchelon()
    for g in gens:
        if span.insert(g):
            independent.append(g)
    new, old = SparseSolver(), OracleSparseSolver()
    for g in independent:
        new.add_generator(g)
        old.add_generator(g)
    targets.append(combine([data.draw(small) for _ in independent], independent))
    targets.append({})
    for t in targets:
        assert densified(new.solve(t), new.ngen) == old.solve(t)


@settings(PROFILE)
@given(st.data())
def test_solver_on_dependent_generators_reproduces_the_target(data):
    gens, targets = solver_inputs(data)
    gens = with_combinations(data.draw, gens)
    if gens:
        gens.append(dict(gens[0]))
        gens.append({})
    new, old = SparseSolver(), OracleSparseSolver()
    for g in gens:
        new.add_generator(g)
        old.add_generator(g)
    targets.append(combine([data.draw(small) for _ in gens], gens))
    for t in targets:
        got, want = densified(new.solve(t), new.ngen), old.solve(t)
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got) == len(gens)
            assert combine(got, gens) == {k: x for k, x in t.items() if x}


def test_solver_answers_on_a_small_system():
    s = SparseSolver()
    s.add_generator({(0, 3): 2, (1, 5): 1})
    s.add_generator({(1, 5): 3})
    assert densified(s.solve({(0, 3): 4, (1, 5): 5}), 2) == [2, 1]
    assert s.solve({(0, 4): 1}) is None
    assert densified(s.solve({}), 2) == [0, 0]


big_fraction = st.builds(Fraction, st.integers(-BIG, BIG).filter(bool),
                         st.integers(BIG // 10, BIG - 1))


@settings(PROFILE)
@given(st.data())
def test_solver_scale_with_thirteen_digit_denominators(data):
    # generator j owns the key (3, j), so the combination is unique; every
    # entry and coefficient has its own 13-digit denominator, so the residue's
    # integer scale is far from 1 and must be divided out exactly
    count = data.draw(st.integers(1, 5))
    gens = []
    for j in range(count):
        g = data.draw(st.dictionaries(st.sampled_from(STACKED_KEYS), big_fraction, max_size=6))
        g[(3, j)] = data.draw(big_fraction)
        gens.append(g)
    coeffs = [data.draw(big_fraction) for _ in gens]
    target = combine(coeffs, gens)
    new, old = SparseSolver(), OracleSparseSolver()
    for g in gens:
        new.add_generator(g)
        old.add_generator(g)
    assert densified(new.solve(target), count) == coeffs == old.solve(target)
    off = dict(target)
    off[(3, count)] = data.draw(big_fraction)
    assert new.solve(off) is None
    ech = SparseEchelon()
    for g in gens:
        ech.insert(g)
    assert ech.reduce(off) == {(3, count): off[(3, count)]}
    assert_integer_echelon(ech)
