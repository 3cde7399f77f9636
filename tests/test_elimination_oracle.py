"""Differential tests: the fraction-free elimination kernel and the rewritten
Darboux helpers against the implementations they replaced.

The oracles below are the previous code, kept verbatim in spirit: Fraction
row reduction, the batch fraction-free kernel on dense integer rows that
the integer echelon replaced, per-candidate ``Subspace`` rebuilds and
dense products of elementary matrices.  Kernel vectors come out as
positive integer multiples of the RREF kernel vectors, so each is compared
divided by its entry at its free column.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (contains, identity, matmul, row, row_list, row_rank, vectors,
                      zero_matrix)
from polydarboux.darboux import _greedy_standard_completion, seeded_conjugate
from polydarboux.errors import ConstructionError, PreconditionError
from polydarboux.linalg import Matrix, Subspace, complement, inverse, kernel_basis, rank
from polydarboux.sparse import _sparse, span_of

ZERO = Fraction(0)
ONE = Fraction(1)

settings.register_profile("oracle", deadline=None, max_examples=80, derandomize=True)


# ---------------------------------------------------------------------------
# oracle: Fraction Gauss-Jordan elimination


def oracle_rref_rows(rows):
    pivots = []
    for raw in rows:
        r = list(raw)
        for pc, prow in pivots:
            c = r[pc]
            if c:
                r = [a - c * b if b else a for a, b in zip(r, prow)]
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is None:
            continue
        inv = ONE / r[lead]
        r = [x * inv if x else x for x in r]
        pivots.append((lead, r))
        pivots.sort(key=lambda t: t[0])
    ordered = [p[1] for p in pivots]
    cols = [p[0] for p in pivots]
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            c = ordered[i][cols[j]]
            if c:
                ordered[i] = [a - c * b if b else a for a, b in zip(ordered[i], ordered[j])]
    return ordered, len(ordered)


# ---------------------------------------------------------------------------
# oracle: the batch fraction-free kernel (Bareiss-style forward elimination on
# dense primitive integer rows, then the same steps above each pivot)


def batch_integer_row(raw) -> list[int]:
    """The row scaled to primitive integers (all zeros for a zero row)."""
    if raw and type(raw[0]) is int and all(type(x) is int for x in raw):
        r = list(raw)  # already integers: only the content is removed
    else:
        dens = [x.denominator for x in raw]
        scale = lcm(*dens)
        if scale == 1:
            r = [x.numerator for x in raw]
        else:
            r = [x.numerator * (scale // d) for x, d in zip(raw, dens)]
    g = gcd(*r)
    return [x // g for x in r] if g > 1 else r


def batch_eliminate(r: list[int], prow: list[int], col: int) -> list[int]:
    """Fraction-free step: clear ``r[col]`` with the pivot row, keep r primitive."""
    c, p = r[col], prow[col]
    g = gcd(p, c)
    c //= g
    p //= g
    if p == 1:
        return [a - c * b if b else a for a, b in zip(r, prow)]
    r = [p * a - c * b if b else p * a for a, b in zip(r, prow)]
    g = gcd(*r)
    return [x // g for x in r] if g > 1 else r


def batch_forward_rows(rows) -> list[tuple[int, list[int]]]:
    """(pivot column, primitive integer row) pairs, sorted by pivot column."""
    pivots: list[tuple[int, list[int]]] = []
    for raw in rows:
        r = batch_integer_row(raw)
        for pc, prow in pivots:
            if r[pc]:
                r = batch_eliminate(r, prow, pc)
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is None:
            continue
        if r[lead] < 0:
            r = [-x for x in r]
        pivots.append((lead, r))
        pivots.sort(key=lambda t: t[0])
    return pivots


def batch_rref_rows(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Canonical Fraction RREF of a list of rows: (nonzero rows, pivot columns)."""
    pivots = batch_forward_rows(rows)
    ordered = [p[1] for p in pivots]
    cols = [p[0] for p in pivots]
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            if ordered[i][cols[j]]:
                ordered[i] = batch_eliminate(ordered[i], ordered[j], cols[j])
    out = []
    for pc, r in zip(cols, ordered):
        d = r[pc]
        if d == 1:
            out.append([Fraction(x) if x else ZERO for x in r])
        else:
            out.append([Fraction(x, d) if x else ZERO for x in r])
        out[-1][pc] = ONE
    return out, cols


def oracle_kernel_basis(rows, cols):
    reduced, rk = oracle_rref_rows([r for r in rows if any(r)])
    pivot_cols = [next(j for j, x in enumerate(r) if x) for r in reduced]
    basis = []
    for f in range(cols):
        if f in pivot_cols:
            continue
        v = [ZERO] * cols
        v[f] = ONE
        for pc, r in zip(pivot_cols, reduced):
            v[pc] = -r[f]
        basis.append(v)
    return basis


def oracle_inverse(m: Matrix):
    n = m.rows
    aug = [list(row(m, i)) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    reduced, rk = oracle_rref_rows(aug)
    if rk != n or any(next(j for j, v in enumerate(r) if v) >= n for r in reduced):
        return None
    return Matrix.from_rows([r[n:] for r in reduced])


# ---------------------------------------------------------------------------
# inputs

BIG = 10 ** 13

entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


@st.composite
def matrices(draw, max_rows=6, max_cols=7):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    data = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    if rows and draw(st.booleans()):
        # a dependent row: a combination of two others (or a zero row)
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        a, b = draw(entries), draw(entries)
        data.append([a * x + b * y for x, y in zip(data[i], data[j])])
    return Matrix.from_rows(data) if data else zero_matrix(0, cols)


@st.composite
def sparse_wide(draw):
    """1-4 rows of 50 columns with a handful of nonzero entries each."""
    rows = draw(st.integers(1, 4))
    out = []
    for _ in range(rows):
        r = [ZERO] * 50
        for j in draw(st.lists(st.integers(0, 49), max_size=4)):
            r[j] = draw(entries)
        out.append(r)
    return Matrix.from_rows(out)


@st.composite
def square(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    data = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        data[-1] = [x + y for x, y in zip(data[0], data[1])]   # singular
    return Matrix.from_rows(data) if n else zero_matrix(0, 0)


any_matrix = st.one_of(matrices(), sparse_wide())


# ---------------------------------------------------------------------------
# kernel vs oracle


@settings(settings.get_profile("oracle"))
@given(any_matrix)
def test_rank_and_subspace_match_oracle(m):
    rows = row_list(m)
    reduced, rk = oracle_rref_rows(rows)
    assert batch_rref_rows(rows) == (reduced, [next(j for j, x in enumerate(r) if x)
                                               for r in reduced])
    assert rank(m) == rk == row_rank(rows)
    # the integer echelon's rows are the batch kernel's primitive rows, fully reduced
    ech = span_of(map(_sparse, rows))
    for pc, r in zip(*reversed(batch_rref_rows(rows))):
        scale = lcm(*(x.denominator for x in r))
        assert ech.rows[pc] == _sparse([int(x * scale) for x in r])
    sub = Subspace.from_vectors(m.cols, rows)
    assert vectors(sub) == [tuple(r) for r in reduced]
    assert all(type(x) is Fraction for r in vectors(sub) for x in r)


def unit_at_free_column(x: dict, cols: int) -> list[Fraction]:
    """An integer kernel vector, checked to be all ``int`` and positive at its free column
    (its first key), divided by that entry and made dense."""
    f = next(iter(x))
    assert all(type(c) is int for c in x.values()) and x[f] > 0
    return [Fraction(x.get(j, 0), x[f]) for j in range(cols)]


@settings(settings.get_profile("oracle"))
@given(any_matrix)
def test_kernel_basis_matches_oracle(m):
    got = [unit_at_free_column(x, m.cols) for x in kernel_basis(row_list(m), m.cols)]
    assert got == oracle_kernel_basis(row_list(m), m.cols)


@settings(settings.get_profile("oracle"))
@given(square())
def test_inverse_matches_oracle(m):
    want = oracle_inverse(m)
    if want is None:
        with pytest.raises(PreconditionError):
            inverse(m)
    else:
        assert inverse(m) == want


def test_singular_inverse_and_zero_rows():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(PreconditionError):
        inverse(m)
    got = [unit_at_free_column(x, 3) for x in kernel_basis([[ZERO] * 3, [ZERO] * 3], 3)]
    assert got == oracle_kernel_basis([[ZERO] * 3] * 2, 3)


# ---------------------------------------------------------------------------
# complement and greedy completion vs per-candidate Subspace rebuilds


def oracle_complement(a: Subspace, inside: Subspace) -> Subspace:
    candidates = []
    for i in range(a.ambient_dim):
        e = [ZERO] * a.ambient_dim
        e[i] = ONE
        if contains(inside, e):
            candidates.append(e)
    candidates.extend(vectors(inside))
    picked = []
    span = a
    for cand in candidates:
        if span.dim == inside.dim:
            break
        if not contains(span, cand):
            picked.append(cand)
            span = Subspace.from_vectors(a.ambient_dim, vectors(span) + [cand])
    return Subspace.from_vectors(a.ambient_dim, picked)


def oracle_completion(dim: int, avoid: Subspace, count: int) -> list:
    picked = []
    span = avoid
    for i in range(dim):
        if len(picked) == count:
            break
        e = [ZERO] * dim
        e[i] = ONE
        if not contains(span, e):
            picked.append(e)
            span = Subspace.from_vectors(dim, vectors(span) + [e])
    return picked


def _random_vectors(rng, dim, count):
    return [[Fraction(rng.choice([0, 0, 0, 1, -1, 2, -3])) for _ in range(dim)]
            for _ in range(count)]


@pytest.mark.parametrize("seed", range(40))
def test_complement_and_completion_match_rebuild(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 12)
    inside_vecs = _random_vectors(rng, dim, rng.randint(0, dim))
    inside = Subspace.from_vectors(dim, inside_vecs)
    # a: a random subspace of inside, from combinations of its spanning vectors
    a_vecs = []
    for _ in range(rng.randint(0, len(inside_vecs))):
        coeffs = [rng.randint(-2, 2) for _ in inside_vecs]
        a_vecs.append([sum((c * v[j] for c, v in zip(coeffs, inside_vecs)), ZERO)
                       for j in range(dim)])
    a = Subspace.from_vectors(dim, a_vecs)
    assert complement(a, inside) == oracle_complement(a, inside)
    assert complement(a) == oracle_complement(a, Subspace.full(dim))
    avoid = Subspace.from_vectors(dim, _random_vectors(rng, dim, rng.randint(0, dim)))
    count = rng.randint(0, dim - avoid.dim)
    span = span_of(map(_sparse, vectors(avoid)))
    rows = {p: dict(r) for p, r in span.rows.items()}
    # the picks come as the indices of the standard vectors
    assert _greedy_standard_completion(dim, span, count) == [
        e.index(ONE) for e in oracle_completion(dim, avoid, count)]
    assert span.rows == rows  # the picks are made in a copy
    with pytest.raises(ConstructionError):
        _greedy_standard_completion(dim, span, dim - avoid.dim + 1)


# ---------------------------------------------------------------------------
# seeded_conjugate vs the dense product P·D·S_1⋯S_m


def oracle_conjugate(dim, seed, preserve=None, shear_count=6):
    rng = random.Random(seed)
    preserve = preserve or []
    groups: dict = {}
    for i in range(1, dim + 1):
        groups.setdefault(tuple(i in s for s in preserve), []).append(i)
    perm = {}
    for members in groups.values():
        shuffled = members[:]
        rng.shuffle(shuffled)
        perm.update(zip(members, shuffled))
    p_mat = Matrix.from_rows([[ONE if perm[j + 1] == i + 1 else ZERO for j in range(dim)]
                              for i in range(dim)])
    signs = [rng.choice([ONE, -ONE]) for _ in range(dim)]
    d_mat = Matrix.from_rows([[signs[i] if i == j else ZERO for j in range(dim)]
                              for i in range(dim)])
    mats = [(p_mat, p_mat.transpose()), (d_mat, d_mat)]
    tries = added = 0
    while added < shear_count and tries < 50 * shear_count:
        tries += 1
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j or not all((j + 1) not in s or (i + 1) in s for s in preserve):
            continue
        c = Fraction(rng.choice([-2, -1, 1, 2]))
        fwd = [[ONE if a == b else ZERO for b in range(dim)] for a in range(dim)]
        bwd = [[ONE if a == b else ZERO for b in range(dim)] for a in range(dim)]
        fwd[i][j], bwd[i][j] = c, -c
        mats.append((Matrix.from_rows(fwd), Matrix.from_rows(bwd)))
        added += 1
    fwd = bwd = identity(dim)
    for f, b in mats:
        fwd = matmul(fwd, f)
        bwd = matmul(b, bwd)
    return fwd, bwd


@pytest.mark.parametrize("dim", [3, 4, 7, 12, 26, 49])
@pytest.mark.parametrize("seed", [0, 3, 11, 503])
def test_seeded_conjugate_matches_dense_product(dim, seed):
    cmap = seeded_conjugate(dim, seed)
    assert (cmap.matrix, cmap.inv) == oracle_conjugate(dim, seed)
    block = frozenset(range(1, dim // 2 + 1)) | {dim}
    cmap = seeded_conjugate(dim, seed, preserve=[block], shear_count=10)
    assert (cmap.matrix, cmap.inv) == oracle_conjugate(dim, seed, [block], 10)
