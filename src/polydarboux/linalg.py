"""Exact rational linear algebra: matrices over `fractions.Fraction`,
reduced row echelon forms, kernels, solves, and the subspace lattice.

All arithmetic is exact.  Every elimination here, rref, rank, kernel,
solve, inverse and the subspace operations, runs on one kernel,
``sparse.SparseEchelon``: rows are scaled to primitive integers and kept
fully reduced with fraction-free steps.  A ``Subspace`` is that echelon
alone: its rows are unique to the span, so two subspaces are equal
exactly when their rows are equal; that decidable equality is what the
structure tests in the rest of the package lean on.  Vectors are sparse
``{coordinate: coefficient}`` dicts, the echelon's row format; a dense
sequence is converted once, where it enters.  Dense ``Fraction`` rows
exist only in answers: ``Subspace.vectors()``, matrices and solutions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, PreconditionError
from .sparse import SparseEchelon, _sparse, intersect_spans, span_of

Scalar = Fraction
ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce ints, exact strings like ``"3/4"``, and Fractions."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass an int, Fraction or 'p/q' string")
    return Fraction(value)


def vec(values) -> tuple[Fraction, ...]:
    return tuple(v if type(v) is Fraction else frac(v) for v in values)


def _sparse_vector(v, dim: int) -> dict:
    """A dict with keys in 0..dim-1 as it is, or a dense sequence of length dim converted."""
    if type(v) is dict:
        if any(not (type(j) is int and 0 <= j < dim) for j in v):
            raise DimensionMismatch(f"vector coordinate outside 0..{dim - 1}")
        return v
    r = vec(v)
    if len(r) != dim:
        raise DimensionMismatch(f"vector length {len(r)} does not match dimension {dim}")
    return _sparse(r)


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True, eq=True)
class Matrix:
    """Dense rational matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> Matrix:
        rows = [vec(r) for r in rows]
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return Matrix(len(rows), n, tuple(x for r in rows for x in r))

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> Matrix:
        return Matrix.from_rows(cols).transpose() if cols else Matrix(0, 0, ())

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> Matrix:
        return Matrix(rows, cols, (ZERO,) * (rows * cols))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> Matrix:
        return Matrix(self.cols, self.rows,
                      tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)))

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        ot = other.transpose()
        out = []
        for i in range(self.rows):
            r = self.row(i)
            for j in range(other.cols):
                c = ot.row(j)
                out.append(sum((a * b for a, b in zip(r, c) if a and b), ZERO))
        return Matrix(self.rows, other.cols, tuple(out))

    def mul_vec(self, v) -> tuple[Fraction, ...]:
        """The product with a dense or sparse vector, as a dense tuple."""
        x = _sparse_vector(v, self.cols)
        e, n = self.entries, self.cols
        return tuple(sum((e[i * n + j] * c for j, c in x.items() if e[i * n + j]), ZERO)
                     for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)


# ---------------------------------------------------------------------------
# row reduction


def _echelon(rows) -> SparseEchelon:
    """The echelon of rows keyed by column index.

    A row is a dense sequence or a sparse ``{column: coefficient}`` dict;
    a dict goes in as it is.
    """
    return span_of(r if type(r) is dict else _sparse(r) for r in rows)


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Unique reduced row echelon form and rank."""
    reduced = Subspace(m.cols, _echelon(m.row_list())).vectors()
    out = reduced + [(ZERO,) * m.cols] * (m.rows - len(reduced))
    return Matrix.from_rows(out) if m.rows else m, len(reduced)


def rank(m: Matrix) -> int:
    return _echelon(m.row_list()).rank


def row_rank(rows) -> int:
    """Rank of a list of rows."""
    return _echelon(rows).rank


def kernel_basis(rows: list, cols: int) -> list[dict]:
    """Sparse basis of {v : R v = 0}, one vector per free column (``SparseEchelon.kernel``).

    Rows are dense or sparse, as ``_echelon`` takes them.
    """
    return list(_echelon(rows).kernel(cols))


def kernel_subspace(rows: list, cols: int) -> Subspace:
    """{v : R v = 0} as a subspace: every kernel the package builds comes from here."""
    return Subspace.from_vectors(cols, kernel_basis(rows, cols))


def kernel(m: Matrix) -> Subspace:
    """Kernel of the linear map v -> m v, as a subspace of the column space."""
    return kernel_subspace(m.row_list(), m.cols)


def solve(m: Matrix, rhs: Sequence) -> tuple[Fraction, ...] | None:
    """One exact solution of ``m x = rhs``, or None if inconsistent."""
    b = vec(rhs)
    if len(b) != m.rows:
        raise DimensionMismatch("right-hand side length does not match rows")
    n = m.cols
    ech = _echelon({**_sparse(m.row(i)), n: b[i]} for i in range(m.rows))
    if n in ech.rows:
        return None
    x = [ZERO] * n
    for p, row in ech.rows.items():
        if n in row:
            x[p] = Fraction(row[n], row[p])
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices invert")
    n = m.rows
    ech = _echelon({**_sparse(m.row(i)), n + i: ONE} for i in range(n))
    if any(p >= n for p in ech.rows):
        raise PreconditionError("matrix is singular")
    out = []
    for i in range(n):
        row = ech.rows[i]
        d = row[i]
        out.extend(Fraction(row[j], d) if j in row else ZERO for j in range(n, 2 * n))
    return Matrix(n, n, tuple(out))


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True, eq=False)
class Subspace:
    """Subspace of a coordinate space, held as its integer echelon.

    The rows are primitive, fully reduced and have positive pivots; that
    form is unique, so ``==`` and ``hash`` compare rows.  The echelon is
    never changed after construction: code extending a span copies it.
    """

    ambient_dim: int
    echelon: SparseEchelon

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable) -> Subspace:
        """The span of dense or sparse vectors."""
        return Subspace(ambient_dim, span_of(_sparse_vector(v, ambient_dim) for v in vectors))

    @staticmethod
    def zero(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, SparseEchelon())

    @staticmethod
    def full(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, SparseEchelon({i: {i: 1} for i in range(ambient_dim)}))

    @staticmethod
    def span_of_coordinates(ambient_dim: int, indices: Iterable[int]) -> Subspace:
        """Span of the standard basis vectors with the given 1-based indices."""
        indices = set(indices)
        if any(not 1 <= i <= ambient_dim for i in indices):
            raise DimensionMismatch("coordinate index out of range")
        return Subspace(ambient_dim, SparseEchelon({i - 1: {i - 1: 1} for i in indices}))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.echelon.rows == other.echelon.rows)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, frozenset((p, frozenset(row.items()))
                                                 for p, row in self.echelon.rows.items())))

    @property
    def dim(self) -> int:
        return self.echelon.rank

    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(sorted(self.echelon.rows))

    def rows(self) -> list[dict]:
        """The echelon rows in pivot order: each its RREF row times a positive integer."""
        return [self.echelon.rows[p] for p in self.pivot_columns()]

    def vectors(self) -> list[tuple[Fraction, ...]]:
        """The RREF basis as dense rows: each echelon row divided by its pivot entry."""
        return list(self._rref)

    @cached_property
    def _rref(self) -> tuple[tuple[Fraction, ...], ...]:
        out = []
        for p, row in zip(self.pivot_columns(), self.rows()):
            d = row[p]
            r = [ZERO] * self.ambient_dim
            for j, x in row.items():
                r[j] = Fraction(x, d) if d != 1 else Fraction(x)
            out.append(tuple(r))
        return tuple(out)

    def reduce(self, v) -> list[Fraction]:
        """Residue of v modulo the subspace: zero at every pivot column."""
        res = self.echelon.reduce(_sparse_vector(v, self.ambient_dim))
        return [res.get(j, ZERO) for j in range(self.ambient_dim)]

    def contains(self, v) -> bool:
        return self.echelon.contains(_sparse_vector(v, self.ambient_dim))

    def contains_subspace(self, other: Subspace) -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return all(map(self.echelon.contains, other.echelon.rows.values()))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    ech = a.echelon.copy()
    for row in b.echelon.rows.values():
        ech.insert(row)
    return Subspace(a.ambient_dim, ech)


def annihilator(a: Subspace) -> Subspace:
    """Covectors vanishing on the subspace, in dual coordinates: the kernel of its echelon."""
    return kernel_subspace(a.rows(), a.ambient_dim)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of the two spans, by ``sparse.intersect_spans``."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return Subspace(a.ambient_dim,
                    span_of(intersect_spans(a.echelon.rows.values(), b.echelon.rows.values())))


def complement(a: Subspace, inside: Subspace | None = None) -> Subspace:
    """A deterministic direct complement of ``a`` inside ``inside``.

    Candidate vectors are the standard basis vectors lying in ``inside``
    (in index order) followed by the RREF basis rows of ``inside``.
    """
    if inside is None:
        inside = Subspace.full(a.ambient_dim)
    if a.ambient_dim != inside.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    if not inside.contains_subspace(a):
        raise PreconditionError("first subspace is not contained in the second")
    span, picked = a.echelon.copy(), SparseEchelon()
    units = filter(inside.echelon.contains, ({i: 1} for i in range(a.ambient_dim)))
    for cand in itertools.chain(units, inside.rows()):
        if span.rank == inside.dim:
            break
        if span.insert(cand):
            picked.insert(cand)
    if span.rank != inside.dim:
        raise PreconditionError("failed to complete a complement (should be impossible)")
    return Subspace(a.ambient_dim, picked)


def transform_subspace(m: Matrix, a: Subspace) -> Subspace:
    """Image of ``a`` under the linear map given by ``m``."""
    if m.cols != a.ambient_dim:
        raise DimensionMismatch("matrix does not act on the subspace ambient")
    return Subspace.from_vectors(m.rows, [m.mul_vec(v) for v in a.rows()])
