"""Exact rational linear algebra: matrices over `fractions.Fraction`,
reduced row echelon forms, kernels, solves, and the subspace lattice.

All arithmetic is exact.  Every elimination here, rref, rank, kernel,
solve, inverse and the subspace operations, runs on one kernel,
``sparse.SparseEchelon``: rows are scaled to primitive integers and kept
fully reduced with fraction-free steps.  The integer rows stay internal;
every result is returned in Fractions, read off the echelon.  Subspaces
are canonically represented by the RREF of a spanning set, so two
subspaces are equal exactly when their representations are equal; that
decidable equality is what the structure tests in the rest of the
package lean on.
"""

from __future__ import annotations

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

    def mul_vec(self, v: Sequence) -> tuple[Fraction, ...]:
        v = vec(v)
        if len(v) != self.cols:
            raise DimensionMismatch("vector length does not match matrix columns")
        return tuple(sum((a * b for a, b in zip(self.row(i), v) if a and b), ZERO)
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


def _rref_rows(rows, cols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Canonical RREF of a list of rows; returns (nonzero rows, pivot columns).

    Read off the integer echelon: each row divided by its pivot entry,
    with a new Fraction for nonzero entries alone.
    """
    ech = _echelon(rows)
    pivots = sorted(ech.rows)
    out = []
    for p in pivots:
        row = ech.rows[p]
        d = row[p]
        r = [ZERO] * cols
        for j, x in row.items():
            r[j] = Fraction(x, d) if d != 1 else Fraction(x)
        out.append(r)
    return out, pivots


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Unique reduced row echelon form and rank."""
    reduced, pivots = _rref_rows(m.row_list(), m.cols)
    out = reduced + [[ZERO] * m.cols for _ in range(m.rows - len(pivots))]
    return Matrix.from_rows(out) if m.rows else m, len(pivots)


def rank(m: Matrix) -> int:
    return _echelon(m.row_list()).rank


def row_rank(rows) -> int:
    """Rank of a list of rows."""
    return _echelon(rows).rank


def kernel_basis(rows: list, cols: int) -> list[list[Fraction]]:
    """Basis of {v : R v = 0} for constraint rows R, in RREF order.

    Rows are dense or sparse, as ``_echelon`` takes them.
    """
    return _echelon(rows).kernel_vectors(cols)


def kernel(m: Matrix) -> Subspace:
    """Kernel of the linear map v -> m v, as a subspace of the column space."""
    return Subspace.from_vectors(m.cols, kernel_basis(m.row_list(), m.cols))


def solve(m: Matrix, rhs: Sequence) -> tuple[Fraction, ...] | None:
    """One exact solution of ``m x = rhs``, or None if inconsistent."""
    b = vec(rhs)
    if len(b) != m.rows:
        raise DimensionMismatch("right-hand side length does not match rows")
    n = m.cols
    ech = _echelon(list(m.row(i)) + [b[i]] for i in range(m.rows))
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
    ech = _echelon(list(m.row(i)) + [ONE if i == j else ZERO for j in range(n)]
                   for i in range(n))
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


@dataclass(frozen=True, eq=True)
class Subspace:
    """Subspace of a coordinate space, held as an RREF basis matrix.

    The RREF representation is unique, so ``==`` decides subspace equality.
    """

    ambient_dim: int
    basis: Matrix

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> Subspace:
        rows = [list(vec(v)) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionMismatch("vector length does not match ambient dimension")
        reduced, pivots = _rref_rows(rows, ambient_dim)
        return Subspace(ambient_dim, Matrix.from_rows(reduced) if pivots else Matrix(0, ambient_dim, ()))

    @staticmethod
    def zero(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, Matrix(0, ambient_dim, ()))

    @staticmethod
    def full(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @staticmethod
    def span_of_coordinates(ambient_dim: int, indices: Iterable[int]) -> Subspace:
        """Span of the standard basis vectors with the given 1-based indices."""
        rows = []
        for i in sorted(set(indices)):
            if not 1 <= i <= ambient_dim:
                raise DimensionMismatch("coordinate index out of range")
            rows.append([ONE if j == i - 1 else ZERO for j in range(ambient_dim)])
        return Subspace(ambient_dim, Matrix.from_rows(rows) if rows else Matrix(0, ambient_dim, ()))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def vectors(self) -> list[tuple[Fraction, ...]]:
        return [self.basis.row(i) for i in range(self.basis.rows)]

    def pivot_columns(self) -> tuple[int, ...]:
        return self._pivot_columns

    @cached_property
    def _pivot_columns(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(self.basis.row(i)) if x)
                     for i in range(self.basis.rows))

    @cached_property
    def _span(self) -> SparseEchelon:
        return _echelon(self.vectors())

    def _sparse_vector(self, v: Sequence) -> dict:
        r = vec(v)
        if len(r) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        return _sparse(r)

    def reduce(self, v: Sequence) -> list[Fraction]:
        """Residue of v modulo the subspace: zero at every pivot column."""
        res = self._span.reduce(self._sparse_vector(v))
        return [res.get(j, ZERO) for j in range(self.ambient_dim)]

    def contains(self, v: Sequence) -> bool:
        return self._span.contains(self._sparse_vector(v))

    def contains_subspace(self, other: Subspace) -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return all(self.contains(w) for w in other.vectors())


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return Subspace.from_vectors(a.ambient_dim, a.vectors() + b.vectors())


def annihilator(a: Subspace) -> Subspace:
    """Covectors vanishing on the subspace, in dual coordinates."""
    if a.dim == 0:
        return Subspace.full(a.ambient_dim)
    return kernel(a.basis)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of the two basis spans, by ``sparse.intersect_spans``."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    n = a.ambient_dim
    rows = intersect_spans(map(_sparse, a.vectors()), map(_sparse, b.vectors()))
    return Subspace.from_vectors(n, [[r.get(j, ZERO) for j in range(n)] for r in rows])


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
    candidates: list[Sequence] = []
    for i in range(a.ambient_dim):
        e = [ZERO] * a.ambient_dim
        e[i] = ONE
        if inside.contains(e):
            candidates.append(e)
    candidates.extend(inside.vectors())
    span = SparseEchelon()
    for v in a.vectors():
        span.insert(_sparse(v))
    picked = []
    for cand in candidates:
        if span.rank == inside.dim:
            break
        if span.insert(_sparse(cand)):
            picked.append(cand)
    if span.rank != inside.dim:
        raise PreconditionError("failed to complete a complement (should be impossible)")
    return Subspace.from_vectors(a.ambient_dim, picked)


def transform_subspace(m: Matrix, a: Subspace) -> Subspace:
    """Image of ``a`` under the linear map given by ``m``."""
    if m.cols != a.ambient_dim:
        raise DimensionMismatch("matrix does not act on the subspace ambient")
    return Subspace.from_vectors(m.rows, [m.mul_vec(v) for v in a.vectors()])
