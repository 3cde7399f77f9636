"""Exact rational linear algebra: matrices over `fractions.Fraction`,
ranks, kernels, inverses, and the subspace lattice.

All arithmetic is exact.  Every elimination here, rank, kernel, inverse
and the subspace operations, runs on one kernel,
``sparse.SparseEchelon``: rows are scaled to primitive integers and kept
fully reduced with fraction-free steps.  A ``Subspace`` is that echelon
alone: its rows are unique to the span, so two subspaces are equal
exactly when their rows are equal; that decidable equality is what the
structure tests in the rest of the package lean on.  Vectors are sparse
``{coordinate: coefficient}`` dicts, the echelon's row format; a dense
sequence is converted once, where it enters, and a ``Matrix`` is a tuple
of them, its columns.  Dense columns exist only where a caller asks for them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, PreconditionError
from .sparse import SparseEchelon, _axpy, _sparse, span_of

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
    """Rational matrix held as its sparse columns, ``{row: entry}`` with no zero stored.

    A basis matrix is its list of basis vectors.  Dict columns make a matrix unhashable.
    """

    rows: int
    columns: tuple[dict, ...]

    @property
    def cols(self) -> int:
        return len(self.columns)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> Matrix:
        return Matrix.from_cols(rows).transpose()

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> Matrix:
        cols = [vec(c) for c in cols]
        n = len(cols[0]) if cols else 0
        if any(len(c) != n for c in cols):
            raise ValueError("ragged rows")
        return Matrix(n, tuple(map(_sparse, cols)))

    def col(self, j: int) -> tuple[Fraction, ...]:
        c = self.columns[j]
        return tuple(c.get(i, ZERO) for i in range(self.rows))

    def transpose(self) -> Matrix:
        out = tuple({} for _ in range(self.rows))
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                out[i][j] = x
        return Matrix(self.cols, out)

    def apply(self, v) -> dict:
        """The product with a dense or sparse vector, as a sparse vector."""
        out: dict = {}
        for j, c in _sparse_vector(v, self.cols).items():
            _axpy(out, -c, self.columns[j])
        return out

# ---------------------------------------------------------------------------
# row reduction


def _echelon(rows) -> SparseEchelon:
    """The echelon of rows keyed by column index.

    A row is a dense sequence or a sparse ``{column: coefficient}`` dict;
    a dict goes in as it is.
    """
    return span_of(r if type(r) is dict else _sparse(r) for r in rows)


def rank(m: Matrix) -> int:
    """The rank, as the rank of the columns."""
    return _echelon(m.columns).rank


def kernel_basis(rows: list, cols: int) -> list[dict]:
    """Integer basis of {v : R v = 0}, one vector per free column (``SparseEchelon.kernel``).

    Rows are dense or sparse, as ``_echelon`` takes them.
    """
    return list(_echelon(rows).kernel(cols))


def kernel_subspace(rows: list, cols: int) -> Subspace:
    """{v : R v = 0} as a subspace: every kernel the package builds comes from here."""
    return Subspace.from_vectors(cols, kernel_basis(rows, cols))


def inverse(m: Matrix) -> Matrix:
    """The inverse, by reducing [mᵀ | I]: row i of the echelon is column i of the inverse."""
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices invert")
    n = m.rows
    ech = _echelon({**col, n + i: ONE} for i, col in enumerate(m.columns))
    if any(p >= n for p in ech.rows):
        raise PreconditionError("matrix is singular")
    return Matrix(n, tuple({j - n: Fraction(x, row[i]) for j, x in row.items() if j >= n}
                           for i, row in sorted(ech.rows.items())))


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

    def unit_rows(self) -> list[dict]:
        """The RREF basis as sparse vectors: each echelon row divided by its pivot entry."""
        return [{j: Fraction(x, row[p]) for j, x in row.items()}
                for p, row in zip(self.pivot_columns(), self.rows())]

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
    return Subspace(a.ambient_dim, span_of(a.echelon.kernel(a.ambient_dim)))


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
    return Subspace.from_vectors(m.rows, [m.apply(v) for v in a.rows()])
