"""The exact elimination kernel: an incremental echelon on integer rows.

Vectors are dictionaries from sortable keys to rationals: column indices
for coordinate vectors, (component, monomial-mask) pairs for the stacked
coefficients of forms, whose spaces are large and mostly zero.
``SparseEchelon`` grows a span one vector at a time and keeps it as the
unique reduced row echelon form in key order, each row scaled to
primitive integers.  It is the only elimination in the package: the
solver and, through ``linalg``, every rank, kernel, inverse and subspace
run on it.  Rationals enter by one lcm per vector, integers by a copy,
and leave as ``Fraction``s only in answers that need them, never in a kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

SparseVec = dict


def _axpy(target: dict, c, source: dict):
    for k, x in source.items():
        nv = target.get(k, 0) - c * x
        if nv:
            target[k] = nv
        else:
            target.pop(k, None)


def _sparse(row) -> SparseVec:
    """A dense row as a sparse vector keyed by column index."""
    return {j: x for j, x in enumerate(row) if x}


def _scaled(v: SparseVec) -> tuple[dict, int]:
    """Integer numerators of v over one common denominator, and that denominator."""
    if all(v.values()) and {*map(type, v.values())} <= {int}:
        return dict(v), 1
    s = lcm(*(x.denominator for x in v.values()))
    if s == 1:
        return {k: x.numerator for k, x in v.items() if x}, 1
    return {k: x.numerator * (s // x.denominator) for k, x in v.items() if x}, s


class SparseEchelon:
    """Reduced row echelon basis of a span of sparse vectors, on integer rows.

    Each row is a primitive integer vector with a positive entry at its
    pivot, the smallest key it holds, and zero at every other row's pivot.
    Reducing a vector therefore takes one pass over its own keys:
    subtracting one row never touches another row's pivot.  The steps are
    fraction-free, ``p*r - c*row`` after dividing out gcd(p, c), and the
    residue carries the product of the multipliers as its scale.
    """

    def __init__(self, rows: dict | None = None):
        # pivot key -> primitive, fully reduced integer row; given rows are taken as they are
        self.rows: dict = {} if rows is None else rows

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> SparseEchelon:
        return SparseEchelon({p: dict(row) for p, row in self.rows.items()})

    def _residue(self, v: SparseVec) -> tuple[dict, int]:
        """(r, s): integer r with r / s the residue of v modulo the span."""
        r, s = _scaled(v)
        for k in v:
            row = self.rows.get(k)
            if row is None:
                continue
            c = r.get(k)  # v's own entry, rescaled: other rows are zero here
            if not c:
                continue
            p = row[k]
            g = gcd(c, p)
            if g != p:
                p //= g
                c //= g
                for j in r:
                    r[j] *= p
                s *= p
            else:
                c //= p
            _axpy(r, c, row)
        return r, s

    def reduce(self, v: SparseVec) -> dict[object, Fraction]:
        """Residue of v modulo the span: zero at every pivot, empty exactly when v lies in it."""
        r, s = self._residue(v)
        return {k: Fraction(x, s) for k, x in r.items()}

    def insert(self, v: SparseVec) -> bool:
        """Add a vector to the span; returns True if the rank grew."""
        r, _ = self._residue(v)
        if not r:
            return False
        pivot = min(r)
        g = gcd(*r.values())
        if r[pivot] < 0:
            g = -g
        new = r if g == 1 else {k: x // g for k, x in r.items()}
        p = new[pivot]
        for key, row in self.rows.items():
            c = row.get(pivot)
            if not c:
                continue
            g = gcd(c, p)
            if g != p:
                for j in row:
                    row[j] *= p // g
            _axpy(row, c // g, new)
            if row[key] != 1:
                g = gcd(*row.values())
                if g != 1:
                    for j in row:
                        row[j] //= g
        self.rows[pivot] = new
        return True

    def contains(self, v: SparseVec) -> bool:
        return not self._residue(v)[0]

    def kernel(self, cols: int):
        """Sparse integer basis of {x : row . x = 0 for every row}, rows keyed 0..cols-1.

        One vector per free column f, in increasing order: s at f, with s the
        lcm of the pivot entries d of the rows holding an entry c at f, and
        -c * (s // d) at each such row's pivot.  It is s times the vector with
        a one at f, so it serves spans, not coordinates.
        """
        for f in range(cols):
            if f in self.rows:
                continue
            hits = [(p, c, row[p]) for p, row in self.rows.items() if (c := row.get(f))]
            s = lcm(*(d for _, _, d in hits))
            yield {f: s, **{p: -c * (s // d) for p, c, d in hits}}


class SparseSolver(SparseEchelon):
    """Express targets as combinations of sparse generator vectors.

    Generator j goes in as its entries under keys (0, k) plus a tag key
    (1, j) with entry 1, so every row carries the combination of
    generators it stands for.  A target is a combination exactly when its
    (0, ·) part reduces to zero, and the combination is minus the tag part
    of its residue.
    """

    def __init__(self):
        super().__init__()
        self.ngen = 0

    def add_generator(self, v: SparseVec):
        tagged = {(0, k): x for k, x in v.items()}
        tagged[(1, self.ngen)] = 1
        self.ngen += 1
        self.insert(tagged)

    def solve(self, target: SparseVec) -> dict[int, Fraction] | None:
        """Nonzero c_j, j increasing, with sum c_j * generator_j = target, or None."""
        r, s = self._residue({(0, k): x for k, x in target.items()})
        if any(half == 0 for half, _ in r):
            return None
        return {j: Fraction(-x, s) for (_, j), x in sorted(r.items())}


def span_of(vectors) -> SparseEchelon:
    ech = SparseEchelon()
    for v in vectors:
        ech.insert(v)
    return ech


def span_equal(vectors_a, vectors_b) -> bool:
    ea, vb = span_of(vectors_a), list(vectors_b)
    return all(map(ea.contains, vb)) and span_of(vb).rank == ea.rank

