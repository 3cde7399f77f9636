"""Sparse echelon spans over sortable keys.

The structure tests compare spans of contraction images inside large
monomial coordinate spaces.  Those vectors are sparse dictionaries keyed
by (component, monomial-mask) pairs; a dense matrix would mostly hold
zeros, so elimination is done directly on the dictionaries.
"""

from __future__ import annotations

from fractions import Fraction

SparseVec = dict


def _axpy(target: dict, c, source: dict):
    for k, x in source.items():
        nv = target.get(k, 0) - c * x
        if nv:
            target[k] = nv
        else:
            target.pop(k, None)


class SparseEchelon:
    """Row echelon basis of a span of sparse vectors."""

    def __init__(self):
        self.rows: list[tuple[object, dict]] = []  # (pivot key, monic reduced row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: SparseVec) -> SparseVec:
        r = dict(v)
        for key, row in self.rows:
            c = r.get(key)
            if c:
                _axpy(r, c, row)
        return r

    def insert(self, v: SparseVec) -> bool:
        """Add a vector to the span; returns True if the rank grew."""
        r = self.reduce(v)
        if not r:
            return False
        pivot = min(r)
        inv = Fraction(1) / Fraction(r[pivot])
        row = {k: x * inv for k, x in r.items()}
        self.rows.append((pivot, row))
        self.rows.sort(key=lambda t: t[0])
        return True

    def contains(self, v: SparseVec) -> bool:
        return not self.reduce(v)

    def canonical(self) -> tuple:
        """Fully reduced representation; equal spans give equal values."""
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


class SparseSolver:
    """Express targets as combinations of sparse generator vectors."""

    def __init__(self):
        self.rows: list[tuple[object, dict, dict]] = []  # (pivot, row, generator tags)
        self.ngen = 0

    def add_generator(self, v: SparseVec):
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

    def solve(self, target: SparseVec) -> list[Fraction] | None:
        """Coefficients c with sum c_j * generator_j = target, or None."""
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


def span_of(vectors) -> SparseEchelon:
    ech = SparseEchelon()
    for v in vectors:
        ech.insert(v)
    return ech


def span_equal(vectors_a, vectors_b) -> bool:
    ea = span_of(vectors_a)
    vb = list(vectors_b)
    if not all(ea.contains(v) for v in vb):
        return False
    return span_of(vb).rank == ea.rank


def intersect_spans(vectors_a, vectors_b) -> list[SparseVec]:
    """Basis of (span a) ∩ (span b), as sparse vectors.

    Solved through the kernel of the concatenated coefficient map
    (s, t) -> sum s_i a_i - sum t_j b_j.
    """
    from .linalg import kernel_basis, ZERO

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
        for i, c in enumerate(sol[:p]):
            if c:
                _axpy(combo, -c, va[i])
        if combo:
            out.append(combo)
    return out
