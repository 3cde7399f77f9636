"""Exterior algebra over exact scalars.

An alternating form is its reduced integer view: over one denominator, an
integer numerator per strictly increasing multi-index, encoded as a bitmask
(bit i-1 set means coordinate index i occurs), on which the operations below
accumulate.  Summed expressions with fractional prefactors like (1/k!)
sum_{i_1..i_k} collapse to these, so a single monomial is held exactly once.

Vector-valued forms are tuples of scalar components over one base
space; flags carry a distinguished vertical subspace together with a
splitting of the quotient, which is how partially horizontal forms and
their symbols are handled downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, PreconditionError
from .linalg import Matrix, Subspace, ZERO, ONE, _sparse_vector, frac, vec
from .sparse import _axpy, _scaled

# ---------------------------------------------------------------------------
# multi-index masks


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask of a set of distinct 1-based coordinate indices."""
    m = 0
    for i in indices:
        bit = 1 << (i - 1)
        if m & bit:
            raise ValueError("repeated index in multi-index")
        m |= bit
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def sorted_sign(indices: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Sign of the permutation sorting the indices, and the sorted tuple."""
    idx = list(indices)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
            elif idx[j] == idx[j + 1]:
                return 0, ()
    return sign, tuple(idx)


def merge_sign(a: int, b: int) -> int:
    """Sign of e^A ∧ e^B relative to the sorted union; 0 on overlap."""
    if a & b:
        return 0
    inv = 0
    bb = b
    while bb:
        low = bb & -bb
        j = low.bit_length() - 1
        inv += (a >> (j + 1)).bit_count()
        bb ^= low
    return -1 if inv & 1 else 1


def removal_sign(mask: int, bit_pos: int) -> int:
    """Sign of pulling index (bit_pos+1) to the front of the monomial."""
    below = (mask & ((1 << bit_pos) - 1)).bit_count()
    return -1 if below & 1 else 1


# ---------------------------------------------------------------------------
# alternating forms


@dataclass(frozen=True, init=False)
class AlternatingForm:
    """Degree-k alternating form on an n-dimensional coordinate space, stored as its integer
    view ``({mask: n}, den)``: coefficient n / den, no n zero, den > 0, divided by the gcd of
    den and every n.  So the view is unique to the form and ``==`` compares it; ``coeffs`` is
    built from it, in its order, on first read."""

    dim: int
    degree: int
    _numerators: tuple[dict, int]
    __hash__ = None  # the view holds a dict

    def __init__(self, dim: int, degree: int, coeffs: Mapping):
        self._store(dim, degree, *_scaled(coeffs))

    def _store(self, dim: int, degree: int, nums: dict, den: int) -> None:
        """Keep the view n / den over zero-free ``nums``, reduced by its gcd."""
        if degree < 0 or dim < 0:
            raise ValueError("negative dimension or degree")
        if degree > dim and nums:
            raise ValueError("degree exceeds dimension for a nonzero form")
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {m: n // g for m, n in nums.items()}
        self.__dict__.update(dim=dim, degree=degree, _numerators=(nums, den))

    @cached_property
    def coeffs(self) -> dict:
        nums, den = self._numerators
        return {m: Fraction(n, den) for m, n in nums.items()}

    def is_zero(self) -> bool:
        return not self._numerators[0]

    @cached_property
    def _images(self) -> dict:
        """Contraction images by vector items, filled by ``_contract_scalar``;
        outside ``==`` and ``repr``."""
        return {}

    def coefficient(self, indices: Sequence[int]) -> Fraction:
        """Signed coefficient at a multi-index (any order, distinct entries)."""
        sign, srt = sorted_sign(indices)
        if sign == 0:
            return ZERO
        return sign * self.coeffs.get(mask_of(srt), ZERO)

    def terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return [(indices_of(m), c) for m, c in sorted(self.coeffs.items())]

    def __repr__(self):
        if self.is_zero():
            return f"AlternatingForm(dim={self.dim}, degree={self.degree}, 0)"
        body = " + ".join(f"({c})e^{list(i)}" for i, c in self.terms())
        return f"AlternatingForm(dim={self.dim}, {body})"


def form(dim: int, degree: int, terms: Mapping[Sequence[int], object] | None = None) -> AlternatingForm:
    """Build a form from {multi-index: coefficient}; indices may be unsorted."""
    coeffs: dict = {}
    for idx, c in (terms or {}).items():
        c = frac(c)
        if not c:
            continue
        sign, srt = sorted_sign(tuple(idx))
        if sign == 0:
            continue
        if len(srt) != degree:
            raise ValueError("multi-index length does not match degree")
        if srt and srt[-1] > dim:
            raise DimensionMismatch("index exceeds dimension")
        m = mask_of(srt)
        nv = coeffs.get(m, ZERO) + sign * c
        if nv:
            coeffs[m] = nv
        else:
            coeffs.pop(m, None)
    return AlternatingForm(dim, degree, coeffs)


def _seeded(dim: int, degree: int, nums: dict, den: int) -> AlternatingForm:
    """The form with coefficients n / den over zero-free ``nums`` and den > 0."""
    out = object.__new__(AlternatingForm)
    out._store(dim, degree, nums, den)
    return out


def zero_form(dim: int, degree: int) -> AlternatingForm:
    return AlternatingForm(dim, degree, {})


def basis_covector(dim: int, i: int) -> AlternatingForm:
    return form(dim, 1, {(i,): 1})


def add(a: AlternatingForm, b: AlternatingForm) -> AlternatingForm:
    if (a.dim, a.degree) != (b.dim, b.degree):
        raise DimensionMismatch("cannot add forms of different shape")
    (na, da), (nb, db) = a._numerators, b._numerators
    den = lcm(da, db)
    fa, fb = den // da, den // db
    out = {m: n * fa for m, n in na.items()}
    for m, n in nb.items():
        if nv := out.get(m, 0) + n * fb:
            out[m] = nv
        else:
            del out[m]
    return _seeded(a.dim, a.degree, out, den)


def scale(a: AlternatingForm, c) -> AlternatingForm:
    c = frac(c)
    if not c:
        return zero_form(a.dim, a.degree)
    nums, den = a._numerators
    return _seeded(a.dim, a.degree, {m: n * c.numerator for m, n in nums.items()},
                   den * c.denominator)


def _dict_wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            s = merge_sign(ma, mb)
            if not s:
                continue
            key = ma | mb
            nv = out.get(key, 0) + (ca * cb if s > 0 else -ca * cb)
            if nv:
                out[key] = nv
            else:
                del out[key]
    return out


def wedge(a: AlternatingForm, b: AlternatingForm) -> AlternatingForm:
    """Wedge product, accumulated on the integer views of the operands."""
    if a.dim != b.dim:
        raise DimensionMismatch("wedge operands live on different spaces")
    na, da = a._numerators
    nb, db = b._numerators
    return _seeded(a.dim, a.degree + b.degree, _dict_wedge(na, nb), da * db)


def wedge_all(factors: Sequence[AlternatingForm]) -> AlternatingForm:
    if not factors:
        raise ValueError("empty wedge product")
    out = factors[0]
    for f in factors[1:]:
        out = wedge(out, f)
    return out


def _contract_scalar(v: dict, a: AlternatingForm) -> AlternatingForm:
    """i_v a for a sparse v, remembered on ``a`` by the items of v.

    A pipeline contracts one form with the same vector many times: the
    search, the checks and the induction each walk the form's terms
    again otherwise.  Equal items give equal images, so ints and equal
    ``Fraction`` entries share one.
    """
    key = frozenset(v.items())
    image = a._images.get(key)
    if image is None:
        image = a._images[key] = _contraction_walk(v, a)
    return image


def _contraction_walk(v: dict, a: AlternatingForm) -> AlternatingForm:
    """i_v a on integers: v scaled by its own lcm, a read through its view."""
    nums, den = a._numerators
    vv, scale = _scaled(v)
    out: dict = {}
    for m, c in nums.items():
        mm = m
        while mm:
            low = mm & -mm
            mm ^= low
            bit = low.bit_length() - 1
            comp = vv.get(bit)
            if not comp:
                continue
            key = m ^ low
            s = removal_sign(m, bit)
            nv = out.get(key, 0) + (comp * c if s > 0 else -comp * c)
            if nv:
                out[key] = nv
            else:
                del out[key]
    return _seeded(a.dim, a.degree - 1, out, den * scale)


def contract(v, x):
    """Interior product i_v, for scalar or vector-valued forms; v sparse or dense."""
    target = x if isinstance(x, AlternatingForm) else x.components[0]
    vv = _sparse_vector(v, target.dim)
    if target.degree == 0:
        raise PreconditionError("cannot contract a degree-0 form")
    if isinstance(x, AlternatingForm):
        return _contract_scalar(vv, x)
    return VectorValuedForm(tuple(_contract_scalar(vv, comp) for comp in x.components))


def evaluate(a: AlternatingForm, vectors: Sequence) -> Fraction:
    """Multilinear evaluation a(v_1, ..., v_k); each v_i sparse or dense, as ``contract`` takes it."""
    if len(vectors) != a.degree:
        raise DimensionMismatch("argument count does not match degree")
    cur = a
    for u in [_sparse_vector(v, a.dim) for v in vectors]:
        cur = _contract_scalar(u, cur)
    return cur.coeffs.get(0, ZERO)


# ---------------------------------------------------------------------------
# vector-valued forms


@dataclass(frozen=True, eq=False)
class VectorValuedForm:
    """A tuple of scalar alternating forms sharing one base space."""

    components: tuple[AlternatingForm, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("a vector-valued form needs at least one component")
        d, k = self.components[0].dim, self.components[0].degree
        if any((c.dim, c.degree) != (d, k) for c in self.components):
            raise DimensionMismatch("components disagree in dimension or degree")

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def degree(self) -> int:
        return self.components[0].degree

    @property
    def value_dim(self) -> int:
        return len(self.components)

    def __eq__(self, other) -> bool:
        return isinstance(other, VectorValuedForm) and self.components == other.components

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __repr__(self):
        return f"VectorValuedForm({self.value_dim} components, {self.components!r})"


def project(omega: VectorValuedForm, t_star: Sequence) -> AlternatingForm:
    """Projection along a covector on the value space: sum t_a omega^a."""
    ts = vec(t_star)
    if len(ts) != omega.value_dim:
        raise DimensionMismatch("covector length does not match value dimension")
    out = zero_form(omega.dim, omega.degree)
    for t, comp in zip(ts, omega.components):
        if t:
            out = add(out, scale(comp, t))
    return out


# ---------------------------------------------------------------------------
# pullback


def _row_forms(m: Matrix) -> list[dict]:
    """Rows of the matrix as sparse covectors on the column space.

    Integer entries stay plain ints: the wedge accumulation then runs in
    integer arithmetic, which matters on the large round-trip checks.
    """
    rows: list[dict] = [{} for _ in range(m.rows)]
    for j, col in enumerate(m.columns):
        for i, x in col.items():
            rows[i][1 << j] = int(x) if x.denominator == 1 else x
    return rows


def _pullback_scalar(a: AlternatingForm, rows: list[dict], new_dim: int, memo: dict) -> AlternatingForm:
    nums, den = a._numerators
    out: dict = {}
    for m, c in nums.items():
        idx = indices_of(m)
        key = idx
        w = memo.get(key)
        if w is None:
            # build through memoized prefixes so shared index sets are reused
            t = len(idx)
            while t > 0 and idx[:t] not in memo:
                t -= 1
            w = memo[idx[:t]] if t else {0: 1}
            for pos in range(t, len(idx)):
                w = _dict_wedge(w, rows[idx[pos] - 1])
                memo[idx[: pos + 1]] = w
        for mm, x in w.items():
            nv = out.get(mm, 0) + c * x
            if nv:
                out[mm] = nv
            else:
                del out[mm]
    nums, s = _scaled(out)  # Fraction entries of the rows leave Fractions in out
    return _seeded(new_dim, a.degree, nums, den * s)


def pullback(x, m: Matrix):
    """Pullback along the linear map given by ``m`` (new space -> old space).

    (pullback x)(v_1, ..., v_k) = x(m v_1, ..., m v_k).
    """
    target = x if isinstance(x, AlternatingForm) else x.components[0]
    if m.rows != target.dim:
        raise DimensionMismatch("matrix row count does not match form dimension")
    return pullback_rows(x, _row_forms(m), m.cols)


def pullback_rows(x, rows: Sequence[dict], new_dim: int):
    """Pullback along a map given by its rows as sparse covectors.

    ``rows[j]`` is coordinate j+1 of the old space as ``{1 << i: entry}``
    on the new space of dimension ``new_dim``, as ``pullback`` reads them
    off a matrix.  The coefficient of the result at an increasing index
    set I is x evaluated on the columns I, so a caller that keeps the
    rows of a growing map reads all such evaluations at once, with no
    dense matrix.
    """
    target = x if isinstance(x, AlternatingForm) else x.components[0]
    if len(rows) != target.dim:
        raise DimensionMismatch("row count does not match form dimension")
    memo: dict = {(): {0: 1}}
    if isinstance(x, AlternatingForm):
        return _pullback_scalar(x, rows, new_dim, memo)
    return VectorValuedForm(tuple(
        _pullback_scalar(comp, rows, new_dim, memo) for comp in x.components))


# ---------------------------------------------------------------------------
# flags and horizontality


@dataclass(frozen=True, eq=False)
class Flag:
    """Total space with a vertical subspace and a splitting of the quotient.

    The quotient projection is fixed by the canonical chart on the free
    (non-pivot) coordinates of the vertical RREF basis; a valid splitting
    sends the j-th quotient coordinate to a vector congruent to the j-th
    free coordinate modulo the vertical subspace.  Any two splittings of
    the same flag therefore differ by vertical corrections only.
    """

    total_dim: int
    vertical: Subspace
    splitting: Matrix

    def __post_init__(self):
        if self.vertical.ambient_dim != self.total_dim:
            raise DimensionMismatch("vertical subspace lives in a different space")
        if (self.splitting.rows, self.splitting.cols) != (self.total_dim, self.dim_t):
            raise DimensionMismatch("splitting must map quotient coordinates into the total space")
        for f, col in zip(self.free_columns(), self.splitting.columns):
            if self.vertical.echelon.reduce(col) != {f: 1}:
                raise PreconditionError(
                    "splitting composed with the quotient projection is not the identity")

    @property
    def dim_t(self) -> int:
        return self.total_dim - self.vertical.dim

    def free_columns(self) -> list[int]:
        piv = set(self.vertical.pivot_columns())
        return [j for j in range(self.total_dim) if j not in piv]

    def lift_vertical(self, coords) -> list[dict]:
        """Sparse total-space vectors of coordinate vectors over the vertical RREF basis."""
        pivots, rows = self.vertical.pivot_columns(), self.vertical.rows()
        out = []
        for u in coords:
            w: dict = {}
            for i, c in _sparse_vector(u, len(rows)).items():
                _axpy(w, -Fraction(c) / rows[i][pivots[i]], rows[i])
            out.append(w)
        return out

    def horizontal_cols(self) -> list[dict]:
        """The splitting's columns, sparse."""
        return list(self.splitting.columns)

    def adapted_matrix(self) -> Matrix:
        """Columns: splitting image first, then the vertical basis; built once per flag."""
        return self._adapted_matrix

    @cached_property
    def _adapted_matrix(self) -> Matrix:
        return Matrix(self.total_dim, tuple(self.horizontal_cols() + self.vertical.unit_rows()))

    @cached_property
    def _adapted_forms(self) -> dict:
        """Forms in adapted coordinates, ``{id(form): (form, pulled back form)}``,
        filled by ``lagrangian._adapted``; holding the form keeps its id its own."""
        return {}


def coordinate_flag(total_dim: int, vertical_indices: Iterable[int]) -> Flag:
    """Flag whose vertical space is a span of standard coordinates."""
    vert = Subspace.span_of_coordinates(total_dim, vertical_indices)
    free = [j for j in range(total_dim) if j not in set(vert.pivot_columns())]
    return Flag(total_dim, vert, Matrix(total_dim, tuple({j: ONE} for j in free)))


def with_splitting(flag: Flag, splitting: Matrix) -> Flag:
    return Flag(flag.total_dim, flag.vertical, splitting)


def horizontal_dim(r: int, s: int, dim_v: int, dim_t: int) -> int:
    """Dimension of the space of (r-s)-horizontal r-forms."""
    return sum(comb(dim_v, t) * comb(dim_t, r - t) for t in range(0, s + 1) if r - t >= 0)


def wedge_power_by_exponent(omega: VectorValuedForm, exponent: Sequence[int],
                            memo: dict | None = None) -> AlternatingForm:
    """omega^alpha: the wedge of components with the given multiplicities.

    Built as omega^(alpha - e_a) ∧ omega_a, where a is the last index with a
    nonzero exponent and the lower power comes from a call to this function.
    Without a memo that is the left fold of the factors in index order.  A
    ``memo`` dict (exponent tuple -> power) shared across calls on one form
    keeps every power computed, so each power costs one wedge however many
    higher powers are built on it.
    """
    alpha = tuple(exponent)
    if memo is not None:
        hit = memo.get(alpha)
        if hit is not None:
            return hit
    if any(e < 0 for e in alpha):
        raise ValueError("negative exponent")
    a = next((i for i in reversed(range(len(alpha))) if alpha[i]), None)
    if a is None:
        raise ValueError("empty exponent")
    if sum(alpha) == 1:
        out = omega.components[a]
    else:
        lower = alpha[:a] + (alpha[a] - 1,) + alpha[a + 1:]
        out = wedge(wedge_power_by_exponent(omega, lower, memo), omega.components[a])
    if memo is not None:
        memo[alpha] = out
    return out


# ---------------------------------------------------------------------------
# misc helpers used downstream


def restrict_to_leading(x, new_dim: int):
    """Reinterpret a form supported on the first ``new_dim`` coordinates."""
    def cut(a: AlternatingForm) -> AlternatingForm:
        limit = 1 << new_dim
        if any(m >= limit for m in a._numerators[0]):
            raise PreconditionError("form touches a discarded coordinate")
        return _seeded(new_dim, a.degree, *a._numerators)
    if isinstance(x, AlternatingForm):
        return cut(x)
    return VectorValuedForm(tuple(cut(c) for c in x.components))


def embed_in(x, new_dim: int):
    """View a form on a larger space that extends the coordinates."""
    def up(a: AlternatingForm) -> AlternatingForm:
        if new_dim < a.dim:
            raise DimensionMismatch("embedding must not shrink the space")
        return _seeded(new_dim, a.degree, *a._numerators)
    if isinstance(x, AlternatingForm):
        return up(x)
    return VectorValuedForm(tuple(up(c) for c in x.components))
