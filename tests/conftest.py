"""Shared fixtures: the counterexample forms and independent oracles."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from polydarboux import darboux, io, lagrangian, polyforms
from polydarboux.errors import (DimensionMismatch, DocumentError, InternalCheckError,
                               PreconditionError)
from polydarboux.exterior import (AlternatingForm, Flag, VectorValuedForm, _contract_scalar,
                                  contract, coordinate_flag, evaluate, form, indices_of,
                                  mask_of, merge_sign, removal_sign, sorted_sign, with_splitting)
from polydarboux.lagrangian import _kernel_constraints, _stacked, as_vector_form
from polydarboux.linalg import (ZERO, ONE, Matrix, Subspace, _echelon, _sparse_vector, complement,
                                frac, inverse, kernel_subspace, rank, vec)
from polydarboux.moser import (DEFAULT_SOLVE_TOL, DeformationField, _pullback_residuals,
                               integrate_flow_batch)
from polydarboux.polyforms import (PolyForm, Polynomial, moser_potential, pf_add, pf_scale,
                                   pf_sub, poly_const, poly_var)
from polydarboux.sparse import SparseEchelon, _sparse, span_equal, span_of


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


# ---------------------------------------------------------------------------
# matrices, subspaces and isotropy as the tests build and check them; no command needs these


def identity(n: int) -> Matrix:
    return Matrix(n, tuple({i: ONE} for i in range(n)))


def zero_matrix(rows: int, cols: int) -> Matrix:
    return Matrix(rows, tuple({} for _ in range(cols)))


def row(m: Matrix, i: int) -> tuple[Fraction, ...]:
    return tuple(c.get(i, ZERO) for c in m.columns)


def row_list(m: Matrix) -> list[list[Fraction]]:
    return [list(row(m, i)) for i in range(m.rows)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return Matrix(a.rows, tuple(map(a.apply, b.columns)))


def mul_vec(m: Matrix, v) -> tuple[Fraction, ...]:
    """The product with a dense or sparse vector, as a dense tuple."""
    out = m.apply(v)
    return tuple(out.get(i, ZERO) for i in range(m.rows))


def row_rank(rows) -> int:
    """Rank of a list of dense or sparse rows."""
    return _echelon(rows).rank


def kernel(m: Matrix) -> Subspace:
    """Kernel of the linear map v -> m v, as a subspace of the column space."""
    return kernel_subspace(m.transpose().columns, m.cols)


def vectors(sub: Subspace) -> list[tuple[Fraction, ...]]:
    """The RREF basis as dense rows."""
    return [tuple(r.get(j, ZERO) for j in range(sub.ambient_dim)) for r in sub.unit_rows()]


def contains(sub: Subspace, v) -> bool:
    return sub.echelon.contains(_sparse_vector(v, sub.ambient_dim))


def intersect_spans(vectors_a, vectors_b) -> list[dict]:
    """Basis of (span a) ∩ (span b), as sparse integer vectors.

    Zassenhaus: the echelon of the rows (a, a) and (b, 0), with every
    key of the first half before every key of the second.  Its rows
    whose pivot lies in the second half are zero in the first, and their
    second halves span the intersection.
    """
    ech = SparseEchelon()
    for v in vectors_a:
        both = {(0, k): x for k, x in v.items()}
        both.update({(1, k): x for k, x in v.items()})
        ech.insert(both)
    for w in vectors_b:
        ech.insert({(0, k): x for k, x in w.items()})
    return [{k: x for (_, k), x in row.items()}
            for (half, _), row in ech.rows.items() if half == 1]


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of the two spans, by ``intersect_spans``."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return Subspace(a.ambient_dim,
                    span_of(intersect_spans(a.echelon.rows.values(), b.echelon.rows.values())))


def is_maximal_isotropic(sub: Subspace, omega) -> bool:
    """Maximality at level 1: the kernel is contained and the contraction
    image equals the image of the whole space cut to the annihilating forms.

    The images are read through the module, so a test that patches
    ``lagrangian.flat_image_vectors`` patches them here too."""
    v = as_vector_form(omega)
    k = v.degree - 1
    if not sub.contains_subspace(lagrangian.kernel_of_form(v)):
        return False
    lhs = lagrangian.flat_image_vectors(v, sub.rows())
    full = lagrangian.flat_image_vectors(v, Subspace.full(v.dim).rows())
    rhs = intersect_spans(full, lagrangian._lperp_tensor_basis(sub, k, v.value_dim))
    return span_equal(lhs, rhs)


def horizontality_degree(omega: AlternatingForm, flag: Flag) -> int:
    """Minimal s such that contraction with any s+1 vertical vectors vanishes.

    Exhausts combinations of the vertical basis, so the answer does not
    depend on the coordinates the form happens to be written in.
    """
    if omega.dim != flag.total_dim:
        raise DimensionMismatch("form does not live on the flag's total space")
    if omega.is_zero():
        return 0
    vert = flag.vertical.rows()
    for s in range(omega.degree + 1):
        if s + 1 > len(vert):
            return s
        ok = True
        for combo in itertools.combinations(vert, s + 1):
            cur = omega
            for v in combo:
                cur = _contract_scalar(v, cur)
                if cur.is_zero():
                    break
            if not cur.is_zero():
                ok = False
                break
        if ok:
            return s
    return omega.degree


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


def extend_isotropic_complement(form_in, lagr: Subspace, start: Subspace,
                                flag: Flag | None = None, r: int | None = None) -> Subspace:
    """The isotropic complement of L grown from ``start``.

    Without a flag ``start`` is part of a complement of L and the result
    completes it.  With a flag ``start`` must meet the vertical space
    exactly in a complement of L, and the result also spans the base.
    The frame starts from the echelon rows of ``start``: scaling a frame
    vector scales its pairings and, inversely, its duals and momentum
    vectors, so the vectors the induction adds do not change.
    """
    v = as_vector_form(form_in)
    if flag is None:
        e_part, fixed = start, start.rows()
    else:
        if r is None:
            raise PreconditionError("the flagged extension needs the horizontality parameter")
        e_part = intersect(start, flag.vertical)
        if e_part.dim != flag.vertical.dim - lagr.dim:
            raise PreconditionError("start must meet the vertical space exactly in a complement of L")
        fixed = e_part.rows() + complement(e_part, inside=start).rows()
    if intersect(e_part, lagr).dim != 0:
        raise PreconditionError("start vectors must be independent from the subspace")
    if start.dim and not lagrangian.is_isotropic(start, v, v.degree - 1):
        raise PreconditionError("start subspace is not isotropic at the required level")
    frame = darboux._induction(v, lagr, lagrangian.kernel_of_form(v), fixed, flag, r)[0].frame
    return Subspace.from_vectors(v.dim, frame)


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


# ---------------------------------------------------------------------------
# the integer numerators each caller computed for itself, and the Fraction
# constraint rows and images, before forms kept one integer view: the
# oracles of tests/test_integer_views.py


def integer_coeffs_oracle(coeffs: dict) -> tuple[dict, int]:
    """``exterior._integer_coeffs``, which ``wedge`` called on both operands per call."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in coeffs.items()}, den


def poly_numerators_oracle(a) -> tuple[dict, int]:
    """The lcm and numerators that ``exterior_d`` and ``_primitive`` each built per call."""
    den = lcm(*(c.denominator for p in a.coeffs.values() for c in p.terms.values()))
    return {m: {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}
            for m, p in a.coeffs.items()}, den


def pf_seeded_oracle(dim: int, degree: int, split: tuple, nums: dict, den: int):
    """The form with coefficients n / den over ``nums``, built at once from its ``Fraction``
    coefficients, in the order of ``nums``."""
    return PolyForm(dim, degree, split, {
        m: Polynomial(dim, {e: Fraction(n, den) for e, n in slot.items()}) for m, slot in nums.items()})


# ``polyforms.pf_add``, ``pf_scale``, ``pf_wedge``, ``pf_contract_basis`` and ``constant_spread``
# as they were on ``Polynomial`` coefficients, before forms were their integer views


def pf_add_oracle(a, b):
    out = dict(a.coeffs)
    for m, p in b.coeffs.items():
        s = out.get(m)
        ns = p if s is None else s + p
        if ns.is_zero():
            out.pop(m, None)
        else:
            out[m] = ns
    return PolyForm(a.dim, a.degree, a.split, out)


def pf_scale_oracle(a, c):
    c = Fraction(c)
    return PolyForm(a.dim, a.degree, a.split, {m: p * c for m, p in a.coeffs.items()} if c else {})


def pf_wedge_oracle(a, b):
    out: dict = {}
    for ma, pa in a.coeffs.items():
        for mb, pb in b.coeffs.items():
            s = merge_sign(ma, mb)
            if not s:
                continue
            prod = pa * pb
            if s < 0:
                prod = -prod
            key = ma | mb
            cur = out.get(key)
            ns = prod if cur is None else cur + prod
            if ns.is_zero():
                out.pop(key, None)
            else:
                out[key] = ns
    return PolyForm(a.dim, a.degree + b.degree, a.split, out)


def pf_contract_basis_oracle(a, index: int):
    bit = 1 << (index - 1)
    out: dict = {}
    for m, p in a.coeffs.items():
        if not (m & bit):
            continue
        s = removal_sign(m, index - 1)
        q = p if s > 0 else -p
        key = m ^ bit
        cur = out.get(key)
        ns = q if cur is None else cur + q
        if ns.is_zero():
            out.pop(key, None)
        else:
            out[key] = ns
    return PolyForm(a.dim, a.degree - 1, a.split, out)


def constant_spread_oracle(omega):
    origin = (0,) * omega.dim
    return PolyForm(omega.dim, omega.degree, omega.split,
                    {m: poly_const(omega.dim, c) for m, p in omega.coeffs.items()
                     if (c := p.terms.get(origin))})


def kernel_constraints_oracle(x) -> list[dict]:
    """Constraint rows of {v : i_v x = 0} at their true ``Fraction`` values."""
    rows: dict = {}
    for a, compf in enumerate(as_vector_form(x).components):
        for m, c in compf.coeffs.items():
            mm = m
            while mm:
                low = mm & -mm
                mm ^= low
                below = (m & (low - 1)).bit_count()
                rows.setdefault((a, m ^ low), {})[low.bit_length() - 1] = -c if below & 1 else c
    return list(rows.values())


def flat_image_vectors_oracle(omega, vectors) -> list[dict]:
    """Images i_v omega stacked at their true ``Fraction`` values."""
    return [_stacked(contract(v, as_vector_form(omega))) for v in vectors]


# ---------------------------------------------------------------------------
# the exact kernel as it was before kernels came out on integers


def scaled_oracle(v: dict) -> tuple[dict, int]:
    """``sparse._scaled`` with its lcm pass over every vector, integer or not."""
    s = lcm(*(x.denominator for x in v.values()))
    if s == 1:
        return {k: x.numerator for k, x in v.items() if x}, 1
    return {k: x.numerator * (s // x.denominator) for k, x in v.items() if x}, s


def echelon_kernel_oracle(ech: SparseEchelon, cols: int) -> list[dict]:
    """``SparseEchelon.kernel`` on ``Fraction``s: per free column f, a one at f and minus
    each row's entry at f over its pivot entry, at that pivot."""
    out = []
    for f in range(cols):
        if f in ech.rows:
            continue
        x = {f: Fraction(1)}
        for p, row in ech.rows.items():
            c = row.get(f)
            if c:
                x[p] = Fraction(-c, row[p])
        out.append(x)
    return out


def annihilator_oracle(a: Subspace) -> Subspace:
    """``linalg.annihilator`` re-eliminating the subspace's rows before it reads the kernel."""
    return Subspace.from_vectors(a.ambient_dim,
                                 echelon_kernel_oracle(_echelon(a.rows()), a.ambient_dim))


def greedy_maximal_isotropic_oracle(omega, seed: Subspace,
                                    within: Subspace | None = None) -> Subspace:
    """``lagrangian.greedy_maximal_isotropic`` asking ``contains`` before each ``insert``,
    so a pick that grows the span is reduced twice."""
    v = as_vector_form(omega)
    if not lagrangian.is_isotropic(seed, v, 1):
        raise PreconditionError("seed subspace is not isotropic")
    base = within if within is not None else Subspace.full(v.dim)
    orth = dict(sorted(base.echelon.rows.items()))
    span = seed.echelon.copy()
    for u in seed.rows():
        for row in _kernel_constraints(contract(u, v)):
            lagrangian._cut(orth, row)
    while orth:
        row = orth.pop(next(iter(orth)))
        if not span.contains(row):
            span.insert(row)
            for r in _kernel_constraints(contract(row, v)):
                lagrangian._cut(orth, r)
    return Subspace(v.dim, span)


def to_vertical_coordinates_oracle(flag: Flag, sub: Subspace) -> Subspace:
    """The previous ``to_vertical_coordinates``: each vector's coordinates in the adapted
    basis, through the inverse of the adapted matrix, refused if any is horizontal."""
    binv = inverse(flag.adapted_matrix())
    n = flag.dim_t
    rows = []
    for u in sub.rows():
        coords = binv.apply(u)
        if any(i < n for i in coords):
            raise PreconditionError("subspace is not contained in the vertical space")
        rows.append({i - n: x for i, x in coords.items()})
    return Subspace.from_vectors(flag.total_dim - n, rows)


# ``exterior.AlternatingForm`` and its arithmetic as they were on ``Fraction`` coefficient
# dicts, before a form was its integer view: the oracles of tests/test_form_view_oracle.py


@dataclass(frozen=True, eq=False)
class FractionForm:
    """The previous ``AlternatingForm``: a ``Fraction`` dict, zero coefficients never stored,
    with equality on the dict."""

    dim: int
    degree: int
    coeffs: dict

    def __post_init__(self):
        if self.degree < 0 or self.dim < 0:
            raise ValueError("negative dimension or degree")
        if self.degree > self.dim and self.coeffs:
            raise ValueError("degree exceeds dimension for a nonzero form")

    def __eq__(self, other) -> bool:
        return (isinstance(other, FractionForm) and self.dim == other.dim
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def terms(self):
        return [(indices_of(m), c) for m, c in sorted(self.coeffs.items())]

    def __repr__(self):
        if not self.coeffs:
            return f"AlternatingForm(dim={self.dim}, degree={self.degree}, 0)"
        body = " + ".join(f"({c})e^{list(i)}" for i, c in self.terms())
        return f"AlternatingForm(dim={self.dim}, {body})"


def form_oracle(dim: int, degree: int, terms: dict) -> FractionForm:
    coeffs: dict = {}
    for idx, c in terms.items():
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
    return FractionForm(dim, degree, coeffs)


def add_oracle(a: FractionForm, b: FractionForm) -> FractionForm:
    if (a.dim, a.degree) != (b.dim, b.degree):
        raise DimensionMismatch("cannot add forms of different shape")
    out = dict(a.coeffs)
    for m, c in b.coeffs.items():
        nv = out.get(m, ZERO) + c
        if nv:
            out[m] = nv
        else:
            out.pop(m, None)
    return FractionForm(a.dim, a.degree, out)


def scale_oracle(a: FractionForm, c) -> FractionForm:
    c = frac(c)
    if not c:
        return FractionForm(a.dim, a.degree, {})
    return FractionForm(a.dim, a.degree, {m: c * x for m, x in a.coeffs.items()})


def sub_oracle(a: FractionForm, b: FractionForm) -> FractionForm:
    return add_oracle(a, scale_oracle(b, -1))


def project_oracle(components: list, t_star) -> FractionForm:
    ts = vec(t_star)
    if len(ts) != len(components):
        raise DimensionMismatch("covector length does not match value dimension")
    out = FractionForm(components[0].dim, components[0].degree, {})
    for t, comp in zip(ts, components):
        if t:
            out = add_oracle(out, scale_oracle(comp, t))
    return out


def _dict_wedge_oracle(a: dict, b: dict) -> dict:
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


def wedge_form_oracle(a: FractionForm, b: FractionForm) -> FractionForm:
    if a.dim != b.dim:
        raise DimensionMismatch("wedge operands live on different spaces")
    return FractionForm(a.dim, a.degree + b.degree, _dict_wedge_oracle(a.coeffs, b.coeffs))


def contract_form_oracle(v: dict, a: FractionForm) -> FractionForm:
    """i_v a for a sparse v, walking the terms of a in ``Fraction`` arithmetic."""
    if a.degree == 0:
        raise PreconditionError("cannot contract a degree-0 form")
    out: dict = {}
    for m, c in a.coeffs.items():
        for bit in range(m.bit_length()):
            comp = v.get(bit)
            if not m >> bit & 1 or not comp:
                continue
            key = m ^ 1 << bit
            nv = out.get(key, 0) + removal_sign(m, bit) * comp * c
            if nv:
                out[key] = nv
            else:
                del out[key]
    return FractionForm(a.dim, a.degree - 1, out)


def _row_forms_oracle(m) -> list[dict]:
    rows: list[dict] = [{} for _ in range(m.rows)]
    for j, col in enumerate(m.columns):
        for i, x in col.items():
            rows[i][1 << j] = int(x) if x.denominator == 1 else x
    return rows


def pullback_scalar_oracle(a: FractionForm, rows: list, new_dim: int, memo: dict) -> FractionForm:
    nums, den = integer_coeffs_oracle(a.coeffs)
    out: dict = {}
    for m, c in nums.items():
        idx = indices_of(m)
        w = memo.get(idx)
        if w is None:
            t = len(idx)
            while t > 0 and idx[:t] not in memo:
                t -= 1
            w = memo[idx[:t]] if t else {0: 1}
            for pos in range(t, len(idx)):
                w = _dict_wedge_oracle(w, rows[idx[pos] - 1])
                memo[idx[: pos + 1]] = w
        for mm, x in w.items():
            nv = out.get(mm, 0) + c * x
            if nv:
                out[mm] = nv
            else:
                del out[mm]
    return FractionForm(new_dim, a.degree, {m: Fraction(x, den) for m, x in out.items()})


def pullback_oracle(a: FractionForm, m) -> FractionForm:
    if m.rows != a.dim:
        raise DimensionMismatch("matrix row count does not match form dimension")
    return pullback_scalar_oracle(a, _row_forms_oracle(m), m.cols, {(): {0: 1}})


def restrict_to_leading_oracle(a: FractionForm, new_dim: int) -> FractionForm:
    limit = 1 << new_dim
    for m in a.coeffs:
        if m >= limit:
            raise PreconditionError("form touches a discarded coordinate")
    return FractionForm(new_dim, a.degree, dict(a.coeffs))


def embed_in_oracle(a: FractionForm, new_dim: int) -> FractionForm:
    if new_dim < a.dim:
        raise DimensionMismatch("embedding must not shrink the space")
    return FractionForm(new_dim, a.degree, dict(a.coeffs))


# ``io._parse_poly_form`` as it was before it parsed straight into the integer view: a
# ``Fraction`` per distinct coefficient string, a ``Polynomial`` per term, then the
# ``PolyForm`` constructor; the oracle of the parser tests in tests/test_polyform_oracle.py


def _poly_rat_oracle(s, seen: dict) -> Fraction:
    if type(s) is not str:
        return io._rat(s)
    c = seen.get(s)
    if c is None:
        if io._PLAIN_RAT.fullmatch(s):
            num, _, den = s.partition("/")
            try:
                c = Fraction(int(num), int(den)) if den else Fraction(int(num))
            except (ValueError, ZeroDivisionError):
                c = io._rat(s)
        else:
            c = io._rat(s)
        seen[s] = c
    return c


def parse_poly_form_oracle(doc: dict) -> PolyForm:
    dim = io._int(io._need(doc, "dim"), "dim")
    degree = io._int(io._need(doc, "degree"), "degree")
    split = io._ints(io._need(doc, "split"), "split")
    if len(split) != 2:
        raise DocumentError("split must be a pair")
    if min(split) < 0:
        raise DocumentError(f"split entries must be nonnegative: {split}")
    coeffs: dict = {}
    seen: dict = {}
    for term in io._need(doc, "terms", list):
        idx = io._ints(io._need(term, "indices", owner="term"), "indices", dim)
        if list(idx) != sorted(set(idx)):
            raise DocumentError(f"indices must be strictly increasing: {idx}")
        if len(idx) != degree:
            raise DocumentError(f"multi-index {idx} does not match degree {degree}")
        terms = {}
        for mono in io._need(term, "polynomial", list, "term"):
            exps = io._ints(io._need(mono, "exponents", owner="monomial"), "exponents")
            if len(exps) != dim:
                raise DocumentError("exponent tuple does not match dimension")
            if exps and min(exps) < 0:
                raise DocumentError(f"exponents must be nonnegative: {exps}")
            c = _poly_rat_oracle(io._need(mono, "coefficient", owner="monomial"), seen)
            terms[exps] = terms[exps] + c if exps in terms else c
        p = Polynomial(dim, {e: c for e, c in terms.items() if c})
        mask = 0
        for i in idx:
            mask |= 1 << (i - 1)
        if not p.is_zero():
            cur = coeffs.get(mask)
            coeffs[mask] = p if cur is None else cur + p
    return PolyForm(dim, degree, split, {m: p for m, p in coeffs.items() if not p.is_zero()})


# ``polyforms.exterior_d`` and ``polyforms._primitive`` as they were before each built its
# exponent tuples from one list per term and added into its slots inline: a lowered or
# raised tuple from three slices and a ``_add_into`` call per hit.  The oracles of the
# differential tests in tests/test_polyform_oracle.py


def exterior_d_oracle(a: PolyForm) -> PolyForm:
    nums, scale = a._numerators
    out: dict = {}
    for m, p in nums.items():
        buckets: dict = {v: [] for v in range(a.dim) if not m >> v & 1}
        for e, n in p.items():
            for v, hits in buckets.items():
                if e[v]:
                    hits.append((e, n))
        for v, hits in buckets.items():
            if not hits:
                continue
            neg = removal_sign(m, v) < 0
            key = m | 1 << v
            for e, n in hits:
                n *= e[v]
                polyforms._add_into(out, key, e[:v] + (e[v] - 1,) + e[v + 1:], -n if neg else n)
            if not out[key]:
                del out[key]
    return polyforms._pf_seeded(a.dim, a.degree + 1, a.split, out, scale)


def primitive_oracle(omega: PolyForm, r: int) -> PolyForm:
    k = omega.degree
    x_dim = omega.x_dim
    nums, scale = omega._numerators
    powers = set()
    for m, p in nums.items():
        s_l = omega.y_count(m)
        for exps in p:
            y_deg = sum(exps[x_dim:])
            if s_l:
                power = y_deg + s_l - 1
                if power < 0:
                    raise InternalCheckError("negative scale power in the fiber part")
                powers.add(power)
            elif y_deg == 0:
                power = sum(exps) + k - 1
                if power < 0:
                    raise InternalCheckError("negative scale power in the base part")
                powers.add(power)
    weights = lcm(*(power + 1 for power in powers))
    acc: dict = {}
    for m, p in nums.items():
        s_l = omega.y_count(m)
        mm = m >> x_dim << x_dim if s_l else m
        bits = []
        while mm:
            low = mm & -mm
            mm ^= low
            j = low.bit_length() - 1
            bits.append((j, m ^ low, removal_sign(m, j) < 0))
        for exps, n in p.items():
            y_deg = sum(exps[x_dim:])
            if s_l:
                w = n * (weights // (y_deg + s_l))
            elif y_deg == 0:
                w = n * (weights // (sum(exps) + k))
            else:
                continue
            for j, key, neg in bits:
                polyforms._add_into(acc, key, exps[:j] + (exps[j] + 1,) + exps[j + 1:],
                                    -w if neg else w)
    theta = polyforms._pf_seeded(omega.dim, k - 1, omega.split,
                                 {m: slot for m, slot in acc.items() if slot}, scale * weights)
    if polyforms.max_vertical_factors(theta) > max(r - 1, 0):
        raise InternalCheckError("primitive exceeds the expected vertical bound")
    return theta


# ``io._parse_alternating``, ``io._parse_flag``'s splitting and ``io.subspace_to_rows`` as
# they were before documents were read into integer views and rows written from echelons:
# ``_rat`` per term, ``Fraction`` bucket sums, then ``form``; ``_rat`` per dense splitting
# entry, then ``Matrix.from_cols``; a ``Fraction`` per written entry.  The oracles of
# tests/test_document_oracle.py


def parse_alternating_oracle(doc: dict, kind: str):
    dim = io._int(io._need(doc, "dim"), "dim")
    degree = io._int(io._need(doc, "degree"), "degree")
    value_dim = io._int(doc.get("value_dim", 1), "value_dim")
    if kind == "scalar_form" and value_dim != 1:
        raise DocumentError("scalar_form must have value_dim 1")
    buckets: list[dict] = [dict() for _ in range(value_dim)]
    for term in io._need(doc, "terms", list):
        idx = io._ints(io._need(term, "indices", owner="term"), "indices")
        if list(idx) != sorted(set(idx)):
            raise DocumentError(f"indices must be strictly increasing: {idx}")
        if len(idx) != degree:
            raise DocumentError(f"multi-index {idx} does not match degree {degree}")
        comp = io._int(term.get("component", 1), "component")
        if not 1 <= comp <= value_dim:
            raise DocumentError(f"component {comp} out of range")
        c = io._rat(io._need(term, "coefficient", owner="term"))
        buckets[comp - 1][idx] = buckets[comp - 1].get(idx, Fraction(0)) + c
    comps = [form(dim, degree, b) for b in buckets]
    if kind == "scalar_form":
        return comps[0]
    return VectorValuedForm(tuple(comps))


def parse_flag_oracle(flag_doc: dict, doc: dict) -> Flag:
    dim = io._int(io._need(doc, "dim"), "dim")
    vertical = io._ints(io._need(flag_doc, "vertical_indices", owner="flag"), "vertical_indices")
    flag = coordinate_flag(dim, vertical)
    if "splitting" in flag_doc and flag_doc["splitting"] is not None:
        cols = [[io._rat(x) for x in col] for col in flag_doc["splitting"]]
        flag = with_splitting(flag, Matrix.from_cols(cols))
    return flag


def subspace_to_rows_oracle(sub: Subspace) -> list[list[str]]:
    return io.matrix_columns(Matrix(sub.ambient_dim, tuple(sub.unit_rows())))


# ``moser.intermediate_residual``, which only tests called: the partial flow's residual


def intermediate_residual(omega: PolyForm, omega0: PolyForm, sample_points,
                          steps: int, t_end: float,
                          *, solve_tol: float = DEFAULT_SOLVE_TOL) -> float:
    """Max coefficient residual of the partial flow: (F_s)* omega_s vs omega0, s = t_end.

    F_s is the flow from 0 to 1 of the rescaled field (x, t) -> s X(x, s t), whose Jacobian
    is s dX(x, s t).  The interpolated form omega0 + s delta is constant along the flow up
    to discretization, so this residual shrinks at the integrator's order as steps grow.
    """
    field = DeformationField(omega, omega0, moser_potential(omega, omega0), solve_tol)

    def rescaled(points, t):
        x, dx = field.batch(points, t_end * t)
        return t_end * x, t_end * dx

    states = integrate_flow_batch(rescaled, np.array(sample_points, dtype=float), steps)
    omega_s = pf_add(omega0, pf_scale(pf_sub(omega, omega0), Fraction(t_end)))
    return float(max(_pullback_residuals(omega_s, omega0.coeffs_float([0.0] * omega.dim),
                                         np.array([s.point for s in states]),
                                         np.array([s.jacobian for s in states]))))


# the per-sample check that ``moser._pullback_residuals`` batches: the oracle of
# tests/test_moser_oracle.py


def pullback_constant_float(coeffs: dict, jac: np.ndarray, degree: int, dim: int) -> dict:
    """Coefficients of the pullback of a constant float form by a matrix.

    All minors come from one stacked determinant; each target coefficient
    sums its terms in the order of ``coeffs``.
    """
    if not coeffs:
        return {}
    targets = list(itertools.combinations(range(dim), degree))
    rows = np.array([[b for b in range(dim) if m & (1 << b)] for m in coeffs], dtype=int)
    cols = np.array(targets, dtype=int)
    minors = jac[rows[None, :, :, None], cols[:, None, None, :]]
    dets = np.linalg.det(minors)
    out = {}
    for target, row in zip(targets, dets):
        total = 0.0
        for c, d in zip(coeffs.values(), row):
            total += c * float(d)
        if total:
            out[sum(1 << t for t in target)] = total
    return out


def pullback_residuals_oracle(form: PolyForm, base: dict, points, jacobians) -> list:
    """Per sample: the form's coefficients by term-by-term evaluation, pulled back by the
    sample's Jacobian and compared with the constant coefficients ``base``."""
    residuals = []
    for point, jac in zip(points, jacobians):
        pulled = pullback_constant_float(form.coeffs_float(point), jac, form.degree, form.dim)
        keys = set(base) | set(pulled)
        residuals.append(max(abs(pulled.get(m, 0.0) - base.get(m, 0.0)) for m in keys))
    return residuals


# ---------------------------------------------------------------------------
# polynomial vector fields and their Frobenius test by polynomial minors: the
# oracle that ``lie.su2_example`` decided involutivity with before it read the
# Lie bracket of its frame


def poly_zero(nvars: int) -> Polynomial:
    return Polynomial(nvars, {})


def su2_invariant_fields(vectors) -> list[list[Polynomial]]:
    """Left-invariant fields on the unit-quaternion chart for given generators.

    The chart is centered at the identity with coordinates (w, x, y, z);
    right multiplication by a generator is affine in the chart, so the
    fields are polynomial and have constant rank near the origin.
    """
    # q * i, q * j, q * k with q = (1+w) + x i + y j + z k
    w, x, y, z = (poly_var(4, i) for i in range(1, 5))
    one_plus_w = poly_const(4, 1) + w
    base = [
        [-x, one_plus_w, z, -y],
        [-y, -z, one_plus_w, x],
        [-z, y, -x, one_plus_w],
    ]
    out = []
    for v in vectors:
        comp = [poly_const(4, 0) for _ in range(4)]
        for a, coeff in enumerate(v):
            if coeff:
                comp = [c + base[a][i] * frac(coeff) for i, c in enumerate(comp)]
        out.append(comp)
    return out


def lie_bracket(x_field, y_field) -> list[Polynomial]:
    """[X, Y] componentwise for polynomial vector fields."""
    dim = len(x_field)
    out = []
    for c in range(dim):
        acc = poly_zero(dim)
        for a in range(dim):
            acc = acc + x_field[a] * y_field[c].diff(a + 1)
            acc = acc - y_field[a] * x_field[c].diff(a + 1)
        out.append(acc)
    return out


def _poly_det(rows: list[list[Polynomial]]) -> Polynomial:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    dim = rows[0][0].nvars
    acc = poly_zero(dim)
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [[row[jj] for jj in range(n) if jj != j] for row in rows[1:]]
        sub = _poly_det(minor)
        if sub.is_zero():
            continue
        term = entry * sub
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def poly_matrix_rank(rows: list[list[Polynomial]]) -> int:
    """Rank over the rational function field, by minor enumeration."""
    if not rows or not rows[0]:
        return 0
    nr, nc = len(rows), len(rows[0])
    for size in range(min(nr, nc), 0, -1):
        for ri in itertools.combinations(range(nr), size):
            for ci in itertools.combinations(range(nc), size):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if not _poly_det(sub).is_zero():
                    return size
    return 0


@dataclass
class InvolutivityReport:
    involutive: bool
    distribution_rank: int
    method: str
    diagnostics: list[str]


def _default_region_points(dim: int, count: int = 8, seed: int = 20070) -> list[list[Fraction]]:
    rng = random.Random(seed)
    pts = [[ZERO] * dim]
    for _ in range(count):
        pts.append([Fraction(rng.randint(-3, 3), rng.randint(2, 5)) for _ in range(dim)])
    return pts


def involutive_report(fields, region_points: list | None = None) -> InvolutivityReport:
    """Frobenius test for the span of polynomial vector fields.

    The distribution must have constant pointwise rank on the test region
    (origin plus sampled points); a drop is reported as an error.  Bracket
    membership is decided symbolically: with constant rank, equality of
    the generic ranks of [fields] and [fields | bracket] forces pointwise
    membership everywhere.
    """
    fields = [list(f) for f in fields]
    if not fields:
        raise PreconditionError("no fields given")
    dim = len(fields[0])
    if any(len(f) != dim for f in fields):
        raise DimensionMismatch("fields have inconsistent dimensions")
    matrix_rows = [[fields[j][i] for j in range(len(fields))] for i in range(dim)]
    sym_rank = poly_matrix_rank(matrix_rows)
    points = region_points if region_points is not None else _default_region_points(dim)
    for p in points:
        m = Matrix.from_cols([[f[i].eval(p) for i in range(dim)] for f in fields])
        if rank(m) != sym_rank:
            raise PreconditionError(
                f"rank drop detected at {p}: pointwise rank {rank(m)} != generic rank {sym_rank}")
    diagnostics = [f"distribution rank {sym_rank}, symbolic minor test"]
    for a, b in itertools.combinations(range(len(fields)), 2):
        br = lie_bracket(fields[a], fields[b])
        aug_rows = [row + [br[i]] for i, row in enumerate(matrix_rows)]
        if poly_matrix_rank(aug_rows) > sym_rank:
            diagnostics.append(f"bracket of fields {a + 1},{b + 1} leaves the span")
            return InvolutivityReport(False, sym_rank, "symbolic", diagnostics)
    return InvolutivityReport(True, sym_rank, "symbolic", diagnostics)


def involutive(fields, region_points: list | None = None) -> bool:
    return involutive_report(fields, region_points).involutive


# ---------------------------------------------------------------------------
# the dense row-major matrix that the sparse-column ``Matrix`` replaced, with
# the elimination entry points as they read it: the oracle of
# tests/test_matrix_oracle.py


@dataclass(frozen=True, eq=True)
class DenseMatrix:
    """Dense rational matrix, row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @staticmethod
    def from_rows(rows) -> DenseMatrix:
        rows = [vec(r) for r in rows]
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return DenseMatrix(len(rows), n, tuple(x for r in rows for x in r))

    @staticmethod
    def from_cols(cols) -> DenseMatrix:
        return DenseMatrix.from_rows(cols).transpose() if cols else DenseMatrix(0, 0, ())

    @staticmethod
    def zero(rows: int, cols: int) -> DenseMatrix:
        return DenseMatrix(rows, cols, (ZERO,) * (rows * cols))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> DenseMatrix:
        return DenseMatrix(self.cols, self.rows,
                           tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)))

    def mul_vec(self, v) -> tuple:
        x = _sparse_vector(v, self.cols)
        e, n = self.entries, self.cols
        return tuple(sum((e[i * n + j] * c for j, c in x.items() if e[i * n + j]), ZERO)
                     for i in range(self.rows))

def dense_rank(m: DenseMatrix) -> int:
    return _echelon(m.row_list()).rank


def dense_kernel(m: DenseMatrix) -> Subspace:
    return kernel_subspace(m.row_list(), m.cols)


def dense_inverse(m: DenseMatrix) -> DenseMatrix:
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
    return DenseMatrix(n, n, tuple(out))
