"""Classification engine for vector-valued and partially horizontal forms.

The central test is subspace equality of contraction images inside the
monomial coordinates of the relevant form space: a candidate subspace is
polylagrangian when contracting it fills every form that annihilates it,
and multilagrangian when the same holds inside the partially horizontal
forms of a flag.  Everything is exact; sampling only appears in the
constant-rank refuter, which is honest about being a sampler.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import DimensionMismatch, InternalCheckError, PreconditionError
from .exterior import (AlternatingForm, Flag, VectorValuedForm, _seeded, contract, evaluate,
                       indices_of, project, pullback, wedge_all, wedge_power_by_exponent)
from .linalg import (Matrix, Subspace, ZERO, ONE, annihilator, kernel_basis, kernel_subspace,
                     subspace_sum, complement)
from .sparse import SparseEchelon, _axpy, _scaled, span_equal, span_of

DEFAULT_SEED = 20070

# ---------------------------------------------------------------------------
# small adapters


def as_vector_form(x) -> VectorValuedForm:
    return x if isinstance(x, VectorValuedForm) else VectorValuedForm((x,))


def _stacked(x) -> dict:
    """Sparse coefficient vector of a (vector-valued) form, keyed (a, mask), at its true values."""
    v = as_vector_form(x)
    out = {}
    for a, compf in enumerate(v.components):
        for m, c in compf.coeffs.items():
            out[(a, m)] = c
    return out


def flat_image_vectors(omega, vectors) -> list[dict]:
    """Images i_v omega in stacked coordinates, for spans only: each on integers at one
    scale, the lcm of its component denominators (a scale per component changes the span)."""
    out = []
    for v in vectors:
        views = [c._numerators for c in contract(v, as_vector_form(omega)).components]
        scale = lcm(*(den for _, den in views))
        out.append({(a, m): n * (scale // den)
                    for a, (nums, den) in enumerate(views) for m, n in nums.items()})
    return out


def _annihilator_wedges(sub: Subspace, k: int) -> list[AlternatingForm]:
    """Basis of the k-th exterior power of the annihilator of ``sub``."""
    ann = annihilator(sub)
    dim = sub.ambient_dim
    rows = [AlternatingForm(dim, 1, {1 << j: x for j, x in r.items()}) for r in ann.rows()]
    if k == 0:
        return [AlternatingForm(dim, 0, {0: ONE})]
    out = []
    for combo in itertools.combinations(rows, k):
        w = wedge_all(combo)
        if not w.is_zero():
            out.append(w)
    return out


def _lperp_tensor_basis(sub: Subspace, k: int, value_dim: int) -> list[dict]:
    """Basis of (Lambda^k L-perp) tensor the value space, stacked, for spans only: each
    wedge as its integer view, a positive multiple of it."""
    wedges = _annihilator_wedges(sub, k)
    out = []
    for a in range(value_dim):
        for w in wedges:
            out.append({(a, m): n for m, n in w._numerators[0].items()})
    return out


# ---------------------------------------------------------------------------
# kernels and orthogonal complements


def _kernel_constraints(x) -> list[dict]:
    """Sparse integer constraint rows {column: n} whose kernel is {v : i_v x = 0}.

    Row (a, mask) holds the coefficients of e^mask in i_v x^a on the integer
    view of x^a, a multiple of the true row.  Each entry comes from the
    single monomial mask | bit, so it is set, never summed.
    """
    rows: dict = {}
    for a, compf in enumerate(as_vector_form(x).components):
        for m, c in compf._numerators[0].items():
            mm = m
            while mm:
                low = mm & -mm
                mm ^= low
                below = (m & (low - 1)).bit_count()
                rows.setdefault((a, m ^ low), {})[low.bit_length() - 1] = -c if below & 1 else c
    return list(rows.values())


def kernel_of_form(x) -> Subspace:
    """{v : i_v omega = 0}; the intersection of the component kernels."""
    v = as_vector_form(x)
    if v.degree == 0:
        return Subspace.full(v.dim)
    return kernel_subspace(_kernel_constraints(v), v.dim)


def _dot(r: dict, u: dict):
    if len(u) < len(r):
        r, u = u, r
    return sum(x * u[k] for k, x in r.items() if k in u)


def is_isotropic(sub: Subspace, omega, level: int = 1) -> bool:
    """Does omega vanish after ``level`` contractions with the subspace and one more?

    Tested without building the level-l complement: every constraint row
    of each l-fold contraction of its rows must dot to zero with every row
    after the last one contracted (on the others the form alternates to 0).
    """
    v = as_vector_form(omega)
    if sub.ambient_dim != v.dim:
        raise DimensionMismatch("subspace does not live on the form's space")
    if not 1 <= level <= v.degree - 1:
        raise PreconditionError(f"contraction level must lie in 1..{v.degree - 1}")
    rows = sub.rows()
    for combo in itertools.combinations(range(len(rows)), level):
        partial = v
        for i in combo:
            partial = contract(rows[i], partial)
        if any(_dot(r, u) for r in _kernel_constraints(partial) for u in rows[combo[-1] + 1:]):
            return False
    return True


# ---------------------------------------------------------------------------
# polylagrangian tests


def check_polylagrangian(sub: Subspace, omega, ker: Subspace | None = None) -> bool:
    """Does contracting the subspace fill every annihilating form value?

    When the equality holds, the dimension identity
    dim L = dim ker + value_dim * C(codim L, degree-1) is also asserted
    as an internal consistency check.  A caller that holds the form's
    kernel passes it as ``ker``.
    """
    v = as_vector_form(omega)
    if sub.ambient_dim != v.dim:
        raise DimensionMismatch("subspace does not live on the form's space")
    k = v.degree - 1
    lhs = flat_image_vectors(v, sub.rows())
    rhs = _lperp_tensor_basis(sub, k, v.value_dim)
    if not span_equal(lhs, rhs):
        return False
    if not v.is_zero():
        # the counting identity is implied for non-vanishing forms
        ker = ker if ker is not None else kernel_of_form(v)
        n_codim = v.dim - sub.dim
        expected = ker.dim + v.value_dim * comb(n_codim, k)
        if sub.dim != expected:
            raise InternalCheckError(
                f"contraction-image equality holds but dim L = {sub.dim} != {expected}")
    return True


def dimension_criterion_poly(sub: Subspace, omega, ker: Subspace | None = None) -> bool:
    """Kernel containment + isotropy + the counting identity.

    Equivalent to the contraction-image equality; the equivalence itself
    is exercised by the test suite on true, conjugated and corrupted
    instances.  ``ker``, when given, is the form's kernel.
    """
    v = as_vector_form(omega)
    k = v.degree - 1
    n_codim = v.dim - sub.dim
    if n_codim < k:
        raise PreconditionError(
            f"codimension {n_codim} is below the degree bound {k}; the criterion does not apply")
    ker = ker if ker is not None else kernel_of_form(v)
    if not sub.contains_subspace(ker):
        return False
    if not is_isotropic(sub, v, 1):
        return False
    return sub.dim == ker.dim + v.value_dim * comb(n_codim, k)


@dataclass
class PolylagrangianSearch:
    subspace: Subspace | None
    status: str  # "found" | "absent" | "not_found"
    rank: int | None
    diagnostics: list[str] = field(default_factory=list)
    component_complement_dims: list[int] = field(default_factory=list)
    uniform_rank: int | None = None  # 2-forms with two or more components only


def _covector_grid(nhat: int) -> list[list[Fraction]]:
    """Standard basis covectors of the value space, then their pairwise sums."""
    supports = [(a,) for a in range(nhat)] + list(itertools.combinations(range(nhat), 2))
    return [[ONE if a in sup else ZERO for a in range(nhat)] for sup in supports]


def _sampled_kernel_span(v: VectorValuedForm) -> Subspace:
    """Span of kernels of projections over basis covectors and pairwise sums."""
    total = Subspace.zero(v.dim)
    for t in _covector_grid(v.value_dim):
        p = project(v, t)
        if p.is_zero():
            continue
        total = subspace_sum(total, kernel_of_form(p))
    return total


def _require_degree_two(degree: int) -> None:
    if degree < 2:
        raise PreconditionError(
            f"the form has degree {degree}; poly- and multisymplectic structures "
            "need degree at least 2")


def search_polylagrangian(omega, *, ker: Subspace | None = None) -> PolylagrangianSearch:
    """Locate the distinguished maximal isotropic subspace, if one exists.

    For two or more value components the subspace is pinned down by the
    kernels of the component projections, so failure of that candidate
    proves absence.  For a single component no construction is available;
    a seeded greedy search is used and a miss is reported as "not found".
    A caller that already holds the form's kernel passes it as ``ker``.

    A 2-form with two or more components also gets its ``uniform_rank``:
    N = codim L when L is found, with no wedge power built, and otherwise
    the wedge-power ``uniform_rank``, which the size diagnostic needs
    anyway.  "found" means ``check_polylagrangian(L)`` holds: the
    contraction image of L is L0 (x) R^nhat, L0 the annihilator of L, of
    dimension N.  That makes N the uniform rank:

    * vanishing: the image lies in L0 (x) R^nhat, so L is isotropic for
      every omega^a; each omega^a then lies in the ideal generated by L0,
      and every (N+1)-fold product of components vanishes;
    * independence: take e_1..e_N spanning a complement of L and the dual
      covectors lambda_i in L0.  The image contains every lambda_i (x) u_a,
      so some f^a_i in L has omega^b(f^a_i, .) = delta_ab lambda_i.  On
      (e_1..e_N, f^a(1)_1..f^a(N)_N) the f-f pairings vanish, so each f
      pairs with an e and only the identity matching survives: omega^alpha
      evaluates to a nonzero number exactly when the multiset {a(i)} is
      alpha.  The evaluation matrix of the N-powers is diagonal with a
      nonzero diagonal, so they are independent.
    """
    v = as_vector_form(omega)
    _require_degree_two(v.degree)
    if v.is_zero():
        raise PreconditionError("the zero form admits no distinguished subspace")
    k = v.degree - 1
    diagnostics: list[str] = []
    ker = ker if ker is not None else kernel_of_form(v)

    if v.value_dim >= 2:
        comp_dims = []
        candidate = ker
        for a in range(v.value_dim):
            rows: list[dict] = []
            for b, compf in enumerate(v.components):
                if b != a:
                    rows.extend(_kernel_constraints(compf))
            inter = kernel_subspace(rows, v.dim)
            k_a = complement(ker, inside=inter)
            comp_dims.append(k_a.dim)
            candidate = subspace_sum(candidate, k_a)
        if check_polylagrangian(candidate, v, ker):
            n_codim = v.dim - candidate.dim
            return PolylagrangianSearch(candidate, "found", n_codim, diagnostics, comp_dims,
                                        n_codim if v.degree == 2 else None)
        sampled = _sampled_kernel_span(v)
        isotropic = is_isotropic(sampled, v, 1)
        if sampled.dim == v.dim and not isotropic:
            diagnostics.append("sum of kernels = full space, not isotropic")
        else:
            diagnostics.append(f"kernel-sum candidate has dim {sampled.dim} and "
                               f"{'is' if isotropic else 'is not'} isotropic")
        nu = uniform_rank(v) if v.degree == 2 else None
        if nu is not None:
            required = ker.dim + v.value_dim * comb(nu, k)
            dims = sorted({candidate.dim, sampled.dim})
            if all(d < required for d in dims):
                dd = " and ".join(str(d) for d in dims)
                diagnostics.append(
                    f"required polylagrangian dim {required} vs candidates of dim {dd}: "
                    "both too small")
        diagnostics.append("construction candidate fails the contraction-image equality")
        return PolylagrangianSearch(None, "absent", None, diagnostics, comp_dims, nu)

    # single component: greedy from seeded starts, verified exactly
    for cand in scalar_polylagrangian_candidates(v, ker=ker):
        return PolylagrangianSearch(cand, "found", v.dim - cand.dim, diagnostics, [])
    diagnostics.append("not found - possibly nonexistent (single-component search is heuristic)")
    return PolylagrangianSearch(None, "not_found", None, diagnostics, [])


def scalar_polylagrangian_candidates(omega, ker: Subspace | None = None):
    """Greedy maximal isotropic subspaces passing the exact subspace test.

    Seeds are all standard coordinate lines plus, for degree at least 3,
    all isotropic coordinate planes.  Every yielded subspace is verified
    through the contraction-image equality and the counting identity, so
    a yield is always correct; the enumeration may simply be incomplete.
    ``ker``, when given, is the form's kernel.
    """
    v = as_vector_form(omega)
    k = v.degree - 1
    ker = ker if ker is not None else kernel_of_form(v)
    seen = set()
    for seed_sub in _coordinate_seeds(v):
        cand = greedy_maximal_isotropic(v, seed_sub)
        if cand in seen:
            continue
        seen.add(cand)
        n_codim = v.dim - cand.dim
        if n_codim < k:
            continue
        if cand.dim != ker.dim + comb(n_codim, k):
            continue
        if check_polylagrangian(cand, v, ker):
            yield cand


def _coordinate_seeds(v: VectorValuedForm):
    """Coordinate lines, then (for degree at least 3) isotropic coordinate planes.

    Built lazily, so a search that stops early tests no further planes.
    """
    for i in range(1, v.dim + 1):
        yield Subspace.span_of_coordinates(v.dim, [i])
    if v.degree >= 3:
        for i, j in itertools.combinations(range(1, v.dim + 1), 2):
            pair = Subspace.span_of_coordinates(v.dim, [i, j])
            if is_isotropic(pair, v, 1):
                yield pair


def _cut(orth: dict, r: dict):
    """Cut the reduced echelon ``orth``, {pivot: primitive integer row}, by r . x = 0 in place.

    Of the rows with c_i = r . K_i != 0, the one of largest pivot, K_j, is
    dropped and each other becomes c_j K_i - c_i K_j, primitive with a
    positive pivot.  K_j is zero at every other pivot and has no key below
    its own, so the rows keep their pivots and stay reduced: the unique
    reduced echelon of the cut space, as a rebuild would give it.
    """
    r = _scaled(r)[0]
    hit = {p: c for p, row in orth.items() if (c := _dot(r, row))}
    if not hit:
        return
    top = max(hit)
    c_top, row_top = hit.pop(top), orth.pop(top)
    for p, c in hit.items():
        new = {j: c_top * x for j, x in orth[p].items()}
        _axpy(new, c, row_top)
        g = gcd(*new.values()) if new[p] > 0 else -gcd(*new.values())
        orth[p] = new if g == 1 else {j: x // g for j, x in new.items()}


def greedy_maximal_isotropic(omega, seed: Subspace, within: Subspace | None = None) -> Subspace:
    """Grow an isotropic subspace until it equals its level-1 complement.

    Extends by the first basis vector of the current complement, in pivot
    order, that is not already in the span; deterministic given the seed.
    ``within`` restricts the growth (used for vertical-space searches).

    The complement is held as its reduced echelon rows, starting from the
    unit rows or the rows of ``within``, and each constraint row of a
    pick's contraction image cuts it in place (``_cut``); nothing is
    rebuilt.  Scanned rows leave it: each lies in the isotropic span, so
    every later constraint vanishes on it and no cut would touch it.  The
    span of seed and picks, an incremental echelon copied from the seed's,
    takes each pick with one insert and becomes the returned subspace.
    """
    v = as_vector_form(omega)
    if not is_isotropic(seed, v, 1):
        raise PreconditionError("seed subspace is not isotropic")
    base = within if within is not None else Subspace.full(v.dim)
    orth = dict(sorted(base.echelon.rows.items()))
    span = seed.echelon.copy()
    for u in seed.rows():
        for row in _kernel_constraints(contract(u, v)):
            _cut(orth, row)
    while orth:
        row = orth.pop(next(iter(orth)))
        if span.insert(row):
            for r in _kernel_constraints(contract(row, v)):
                _cut(orth, r)
    return Subspace(v.dim, span)


# ---------------------------------------------------------------------------
# horizontal / multilagrangian tests


def _adapted(omega: AlternatingForm, flag: Flag) -> tuple[AlternatingForm, Matrix]:
    """The form in flag-adapted coordinates (quotient first, vertical last),
    with the adapted matrix; pulled back once per (form, flag), on the flag."""
    if omega.dim != flag.total_dim:
        raise DimensionMismatch("form does not live on the flag's total space")
    b = flag.adapted_matrix()
    hit = flag._adapted_forms.get(id(omega))
    if hit is None:
        hit = flag._adapted_forms[id(omega)] = (omega, pullback(omega, b))
    return hit[1], b


def _vertical_count(mask: int, n_t: int) -> int:
    return (mask >> n_t).bit_count()


def _horizontal(omega: AlternatingForm, flag: Flag, r: int) -> AlternatingForm:
    """The form in adapted coordinates, once r lies in 1..degree, the quotient has room
    for the degree - r horizontal slots and no monomial has more than r vertical factors."""
    k1, n = omega.degree, flag.dim_t
    if not 1 <= r <= k1:
        raise PreconditionError("horizontality parameter out of range")
    if k1 - r > n:
        raise PreconditionError("quotient too small for the requested horizontality")
    aomega = _adapted(omega, flag)[0]
    worst = max((_vertical_count(m, n) for m in aomega._numerators[0]), default=0)
    if worst > r:
        raise PreconditionError(
            f"form has a monomial with {worst} vertical factors; not ({k1 - r})-horizontal")
    return aomega


def to_vertical_coordinates(flag: Flag, sub: Subspace) -> Subspace:
    """Express a subspace of the vertical space in vertical coordinates.

    The vertical basis is the reduced echelon of the vertical space, one at
    its own pivot and zero at the others, so coordinate i of a vertical
    vector is its entry at pivot i: nothing is inverted.
    """
    if not flag.vertical.contains_subspace(sub):
        raise PreconditionError("subspace is not contained in the vertical space")
    pivots = flag.vertical.pivot_columns()
    rows = [{i: u[p] for i, p in enumerate(pivots) if p in u} for u in sub.rows()]
    return Subspace.from_vectors(flag.vertical.dim, rows)


def from_vertical_coordinates(flag: Flag, sub: Subspace) -> Subspace:
    return Subspace.from_vectors(flag.total_dim, flag.lift_vertical(sub.rows()))


def _shifted(sub: Subspace, by: int, dim: int) -> Subspace:
    """The subspace with every coordinate moved by ``by``, in dimension ``dim``: a shift of
    all keys keeps the echelon reduced, so nothing is eliminated again."""
    return Subspace(dim, SparseEchelon({p + by: {j + by: x for j, x in row.items()}
                                        for p, row in sub.echelon.rows.items()}))


def symbol(omega: AlternatingForm, flag: Flag, r: int) -> VectorValuedForm:
    """Leading vertical part of a partially horizontal form.

    For a (k+1-r)-horizontal (k+1)-form this is the r-form on the
    vertical space with values in the (k+1-r)-forms on the quotient,
    obtained by filling the remaining slots through a splitting.  The
    result does not depend on which splitting the flag carries.
    """
    aomega = _horizontal(omega, flag, r)
    k1, n = omega.degree, flag.dim_t
    combos = list(itertools.combinations(range(1, n + 1), k1 - r))
    pos = {c: i for i, c in enumerate(combos)}
    comps = [dict() for _ in combos]
    blocksign = -1 if (r * (k1 - r)) & 1 else 1
    tmask_all = (1 << n) - 1
    nums, den = aomega._numerators
    for m, x in nums.items():
        vmask = m >> n
        if vmask.bit_count() != r:
            continue
        comps[pos[indices_of(m & tmask_all)]][vmask] = blocksign * x
    return VectorValuedForm(tuple(_seeded(flag.vertical.dim, r, d, den) for d in comps))


def check_multilagrangian(sub: Subspace, omega: AlternatingForm, flag: Flag, r: int) -> bool:
    """Contraction-image equality inside the partially horizontal forms.

    The candidate must sit in the vertical space; the right-hand side is
    the annihilating k-forms cut down to those with at most r-1 vertical
    factors.
    """
    aomega = _horizontal(omega, flag, r)
    if not flag.vertical.contains_subspace(sub):
        raise PreconditionError("candidate subspace is not vertical")
    return _check_vertical(to_vertical_coordinates(flag, sub), aomega, flag.dim_t, r)


def _check_vertical(sub_v: Subspace, aomega: AlternatingForm, n: int, r: int) -> bool:
    """``check_multilagrangian`` of a candidate in vertical coordinates on the adapted form,
    whose last coordinates, after the n of the quotient, are the vertical ones."""
    sub_a = _shifted(sub_v, n, aomega.dim)
    lhs = flat_image_vectors(aomega, sub_a.rows())
    wedges = _annihilator_wedges(sub_a, aomega.degree - 1)
    # cut the annihilator wedges down to the (k+1-r)-horizontal monomials, each wedge read
    # as its integer view: scaling a wedge scales its column and its stacked row alike
    bad_rows: dict = {}
    for i, w in enumerate(wedges):
        for m, c in w._numerators[0].items():
            if _vertical_count(m, n) >= r:
                bad_rows.setdefault(m, {})[i] = c
    stacked = [{(0, m): c for m, c in w._numerators[0].items()} for w in wedges]
    if not bad_rows:
        return span_equal(lhs, stacked)
    rhs = []
    for sol in kernel_basis(list(bad_rows.values()), len(wedges)):
        acc: dict = {}
        for i, coef in sol.items():
            _axpy(acc, -coef, stacked[i])
        if acc:
            rhs.append(acc)
    return span_equal(lhs, rhs)


def dimension_criterion_multi(sub: Subspace, omega: AlternatingForm, flag: Flag, r: int,
                              ker: Subspace | None = None) -> bool:
    """Kernel containment + isotropy + the horizontal counting identity.

    ``ker``, when given, is the form's kernel.
    """
    k1 = omega.degree
    if not 1 <= r <= k1:
        raise PreconditionError("horizontality parameter out of range")
    k = k1 - 1
    n = flag.dim_t
    if not flag.vertical.contains_subspace(sub):
        raise PreconditionError("candidate subspace is not vertical")
    n_codim = flag.vertical.dim - sub.dim
    if n_codim + n < k:
        raise PreconditionError(
            f"codimension {n_codim} plus quotient {n} is below the degree bound {k}")
    ker = ker if ker is not None else kernel_of_form(omega)
    if not sub.contains_subspace(ker):
        return False
    if not is_isotropic(sub, omega, 1):
        return False
    expected = ker.dim + sum(comb(n_codim, s) * comb(n, k - s) for s in range(r))
    return sub.dim == expected


@dataclass
class SymbolCheck:
    symbol_polylagrangian: bool
    kernel_contained: bool
    kernel_gap: int
    gap_bound_applies: bool
    gap_bound_holds: bool


def symbol_structure_check(omega: AlternatingForm, flag: Flag, r: int, sub: Subspace) -> SymbolCheck:
    """Cross-check that the symbol inherits the structure with the same subspace."""
    if not check_multilagrangian(sub, omega, flag, r):
        raise PreconditionError("the candidate is not multilagrangian for the form")
    sym = symbol(omega, flag, r)
    sub_v = to_vertical_coordinates(flag, sub)
    ker_sym = kernel_of_form(sym)
    ok_poly = check_polylagrangian(sub_v, sym, ker_sym)
    ker_w_v = to_vertical_coordinates(flag, kernel_of_form(omega))
    contained = ker_sym.contains_subspace(ker_w_v)
    gap = ker_sym.dim - ker_w_v.dim
    presymplectic_case = (omega.degree - 1 == flag.dim_t and r == 2)
    return SymbolCheck(ok_poly, contained, gap, presymplectic_case,
                       (gap <= 1) if presymplectic_case else True)


# ---------------------------------------------------------------------------
# ranks


# Resource budgets: work beyond them is refused before it starts, or as
# soon as it is exceeded, instead of running for hours or exhausting memory.
MAX_RANK_SAMPLES = 10_000  # random covectors ranked by one sampled check, or moser's points
MAX_WEDGE_TERMS = 500_000  # terms held in the wedge-power memo of uniform_rank (nhat >= 2)


def check_sample_budget(samples: int) -> None:
    """Refuse more than ``MAX_RANK_SAMPLES`` sampled covectors, or ``moser`` points."""
    if samples > MAX_RANK_SAMPLES:
        raise PreconditionError(f"{samples} samples exceed the budget of "
                                f"{MAX_RANK_SAMPLES} (MAX_RANK_SAMPLES)")


def _check_sample_count(samples: int) -> None:
    if samples <= 0:
        raise PreconditionError("sample count must be positive")


def _integer_entries(forms) -> list[list[tuple[int, int, int]]]:
    """Entries (i, j, x), i < j 0-based, of each 2-form's coefficient matrix.

    All forms are scaled to integers by one lcm of their coefficient
    denominators, so integer combinations of the lists keep the ranks of
    the matching rational combinations of the forms.
    """
    views = [f._numerators for f in forms]
    scale = lcm(*(den for _, den in views))
    return [[((m & -m).bit_length() - 1, m.bit_length() - 1, n * (scale // den))
             for m, n in nums.items()] for nums, den in views]


def _half_rank(entries) -> int:
    """Half the rank of the antisymmetric integer matrix summing the entries.

    Each index that occurs gets a sparse integer row, inserted straight
    into one echelon.
    """
    rows: dict = {}
    for i, j, x in entries:
        ri = rows.setdefault(i, {})
        rj = rows.setdefault(j, {})
        ri[j] = ri.get(j, 0) - x
        rj[i] = rj.get(i, 0) + x
    support = span_of(rows.values()).rank
    if support & 1:
        raise InternalCheckError("odd support dimension for an alternating 2-form")
    return support // 2


def rank_2form(omega: AlternatingForm) -> int:
    """Half the dimension of the support of an alternating 2-form.

    The support dimension is the rank of the antisymmetric coefficient
    matrix, the kernel constraint rows, read off the echelon; no kernel
    basis is built.  The rows are built as integers, scaled by the
    lcm of the coefficient denominators, over the indices that occur.
    """
    if omega.degree != 2:
        raise PreconditionError("rank is defined here for 2-forms")
    return _half_rank(_integer_entries([omega])[0])


def uniform_rank(omega: VectorValuedForm) -> int | None:
    """The N with {omega^alpha : |alpha|=N} independent and all (N+1)-powers zero.

    When it exists, every projection omega_t, t != 0, has half-rank
    exactly N: the vanishing (N+1)-powers bound the rank of
    omega_t by 2N, and (omega_t)^N = sum N!/alpha! t^alpha omega^alpha is
    nonzero because the omega^alpha are independent.

    One value component: omega^N is nonzero exactly up to its half-rank,
    so N is half the rank of the component, one elimination (None for
    the zero form).  Two or more: walks the levels upward through one
    memo of wedge powers, leaving a level at its first nonzero power.
    Once every (N+1)-power vanishes so does every higher power, so the
    first all-zero level N+1 is the only place an answer can sit: N
    qualifies when its powers are nonzero and independent, and otherwise
    there is none.  The memo may hold at most ``MAX_WEDGE_TERMS`` terms;
    a form whose powers need more is refused with a ``PreconditionError``.
    """
    v = as_vector_form(omega)
    if v.degree != 2:
        raise PreconditionError("uniform rank is defined for 2-forms")
    nhat = v.value_dim
    if nhat == 1:
        comp = v.components[0]
        return None if comp.is_zero() else rank_2form(comp)
    memo: dict = {}
    terms = 0

    def nonzero_power(alpha) -> bool:
        nonlocal terms
        stored = len(memo)
        w = wedge_power_by_exponent(v, alpha, memo)
        terms += sum(len(p._numerators[0]) for p in itertools.islice(memo.values(), stored, None))
        if terms > MAX_WEDGE_TERMS:
            raise PreconditionError(
                f"wedge powers of this form exceed the budget of {MAX_WEDGE_TERMS} "
                "stored terms (MAX_WEDGE_TERMS)")
        return not w.is_zero()

    level = 2
    while any(nonzero_power(alpha) for alpha in _exponents(nhat, level)):
        level += 1
    # each N-power is the lower factor of an (N+1)-power, so all are memoized
    powers = [memo[alpha] for alpha in _exponents(nhat, level - 1)]
    if any(w.is_zero() for w in powers):
        return None
    # a power's view is a positive multiple of its coefficients, so the span is the same
    return level - 1 if span_of(w._numerators[0] for w in powers).rank == len(powers) else None


def _exponents(nvars: int, total: int):
    if nvars == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _exponents(nvars - 1, total - head):
            yield (head,) + rest


def random_covector(rng: random.Random, nhat: int) -> list[Fraction]:
    while True:
        t = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(nhat)]
        if any(t):
            return t


def constant_rank_sampled(omega: VectorValuedForm, sample_count: int,
                          seed: int = DEFAULT_SEED) -> int | None:
    """Common rank of sampled projections, or None on disagreement.

    A sound refuter and a sampled verifier: all standard basis covectors
    plus ``sample_count`` seeded random nonzero covectors are ranked one
    at a time, and the first rank that disagrees ends the run.  A unit
    covector ranks its component with ``rank_2form``.  The random ones
    use the integer pencil: the components are scaled to integers once,
    by one lcm, and each covector, cleared of its denominators, ranks its
    integer combination of them with ``_half_rank``.

    When ``uniform_rank`` returns N, every covector has half-rank N, so
    this returns N for every seed and count; ``classify_vector_form``
    then reports N without sampling.  Sampling is needed only where
    there is no uniform rank.
    """
    v = as_vector_form(omega)
    if v.degree != 2:
        raise PreconditionError("constant rank is defined for 2-forms")
    _check_sample_count(sample_count)
    common = None
    for comp in v.components:
        r = rank_2form(comp)
        if common is None:
            common = r
        elif r != common:
            return None
    rng = random.Random(seed)
    pencil = _integer_entries(v.components)
    for _ in range(sample_count):
        t = random_covector(rng, v.value_dim)
        den = lcm(*(x.denominator for x in t))
        ts = [x.numerator * (den // x.denominator) for x in t]
        entries = [(i, j, s * x) for s, comp in zip(ts, pencil) if s for i, j, x in comp]
        if _half_rank(entries) != common:
            return None
    return common


def polysymplectic_uniform_rank_check(omega: VectorValuedForm, sub: Subspace) -> bool:
    """Non-degenerate degree-2 structure forces uniform rank = codim of L."""
    v = as_vector_form(omega)
    if v.degree != 2:
        raise PreconditionError("check applies to 2-forms")
    ker = kernel_of_form(v)
    if ker.dim != 0:
        raise PreconditionError("check applies to non-degenerate forms")
    if not check_polylagrangian(sub, v, ker):
        raise PreconditionError("subspace fails the contraction-image equality")
    return uniform_rank(v) == v.dim - sub.dim


def kernels_orthogonal_under(omega: VectorValuedForm, t1, t2, t3) -> bool:
    """Are the kernels of two projections orthogonal under a third?"""
    v = as_vector_form(omega)
    k1 = kernel_of_form(project(v, t1))
    k2 = kernel_of_form(project(v, t2))
    p3 = project(v, t3)
    for u in k1.rows():
        for w in k2.rows():
            if evaluate(p3, [u, w]) != 0:
                return False
    return True


def projection_kernel_isotropy_check(omega: VectorValuedForm) -> bool:
    """Kernel of each projection is isotropic under every other projection.

    Runs over the deterministic grid of standard basis covectors and
    their pairwise sums; a consequence of uniform rank.
    """
    v = as_vector_form(omega)
    grid = _covector_grid(v.value_dim)
    for t1 in grid:
        p1 = project(v, t1)
        if p1.is_zero():
            continue
        ker1 = kernel_of_form(p1)
        for t2 in grid:
            p2 = project(v, t2)
            for u in ker1.rows():
                for w in ker1.rows():
                    if evaluate(p2, [u, w]) != 0:
                        return False
    return True


# ---------------------------------------------------------------------------
# structure reports


@dataclass
class StructureReport:
    kernel: Subspace
    is_degenerate: bool
    rank: int | None
    lagrangian_subspace: Subspace | None
    classification: str
    horizontality: tuple[int, int] | None
    diagnostics: list[str] = field(default_factory=list)
    uniform_rank: int | None = None
    constant_rank_sampled: int | None = None
    seed: int = DEFAULT_SEED


def _classified(rep: StructureReport, search: PolylagrangianSearch, criterion, family: str,
                symplectic: bool) -> StructureReport:
    """The tail both classifications share, on a report with no subspace yet: the search's
    diagnostics and status, the dimension criterion re-checked on a found L, and the name,
    ``family`` then symplectic or presymplectic where ``symplectic`` holds, else lagrangian."""
    rep.diagnostics.extend(search.diagnostics)
    if search.status != "found":
        label = "proved absent" if search.status == "absent" else "not found"
        rep.diagnostics.append(f"distinguished subspace: {label}")
        return rep
    if not criterion(search.subspace):
        raise InternalCheckError("dimension criterion disagrees with the contraction test")
    rep.rank, rep.lagrangian_subspace = search.rank, search.subspace
    name = ("presymplectic" if rep.is_degenerate else "symplectic") if symplectic else "lagrangian"
    rep.classification = family + name
    return rep


def classify_vector_form(omega, *, seed: int = DEFAULT_SEED, samples: int = 25) -> StructureReport:
    """Full classification pipeline for a (vector-valued) alternating form.

    The kernel is computed once and handed to the search and the
    dimension criterion.  For a 2-form with one component the uniform
    rank is half the rank of that component.  With two or more the
    search runs first and carries the uniform rank.  When it finds L
    that is N = codim L, with no wedge power built: the ⊆ half of
    ``check_polylagrangian(L)`` puts every component in the ideal of the
    N-dimensional annihilator of L, so the (N+1)-powers vanish, and its
    ⊇ half gives vectors on which the N-powers evaluate to a diagonal
    matrix with a nonzero diagonal, so they are independent (spelled out
    at ``search_polylagrangian``).  Only when L is absent does the
    wedge-power ``uniform_rank`` run, once, inside the search.

    A uniform rank N certifies half-rank N at every nonzero covector,
    which is what the sampler would report for any seed, so it is
    reported as the sampled constant rank without sampling; the sampler
    runs only when there is no uniform rank.
    """
    v = as_vector_form(omega)
    diagnostics: list[str] = []
    if v.is_zero():
        return StructureReport(Subspace.full(v.dim), True, None, None, "none", None,
                               ["form vanishes; definitions require a non-vanishing form"],
                               None, None, seed)
    ker = kernel_of_form(v)
    uni = cons = search = None
    if v.degree == 2:
        check_sample_budget(samples)
        if v.value_dim == 1:
            uni = uniform_rank(v)
        else:
            search = search_polylagrangian(v, ker=ker)
            uni = search.uniform_rank
        if uni is None:
            cons = constant_rank_sampled(v, samples, seed)
        else:
            _check_sample_count(samples)
            cons = uni
        diagnostics.append(f"uniform rank: {uni}; sampled constant rank: {cons} "
                           f"(seed {seed}, {samples} samples)")
    search = search or search_polylagrangian(v, ker=ker)
    rep = StructureReport(ker, ker.dim > 0, None, None, "none", None, diagnostics, uni, cons, seed)
    return _classified(rep, search, lambda sub: dimension_criterion_poly(sub, v, ker), "poly",
                       v.degree == 2)


def _vertical_greedy(aomega: AlternatingForm, n: int):
    """Greedy maximal isotropic subspaces of the adapted form inside its vertical coordinates,
    one from each isotropic vertical coordinate line, each once, in vertical coordinates."""
    dim = aomega.dim
    vert = Subspace.span_of_coordinates(dim, range(n + 1, dim + 1))
    seen = set()
    for i in range(n + 1, dim + 1):
        seed = Subspace.span_of_coordinates(dim, [i])
        if is_isotropic(seed, aomega, 1):
            cand = greedy_maximal_isotropic(aomega, seed, within=vert)
            if cand not in seen:
                seen.add(cand)
                yield _shifted(cand, -n, dim - n)


def detect_multilagrangian(omega: AlternatingForm, flag: Flag, r: int) -> PolylagrangianSearch:
    """Locate the multilagrangian subspace through the symbol.

    A multilagrangian form has a polylagrangian symbol with the same
    subspace, so the candidates, in vertical coordinates, come from the
    symbol: the vertical space for r = 1, a vertical greedy search for a
    vanishing symbol, else the polylagrangian search on it.  The first to
    pass the horizontal contraction equality is L.  A miss proves absence
    where the candidate was the only one (r = 1, or the unique L of a symbol
    with two or more components); elsewhere the search is heuristic.
    """
    _require_degree_two(omega.degree)
    aomega = _horizontal(omega, flag, r)
    n, m_dim = flag.dim_t, flag.vertical.dim
    comp_dims: list[int] = []
    if r == 1:
        # a k-horizontal form has the whole vertical space as its subspace
        cands, hit = [Subspace.full(m_dim)], []
        miss = "absent", ["vertical space fails the horizontal contraction equality"]
    elif (sym := symbol(omega, flag, r)).is_zero():
        # consistent with rank below r-1
        cands, hit = _vertical_greedy(aomega, n), ["symbol vanishes; vertical greedy search"]
        miss = "not_found", ["symbol vanishes; vertical greedy search exhausted"]
    elif sym.value_dim >= 2:
        search = search_polylagrangian(sym)
        if search.status != "found":
            return search
        cands, hit = [search.subspace], search.diagnostics
        comp_dims = search.component_complement_dims
        miss = "absent", hit + ["symbol subspace fails the horizontal contraction equality"]
    else:
        cands, hit = scalar_polylagrangian_candidates(sym), []
        miss = "not_found", ["not found - possibly nonexistent (scalar-symbol search is heuristic)"]
    for sub_v in cands:
        if _check_vertical(sub_v, aomega, n, r):
            return PolylagrangianSearch(from_vertical_coordinates(flag, sub_v), "found",
                                        m_dim - sub_v.dim, hit, comp_dims)
    return PolylagrangianSearch(None, miss[0], None, miss[1], comp_dims)


def classify_horizontal_form(omega: AlternatingForm, flag: Flag, r: int | None = None,
                             *, seed: int = DEFAULT_SEED) -> StructureReport:
    """Classification of a partially horizontal scalar form on a flag."""
    diagnostics: list[str] = []
    if omega.is_zero():
        return StructureReport(Subspace.full(omega.dim), True, None, None, "none", None,
                               ["form vanishes"], None, None, seed)
    _require_degree_two(omega.degree)
    aomega, _ = _adapted(omega, flag)
    n = flag.dim_t
    if r is None:
        r = max((_vertical_count(m, n) for m in aomega._numerators[0]), default=0)
        diagnostics.append(f"horizontality parameter detected from the form: r = {r}")
    elif r < 0:
        raise PreconditionError("horizontality parameter out of range")
    k1 = omega.degree
    ker = kernel_of_form(omega)
    if r == 0 or k1 - r > n:
        diagnostics.append("form is outside the admissible horizontality range")
        return StructureReport(ker, True, None, None, "none",
                               (r, k1 - r), diagnostics, None, None, seed)
    search = detect_multilagrangian(omega, flag, r)
    rep = StructureReport(ker, ker.dim > 0, None, None, "none", (r, k1 - r), diagnostics, seed=seed)
    return _classified(rep, search, lambda sub: dimension_criterion_multi(sub, omega, flag, r, ker),
                       "multi", k1 - 1 == n and r == 2)
