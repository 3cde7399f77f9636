"""Differential forms with polynomial coefficients on a split coordinate
space, and exact primitive construction.

The coordinate space is ordered (x-block, y-block); the y-block plays the
role of the straightened foliation, so horizontality and verticality are
monomial properties.  A polynomial form is its reduced integer view, and
every operation on forms accumulates on it.  The primitive construction
contracts against the scaling fields of the two blocks and integrates the
scale parameter exactly, one monomial at a time; only nonnegative powers
ever occur, which is asserted at runtime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add
from typing import Mapping, Sequence

from .errors import DimensionMismatch, InternalCheckError, PreconditionError
from .exterior import indices_of, merge_sign, removal_sign
from .linalg import ZERO, ONE, frac

# ---------------------------------------------------------------------------
# sparse polynomials


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Sparse exact polynomial: exponent tuple -> coefficient."""

    nvars: int
    terms: dict

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: Polynomial) -> Polynomial:
        out = dict(self.terms)
        for e, c in other.terms.items():
            nv = out.get(e, ZERO) + c
            if nv:
                out[e] = nv
            else:
                del out[e]
        return Polynomial(self.nvars, out)

    def __neg__(self) -> Polynomial:
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other) -> Polynomial:
        if not isinstance(other, Polynomial):
            c = frac(other)
            if not c:
                return Polynomial(self.nvars, {})
            return Polynomial(self.nvars, {e: c * x for e, x in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                nv = out.get(e, ZERO) + c1 * c2
                if nv:
                    out[e] = nv
                else:
                    del out[e]
        return Polynomial(self.nvars, out)

    __rmul__ = __mul__

    def diff(self, var: int) -> Polynomial:
        """Partial derivative with respect to the 1-based variable index."""
        out = {}
        v = var - 1
        for e, c in self.terms.items():
            if e[v]:
                ne = e[:v] + (e[v] - 1,) + e[v + 1:]
                out[ne] = out.get(ne, ZERO) + c * e[v]
        return Polynomial(self.nvars, {e: c for e, c in out.items() if c})

    def eval(self, point: Sequence) -> Fraction:
        total = ZERO
        for e, c in self.terms.items():
            val = c
            for x, p in zip(point, e):
                if p:
                    val *= frac(x) ** p
            total += val
        return total

    def eval_float(self, point: Sequence[float]) -> float:
        total = 0.0
        for e, c in self.terms.items():
            val = float(c)
            for x, p in zip(point, e):
                if p:
                    val *= x ** p
            total += val
        return total

    def __repr__(self):
        return f"Polynomial({dict(sorted(self.terms.items()))!r})"


def poly_const(nvars: int, c) -> Polynomial:
    c = frac(c)
    return Polynomial(nvars, {(0,) * nvars: c} if c else {})


def poly_var(nvars: int, var: int) -> Polynomial:
    e = [0] * nvars
    e[var - 1] = 1
    return Polynomial(nvars, {tuple(e): ONE})


def poly_from_terms(nvars: int, terms: Mapping[Sequence[int], object]) -> Polynomial:
    out = {}
    for e, c in terms.items():
        c = frac(c)
        if c:
            e = tuple(e)
            out[e] = out[e] + c if e in out else c
    return Polynomial(nvars, {e: c for e, c in out.items() if c})


# ---------------------------------------------------------------------------
# polynomial forms


@dataclass(frozen=True, init=False)
class PolyForm:
    """Polynomial-coefficient form on a space split as x-block + y-block.

    Built from mask -> ``Polynomial`` coefficients, it is stored as its integer view
    ``({mask: {exponents: n}}, den)``: coefficient n / den, den the lcm of the denominators,
    and no slot or n zero (zero coefficients are dropped).  So the view is unique to the form
    and equality compares it; ``coeffs`` is built from it, in its order, on first read."""

    dim: int
    degree: int
    split: tuple[int, int]
    _numerators: tuple[dict, int]
    __hash__ = None  # the view holds dicts

    def __init__(self, dim: int, degree: int, split: tuple[int, int], coeffs: Mapping):
        if sum(split) != dim:
            raise DimensionMismatch("split does not sum to the dimension")
        den = lcm(*(c.denominator for p in coeffs.values() for c in p.terms.values()))
        nums = {m: {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}
                for m, p in coeffs.items() if not p.is_zero()}
        self.__dict__.update(dim=dim, degree=degree, split=split, _numerators=(nums, den))

    @cached_property
    def coeffs(self) -> dict:
        nums, den = self._numerators
        return {m: Polynomial(self.dim, {e: Fraction(n, den) for e, n in slot.items()})
                for m, slot in nums.items()}

    def is_zero(self) -> bool:
        return not self._numerators[0]

    @property
    def x_dim(self) -> int:
        return self.split[0]

    def y_count(self, mask: int) -> int:
        return (mask >> self.split[0]).bit_count()

    @cached_property
    def vertical_factors(self) -> int:  # the most y-differentials in one monomial
        return max(map(int.bit_count, map(self.x_dim.__rrshift__, self._numerators[0])), default=0)

    def terms(self):
        return [(indices_of(m), p) for m, p in sorted(self.coeffs.items())]

    def coeffs_float(self, point: Sequence[float]) -> dict:
        # float coefficients off the view: n / den is float(Fraction(n, den)), both being the
        # correctly rounded value of one rational
        nums, den = self._numerators
        return {m: Polynomial(self.dim, {e: n / den for e, n in slot.items()}).eval_float(point)
                for m, slot in nums.items()}

    def __repr__(self):
        body = ", ".join(f"{list(i)}: {p!r}" for i, p in self.terms())
        return f"PolyForm(dim={self.dim}, degree={self.degree}, {{{body}}})"


def _pf_seeded(dim: int, degree: int, split: tuple[int, int], nums: dict, den: int) -> PolyForm:
    """The form with coefficients n / den over zero-free ``nums`` slots and den > 0: the view,
    reduced by the gcd of den and every n so that it is the form's unique one."""
    g = gcd(den, *itertools.chain.from_iterable(map(dict.values, nums.values())))
    if g != 1:
        den //= g
        nums = {m: dict(zip(slot, map(g.__rfloordiv__, slot.values()))) for m, slot in nums.items()}
    out = object.__new__(PolyForm)
    out.__dict__.update(dim=dim, degree=degree, split=split, _numerators=(nums, den))
    return out


def _add_into(out: dict, mask: int, exps: tuple, n: int) -> None:
    """Add n to the term ``exps`` of ``out[mask]``, dropping the term if it cancels; a slot
    left empty keeps its place for later terms, and the caller drops it."""
    slot = out.get(mask)
    if slot is None:
        out[mask] = {exps: n}
    elif nv := slot.get(exps, 0) + n:
        slot[exps] = nv
    else:
        del slot[exps]


def pf_zero(dim: int, degree: int, split: tuple[int, int]) -> PolyForm:
    return PolyForm(dim, degree, split, {})


def pf_add(a: PolyForm, b: PolyForm) -> PolyForm:
    if (a.dim, a.degree, a.split) != (b.dim, b.degree, b.split):
        raise DimensionMismatch("cannot add polynomial forms of different shape")
    (na, da), (nb, db) = a._numerators, b._numerators
    den = lcm(da, db)
    fa, fb = den // da, den // db
    out = {m: {e: n * fa for e, n in slot.items()} for m, slot in na.items()}
    for m, slot in nb.items():
        for e, n in slot.items():
            _add_into(out, m, e, n * fb)
        if not out[m]:
            del out[m]
    return _pf_seeded(a.dim, a.degree, a.split, out, den)


def pf_scale(a: PolyForm, c) -> PolyForm:
    c = frac(c)
    if not c:
        return pf_zero(a.dim, a.degree, a.split)
    nums, den = a._numerators
    return _pf_seeded(a.dim, a.degree, a.split,
                      {m: {e: n * c.numerator for e, n in slot.items()} for m, slot in nums.items()},
                      den * c.denominator)


def pf_sub(a: PolyForm, b: PolyForm) -> PolyForm:
    return pf_add(a, pf_scale(b, -1))


def pf_wedge(a: PolyForm, b: PolyForm) -> PolyForm:
    if a.dim != b.dim or a.split != b.split:
        raise DimensionMismatch("wedge operands live on different spaces")
    (na, da), (nb, db) = a._numerators, b._numerators
    out: dict = {}
    for ma, pa in na.items():
        for mb, pb in nb.items():
            s = merge_sign(ma, mb)
            if not s:
                continue
            key = ma | mb
            prod: dict = {}  # whole before it joins out[key]: out[key]'s terms keep their places
            for ea, x in pa.items():
                for eb, y in pb.items():
                    _add_into(prod, key, tuple(map(add, ea, eb)), s * x * y)
            if prod.get(key):
                for e, n in prod[key].items():
                    _add_into(out, key, e, n)
                if not out[key]:
                    del out[key]
    return _pf_seeded(a.dim, a.degree + b.degree, a.split, out, da * db)


def pf_contract_basis(a: PolyForm, index: int) -> PolyForm:
    """Interior product with the coordinate field of the 1-based index."""
    bit = 1 << (index - 1)
    nums, den = a._numerators
    return _pf_seeded(a.dim, a.degree - 1, a.split, {
        m ^ bit: slot if removal_sign(m, index - 1) > 0 else {e: -n for e, n in slot.items()}
        for m, slot in nums.items() if m & bit}, den)


def exterior_d(a: PolyForm) -> PolyForm:
    """Exterior derivative, the sum over the variables v of dx_v ∧ ∂a/∂x_v; nilpotent
    and a graded derivation over wedge.

    Accumulates on the integer view of a, one flat exponent dict per output mask: a slot m
    adds term by term into its masks m | v, opened in variable order.  Terms and masks that
    cancel are dropped as they cancel, so the dict order matches a left-to-right Fraction
    sum over the variables.
    """
    nums, scale = a._numerators
    variables = range(a.dim)
    out: dict = {}
    for m, p in nums.items():
        # per variable outside m: its output slot and sign
        targets = [None if m >> v & 1 else (out.setdefault(m | 1 << v, {}), removal_sign(m, v))
                   for v in variables]
        for e, n in p.items():
            lowered = list(e)
            for v in itertools.compress(variables, e):
                if target := targets[v]:
                    slot, s = target
                    c = e[v]
                    lowered[v] = c - 1
                    t = tuple(lowered)
                    lowered[v] = c
                    if nv := slot.get(t, 0) + s * c * n:
                        slot[t] = nv
                    else:
                        del slot[t]
        for v, target in enumerate(targets):
            if target and not target[0]:
                del out[m | 1 << v]
    return _pf_seeded(a.dim, a.degree + 1, a.split, out, scale)


def max_vertical_factors(a: PolyForm) -> int:
    return a.vertical_factors


# ---------------------------------------------------------------------------
# homotopy primitive


def homotopy_primitive(omega: PolyForm, r: int) -> PolyForm:
    """Exact primitive of a closed form with bounded vertical factors.

    For a closed degree-k form whose monomials carry at most r
    y-differentials, returns a degree-(k-1) form theta with
    d(theta) = omega and at most r-1 y-differentials per monomial.
    The construction scales the two blocks separately, contracts against
    the generating fields, and integrates each power of the scale
    parameter exactly, accumulating integer numerators over one common
    denominator.

    Every returned primitive is verified: d(theta) = omega is checked
    exactly, which also proves omega closed (d(omega) = d(d(theta)) = 0).
    Only when a check fails is d(omega) computed, to tell a form that is
    not closed (``PreconditionError``) from a construction fault
    (``InternalCheckError``).
    """
    if r < 0:
        raise PreconditionError(f"the vertical bound r must be nonnegative, got {r}")
    k = omega.degree
    if k < 1:
        raise PreconditionError("primitive construction needs degree at least 1")
    try:
        if max_vertical_factors(omega) > r:
            raise PreconditionError(f"a monomial carries more than {r} vertical differentials")
        theta = _primitive(omega, r)
        if exterior_d(theta) != omega:
            raise InternalCheckError("primitive does not differentiate back to the form")
    except (PreconditionError, InternalCheckError):
        if not exterior_d(omega).is_zero():
            raise PreconditionError("form is not closed") from None
        raise
    return theta


def _primitive(omega: PolyForm, r: int) -> PolyForm:
    """The homotopy construction of ``homotopy_primitive``, unverified."""
    k = omega.degree
    x_dim = omega.x_dim
    nums, scale = omega._numerators
    # each monomial integrates one power q - 1 >= 0 of the scale parameter, with weight 1/q;
    # the numerators share the denominator scale * lcm(q)
    qs = set()
    for m, p in nums.items():
        if s_l := omega.y_count(m):
            qs.update([sum(e[x_dim:]) + s_l for e in p])
        else:
            qs.update([sum(e) + k for e in p if not any(e[x_dim:])])
    if min(qs, default=1) < 1:
        raise InternalCheckError("negative power of the scale parameter")
    weights = lcm(*qs)
    acc: dict = {}
    for m, p in nums.items():
        s_l = omega.y_count(m)
        # the fiber scaling field contracts the y-bits of m; the base one,
        # acting on the fiber-restricted form, the x-bits of an x-only m
        mm = m >> x_dim << x_dim if s_l else m
        targets = None  # per contracted coordinate j: its slot, opened at m's first term, and sign
        for e, n in p.items():
            if s_l:
                w = n * (weights // (sum(e[x_dim:]) + s_l))
            elif any(e[x_dim:]):
                continue
            else:
                w = n * (weights // (sum(e) + k))
            if targets is None:
                targets = []
                while mm:
                    low = mm & -mm
                    mm ^= low
                    j = low.bit_length() - 1  # 0-based coordinate
                    targets.append((j, acc.setdefault(m ^ low, {}), removal_sign(m, j)))
            raised = list(e)
            for j, slot, s in targets:
                c = e[j]
                raised[j] = c + 1
                t = tuple(raised)
                raised[j] = c
                if nv := slot.get(t, 0) + s * w:
                    slot[t] = nv
                else:
                    del slot[t]

    theta = _pf_seeded(omega.dim, k - 1, omega.split, {m: slot for m, slot in acc.items() if slot},
                       scale * weights)
    if max_vertical_factors(theta) > max(r - 1, 0):
        raise InternalCheckError("primitive exceeds the expected vertical bound")
    return theta


def constant_spread(omega: PolyForm) -> PolyForm:
    """The value at the origin, spread out as a constant form.

    The value of a coefficient at the origin is its constant term.
    """
    origin = (0,) * omega.dim
    nums, den = omega._numerators
    return _pf_seeded(omega.dim, omega.degree, omega.split,
                      {m: {origin: n} for m, slot in nums.items() if (n := slot.get(origin))}, den)


def moser_potential(omega: PolyForm, omega0: PolyForm) -> PolyForm:
    """The correction form for the deformation flow.

    Returns alpha with d(alpha) = omega0 - omega and vanishing contraction
    with every fiber direction, built from the primitive construction at
    vertical bound 1.  Requires omega closed, omega0 the constant spread
    of omega at the origin, and the fiber block isotropic for both.
    """
    if not exterior_d(omega).is_zero():
        raise PreconditionError("form is not closed")
    if omega0 != constant_spread(omega):
        raise PreconditionError("second argument must be the constant spread at the origin")
    diff = pf_sub(omega0, omega)
    if max_vertical_factors(diff) > 1:
        raise PreconditionError("fiber block is not isotropic for both forms")
    alpha = homotopy_primitive(diff, 1)
    if max_vertical_factors(alpha) != 0:
        raise InternalCheckError("correction form still touches the fiber directions")
    return alpha
