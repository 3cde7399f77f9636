"""Canonical models and algebraic Darboux basis construction.

The canonical models pair a coordinate space with the standard structure
form whose coefficients are the normal-form pattern; the construction
rebuilds exactly that pattern for an arbitrary structure form by one
induction for both kinds: it grows an isotropic frame complementing the
distinguished subspace L, then solves for one momentum vector per slot of
the model, the dual half of the basis.  Reconstruction is verified
internally: the pullback of the input by the produced basis must reproduce
the model coefficients with no error.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from math import comb

from .errors import ConstructionError, InternalCheckError, PreconditionError
from .exterior import (AlternatingForm, Flag, VectorValuedForm, contract, coordinate_flag,
                       embed_in, form, mask_of, pullback, pullback_rows, wedge_all)
from .io import MAX_DIM, MAX_VALUE_DIM
from .lagrangian import (as_vector_form, check_multilagrangian, check_polylagrangian,
                         detect_multilagrangian, kernel_of_form,
                         search_polylagrangian, symbol, to_vertical_coordinates,
                         _stacked)
from .linalg import (Matrix, Subspace, ONE, annihilator, complement, inverse,
                     transform_subspace)
from .sparse import SparseSolver, _axpy

# ---------------------------------------------------------------------------
# canonical models


@dataclass
class CanonicalModel:
    kind: str                       # "poly" | "multi"
    params: tuple
    form: VectorValuedForm | AlternatingForm
    lagrangian: Subspace            # L
    isotropic_complement: Subspace  # E
    frame_complement: Subspace | None  # F, multi case only
    flag: Flag | None
    labels: tuple

    @property
    def dim(self) -> int:
        return self.lagrangian.ambient_dim


def canonical_poly_model(n_rank: int, nhat: int, k: int) -> CanonicalModel:
    """Standard model: a space E plus one momentum slot per value component
    and increasing k-index on E; the form pairs each slot with its index."""
    if not (n_rank >= k >= 1):
        raise PreconditionError("rank must be at least the form degree minus one")
    if nhat < 1:
        raise PreconditionError("value dimension must be positive")
    dim = n_rank + nhat * comb(n_rank, k)
    if dim > MAX_DIM:
        raise PreconditionError(f"model dimension {dim} exceeds the budget of {MAX_DIM} (MAX_DIM)")
    if nhat > MAX_VALUE_DIM:  # analyze and darboux refuse the model's document past it
        raise PreconditionError(
            f"value dimension {nhat} exceeds the budget of {MAX_VALUE_DIM} (MAX_VALUE_DIM)")
    return _model("poly", n_rank, nhat, 0, k, k + 1)


def canonical_multi_model(n_rank: int, n_base: int, k: int, r: int) -> CanonicalModel:
    """Standard model over a flag: momentum slots run over mixed increasing
    indices with up to r-1 vertical factors.  Degenerate exactly when r = 1,
    with kernel the E block."""
    if k < 1:
        raise PreconditionError(f"the model form would have degree {k + 1}; "
                                "multisymplectic structures need degree at least 2")
    if not 1 <= r <= k + 1:
        raise PreconditionError("horizontality parameter out of range")
    if k + 1 - r > n_base:
        raise PreconditionError("base dimension too small for the horizontality degree")
    if n_rank < 1:
        raise PreconditionError("rank must be positive")
    # the slot count of _slots, counted without enumerating the slots
    n_slots = sum(comb(n_rank, s) * comb(n_base, k - s) for s in range(r))
    if not n_slots:
        raise PreconditionError("parameters admit no momentum slots; the model form would vanish")
    dim = n_rank + n_base + n_slots
    if dim > MAX_DIM:
        raise PreconditionError(f"model dimension {dim} exceeds the budget of {MAX_DIM} (MAX_DIM)")
    return _model("multi", n_rank, 1, n_base, k, r)


def _slots(n_rank: int, nhat: int, n_base: int, k: int, r: int) -> list:
    """The momentum slots (a, idx, mu) of a model, in coordinate order.

    The model's coordinates are E (N of them), the base (n), then one
    momentum coordinate per slot.  A slot pairs its momentum coordinate, in
    value component a, with s < r increasing E-indices idx and k - s
    increasing base indices mu, which are the coordinates N + mu.  The poly
    model (N, n̂, k) is this layout with n̂ components over an empty base
    and r = k + 1; a multi model has one component.
    """
    return [(a, idx, mu) for a in range(nhat) for s in range(r)
            for idx in itertools.combinations(range(1, n_rank + 1), s)
            for mu in itertools.combinations(range(1, n_base + 1), k - s)]


def _model(kind: str, n_rank: int, nhat: int, n_base: int, k: int, r: int) -> CanonicalModel:
    """The model of the slot layout, refusing nothing.

    L is the momentum block and E the first N coordinates; a multi model
    also has F = E + base and the flag whose vertical space is E + L.
    """
    slots = _slots(n_rank, nhat, n_base, k, r)
    first = n_rank + n_base + 1
    dim = first - 1 + len(slots)
    terms: list = [{} for _ in range(nhat)]
    for i, (a, idx, mu) in enumerate(slots):
        terms[a][(first + i,) + idx + tuple(n_rank + m for m in mu)] = 1
    comps = tuple(form(dim, k + 1, t) for t in terms)
    lagr = Subspace.span_of_coordinates(dim, range(first, dim + 1))
    e_sub = Subspace.span_of_coordinates(dim, range(1, n_rank + 1))
    labels = tuple(("q", (i,)) for i in range(1, n_rank + 1))
    if kind == "poly":
        labels += tuple(("p", (a + 1,), idx) for a, idx, _ in slots)
        return CanonicalModel(kind, (n_rank, nhat, k), VectorValuedForm(comps), lagr, e_sub,
                              None, None, labels)
    labels += tuple(("x", (mu,)) for mu in range(1, n_base + 1))
    labels += tuple(("p", idx, mu) for _, idx, mu in slots)
    flag = coordinate_flag(dim, list(range(1, n_rank + 1)) + list(range(first, dim + 1)))
    return CanonicalModel(kind, (n_rank, n_base, k, r), comps[0], lagr, e_sub,
                          Subspace.span_of_coordinates(dim, range(1, first)), flag, labels)


# ---------------------------------------------------------------------------
# the Darboux induction
#
# Both kinds run one induction over the slots of ``_slots``.  The frame
# is E followed by the base, so the slot (a, idx, mu) pairs its momentum
# vector, in component a, with the frame vectors idx + (N + mu); the poly
# frame is E alone.


class _Basis:
    """The basis [frame | standard completion] of a complement of L.

    Column i is the frame vector i once it is built and the standard
    vector e_p, p = ``units[i]``, before.  A built vector differs from its
    column's standard vector by a vector of L, so modulo L the basis is
    the same at every step.  Frame vectors are sparse ``{coordinate:
    entry}`` vectors.  The induction reads the rows of the basis matrix as
    sparse covectors on the columns: ``pullback_rows`` reads the slot
    pairings off them.
    """

    def __init__(self, dim: int, lagr: Subspace, fixed: list, completion: list):
        self.lagr = lagr
        self.units = dict(enumerate(completion, start=len(fixed)))
        self.mod_l = fixed + [{p: 1} for p in completion]
        self.frame: list = []
        self.rows: list = [{} for _ in range(dim)]  # over the frame columns only
        for x in fixed:
            self.append(x)

    def append(self, u: dict):
        bit = 1 << len(self.frame)
        self.units.pop(len(self.frame), None)
        self.frame.append(u)
        for j, x in u.items():
            self.rows[j][bit] = int(x) if x.denominator == 1 else x

    def matrix_rows(self) -> list:
        rows = list(self.rows)
        for col, p in self.units.items():
            rows[p] = {**rows[p], 1 << col: 1}
        return rows

    @cached_property
    def duals(self) -> list[dict]:
        """The covectors of L⁰ dual to the columns of the basis, as ``{coordinate: entry}``.

        With α an annihilator basis of L and P the codim L square matrix
        P[k][j] = α_k(column j), the duals are the rows of P⁻¹·α, read off
        as the columns of (Pᵀ)⁻¹, whose column k is row k of P: they
        vanish on L and pair to the identity with the columns.  They
        depend on the columns only modulo L, so one list serves every step
        and the finished frame.  It is built on first use: at the first
        step whose candidate pairs with a slot, or for the assembly.
        """
        ann = annihilator(self.lagr)
        alphas = ann.rows()
        inv = inverse(Matrix(len(alphas), tuple(
            {j: x for j, col in enumerate(self.mod_l)
             if (x := sum(alpha[i] * y for i, y in col.items() if i in alpha))}
            for alpha in alphas)))
        out = []
        for col in inv.columns:
            acc: dict = {}
            for k, x in col.items():
                for j, a in alphas[k].items():
                    acc[j] = acc.get(j, 0) + x * a
            out.append({j: y for j, y in acc.items() if y})
        return out


def _momentum_map(v: VectorValuedForm, lagr: Subspace):
    """The map (duals, slot) -> the momentum vector of the slot.

    That is the vector of L whose contraction with v is the wedge of the
    slot's dual covectors (``duals[i - 1]`` for frame index i, sparse) in
    the slot's component, solved over the contraction images of a
    complement of the kernel in L, so it is unique: the generators are
    the complement's echelon rows, and the momentum vector is sparse.
    """
    dim = v.dim
    l_prime = complement(kernel_of_form(v), inside=lagr).rows()
    solver = SparseSolver()
    for b in l_prime:
        solver.add_generator(_stacked(contract(b, v)))

    def momentum(duals: list, slot: tuple) -> dict:
        a, idx = slot
        factors = [AlternatingForm(dim, 1, {1 << j: x for j, x in duals[i - 1].items()})
                   for i in idx]
        w = wedge_all(factors) if factors else form(dim, 0, {(): 1})
        coeffs = solver.solve({(a, m): c for m, c in w.coeffs.items()})
        if coeffs is None:
            raise ConstructionError(
                "required dual vector does not exist; the subspace is not "
                "poly/multilagrangian for the form")
        acc: dict = {}
        for j, c in coeffs.items():
            _axpy(acc, -c, l_prime[j])
        return acc

    return momentum


def _induction(v: VectorValuedForm, lagr: Subspace, fixed: list, n_base: int, r: int):
    """The basis, the slots and the momentum map of one Darboux induction.

    The frame is a complement of L: E, of rank N = codim L - n_base,
    followed by the base, with the slots of the layout (N, n̂, n_base, k,
    r).  The poly induction has n_base = 0 and r = k + 1; the multi one
    is given E in ``fixed``.  The frame vectors ``fixed`` come first; the
    standard vectors completing L + fixed, picked once in index order,
    fill the rest of the basis.  Step i takes the standard vector of column i as
    the candidate and reads its pairings with every slot off the pullback
    of its contraction by the basis rows.  For every slot it pairs with,
    it subtracts the pairing times the slot's momentum vector, so the new
    vector pairs with no slot and the frame stays isotropic.  The momentum
    vectors need the duals of the basis, covectors of L⁰.  Momentum
    vectors lie in L, so the new vector completes L + frame exactly as the
    candidate did: the completion picked at the start stays valid to the
    end, and the basis stays the same modulo L, so its duals are built
    once, by one codim L inverse, at the first step that pairs.
    """
    size = v.dim - lagr.dim
    n_rank = size - n_base
    slots = [(a, idx + tuple(n_rank + m for m in mu))
             for a, idx, mu in _slots(n_rank, v.value_dim, n_base, v.degree - 1, r)]
    if not lagr.contains_subspace(ker := kernel_of_form(v)):
        raise PreconditionError(
            f"the subspace does not contain the kernel of the form (dimension {ker.dim}); "
            "a Darboux basis needs L to contain the kernel")
    momentum = _momentum_map(v, lagr)
    avoid = lagr.echelon.copy()
    for x in fixed:
        avoid.insert(x)
    # the complement's candidates are the standard vectors in index order, each its own pivot
    completion = list(complement(Subspace(v.dim, avoid)).pivot_columns())
    basis = _Basis(v.dim, lagr, fixed, completion)
    slot_at = {(a, mask_of(idx)): (a, idx) for a, idx in slots}
    for p in completion:
        u = {p: ONE}
        pulled = pullback_rows(contract(u, v), basis.matrix_rows(), size)
        for a, comp in enumerate(pulled.components):
            for m, c in comp.coeffs.items():
                if (a, m) in slot_at:
                    _axpy(u, c, momentum(basis.duals, slot_at[a, m]))
        basis.append(u)
    return basis, slots, momentum


# ---------------------------------------------------------------------------
# Darboux bases


@dataclass
class DarbouxBasis:
    matrix: Matrix                  # columns are the new basis vectors
    labels: tuple
    lagrangian: Subspace
    params: tuple
    kind: str


def _assemble(induction: tuple, ker: Subspace, labels: tuple):
    """The basis matrix and labels: the frame, one momentum vector per slot, the kernel.

    The momentum vectors take the induction's duals, which the finished
    frame shares modulo L.  Every column is a sparse vector as it stands.
    """
    basis, slots, momentum = induction
    columns = basis.frame + [momentum(basis.duals, slot) for slot in slots] + ker.unit_rows()
    labels += tuple(("ker", (j,)) for j in range(1, ker.dim + 1))
    return Matrix(ker.ambient_dim, tuple(columns)), labels


def _darboux(kind: str, omega, lagr: Subspace, fixed: list, n_base: int, r: int) -> DarbouxBasis:
    """The steps both builders share: the induction, the assembly, and the
    pullback of ``omega`` by the basis checked against the form of the
    model that the induction's layout makes, built once the induction has run."""
    v = as_vector_form(omega)
    induction = _induction(v, lagr, fixed, n_base, r)
    model = _model(kind, v.dim - lagr.dim - n_base, v.value_dim, n_base, v.degree - 1, r)
    basis, labels = _assemble(induction, kernel_of_form(v), model.labels)
    if pullback(omega, basis) != embed_in(model.form, v.dim):
        raise InternalCheckError("constructed basis does not reproduce the model coefficients")
    return DarbouxBasis(basis, labels, lagr, model.params, kind)


def darboux_basis_poly(omega, lagrangian: Subspace | None = None) -> DarbouxBasis:
    """Canonical basis for a polylagrangian form; exact by construction.

    When no subspace is supplied the detection pipeline runs first; a
    supplied subspace is verified before use.  The pullback of the form
    by the returned basis is checked against the model coefficients and
    a failure raises, so a returned basis is always correct.
    """
    v = as_vector_form(omega)
    if lagrangian is None:
        search = search_polylagrangian(v)
        if search.status != "found":
            raise ConstructionError(
                f"no polylagrangian subspace ({search.status}): " + "; ".join(search.diagnostics))
        lagr = search.subspace
    else:
        if not check_polylagrangian(lagrangian, v):
            raise PreconditionError("supplied subspace fails the contraction-image equality")
        lagr = lagrangian
    return _darboux("poly", v, lagr, [], 0, v.degree)


def darboux_basis_multi(omega: AlternatingForm, flag: Flag, r: int,
                        lagrangian: Subspace | None = None) -> DarbouxBasis:
    """Canonical basis for a multilagrangian form on a flag.

    E is the poly induction on the symbol, lifted to the total space; the
    flagged induction then adds the base and the momentum vectors.  As in
    ``darboux_basis_poly``, the pullback of the form by the returned basis
    is checked against the model coefficients.  That check is the whole
    certificate: a basis that passes it carries the model's form, flag
    and symbol.
    """
    if lagrangian is None:
        search = detect_multilagrangian(omega, flag, r)
        if search.status != "found":
            raise ConstructionError(
                f"no multilagrangian subspace ({search.status}): " + "; ".join(search.diagnostics))
        lagr = search.subspace
    else:
        if not check_multilagrangian(lagrangian, omega, flag, r):
            raise PreconditionError("supplied subspace fails the horizontal contraction equality")
        lagr = lagrangian
    if r == 1:
        e_vecs: list = []
    else:
        sym = symbol(omega, flag, r)
        lagr_v = to_vertical_coordinates(flag, lagr)
        if sym.is_zero():
            # every vertical subspace is isotropic for a vanishing symbol
            e_v = complement(lagr_v).unit_rows()
        else:
            e_v = _induction(sym, lagr_v, [], 0, sym.degree)[0].frame
        e_vecs = flag.lift_vertical(e_v)
    return _darboux("multi", omega, lagr, e_vecs, flag.dim_t, r)


# ---------------------------------------------------------------------------
# seeded conjugation helpers


@dataclass
class ConjugateMap:
    matrix: Matrix
    inv: Matrix


def seeded_conjugate(dim: int, seed: int, *, preserve: list[frozenset] | None = None,
                     shear_count: int = 6) -> ConjugateMap:
    """Seeded unimodular map, optionally mapping coordinate blocks to themselves.

    Built from a block permutation, sign flips and a bounded number of
    integer shears, so conjugated forms stay sparse and the inverse is
    exact.  ``preserve`` lists 1-based coordinate index sets S with the
    requirement m(span S) = span S.

    The map P·D·S_1⋯S_m (permutation, signs, shears S = I + c·E_ij) and its
    inverse are built on integer rows: a shear adds c·(column i) to column j
    of the map and subtracts c·(row j) from row i of the inverse.
    """
    rng = random.Random(seed)
    preserve = preserve or []
    sig = {}
    for i in range(1, dim + 1):
        sig[i] = tuple(i in s for s in preserve)
    # permutation respecting the membership signature
    groups: dict = {}
    for i in range(1, dim + 1):
        groups.setdefault(sig[i], []).append(i)
    perm = {}
    for members in groups.values():
        shuffled = members[:]
        rng.shuffle(shuffled)
        for src, dst in zip(members, shuffled):
            perm[src] = dst
    signs = [rng.choice([1, -1]) for _ in range(dim)]
    fwd = [[0] * dim for _ in range(dim)]
    bwd = [[0] * dim for _ in range(dim)]
    for j in range(dim):
        i = perm[j + 1] - 1
        fwd[i][j] = signs[j]          # P·D
        bwd[j][i] = signs[j]          # D·P^T
    def shear_allowed(i, j):
        # column j gains an entry in row i: preserved spans need j in S -> i in S
        return all((j + 1) not in s or (i + 1) in s for s in preserve)
    tries = 0
    added = 0
    while added < shear_count and tries < 50 * shear_count:
        tries += 1
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j or not shear_allowed(i, j):
            continue
        c = rng.choice([-2, -1, 1, 2])
        for row in fwd:
            row[j] += c * row[i]
        bwd[i] = [a - c * b for a, b in zip(bwd[i], bwd[j])]
        added += 1
    return ConjugateMap(_int_matrix(fwd), _int_matrix(bwd))


def _int_matrix(rows: list[list[int]]) -> Matrix:
    """The square matrix of integer rows, its nonzero entries kept as ints."""
    return Matrix(len(rows), tuple({i: x for i, x in enumerate(col) if x} for col in zip(*rows)))


def conjugating_map(model: CanonicalModel, seed: int) -> ConjugateMap:
    """The seeded map that conjugates a model; it fixes the vertical space of a model's flag."""
    preserve = ([] if model.flag is None else
                [frozenset(p + 1 for p in model.flag.vertical.pivot_columns())])
    return seeded_conjugate(model.dim, seed, preserve=preserve)


def conjugated_poly_instance(model: CanonicalModel, seed: int):
    """Pullback of a model by ``conjugating_map``, with the moved subspace and the map."""
    cmap = conjugating_map(model, seed)
    return pullback(model.form, cmap.matrix), transform_subspace(cmap.inv, model.lagrangian), cmap


# one body serves both kinds: the map of a multi model fixes the vertical space
conjugated_multi_instance = conjugated_poly_instance
