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
        f = self.form
        return f.dim if isinstance(f, AlternatingForm) else f.components[0].dim


def poly_coordinate_labels(n_rank: int, nhat: int, k: int) -> tuple:
    labels = [("q", (i,)) for i in range(1, n_rank + 1)]
    for a in range(1, nhat + 1):
        for idx in itertools.combinations(range(1, n_rank + 1), k):
            labels.append(("p", (a,), idx))
    return tuple(labels)


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
    combos = list(itertools.combinations(range(1, n_rank + 1), k))
    # component a pairs slot n_rank + 1 + a * C(N, k) + i with the i-th k-index
    omega = VectorValuedForm(tuple(
        form(dim, k + 1, {(n_rank + 1 + a * len(combos) + i,) + idx: 1
                          for i, idx in enumerate(combos)})
        for a in range(nhat)))
    lagr = Subspace.span_of_coordinates(dim, range(n_rank + 1, dim + 1))
    e_sub = Subspace.span_of_coordinates(dim, range(1, n_rank + 1))
    return CanonicalModel("poly", (n_rank, nhat, k), omega, lagr, e_sub, None, None,
                          poly_coordinate_labels(n_rank, nhat, k))


def multi_slot_index(n_rank: int, n_base: int, k: int, r: int):
    """Ordered (s, I, M) slots of the momentum block."""
    out = []
    for s in range(0, r):
        if k - s > n_base or k - s < 0:
            continue
        for idx in itertools.combinations(range(1, n_rank + 1), s):
            for mu in itertools.combinations(range(1, n_base + 1), k - s):
                out.append((s, idx, mu))
    return out


def multi_coordinate_labels(n_rank: int, n_base: int, k: int, r: int) -> tuple:
    labels = [("q", (i,)) for i in range(1, n_rank + 1)]
    labels += [("x", (mu,)) for mu in range(1, n_base + 1)]
    labels += [("p", idx, mu) for (_, idx, mu) in multi_slot_index(n_rank, n_base, k, r)]
    return tuple(labels)


def _multi_model_data(n_rank: int, n_base: int, k: int, r: int):
    slots = multi_slot_index(n_rank, n_base, k, r)
    first = n_rank + n_base + 1
    dim = first - 1 + len(slots)
    coeffs = form(dim, k + 1, {(first + i,) + idx + tuple(n_rank + m for m in mu): 1
                               for i, (_, idx, mu) in enumerate(slots)})
    vertical = list(range(1, n_rank + 1)) + list(range(n_rank + n_base + 1, dim + 1))
    flag = coordinate_flag(dim, vertical)
    lagr = Subspace.span_of_coordinates(dim, range(n_rank + n_base + 1, dim + 1))
    e_sub = Subspace.span_of_coordinates(dim, range(1, n_rank + 1))
    f_sub = Subspace.span_of_coordinates(dim, range(1, n_rank + n_base + 1))
    return coeffs, lagr, e_sub, f_sub, flag


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
    # the slot count of multi_slot_index, counted without enumerating the slots
    n_slots = sum(comb(n_rank, s) * comb(n_base, k - s) for s in range(r))
    if not n_slots:
        raise PreconditionError("parameters admit no momentum slots; the model form would vanish")
    dim = n_rank + n_base + n_slots
    if dim > MAX_DIM:
        raise PreconditionError(f"model dimension {dim} exceeds the budget of {MAX_DIM} (MAX_DIM)")
    omega, lagr, e_sub, f_sub, flag = _multi_model_data(n_rank, n_base, k, r)
    return CanonicalModel("multi", (n_rank, n_base, k, r), omega, lagr, e_sub, f_sub,
                          flag, multi_coordinate_labels(n_rank, n_base, k, r))


# ---------------------------------------------------------------------------
# the Darboux induction
#
# Both kinds run one induction over slots.  A slot (a, I) is a value
# component a and increasing 1-based frame indices I; the model form pairs
# the slot's momentum vector with the frame vectors I in component a.  The
# poly model (N, n̂, k) has a slot (a, I) for every a < n̂ and every k-subset
# I of 1..N.  The multi frame is E followed by the base, so the multi slots
# are (0, I + (N + M)) for the (s, I, M) of ``multi_slot_index``: the
# one-component poly model (N, 1, k) is the multi model with an empty base
# and r = k + 1.


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


def _induction(v: VectorValuedForm, lagr: Subspace, fixed: list,
               flag: Flag | None = None, r: int | None = None):
    """The basis, the slots and the momentum map of one Darboux induction.

    Without a flag the frame is a complement of L, with the poly slots;
    with a flag it is E (given in ``fixed``) followed by the base, with the
    multi slots.  The frame vectors ``fixed`` come first; the standard
    vectors completing L + fixed, picked once in index order, fill the
    rest of the basis.  Step i takes the standard vector of column i as
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
    k = v.degree - 1
    if flag is None:
        n_rank = size = v.dim - lagr.dim
        slots = [(a, idx) for a in range(v.value_dim)
                 for idx in itertools.combinations(range(1, n_rank + 1), k)]
    else:
        n_rank = flag.vertical.dim - lagr.dim
        size = n_rank + flag.dim_t
        slots = [(0, idx + tuple(n_rank + m for m in mu))
                 for (_, idx, mu) in multi_slot_index(n_rank, flag.dim_t, k, r)]
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
    params = (v.dim - lagr.dim, v.value_dim, v.degree - 1)
    basis, labels = _assemble(_induction(v, lagr, []), kernel_of_form(v),
                              poly_coordinate_labels(*params))
    expected = embed_in(canonical_poly_model(*params).form, v.dim)
    if pullback(v, basis) != expected:
        raise InternalCheckError("constructed basis does not reproduce the model coefficients")
    return DarbouxBasis(basis, labels, lagr, params, "poly")


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
    k = omega.degree - 1
    n_base = flag.dim_t
    n_rank = flag.vertical.dim - lagr.dim

    if r == 1:
        e_vecs: list = []
    else:
        sym = symbol(omega, flag, r)
        lagr_v = to_vertical_coordinates(flag, lagr)
        if sym.is_zero():
            # every vertical subspace is isotropic for a vanishing symbol
            e_v = complement(lagr_v).unit_rows()
        else:
            e_v = _induction(sym, lagr_v, [])[0].frame
        e_vecs = flag.lift_vertical(e_v)
    basis, labels = _assemble(_induction(as_vector_form(omega), lagr, e_vecs, flag, r),
                              kernel_of_form(omega),
                              multi_coordinate_labels(n_rank, n_base, k, r))
    expected = embed_in(_multi_model_data(n_rank, n_base, k, r)[0], omega.dim)
    if pullback(omega, basis) != expected:
        raise InternalCheckError("constructed basis does not reproduce the model coefficients")
    return DarbouxBasis(basis, labels, lagr, (n_rank, n_base, k, r), "multi")


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
    """The seeded map that conjugates a model; it fixes the vertical space of a multi model."""
    if model.kind == "poly":
        return seeded_conjugate(model.dim, seed)
    n_rank, n_base, _, _ = model.params
    vertical = frozenset(list(range(1, n_rank + 1)) +
                         list(range(n_rank + n_base + 1, model.dim + 1)))
    return seeded_conjugate(model.dim, seed, preserve=[vertical])


def conjugated_poly_instance(model: CanonicalModel, seed: int):
    """Pullback of a model by ``conjugating_map``, with the moved subspace and the map."""
    cmap = conjugating_map(model, seed)
    return pullback(model.form, cmap.matrix), transform_subspace(cmap.inv, model.lagrangian), cmap


# one body serves both kinds: the map of a multi model fixes the vertical space
conjugated_multi_instance = conjugated_poly_instance
