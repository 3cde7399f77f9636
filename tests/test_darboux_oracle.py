"""Differential tests: the one Darboux induction against the two it replaced.

``darboux._induction`` runs the poly and the multi induction as one loop
over slots, and ``darboux._assemble`` lays out both bases.  The oracles
below are the previous code: the poly loop ``_extend_poly``, the multi loop
``extend_isotropic_complement_multi`` with its second (vertical) avoid
span, the two hand-written basis assemblies, and the extension wrapper with
its ``mode`` string.  They also keep the previous duals and pairings: a
full inverse of [frame + completion | L] and one ``evaluate`` per slot at
every step, where the induction now inverts one codim L matrix of
annihilator pairings per induction.  Bases must agree exactly,
matrices and labels included, and a model that one side refuses must be
refused by the other with the same error.
"""

from __future__ import annotations

import itertools
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import extend_isotropic_complement, intersect, row, vectors
from polydarboux.darboux import (canonical_multi_model, canonical_poly_model,
                                 conjugated_multi_instance, conjugated_poly_instance,
                                 darboux_basis_multi, darboux_basis_poly, multi_slot_index)
from polydarboux.errors import ConstructionError, PolydarbouxError, PreconditionError
from polydarboux.exterior import VectorValuedForm, contract, evaluate, form, wedge_all
from polydarboux.lagrangian import (_stacked, as_vector_form, is_isotropic, kernel_of_form,
                                    detect_multilagrangian, symbol, to_vertical_coordinates)
from polydarboux.linalg import ONE, ZERO, Matrix, Subspace, complement, inverse, subspace_sum
from polydarboux.sparse import SparseSolver, _sparse

settings.register_profile("darboux_oracle", deadline=None, max_examples=25, derandomize=True)
PROFILE = settings.get_profile("darboux_oracle")


# ---------------------------------------------------------------------------
# oracles: the previous code


def oracle_completion(dim, avoid, count):
    picked = []
    span = avoid.copy()
    for i in range(dim):
        if len(picked) == count:
            break
        if span.insert({i: ONE}):
            e = [ZERO] * dim
            e[i] = ONE
            picked.append(e)
    if len(picked) != count:
        raise ConstructionError("could not complete a complement with standard vectors")
    return picked


def oracle_span_of_rows(start, *groups):
    ech = start.echelon.copy()
    for x in itertools.chain(*groups):
        ech.insert(_sparse(x))
    return ech


def oracle_dual_rows(columns):
    inv = inverse(Matrix.from_cols(columns))
    return [row(inv, i) for i in range(inv.rows)]


def oracle_lagrangian_solver(v, lagr, ker):
    l_prime = complement(ker, inside=lagr)
    solver = SparseSolver()
    for b in vectors(l_prime):
        solver.add_generator(_stacked(contract(b, v)))
    return l_prime, solver


def oracle_momentum(solver, l_prime, target):
    answer = solver.solve(target)
    if answer is None:
        raise ConstructionError(
            "required dual vector does not exist; the subspace is not "
            "poly/multilagrangian for the form")
    assert all(answer.values())  # the solver answers with its nonzero coefficients only
    coeffs = [answer.get(j, ZERO) for j in range(solver.ngen)]
    out = [ZERO] * l_prime.ambient_dim
    for c, b in zip(coeffs, vectors(l_prime)):
        if c:
            out = [x + c * y for x, y in zip(out, b)]
    return out


def oracle_target(duals, idx, component, dim):
    factors = [form(dim, 1, {(j + 1,): x for j, x in enumerate(duals[i - 1]) if x})
               for i in idx]
    w = wedge_all(factors) if factors else form(dim, 0, {(): 1})
    return {(component, m): c for m, c in w.coeffs.items()}


def oracle_extend_poly(v, lagr, e_vecs, l_prime, solver):
    dim = v.dim
    k = v.degree - 1
    n_rank = dim - lagr.dim
    avoid = oracle_span_of_rows(lagr, e_vecs)
    while len(e_vecs) < n_rank:
        completion = oracle_completion(dim, avoid, n_rank - len(e_vecs))
        basis_c = e_vecs + completion
        candidate = completion[0]
        duals = oracle_dual_rows(basis_c + vectors(lagr))[:n_rank]
        u = list(candidate)
        for a in range(v.value_dim):
            contracted = contract(candidate, VectorValuedForm((v.components[a],)))
            for idx in itertools.combinations(range(1, n_rank + 1), k):
                coeff = evaluate(contracted.components[0], [basis_c[i - 1] for i in idx])
                if not coeff:
                    continue
                mom = oracle_momentum(solver, l_prime, oracle_target(duals, idx, a, dim))
                u = [x - coeff * y for x, y in zip(u, mom)]
        e_vecs.append(u)
        avoid.insert(_sparse(u))
    return e_vecs


def oracle_extend_multi(omega, lagr, flag, r, e_vecs, start_h, l_prime, solver):
    dim = omega.dim
    k = omega.degree - 1
    n_rank = len(e_vecs)
    n_base = flag.dim_t
    h_vecs = [list(x) for x in start_h]
    slots = multi_slot_index(n_rank, n_base, k, r)
    vert_avoid = oracle_span_of_rows(flag.vertical, e_vecs, h_vecs)
    lagr_avoid = oracle_span_of_rows(lagr, e_vecs, h_vecs)
    while len(h_vecs) < n_base:
        candidate = oracle_completion(dim, vert_avoid, 1)[0]
        lagr_avoid.insert(_sparse(candidate))
        filler = oracle_completion(dim, lagr_avoid, n_base - len(h_vecs) - 1)
        basis_c = e_vecs + h_vecs + [candidate] + filler
        duals = oracle_dual_rows(basis_c + vectors(lagr))[: n_rank + n_base]
        u = list(candidate)
        contracted = contract(candidate, omega)
        for (s, idx, mu) in slots:
            args = [basis_c[i - 1] for i in idx] + [basis_c[n_rank + m - 1] for m in mu]
            coeff = evaluate(contracted, args)
            if not coeff:
                continue
            target = oracle_target(duals, idx + tuple(n_rank + m for m in mu), 0, dim)
            u = [x - coeff * y for x, y in zip(u, oracle_momentum(solver, l_prime, target))]
        h_vecs.append(u)
        vert_avoid.insert(_sparse(u))
    return h_vecs


def oracle_extension(form_in, lagr, start, mode="poly", flag=None, r=None):
    if mode == "poly":
        v = as_vector_form(form_in)
        e_vecs = [list(x) for x in vectors(start)]
        if e_vecs:
            sub = Subspace.from_vectors(v.dim, e_vecs)
            if sub.dim != len(e_vecs) or intersect(sub, lagr).dim != 0:
                raise PreconditionError("start vectors must be independent from the subspace")
            if not is_isotropic(sub, v, v.degree - 1):
                raise PreconditionError("start subspace is not isotropic at the required level")
        l_prime, solver = oracle_lagrangian_solver(v, lagr, kernel_of_form(v))
        return Subspace.from_vectors(v.dim, oracle_extend_poly(v, lagr, e_vecs, l_prime, solver))
    omega = form_in
    e_part = intersect(start, flag.vertical)
    n_rank = flag.vertical.dim - lagr.dim
    if e_part.dim != n_rank or intersect(e_part, lagr).dim != 0:
        raise PreconditionError("start must meet the vertical space exactly in a complement of L")
    if not is_isotropic(start, omega, omega.degree - 1):
        raise PreconditionError("start subspace is not isotropic at the required level")
    h_part = complement(e_part, inside=start)
    l_prime, solver = oracle_lagrangian_solver(as_vector_form(omega), lagr, kernel_of_form(omega))
    h_vecs = oracle_extend_multi(omega, lagr, flag, r, [list(x) for x in vectors(e_part)],
                                 [list(x) for x in vectors(h_part)], l_prime, solver)
    return Subspace.from_vectors(omega.dim, vectors(e_part) + h_vecs)


def oracle_basis_poly(v, lagr):
    """The previous assembly of ``darboux_basis_poly`` for a supplied subspace."""
    ker = kernel_of_form(v)
    dim = v.dim
    k = v.degree - 1
    n_rank = dim - lagr.dim
    l_prime, solver = oracle_lagrangian_solver(v, lagr, ker)
    e_vecs = oracle_extend_poly(v, lagr, [], l_prime, solver)
    duals = oracle_dual_rows(e_vecs + vectors(lagr))[:n_rank]
    columns = list(e_vecs)
    labels = [("q", (i,)) for i in range(1, n_rank + 1)]
    for a in range(v.value_dim):
        for idx in itertools.combinations(range(1, n_rank + 1), k):
            target = oracle_target(duals, idx, a, dim)
            columns.append(oracle_momentum(solver, l_prime, target))
            labels.append(("p", (a + 1,), idx))
    for j, kv in enumerate(vectors(ker), start=1):
        columns.append(list(kv))
        labels.append(("ker", (j,)))
    return Matrix.from_cols(columns), tuple(labels)


def oracle_basis_multi(omega, flag, r, lagr):
    """The previous assembly of ``darboux_basis_multi`` for a supplied subspace."""
    dim = omega.dim
    k = omega.degree - 1
    n_base = flag.dim_t
    n_rank = flag.vertical.dim - lagr.dim
    if r == 1:
        e_vecs = []
    else:
        sym = symbol(omega, flag, r)
        lagr_v = to_vertical_coordinates(flag, lagr)
        if sym.is_zero():
            e_v = [list(x) for x in vectors(complement(lagr_v))]
        else:
            l_prime_v, solver_v = oracle_lagrangian_solver(sym, lagr_v, kernel_of_form(sym))
            e_v = oracle_extend_poly(sym, lagr_v, [], l_prime_v, solver_v)
        # lift_vertical returns sparse vectors; the oracle works on dense ones
        e_vecs = [[x.get(j, ZERO) for j in range(dim)] for x in flag.lift_vertical(e_v)]
    ker = kernel_of_form(omega)
    l_prime, solver = oracle_lagrangian_solver(as_vector_form(omega), lagr, ker)
    h_vecs = oracle_extend_multi(omega, lagr, flag, r, e_vecs, [], l_prime, solver)
    duals = oracle_dual_rows(e_vecs + h_vecs + vectors(lagr))[: n_rank + n_base]
    columns = list(e_vecs) + list(h_vecs)
    labels = [("q", (i,)) for i in range(1, n_rank + 1)]
    labels += [("x", (mu,)) for mu in range(1, n_base + 1)]
    for (s, idx, mu) in multi_slot_index(n_rank, n_base, k, r):
        target = oracle_target(duals, idx + tuple(n_rank + m for m in mu), 0, dim)
        columns.append(oracle_momentum(solver, l_prime, target))
        labels.append(("p", idx, mu))
    for j, kv in enumerate(vectors(ker), start=1):
        columns.append(list(kv))
        labels.append(("ker", (j,)))
    return Matrix.from_cols(columns), tuple(labels)


# ---------------------------------------------------------------------------
# comparison


def outcome(build):
    """(matrix, labels) of the basis ``build()`` returns, or the error it raised."""
    try:
        res = build()
    except PolydarbouxError as exc:
        return type(exc).__name__, str(exc)
    return res if isinstance(res, tuple) else (res.matrix, res.labels)


POLY_GRID = [(n_rank, nhat, k) for k in (1, 2, 3) for n_rank in range(k, 6) for nhat in (1, 2, 3)
             if n_rank + nhat * comb(n_rank, k) <= 24]
MULTI_GRID = [(n_rank, n_base, k, r) for n_rank in (1, 2, 3) for n_base in (1, 2, 3)
              for k in (1, 2, 3) for r in range(1, k + 2) if k + 1 - r <= n_base]


def multi_model_or_none(params):
    try:
        return canonical_multi_model(*params)
    except PreconditionError:
        return None  # empty momentum block


def assert_poly_matches(params, seed):
    model = canonical_poly_model(*params)
    moved, lagr, _ = conjugated_poly_instance(model, seed)
    new = outcome(lambda: darboux_basis_poly(moved, lagrangian=lagr))
    old = outcome(lambda: oracle_basis_poly(moved, lagr))
    assert new == old, (params, seed)
    return new


def assert_multi_matches(params, seed):
    model = multi_model_or_none(params)
    if model is None:
        return None
    r = params[3]
    moved, lagr, _ = conjugated_multi_instance(model, seed)
    if r == 1:
        # the model's L misses the kernel (the E block) and is refused (see
        # test_r1_model_subspace_is_refused_for_missing_the_kernel), so the
        # detected subspace, which contains the kernel, is used
        lagr = detect_multilagrangian(moved, model.flag, r).subspace
    new = outcome(lambda: darboux_basis_multi(moved, model.flag, r, lagrangian=lagr))
    old = outcome(lambda: oracle_basis_multi(moved, model.flag, r, lagr))
    assert new == old, (params, seed)
    return new


def test_grid_bases_match_the_previous_induction():
    outcomes = []
    for seed in (3, 1003):
        outcomes += [assert_poly_matches(params, seed) for params in POLY_GRID]
        outcomes += [assert_multi_matches(params, seed) for params in MULTI_GRID]
    built = [res for res in outcomes if res is not None]
    # every model with a momentum block gets a basis
    assert all(isinstance(res[0], Matrix) for res in built)
    assert len(built) == 2 * (len(POLY_GRID) + len(MULTI_GRID)) - 4


@pytest.mark.parametrize("params", [(16, 2, 1), (32, 1, 1), (8, 1, 3)])
def test_large_bases_match_the_previous_induction(params):
    # dims 48-64: many steps, so a skipped pairing or duals of a wrong basis show
    matrix, labels = assert_poly_matches(params, 3)
    assert matrix.rows == canonical_poly_model(*params).dim


def test_r1_model_subspace_is_refused_for_missing_the_kernel():
    refused = 0
    for seed in (3, 1003):
        for params in MULTI_GRID:
            model = multi_model_or_none(params)
            if model is None or params[3] != 1:
                continue
            moved, lagr, _ = conjugated_multi_instance(model, seed)
            ker = kernel_of_form(moved)
            assert not lagr.contains_subspace(ker)
            named = f"kernel of the form \\(dimension {ker.dim}\\)"
            with pytest.raises(PreconditionError, match=named):
                darboux_basis_multi(moved, model.flag, 1, lagrangian=lagr)
            refused += 1
    assert refused == 36


@settings(PROFILE)
@given(st.data())
def test_bases_match_on_drawn_seeds(data):
    seed = data.draw(st.integers(0, 10 ** 6), label="seed")
    if data.draw(st.booleans(), label="poly"):
        assert_poly_matches(data.draw(st.sampled_from(POLY_GRID), label="params"), seed)
    else:
        assert_multi_matches(data.draw(st.sampled_from(MULTI_GRID), label="params"), seed)


def _poly_start(model, count):
    return Subspace.span_of_coordinates(model.dim, range(1, count + 1))


@pytest.mark.parametrize("params,count", [((3, 2, 1), 1), ((3, 2, 2), 2), ((4, 1, 2), 2),
                                          ((3, 1, 3), 0)])
def test_unflagged_start_extends_like_the_poly_loop(params, count):
    model = canonical_poly_model(*params)
    start = _poly_start(model, count)
    new = extend_isotropic_complement(model.form, model.lagrangian, start)
    assert new == oracle_extension(model.form, model.lagrangian, start)
    assert new.dim == params[0] and new.contains_subspace(start)


@pytest.mark.parametrize("params,h_count", [((2, 2, 2, 2), 0), ((2, 2, 2, 2), 1),
                                            ((1, 3, 2, 2), 2), ((2, 2, 2, 3), 1),
                                            ((2, 3, 2, 2), 2)])
def test_flagged_start_extends_like_the_multi_loop(params, h_count):
    model = canonical_multi_model(*params)
    n_rank, n_base = params[0], params[1]
    # E plus the first h_count base vectors: isotropic in the model
    start = subspace_sum(model.isotropic_complement, Subspace.span_of_coordinates(
        model.dim, range(n_rank + 1, n_rank + h_count + 1)))
    new = extend_isotropic_complement(model.form, model.lagrangian, start,
                                      flag=model.flag, r=params[3])
    old = oracle_extension(model.form, model.lagrangian, start, mode="multi",
                           flag=model.flag, r=params[3])
    assert new == old
    assert new.dim == n_rank + n_base


def test_flagged_start_on_a_conjugate_extends_like_the_multi_loop():
    model = canonical_multi_model(2, 2, 2, 2)
    moved, lagr, _ = conjugated_multi_instance(model, seed=41)
    basis = darboux_basis_multi(moved, model.flag, 2, lagrangian=lagr)
    # E and the first base vector of a Darboux frame
    start = Subspace.from_vectors(model.dim, [basis.matrix.col(j) for j in range(3)])
    new = extend_isotropic_complement(moved, lagr, start, flag=model.flag, r=2)
    assert new == oracle_extension(moved, lagr, start, mode="multi", flag=model.flag, r=2)
