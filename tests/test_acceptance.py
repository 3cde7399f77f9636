"""Acceptance suite: one test per criterion, each printing a PASS line.

Exact criteria run with zero tolerance; the flow demonstrator uses the
stated float tolerances.  Stated wall-clock budgets are asserted.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

from conftest import (canonical_multi_symbol, count_horizontal_monomials, random_form,
                      random_vector)
from polydarboux.darboux import (canonical_multi_model, canonical_poly_model,
                                 conjugated_multi_instance, conjugated_poly_instance,
                                 darboux_basis_multi, darboux_basis_poly)
from polydarboux.errors import PreconditionError
from polydarboux.exterior import (VectorValuedForm, add, contract, form, project,
                                  pullback, scale, wedge)
from polydarboux.lagrangian import (DEFAULT_SEED, check_polylagrangian,
                                    check_multilagrangian,
                                    constant_rank_sampled, dimension_criterion_multi,
                                    dimension_criterion_poly, kernel_of_form,
                                    kernels_orthogonal_under,
                                    polysymplectic_uniform_rank_check,
                                    projection_kernel_isotropy_check,
                                    search_polylagrangian, symbol,
                                    symbol_structure_check, uniform_rank)
from polydarboux.lie import chevalley_eilenberg_d, invariant_two_forms, su2, su2_example
from polydarboux.linalg import Subspace
from polydarboux.polyforms import (PolyForm, exterior_d, homotopy_primitive,
                                   max_vertical_factors, pf_contract_basis,
                                   poly_const, poly_from_terms)

ALT_SEEDS = (DEFAULT_SEED, 91, 4242)


def _announce(number: int, name: str, ok: bool, elapsed: float, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f" {extra}" if extra else ""
    print(f"ACCEPTANCE {number} ({name}): {status} [{elapsed:.2f}s]{tail}")
    assert ok


def _gap_form():
    return VectorValuedForm((form(4, 2, {(1, 2): 1, (3, 4): 1}),
                             form(4, 2, {(1, 3): 1, (2, 4): -1})))


def _area_triple():
    return VectorValuedForm((form(3, 2, {(2, 3): 1}),
                             form(3, 2, {(3, 1): 1}),
                             form(3, 2, {(1, 2): 1})))


def _small_candidates():
    return VectorValuedForm((form(5, 2, {(1, 4): 1, (2, 3): 1}),
                             form(5, 2, {(1, 3): 1, (2, 5): -1})))


def test_criterion_1_counterexample_corpus():
    t0 = time.monotonic()
    ok = True

    a1 = _gap_form()
    ok &= wedge(a1.components[0], a1.components[1]).is_zero()
    ok &= constant_rank_sampled(a1, 100, DEFAULT_SEED) == 2
    ok &= uniform_rank(a1) is None

    a2 = _area_triple()
    ok &= uniform_rank(a2) == 1
    ok &= kernel_of_form(a2).dim == 0
    search2 = search_polylagrangian(a2)
    ok &= search2.subspace is None
    ok &= any("sum of kernels = full space, not isotropic" in d for d in search2.diagnostics)
    e1, e2, e3 = [1, 0, 0], [0, 1, 0], [0, 0, 1]
    ok &= kernels_orthogonal_under(a2, e1, e2, e1)
    ok &= kernels_orthogonal_under(a2, e1, e2, e2)
    ok &= not kernels_orthogonal_under(a2, e1, e2, e3)

    a3 = _small_candidates()
    ok &= uniform_rank(a3) == 2
    # kernels of the projections follow the stated span formula
    for (t1, t2) in ((1, 0), (0, 1), (1, 1)):
        want = Subspace.from_vectors(5, [[0, 0, t1 * t2, -t2 * t2, t1 * t1]])
        ok &= kernel_of_form(project(a3, [t1, t2])) == want
    search3 = search_polylagrangian(a3)
    ok &= search3.subspace is None
    ok &= any("required polylagrangian dim 4 vs candidates of dim 2 and 3" in d
              for d in search3.diagnostics)

    elapsed = time.monotonic() - t0
    _announce(1, "counterexample corpus", ok and elapsed < 1.0, elapsed)


def test_criterion_2_poly_darboux_round_trip():
    t0 = time.monotonic()
    grid = [(n_rank, k, nhat)
            for k in (1, 2, 3) for n_rank in range(k, 5) for nhat in (1, 2, 3)
            if n_rank + nhat * comb(n_rank, k) <= 20]
    checked = recovered = supplied = 0
    ok = True
    for (n_rank, k, nhat) in grid:
        model = canonical_poly_model(n_rank, nhat, k)
        for seed in range(20):
            moved, lagr, _ = conjugated_poly_instance(model, seed=1000 * seed + 7)
            if nhat >= 2:
                search = search_polylagrangian(moved)
                ok &= search.status == "found" and search.subspace == lagr
                basis = darboux_basis_poly(moved)
                recovered += 1
            else:
                search = search_polylagrangian(moved)
                if search.status == "found":
                    basis = darboux_basis_poly(moved, lagrangian=search.subspace)
                    recovered += 1
                else:
                    basis = darboux_basis_poly(moved, lagrangian=lagr)
                    supplied += 1
            ok &= pullback(moved, basis.matrix) == model.form
            checked += 1
    elapsed = time.monotonic() - t0
    _announce(2, "poly Darboux round-trip", ok and elapsed < 60.0, elapsed,
              f"{checked} instances over {len(grid)} parameter sets, "
              f"{recovered} detected, {supplied} with supplied subspace")


def test_criterion_3_multi_round_trip_and_symbol():
    t0 = time.monotonic()
    grid = [(n_rank, n_base, k, r)
            for n_rank in (1, 2, 3) for n_base in (1, 2, 3) for k in (1, 2, 3)
            for r in range(2, k + 2) if k + 1 - r <= n_base]
    checked = skipped = 0
    ok = True
    for (n_rank, n_base, k, r) in grid:
        try:
            model = canonical_multi_model(n_rank, n_base, k, r)
        except PreconditionError:
            skipped += 1  # empty momentum block: the model form would vanish
            continue
        expected_symbol = canonical_multi_symbol(n_rank, n_base, k, r)
        for seed in range(10):
            moved, lagr, _ = conjugated_multi_instance(model, seed=500 * seed + 3)
            basis = darboux_basis_multi(moved, model.flag, r, lagrangian=lagr)
            pulled = pullback(moved, basis.matrix)
            ok &= pulled == model.form
            ok &= symbol(pulled, model.flag, r) == expected_symbol
            chk = symbol_structure_check(moved, model.flag, r, lagr)
            ok &= chk.symbol_polylagrangian and chk.kernel_contained and chk.gap_bound_holds
            if k == n_base and r == 2:
                ok &= chk.kernel_gap == 1
            checked += 1
    elapsed = time.monotonic() - t0
    _announce(3, "multi round-trip and symbol theorem", ok and elapsed < 60.0, elapsed,
              f"{checked} instances, {skipped} vacuous parameter sets skipped")


def test_criterion_4_dimension_formula_oracle():
    from polydarboux.exterior import horizontal_dim
    t0 = time.monotonic()
    ok = True
    for dim_v in range(0, 6):
        for dim_t in range(0, 6):
            for r in range(0, 6):
                for s in range(0, r + 1):
                    ok &= horizontal_dim(r, s, dim_v, dim_t) == \
                        count_horizontal_monomials(r, s, dim_v, dim_t)
    # identity behind the poly criterion: annihilator monomial count
    for n_codim in range(0, 6):
        for k in range(0, 6):
            for nhat in (1, 2, 3):
                count = nhat * sum(1 for _ in itertools.combinations(range(n_codim), k))
                ok &= count == nhat * comb(n_codim, k)
    # identity behind the multi criterion: bounded-vertical monomial count
    for n_codim in range(0, 6):
        for n_base in range(0, 6):
            for k in range(0, 6):
                for r in range(1, k + 2):
                    count = sum(1 for combo in
                                itertools.combinations(range(n_codim + n_base), k)
                                if sum(1 for c in combo if c < n_codim) <= r - 1)
                    ok &= count == sum(comb(n_codim, s) * comb(n_base, k - s)
                                       for s in range(r))
    elapsed = time.monotonic() - t0
    _announce(4, "dimension-formula oracle", ok and elapsed < 10.0, elapsed)


def test_criterion_5_equivalence_oracle():
    t0 = time.monotonic()
    rng = random.Random(DEFAULT_SEED)
    poly_cases = multi_cases = 0
    ok = True
    poly_params = [(2, 2, 1), (3, 2, 1), (2, 1, 1), (3, 1, 2), (2, 2, 2), (3, 3, 1)]
    while poly_cases < 120:
        n_rank, nhat, k = rng.choice(poly_params)
        model = canonical_poly_model(n_rank, nhat, k)
        moved, lagr, _ = conjugated_poly_instance(model, seed=rng.randrange(10**6))
        candidates = [lagr]
        # corrupted form: extra monomial on one component
        comps = list(moved.components)
        idx = tuple(sorted(rng.sample(range(1, model.dim + 1), k + 1)))
        comps[0] = add(comps[0], form(model.dim, k + 1, {idx: Fraction(rng.choice([1, 2]))}))
        corrupted = VectorValuedForm(tuple(comps))
        for target, sub in ((moved, lagr), (corrupted, lagr),
                            (moved, Subspace.span_of_coordinates(model.dim, range(1, lagr.dim + 1)))):
            if target.is_zero() or model.dim - sub.dim < k:
                continue
            ok &= check_polylagrangian(sub, target) == dimension_criterion_poly(sub, target)
            poly_cases += 1
    multi_params = [(1, 2, 2, 2), (2, 2, 2, 2), (2, 1, 2, 2), (2, 2, 2, 3)]
    while multi_cases < 80:
        params = rng.choice(multi_params)
        n_rank, n_base, k, r = params
        model = canonical_multi_model(*params)
        moved, lagr, _ = conjugated_multi_instance(model, seed=rng.randrange(10**6))
        bad = Subspace.span_of_coordinates(
            model.dim, list(range(n_rank + n_base + 1, model.dim + 1))[:-1] + [1])
        # corrupted form: a stray monomial within the horizontality bound
        stray = (1,) + tuple(range(n_rank + n_base + 1, n_rank + n_base + k + 1))
        corrupted = add(moved, form(model.dim, k + 1, {stray: Fraction(1)})) \
            if len(set(stray)) == k + 1 and stray[-1] <= model.dim else moved
        targets = [(moved, lagr), (moved, bad)]
        if sum(1 for i in stray if i == 1 or i > n_rank + n_base) <= r:
            targets.append((corrupted, lagr))
        for target, sub in targets:
            if not model.flag.vertical.contains_subspace(sub):
                continue
            lhs = check_multilagrangian(sub, target, model.flag, r)
            rhs = dimension_criterion_multi(sub, target, model.flag, r)
            ok &= lhs == rhs
            multi_cases += 1
    elapsed = time.monotonic() - t0
    _announce(5, "criterion equivalence oracle", ok and (poly_cases + multi_cases) >= 200,
              elapsed, f"{poly_cases} poly + {multi_cases} multi instances")


def _random_poly(rng, dim, deg=3):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * dim
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(dim)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return poly_from_terms(dim, terms)


def test_criterion_6_homotopy_operator():
    t0 = time.monotonic()
    ok = True
    # the worked instance
    worked = PolyForm(2, 2, (1, 1), {0b11: poly_const(2, 1)})
    theta = homotopy_primitive(worked, 1)
    ok &= theta == PolyForm(2, 1, (1, 1), {0b01: poly_from_terms(2, {(0, 1): -1})})
    ok &= exterior_d(theta) == worked

    rng = random.Random(DEFAULT_SEED)
    for k in (1, 2, 3):
        for dim in range(max(2, k), 6):
            count = 0
            while count < 50:
                x_dim = rng.randint(1, dim - 1)
                split = (x_dim, dim - x_dim)
                r = rng.randint(1, k)
                coeffs = {}
                for idx in itertools.combinations(range(1, dim + 1), k - 1):
                    if sum(1 for i in idx if i > x_dim) <= r - 1 and rng.random() < 0.7:
                        p = _random_poly(rng, dim)
                        if not p.is_zero():
                            coeffs[sum(1 << (i - 1) for i in idx)] = p
                beta = PolyForm(dim, k - 1, split, coeffs)
                omega = exterior_d(beta)
                if omega.is_zero() or max_vertical_factors(omega) > r:
                    continue
                th = homotopy_primitive(omega, r)
                ok &= exterior_d(th) == omega
                ok &= max_vertical_factors(th) <= max(r - 1, 0)
                # exhaustive contraction with all r-tuples of fiber directions
                if r <= th.degree:
                    for combo in itertools.combinations(range(x_dim + 1, dim + 1), r):
                        cur = th
                        for i in combo:
                            cur = pf_contract_basis(cur, i)
                        ok &= cur.is_zero()
                count += 1
    elapsed = time.monotonic() - t0
    _announce(6, "homotopy operator", ok and elapsed < 30.0, elapsed,
              "50 closed forms per degree/dimension pair")


def test_criterion_7_su2_example():
    t0 = time.monotonic()
    g = su2()
    ok = True
    for beta in invariant_two_forms(g):
        ok &= chevalley_eilenberg_d(g, beta).is_zero()
    rng = random.Random(DEFAULT_SEED)
    for _ in range(10):
        terms = {}
        deg = rng.randint(0, 2)
        for idx in itertools.combinations(range(1, 4), deg):
            terms[idx] = Fraction(rng.randint(-3, 3))
        cochain = form(3, deg, terms)
        ok &= chevalley_eilenberg_d(g, chevalley_eilenberg_d(g, cochain)).is_zero()
    rep = su2_example()
    ok &= rep.betas_closed and rep.isotropic and rep.polylagrangian
    ok &= not rep.involutive
    ok &= rep.classification == "polysymplectic"
    elapsed = time.monotonic() - t0
    _announce(7, "su(2) example", ok and elapsed < 1.0, elapsed)


def test_criterion_8_moser_demonstrator():
    from polydarboux.moser import ball_sample_points, perturbed_multisymplectic, verify_darboux
    t0 = time.monotonic()
    fx = perturbed_multisymplectic(seed=1)
    pts = ball_sample_points(6, 10, 0.1, DEFAULT_SEED)
    rep = verify_darboux(fx.omega, fx.omega0, pts, steps=1000)
    ok = rep.max_residual < 1e-6
    # fourth-order decay where discretization dominates the residual
    coarse = verify_darboux(fx.omega, fx.omega0, pts, steps=2).max_residual
    fine = verify_darboux(fx.omega, fx.omega0, pts, steps=4).max_residual
    ratio = coarse / fine
    ok &= 12.0 <= ratio <= 20.0
    elapsed = time.monotonic() - t0
    _announce(8, "Moser flow demonstrator", ok and elapsed < 60.0, elapsed,
              f"residual {rep.max_residual:.2e} at 1000 steps, decay ratio {ratio:.1f}")


def test_criterion_9_property_suites():
    t0 = time.monotonic()
    ok = True
    for seed in ALT_SEEDS:
        rng = random.Random(seed)
        # antiderivation and graded commutativity
        for _ in range(20):
            dim = rng.randint(2, 6)
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            a, b = random_form(rng, dim, p), random_form(rng, dim, q)
            v = random_vector(rng, dim)
            lhs = contract(v, wedge(a, b))
            rhs = add(wedge(contract(v, a), b),
                      scale(wedge(a, contract(v, b)), -1 if p % 2 else 1))
            ok &= lhs == rhs
            ok &= wedge(a, b) == scale(wedge(b, a), -1 if (p * q) % 2 else 1)
        # projection commutes with contraction
        for _ in range(10):
            dim = rng.randint(2, 5)
            comps = tuple(random_form(rng, dim, 2) for _ in range(2))
            vv = VectorValuedForm(comps)
            t = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
            v = random_vector(rng, dim)
            ok &= contract(v, project(vv, t)) == project(contract(v, vv), t)
        # kernel containments whenever the structure test passes
        for params in ((2, 2, 1), (3, 2, 2), (2, 3, 1)):
            model = canonical_poly_model(*params)
            moved, lagr, _ = conjugated_poly_instance(model, seed=rng.randrange(10**6))
            ok &= check_polylagrangian(lagr, moved)
            ok &= lagr.contains_subspace(kernel_of_form(moved))
            for a in range(moved.value_dim):
                t = [Fraction(0)] * moved.value_dim
                t[a] = Fraction(1)
                ok &= lagr.contains_subspace(kernel_of_form(project(moved, t)))
        # uniform-rank consequences on the corpus
        model = canonical_poly_model(2, 2, 1)
        ok &= polysymplectic_uniform_rank_check(model.form, model.lagrangian)
        moved, lagr, _ = conjugated_poly_instance(model, seed=rng.randrange(10**6))
        ok &= polysymplectic_uniform_rank_check(moved, lagr)
        plane = canonical_poly_model(1, 1, 1)
        ok &= polysymplectic_uniform_rank_check(plane.form, plane.lagrangian)
        ok &= projection_kernel_isotropy_check(_area_triple())
        ok &= projection_kernel_isotropy_check(_small_candidates())
    elapsed = time.monotonic() - t0
    _announce(9, "property suites over three seeds", ok, elapsed,
              f"seeds {ALT_SEEDS}")
