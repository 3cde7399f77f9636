import random
from fractions import Fraction
from math import comb

import pytest

from conftest import (identity, intersect, is_maximal_isotropic, orthogonal_complement,
                      random_form, std_vector, to_vertical_coordinates_oracle, vectors)
from polydarboux.darboux import (canonical_multi_model, canonical_poly_model,
                                 conjugated_multi_instance, conjugated_poly_instance,
                                 seeded_conjugate)
from polydarboux.errors import PreconditionError
from polydarboux.exterior import (Flag, VectorValuedForm, add, coordinate_flag, form, project,
                                  pullback, zero_form)
from polydarboux.lagrangian import (check_multilagrangian,
                                    check_polylagrangian, classify_horizontal_form,
                                    classify_vector_form, constant_rank_sampled,
                                    detect_multilagrangian, dimension_criterion_multi,
                                    dimension_criterion_poly,
                                    greedy_maximal_isotropic, is_isotropic,
                                    kernel_of_form,
                                    kernels_orthogonal_under,
                                    polysymplectic_uniform_rank_check,
                                    projection_kernel_isotropy_check, rank_2form,
                                    search_polylagrangian, symbol,
                                    symbol_structure_check, to_vertical_coordinates,
                                    uniform_rank)
from polydarboux.linalg import Matrix, Subspace, subspace_sum, transform_subspace
from polydarboux.sparse import _axpy


# ---------------------------------------------------------------------------
# kernels and orthogonal complements


def test_annihilator_wedges_match_contraction_kernel():
    # independent characterization: the k-forms annihilated by every vector
    # of the subspace are exactly the wedges of annihilating covectors
    import itertools as it
    from polydarboux.exterior import contract, mask_of
    from polydarboux.lagrangian import _annihilator_wedges
    from polydarboux.linalg import kernel_basis
    from polydarboux.sparse import span_equal
    rng = random.Random(61)
    for _ in range(12):
        dim = rng.randint(2, 5)
        k = rng.randint(1, min(3, dim))
        nvec = rng.randint(0, dim)
        sub = Subspace.from_vectors(
            dim, [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(nvec)])
        wedges = [{(0, m): c for m, c in w.coeffs.items()}
                  for w in _annihilator_wedges(sub, k)]
        monos = list(it.combinations(range(1, dim + 1), k))
        rows = []
        for u in vectors(sub):
            # linear conditions on the coefficient vector of a k-form
            by_target: dict = {}
            for j, mono in enumerate(monos):
                base = form(dim, k, {mono: 1})
                image = contract(u, base)
                for m2, c2 in image.coeffs.items():
                    by_target.setdefault(m2, [Fraction(0)] * len(monos))[j] = c2
            rows.extend(by_target.values())
        sols = ([[x.get(j, Fraction(0)) for j in range(len(monos))]
                 for x in kernel_basis(rows, len(monos))] if rows else
                [[Fraction(1 if i == j else 0) for j in range(len(monos))]
                 for i in range(len(monos))])
        expected = []
        for sol in sols:
            vecdict = {(0, mask_of(monos[j])): c for j, c in enumerate(sol) if c}
            if vecdict:
                expected.append(vecdict)
        assert span_equal(wedges, expected)


def test_kernel_of_nondegenerate_triple(area_triple_form):
    assert kernel_of_form(area_triple_form).dim == 0


def test_kernel_of_zero_form():
    z = VectorValuedForm((zero_form(4, 2),))
    assert kernel_of_form(z) == Subspace.full(4)


def test_kernel_of_single_component(small_candidates_form):
    w1 = small_candidates_form.components[0]
    # contract all five basis vectors by hand: only the last one dies
    assert kernel_of_form(w1) == Subspace.span_of_coordinates(5, [5])


def test_level_one_complement_of_full_space_is_kernel(rank_gap_form):
    got = orthogonal_complement(Subspace.full(4), rank_gap_form, 1)
    assert got == kernel_of_form(rank_gap_form)
    assert got.dim == 0


def test_orthogonal_complements_increase_with_level():
    rng = random.Random(23)
    for _ in range(10):
        dim = rng.randint(3, 5)
        comps = tuple(random_form(rng, dim, 3) for _ in range(2))
        v = VectorValuedForm(comps)
        sub = Subspace.from_vectors(dim, [std_vector(dim, 1), std_vector(dim, 2)])
        prev = None
        for level in range(1, 3):
            cur = orthogonal_complement(sub, v, level)
            if prev is not None:
                assert cur.contains_subspace(prev)
            prev = cur


def test_canonical_complement_is_isotropic_at_top_level():
    model = canonical_poly_model(3, 2, 2)
    e = model.isotropic_complement
    assert orthogonal_complement(e, model.form, 2).contains_subspace(e)
    assert is_isotropic(e, model.form, 2)


def test_lines_are_isotropic():
    rng = random.Random(29)
    for _ in range(10):
        dim = rng.randint(2, 5)
        v = VectorValuedForm((random_form(rng, dim, 2),))
        line = Subspace.from_vectors(dim, [std_vector(dim, 1)])
        assert is_isotropic(line, v, 1)


def test_canonical_lagrangian_is_maximal_isotropic():
    model = canonical_poly_model(2, 2, 1)
    assert is_maximal_isotropic(model.lagrangian, model.form)


def test_small_candidate_span_is_maximal_isotropic(small_candidates_form):
    sub = Subspace.span_of_coordinates(5, [3, 4, 5])
    for t in ([1, 0], [0, 1], [1, 1], [2, -3]):
        p = VectorValuedForm((project(small_candidates_form, t),))
        assert is_maximal_isotropic(sub, p)
    assert is_maximal_isotropic(sub, small_candidates_form)


# ---------------------------------------------------------------------------
# the defining equality and the counting criterion


def test_check_polylagrangian_canonical():
    for (n_rank, nhat, k) in [(2, 2, 1), (3, 1, 2), (2, 3, 2)]:
        model = canonical_poly_model(n_rank, nhat, k)
        assert check_polylagrangian(model.lagrangian, model.form)


def test_check_polylagrangian_rejects_small_candidate(small_candidates_form):
    sub = Subspace.span_of_coordinates(5, [3, 4, 5])
    assert not check_polylagrangian(sub, small_candidates_form)


def test_check_polylagrangian_zero_subspace(rank_gap_form):
    assert not check_polylagrangian(Subspace.zero(4), rank_gap_form)


def test_dimension_criterion_poly_instances():
    model = canonical_poly_model(2, 2, 1)
    assert model.lagrangian.dim == 0 + 2 * comb(2, 1)
    assert dimension_criterion_poly(model.lagrangian, model.form)


def test_dimension_criterion_multi_instance():
    model = canonical_multi_model(1, 2, 2, 2)
    assert model.lagrangian.dim == comb(1, 0) * comb(2, 2) + comb(1, 1) * comb(2, 1)
    assert dimension_criterion_multi(model.lagrangian, model.form, model.flag, 2)


def test_dimension_criterion_rejects_low_codimension():
    model = canonical_poly_model(2, 2, 2)
    with pytest.raises(PreconditionError):
        dimension_criterion_poly(Subspace.full(model.dim), model.form)


def test_equivalence_of_criteria_on_generated_instances():
    rng = random.Random(101)
    cases = 0
    for seed in range(30):
        n_rank, nhat, k = rng.choice([(2, 2, 1), (3, 2, 1), (2, 1, 1), (3, 1, 2), (2, 2, 2)])
        model = canonical_poly_model(n_rank, nhat, k)
        moved, lagr, _ = conjugated_poly_instance(model, seed=seed)
        for sub in (lagr, transform_subspace(identity(model.dim), model.isotropic_complement)):
            n_codim = model.dim - sub.dim
            if n_codim < k:
                continue
            assert check_polylagrangian(sub, moved) == dimension_criterion_poly(sub, moved)
            cases += 1
        # corrupted instance: add a stray monomial to the first component
        comps = list(moved.components)
        comps[0] = add(comps[0], form(model.dim, k + 1,
                                      {tuple(range(1, k + 2)): Fraction(1)}))
        bad = VectorValuedForm(tuple(comps))
        if not bad.is_zero():
            assert check_polylagrangian(lagr, bad) == dimension_criterion_poly(lagr, bad)
            cases += 1
    assert cases >= 50


# ---------------------------------------------------------------------------
# detection


def test_find_polylagrangian_canonical_complement_dims():
    model = canonical_poly_model(3, 2, 2)
    search = search_polylagrangian(model.form)
    assert search.status == "found"
    assert search.subspace == model.lagrangian
    assert search.component_complement_dims == [comb(3, 2)] * 2


def test_find_polylagrangian_absent_with_kernel_sum_diagnostic(area_triple_form):
    search = search_polylagrangian(area_triple_form)
    assert search.status == "absent"
    assert search.subspace is None
    assert any("sum of kernels = full space, not isotropic" in d for d in search.diagnostics)


def test_find_polylagrangian_absent_small_candidates(small_candidates_form):
    search = search_polylagrangian(small_candidates_form)
    assert search.status == "absent"
    assert any("required polylagrangian dim 4 vs candidates of dim 2 and 3" in d
               for d in search.diagnostics)


def test_find_polylagrangian_rejects_zero_form():
    with pytest.raises(PreconditionError):
        search_polylagrangian(VectorValuedForm((zero_form(3, 2),)))


def test_find_polylagrangian_invariant_under_component_permutation():
    model = canonical_poly_model(2, 3, 1)
    moved, lagr, _ = conjugated_poly_instance(model, seed=9)
    permuted = VectorValuedForm(tuple(moved.components[i] for i in (2, 0, 1)))
    assert search_polylagrangian(moved).subspace == lagr
    assert search_polylagrangian(permuted).subspace == lagr


def test_find_polylagrangian_invariant_under_coordinate_permutation():
    # uniqueness: the found subspace transforms covariantly when the basis
    # order changes, so the internal complement choices do not matter
    model = canonical_poly_model(2, 2, 1)
    perm = [4, 1, 6, 2, 5, 3]
    rows = [[Fraction(1) if perm[j] == i + 1 else Fraction(0) for j in range(6)]
            for i in range(6)]
    p = Matrix.from_rows(rows)
    moved = pullback(model.form, p)
    got = search_polylagrangian(moved).subspace
    from polydarboux.linalg import inverse
    assert got == transform_subspace(inverse(p), model.lagrangian)


def test_kernel_containment_when_structure_found():
    # degenerate instance: embed a canonical model with two kernel directions
    model = canonical_poly_model(2, 2, 1)
    dim = model.dim + 2
    comps = tuple(form(dim, 2, {idx: c for idx, c in comp.terms()})
                  for comp in model.form.components)
    v = VectorValuedForm(comps)
    search = search_polylagrangian(v)
    assert search.status == "found"
    ker = kernel_of_form(v)
    assert ker.dim == 2
    assert search.subspace.contains_subspace(ker)
    for a in range(v.value_dim):
        t = [Fraction(0)] * v.value_dim
        t[a] = Fraction(1)
        assert search.subspace.contains_subspace(kernel_of_form(project(v, t)))


def test_gl_equivariance_poly():
    model = canonical_poly_model(2, 2, 1)
    cmap = seeded_conjugate(model.dim, 77)
    moved = pullback(model.form, cmap.matrix)
    lagr_moved = transform_subspace(cmap.inv, model.lagrangian)
    assert check_polylagrangian(lagr_moved, moved)
    assert not check_polylagrangian(model.isotropic_complement, model.form)


def test_greedy_absorbs_into_canonical_lagrangian():
    model = canonical_poly_model(2, 2, 1)
    # a seed covering every first-block index for one component pins the
    # growth inside the momentum block
    seed = Subspace.from_vectors(model.dim,
                                 [std_vector(model.dim, 3), std_vector(model.dim, 4)])
    got = greedy_maximal_isotropic(model.form, seed)
    assert got == model.lagrangian
    # a thinner seed may wander to a different subspace, but the result is
    # still maximal isotropic
    thin = greedy_maximal_isotropic(
        model.form, Subspace.from_vectors(model.dim, [std_vector(model.dim, 3)]))
    assert is_maximal_isotropic(thin, model.form)


def test_greedy_on_symplectic_plane_space():
    # symplectic form on R^4: any run ends on a 2-dimensional plane
    omega = VectorValuedForm((form(4, 2, {(1, 3): 1, (2, 4): 1}),))
    got = greedy_maximal_isotropic(omega, Subspace.from_vectors(4, [std_vector(4, 1)]))
    assert got.dim == 2
    assert is_maximal_isotropic(got, omega)


def test_greedy_terminates_on_candidate_span(small_candidates_form):
    seed = Subspace.from_vectors(5, [std_vector(5, 3)])
    got = greedy_maximal_isotropic(small_candidates_form, seed)
    assert got == Subspace.span_of_coordinates(5, [3, 4, 5])


def test_greedy_rejects_non_isotropic_seed():
    omega = VectorValuedForm((form(2, 2, {(1, 2): 1}),))
    with pytest.raises(PreconditionError):
        greedy_maximal_isotropic(omega, Subspace.full(2))


def test_scalar_large_isotropics_live_inside_the_unique_subspace():
    # single-component case with strict containment threshold
    model = canonical_poly_model(3, 1, 2)
    omega = model.form
    ker = kernel_of_form(omega)
    threshold = ker.dim + comb(2, 2) + 1
    for i in range(1, model.dim + 1):
        got = greedy_maximal_isotropic(omega, Subspace.from_vectors(model.dim, [std_vector(model.dim, i)]))
        assert is_maximal_isotropic(got, omega)
        if got.dim > threshold:
            assert model.lagrangian.contains_subspace(got)


# ---------------------------------------------------------------------------
# ranks


def test_rank_of_plane_and_zero():
    assert rank_2form(form(2, 2, {(1, 2): 1})) == 1
    assert rank_2form(zero_form(3, 2)) == 0


def test_rank_of_five_dim_component(small_candidates_form):
    assert rank_2form(small_candidates_form.components[0]) == 2


def test_uniform_rank_values(rank_gap_form, area_triple_form, small_candidates_form):
    assert uniform_rank(rank_gap_form) is None
    assert uniform_rank(area_triple_form) == 1
    assert uniform_rank(small_candidates_form) == 2


def test_constant_rank_sampled(rank_gap_form):
    assert constant_rank_sampled(rank_gap_form, 100) == 2


def test_constant_rank_disagreement():
    w1 = form(4, 2, {(1, 2): 1})
    w2 = form(4, 2, {(3, 4): 1})
    mixed = VectorValuedForm((w1, add(w1, w2)))
    # ranks 1 and 2 both occur among projections
    assert constant_rank_sampled(mixed, 50) is None


def test_constant_rank_single_component():
    omega = VectorValuedForm((form(4, 2, {(1, 2): 1, (3, 4): 1}),))
    assert constant_rank_sampled(omega, 10) == rank_2form(omega.components[0])


def test_constant_rank_requires_samples(rank_gap_form):
    with pytest.raises(PreconditionError):
        constant_rank_sampled(rank_gap_form, 0)


def test_polysymplectic_uniform_rank_checks():
    model = canonical_poly_model(2, 2, 1)
    assert polysymplectic_uniform_rank_check(model.form, model.lagrangian)
    moved, lagr, _ = conjugated_poly_instance(model, seed=5)
    assert polysymplectic_uniform_rank_check(moved, lagr)
    plane = canonical_poly_model(1, 1, 1)
    assert polysymplectic_uniform_rank_check(plane.form, plane.lagrangian)


def test_projection_kernel_isotropy(area_triple_form, small_candidates_form):
    assert projection_kernel_isotropy_check(area_triple_form)
    assert projection_kernel_isotropy_check(small_candidates_form)


def test_cross_kernel_orthogonality_fails_under_third(area_triple_form):
    e1, e2, e3 = [1, 0, 0], [0, 1, 0], [0, 0, 1]
    assert kernels_orthogonal_under(area_triple_form, e1, e2, e1)
    assert kernels_orthogonal_under(area_triple_form, e1, e2, e2)
    assert not kernels_orthogonal_under(area_triple_form, e1, e2, e3)


# ---------------------------------------------------------------------------
# symbol and horizontal structure


def test_symbol_of_canonical_multi_matches_pattern():
    from polydarboux.darboux import canonical_multi_symbol
    for (n_rank, n_base, k, r) in [(2, 2, 2, 2), (1, 2, 2, 2), (2, 2, 2, 3), (3, 2, 3, 2)]:
        model = canonical_multi_model(n_rank, n_base, k, r)
        assert symbol(model.form, model.flag, r) == canonical_multi_symbol(n_rank, n_base, k, r)


def test_symbol_with_void_horizontality_restricts_the_form():
    # full-vertical flag: one value component, coefficients unchanged
    from polydarboux.exterior import coordinate_flag
    omega = form(3, 2, {(1, 2): 2, (2, 3): -1})
    flag = coordinate_flag(3, [1, 2, 3])
    sym = symbol(omega, flag, 2)
    assert sym.value_dim == 1
    assert sym.components[0] == omega


def test_symbol_of_multisymplectic_model():
    from polydarboux.darboux import canonical_multi_symbol
    model = canonical_multi_model(2, 2, 2, 2)  # k = n = 2, r = 2
    sym = symbol(model.form, model.flag, 2)
    expected = canonical_multi_symbol(2, 2, 2, 2)
    assert sym == expected
    assert sym.value_dim == comb(2, 1)


def test_symbol_is_splitting_independent():
    from polydarboux.exterior import with_splitting
    model = canonical_multi_model(2, 2, 2, 2)
    flag = model.flag
    cols = []
    for j in range(flag.dim_t):
        col = list(flag.splitting.col(j))
        # add vertical corrections
        col[0] += Fraction(3)
        col[-1] += Fraction(j - 2)
        cols.append(col)
    flag2 = with_splitting(flag, Matrix.from_cols(cols))
    assert symbol(model.form, flag, 2) == symbol(model.form, flag2, 2)


def test_symbol_splitting_independence_nonadapted_vertical():
    # vertical space not a coordinate plane
    from polydarboux.exterior import Flag
    vert = Subspace.from_vectors(4, [[1, 1, 0, 0], [0, 0, 1, 1]])
    # free columns are 2 and 4 (0-based 1, 3)
    s1 = Matrix.from_cols([[0, 1, 0, 0], [0, 0, 0, 1]])
    s2 = Matrix.from_cols([[1, 2, 0, 0], [0, 0, -1, 0]])
    f1 = Flag(4, vert, s1)
    f2 = Flag(4, vert, s2)
    rng = random.Random(71)
    omega = random_form(rng, 4, 2)
    assert symbol(omega, f1, 2) == symbol(omega, f2, 2)


def test_check_multilagrangian_canonical_and_rejects_complement():
    model = canonical_multi_model(2, 2, 2, 2)
    assert check_multilagrangian(model.lagrangian, model.form, model.flag, 2)
    assert not check_multilagrangian(model.isotropic_complement, model.form, model.flag, 2)


def test_check_multilagrangian_r1_vertical_space():
    model = canonical_multi_model(2, 2, 2, 1)
    assert kernel_of_form(model.form) == model.isotropic_complement
    assert check_multilagrangian(model.flag.vertical, model.form, model.flag, 1)
    rep = classify_horizontal_form(model.form, model.flag, 1)
    assert rep.rank == 0


def test_symbol_structure_check_grid():
    for (n_rank, n_base, k, r) in [(2, 2, 2, 2), (1, 2, 2, 2), (2, 2, 2, 3),
                                   (2, 1, 2, 2), (3, 3, 3, 2), (2, 3, 3, 4)]:
        model = canonical_multi_model(n_rank, n_base, k, r)
        chk = symbol_structure_check(model.form, model.flag, r, model.lagrangian)
        assert chk.symbol_polylagrangian
        assert chk.kernel_contained
        assert chk.gap_bound_holds
        if k == n_base and r == 2:
            assert chk.kernel_gap == 1  # multisymplectic models: gap exactly one


def test_symbol_structure_check_void_horizontality_gap_zero():
    from polydarboux.exterior import coordinate_flag
    omega = form(4, 3, {(1, 2, 3): 1, (1, 2, 4): 1, (1, 3, 4): 1, (2, 3, 4): 1})
    flag = coordinate_flag(4, [1, 2, 3, 4])
    sub = greedy_maximal_isotropic(VectorValuedForm((omega,)),
                                   Subspace.from_vectors(4, [std_vector(4, 1)]))
    assert is_maximal_isotropic(sub, omega) and check_multilagrangian(sub, omega, flag, 3)
    chk = symbol_structure_check(omega, flag, 3, sub)
    assert chk.kernel_gap == 0
    assert chk.symbol_polylagrangian


def test_detect_multilagrangian_on_conjugates():
    for (params, expect_unique) in [(((2, 2, 2, 2)), True), (((3, 3, 3, 2)), True)]:
        model = canonical_multi_model(*params)
        moved, lagr, _ = conjugated_multi_instance(model, seed=4)
        det = detect_multilagrangian(moved, model.flag, params[3])
        assert det.status == "found"
        if expect_unique:
            assert det.subspace == lagr


def test_adapted_coordinates_invert_nothing(monkeypatch):
    # vertical coordinates are read off the pivots of the vertical echelon: no inverse runs,
    # under any name a polydarboux module binds it by
    import sys
    from polydarboux import lagrangian, linalg
    inverses = []
    original = linalg.inverse

    def counted(m):
        inverses.append(1)
        return original(m)

    for name, mod in list(sys.modules.items()):
        if name.startswith("polydarboux") and getattr(mod, "inverse", None) is original:
            monkeypatch.setattr(mod, "inverse", counted)
    adapted = []
    original_adapted = lagrangian._adapted

    def counted_adapted(omega, flag):
        adapted.append(1)
        return original_adapted(omega, flag)

    monkeypatch.setattr(lagrangian, "_adapted", counted_adapted)
    model = canonical_multi_model(2, 2, 2, 2)
    moved, lagr, _ = conjugated_multi_instance(model, seed=4)
    symbol(moved, model.flag, 2)
    assert detect_multilagrangian(moved, model.flag, 2).status == "found"
    classify_horizontal_form(moved, model.flag, 2)
    assert check_multilagrangian(lagr, moved, model.flag, 2)
    to_vertical_coordinates(model.flag, lagr)
    assert len(adapted) >= 3
    assert inverses == []


def _multi_refusal_inputs():
    """(form, flag, r, candidate) per input: the model 1 2 2 2 (degree 3, a quotient of 2)."""
    model = canonical_multi_model(1, 2, 2, 2)
    omega, flag, lagr = model.form, model.flag, model.lagrangian
    return {
        "r < 0": (omega, flag, -1, lagr),
        "r = 0": (omega, flag, 0, lagr),
        "r > degree": (omega, flag, 4, lagr),
        "quotient too small": (omega, coordinate_flag(6, [1, 2, 4, 5, 6]), 1, lagr),
        "not vertical": (omega, flag, 2, Subspace.span_of_coordinates(6, [2])),
        "not horizontal enough": (add(omega, form(6, 3, {(1, 4, 5): 1})), flag, 2, lagr),
    }


OUT_OF_RANGE = "horizontality parameter out of range"
TOO_SMALL = "quotient too small for the requested horizontality"
NOT_VERTICAL = "candidate subspace is not vertical"
STEEP = "form has a monomial with 3 vertical factors; not (1)-horizontal"


# what each function gives on each input: a refusal text, or the value it returns; symbol and
# detect_multilagrangian take no candidate.
MULTI_REFUSALS = [
    ("r < 0", OUT_OF_RANGE, OUT_OF_RANGE, OUT_OF_RANGE, OUT_OF_RANGE),
    ("r = 0", OUT_OF_RANGE, OUT_OF_RANGE, OUT_OF_RANGE, OUT_OF_RANGE),
    ("r > degree", OUT_OF_RANGE, OUT_OF_RANGE, OUT_OF_RANGE, OUT_OF_RANGE),
    ("quotient too small", TOO_SMALL, TOO_SMALL, TOO_SMALL, False),
    ("not vertical", None, NOT_VERTICAL, None, NOT_VERTICAL),
    ("not horizontal enough", STEEP, STEEP, STEEP, False),
]


@pytest.mark.parametrize("case, sym_text, check_text, detect_text, criterion", MULTI_REFUSALS,
                         ids=[c[0] for c in MULTI_REFUSALS])
def test_multilagrangian_refusals_keep_their_texts(case, sym_text, check_text, detect_text,
                                                   criterion):
    omega, flag, r, sub = _multi_refusal_inputs()[case]
    calls = [(sym_text, lambda: symbol(omega, flag, r)),
             (check_text, lambda: check_multilagrangian(sub, omega, flag, r)),
             (detect_text, lambda: detect_multilagrangian(omega, flag, r)),
             (criterion, lambda: dimension_criterion_multi(sub, omega, flag, r))]
    for want, call in calls:
        if type(want) is str:
            with pytest.raises(PreconditionError) as err:
                call()
            assert str(err.value) == want
        elif want is not None:
            assert call() is want


# (dim, vertical indices, terms, r) -> (status, rank, diagnostics, component_complement_dims)
DETECTION_OUTCOMES = [
    ((4, [4], {(1, 2): 2, (2, 4): 2, (3, 4): 2}, 1),
     ("absent", None, ["vertical space fails the horizontal contraction equality"], [])),
    ((4, [4], {(1, 2): 2, (2, 4): 2, (3, 4): 2}, 2),
     ("not_found", None, ["symbol vanishes; vertical greedy search exhausted"], [])),
    ((4, [2, 3, 4], {(2, 4): 1}, 2),
     ("not_found", None,
      ["not found - possibly nonexistent (scalar-symbol search is heuristic)"], [])),
    ((3, [2, 3], {(1, 3): -2}, 1), ("found", 0, [], [])),
    ((3, [2, 3], {(1, 3): -2}, 2), ("found", 0, ["symbol vanishes; vertical greedy search"], [])),
    ((6, [4, 5, 6], {(1, 2, 3): 2, (1, 2, 5): -1, (1, 3, 6): 2, (1, 4, 5): -2, (2, 3, 4): 2,
                     (2, 4, 5): -2, (2, 4, 6): -1, (2, 5, 6): -1, (3, 4, 5): 1}, 2),
     ("absent", None, ["kernel-sum candidate has dim 2 and is isotropic",
                       "construction candidate fails the contraction-image equality"], [0, 1, 0])),
    ((5, [3, 4, 5], {(1, 3, 4): -2, (2, 4, 5): -1}, 2),
     ("absent", None, ["symbol subspace fails the horizontal contraction equality"], [1, 1])),
]


@pytest.mark.parametrize("given, outcome", DETECTION_OUTCOMES)
def test_each_detection_branch_keeps_its_status_and_diagnostics(given, outcome):
    # a miss proves absence only where the candidate was the only one: r = 1, or the
    # unique L of a symbol with two or more components
    dim, vertical, terms, r = given
    flag = coordinate_flag(dim, vertical)
    got = detect_multilagrangian(form(dim, len(next(iter(terms))), terms), flag, r)
    assert (got.status, got.rank, got.diagnostics, got.component_complement_dims) == outcome
    assert (got.subspace == flag.vertical) is (got.status == "found")


def _same_vertical_coordinates(flag: Flag, sub: Subspace) -> bool:
    """Equal subspaces from the pivot read and the inverse oracle, or equal refusals;
    True when the subspace was vertical."""
    try:
        want = to_vertical_coordinates_oracle(flag, sub)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError) as err:
            to_vertical_coordinates(flag, sub)
        assert str(err.value) == str(exc)
        return False
    assert to_vertical_coordinates(flag, sub) == want
    return True


@pytest.mark.parametrize("seed", [3, 503])
def test_vertical_coordinates_match_the_inverse_on_the_multi_grid(seed):
    import itertools
    verticals = refusals = 0
    for n_rank, n_base, k in itertools.product((1, 2, 3), repeat=3):
        for r in range(max(1, k + 1 - n_base), k + 2):
            try:
                model = canonical_multi_model(n_rank, n_base, k, r)
            except PreconditionError:  # an empty momentum block
                continue
            moved, lagr, _ = conjugated_multi_instance(model, seed=seed)
            flag = model.flag
            for sub in (lagr, kernel_of_form(moved), flag.vertical, Subspace.full(moved.dim)):
                if _same_vertical_coordinates(flag, sub):
                    verticals += 1
                else:
                    refusals += 1
    assert verticals > 150 and refusals > 50


def test_vertical_coordinates_match_the_inverse_off_coordinate_flags():
    # vertical spaces that are not coordinate planes, with pivot entries other than one, and
    # splittings with vertical corrections; candidates inside, across and from form kernels
    rng = random.Random(35)
    verticals = refusals = 0
    for _ in range(40):
        dim = rng.randint(3, 7)
        vert = Subspace.from_vectors(dim, [[rng.randint(-3, 3) for _ in range(dim)]
                                           for _ in range(rng.randint(1, dim - 1))])
        if vert.dim in (0, dim):
            continue
        free = [j for j in range(dim) if j not in vert.pivot_columns()]
        cols = [{j: 1} for j in free]
        for col in cols:
            for u in vert.rows():
                if c := rng.randint(-2, 2):
                    for i, x in u.items():
                        col[i] = col.get(i, 0) + c * x
        flag = Flag(dim, vert, Matrix(dim, tuple({i: Fraction(x) for i, x in c.items() if x}
                                                 for c in cols)))
        inside = Subspace.zero(dim)
        for _ in range(rng.randint(1, vert.dim)):
            combo: dict = {}
            for u in vert.rows():
                _axpy(combo, rng.randint(-2, 2), u)
            inside = subspace_sum(inside, Subspace.from_vectors(dim, [combo]))
        across = Subspace.from_vectors(dim, [[rng.randint(-2, 2) for _ in range(dim)]])
        ker = kernel_of_form(random_form(rng, dim, rng.randint(2, 3)))
        for sub in (inside, across, ker, intersect(ker, vert), vert):
            if _same_vertical_coordinates(flag, sub):
                verticals += 1
            else:
                refusals += 1
    assert verticals > 100 and refusals > 40


def test_classify_reports():
    model = canonical_poly_model(2, 2, 1)
    rep = classify_vector_form(model.form)
    assert rep.classification == "polysymplectic"
    assert rep.rank == 2
    assert not rep.is_degenerate

    multi = canonical_multi_model(1, 2, 2, 2)
    mrep = classify_horizontal_form(multi.form, multi.flag, 2)
    assert mrep.classification == "multisymplectic"
    assert mrep.horizontality == (2, 1)

    higher = canonical_poly_model(3, 2, 2)
    assert classify_vector_form(higher.form).classification == "polylagrangian"

    zero_rep = classify_vector_form(VectorValuedForm((zero_form(3, 2),)))
    assert zero_rep.classification == "none"


def test_classify_degenerate_cases():
    model = canonical_poly_model(2, 2, 1)
    dim = model.dim + 1
    comps = tuple(form(dim, 2, {idx: c for idx, c in comp.terms()})
                  for comp in model.form.components)
    rep = classify_vector_form(VectorValuedForm(comps))
    assert rep.classification == "polypresymplectic"
    assert rep.is_degenerate

    multi = canonical_multi_model(2, 2, 2, 1)
    mrep = classify_horizontal_form(multi.form, multi.flag, 1)
    assert mrep.classification == "multilagrangian"
    assert mrep.is_degenerate
