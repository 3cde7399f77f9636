import random
import sys
from math import comb

import pytest

from conftest import (canonical_multi_symbol, corrupt_first_basis_column,
                      extend_isotropic_complement, identity, intersect, matmul)
from polydarboux.darboux import (canonical_multi_model, canonical_poly_model,
                                 conjugated_multi_instance, conjugated_poly_instance,
                                 darboux_basis_multi, darboux_basis_poly, seeded_conjugate)
from polydarboux.errors import ConstructionError, InternalCheckError, PreconditionError
from polydarboux.exterior import VectorValuedForm, embed_in, form, pullback
from polydarboux.lagrangian import (check_multilagrangian, is_isotropic, kernel_of_form,
                                    search_polylagrangian, symbol)
from polydarboux.linalg import Subspace, complement, inverse, subspace_sum, transform_subspace


# ---------------------------------------------------------------------------
# canonical models


def test_smallest_poly_model_is_symplectic_plane():
    model = canonical_poly_model(1, 1, 1)
    assert model.dim == 2
    assert model.form.components[0] == form(2, 2, {(2, 1): 1})


def test_poly_model_dimensions():
    model = canonical_poly_model(2, 2, 1)
    assert model.dim == 6
    assert model.lagrangian.dim == 4
    model2 = canonical_poly_model(3, 1, 2)
    assert model2.dim == 3 + comb(3, 2)
    assert model2.lagrangian.dim == 3


def test_poly_model_rejects_low_rank():
    with pytest.raises(PreconditionError):
        canonical_poly_model(1, 1, 2)


def test_multi_model_multisymplectic_dimensions():
    model = canonical_multi_model(1, 2, 2, 2)
    assert model.dim == 3 + 3
    assert model.lagrangian.dim == 3
    assert kernel_of_form(model.form).dim == 0


def test_multi_model_r1_kernel_is_first_block():
    model = canonical_multi_model(2, 2, 2, 1)
    assert kernel_of_form(model.form) == model.isotropic_complement


def test_multi_model_k_equals_n_dimension_count():
    model = canonical_multi_model(2, 2, 2, 2)
    assert model.lagrangian.dim == 1 + 2 * 2


def test_multi_model_rejects_empty_momentum_block():
    with pytest.raises(PreconditionError):
        canonical_multi_model(1, 1, 3, 3)


def test_multi_model_structure_flags():
    model = canonical_multi_model(2, 2, 2, 2)
    assert check_multilagrangian(model.lagrangian, model.form, model.flag, 2)
    assert is_isotropic(model.frame_complement, model.form, 2)
    e = intersect(model.frame_complement, model.flag.vertical)
    assert e == model.isotropic_complement
    assert is_isotropic(e, model.form, 1)


# ---------------------------------------------------------------------------
# isotropic complement extension


def test_extension_of_complete_start_returns_it():
    model = canonical_poly_model(2, 2, 1)
    out = extend_isotropic_complement(model.form, model.lagrangian,
                                      model.isotropic_complement)
    assert out == model.isotropic_complement


def test_extension_from_empty_start():
    model = canonical_poly_model(3, 2, 2)
    out = extend_isotropic_complement(model.form, model.lagrangian,
                                      Subspace.zero(model.dim))
    assert out.dim == 3
    assert intersect(out, model.lagrangian).dim == 0
    assert is_isotropic(out, model.form, 2)


def test_extension_after_shuffle_fixing_lagrangian():
    model = canonical_poly_model(2, 2, 1)
    lag_coords = frozenset(range(3, model.dim + 1))
    cmap = seeded_conjugate(model.dim, 12, preserve=[lag_coords])
    moved = pullback(model.form, cmap.matrix)
    lagr = transform_subspace(cmap.inv, model.lagrangian)
    assert lagr == model.lagrangian
    out = extend_isotropic_complement(moved, lagr, Subspace.zero(model.dim))
    assert intersect(out, lagr).dim == 0
    assert subspace_sum(out, lagr) == Subspace.full(model.dim)
    assert is_isotropic(out, moved, 1)


def test_extension_multi_mode():
    model = canonical_multi_model(2, 2, 2, 2)
    out = extend_isotropic_complement(model.form, model.lagrangian,
                                      model.isotropic_complement, flag=model.flag, r=2)
    assert out.dim == 4
    assert intersect(out, model.flag.vertical) == model.isotropic_complement
    assert is_isotropic(out, model.form, 2)


def test_extension_rejects_bad_start():
    model = canonical_poly_model(2, 2, 1)
    with pytest.raises(PreconditionError):
        extend_isotropic_complement(model.form, model.lagrangian,
                                    Subspace.span_of_coordinates(model.dim, [3]))


@pytest.mark.parametrize("vertical, message", [([1], "complement of L"),
                                               ([1, 5], "independent from the subspace"),
                                               ([5, 6], "independent from the subspace"),
                                               ([1, 2, 5], "complement of L")])
def test_flagged_extension_rejects_a_start_whose_vertical_part_is_no_complement(vertical, message):
    # multi 2 2 2 2: E = e1, e2; base = e3, e4; L = e5..e9; so [1] is too small,
    # [1, 5] and [5, 6] meet L and [1, 2, 5] is too large
    model = canonical_multi_model(2, 2, 2, 2)
    start = Subspace.span_of_coordinates(model.dim, vertical)
    with pytest.raises(PreconditionError, match=message):
        extend_isotropic_complement(model.form, model.lagrangian, start, flag=model.flag, r=2)


# ---------------------------------------------------------------------------
# Darboux bases


def test_darboux_poly_on_canonical_model():
    model = canonical_poly_model(2, 2, 1)
    basis = darboux_basis_poly(model.form)
    assert pullback(model.form, basis.matrix) == model.form
    assert basis.labels[:2] == (("q", (1,)), ("q", (2,)))
    assert ("p", (1,), (1,)) in basis.labels


def test_darboux_poly_on_conjugate_matches_pattern_exactly():
    rng = random.Random(2)
    for (n_rank, nhat, k) in [(2, 2, 1), (3, 2, 2), (2, 3, 1), (3, 1, 1)]:
        model = canonical_poly_model(n_rank, nhat, k)
        for _ in range(3):
            moved, lagr, _ = conjugated_poly_instance(model, seed=rng.randint(0, 10**6))
            basis = darboux_basis_poly(moved, lagrangian=lagr)
            assert pullback(moved, basis.matrix) == model.form


def test_darboux_poly_requires_structure(area_triple_form):
    with pytest.raises(ConstructionError):
        darboux_basis_poly(area_triple_form)


def test_darboux_poly_rejects_wrong_subspace():
    model = canonical_poly_model(2, 2, 1)
    with pytest.raises(PreconditionError):
        darboux_basis_poly(model.form, lagrangian=model.isotropic_complement)


def test_darboux_poly_handles_kernel_columns():
    model = canonical_poly_model(2, 2, 1)
    dim = model.dim + 2
    comps = tuple(form(dim, 2, {idx: c for idx, c in comp.terms()})
                  for comp in model.form.components)
    degenerate = VectorValuedForm(comps)
    basis = darboux_basis_poly(degenerate)
    assert basis.labels[-2:] == (("ker", (1,)), ("ker", (2,)))
    pulled = pullback(degenerate, basis.matrix)
    assert pulled == embed_in(model.form, dim)


def test_darboux_multi_on_canonical_model():
    model = canonical_multi_model(1, 2, 2, 2)
    basis = darboux_basis_multi(model.form, model.flag, 2)
    assert pullback(model.form, basis.matrix) == model.form
    labels = basis.labels
    assert labels[0] == ("q", (1,))
    assert labels[1] == ("x", (1,))


def test_darboux_multi_on_flag_preserving_conjugates():
    for (params, seeds) in [((1, 2, 2, 2), (3, 8)), ((2, 2, 2, 2), (5,)),
                            ((2, 2, 2, 3), (4,)), ((2, 1, 2, 2), (6,))]:
        model = canonical_multi_model(*params)
        for seed in seeds:
            moved, lagr, _ = conjugated_multi_instance(model, seed=seed)
            basis = darboux_basis_multi(moved, model.flag, params[3], lagrangian=lagr)
            assert pullback(moved, basis.matrix) == model.form


@pytest.mark.parametrize("kind, params", [("poly", (2, 2, 1)), ("poly", (3, 1, 2)),
                                          ("multi", (1, 2, 2, 2)), ("multi", (2, 3, 2, 3))])
def test_a_corrupted_basis_column_fails_the_pullback_check(kind, params, monkeypatch):
    # the pullback check is the whole certificate of both builders: a basis with one
    # wrong frame column is refused, whether L is detected or supplied
    if kind == "poly":
        model = canonical_poly_model(*params)
        moved, lagr, _ = conjugated_poly_instance(model, 3)
        builds = [lambda: darboux_basis_poly(moved), lambda: darboux_basis_poly(moved, lagr)]
    else:
        model = canonical_multi_model(*params)
        moved, lagr, _ = conjugated_multi_instance(model, 3)
        builds = [lambda: darboux_basis_multi(moved, model.flag, params[3]),
                  lambda: darboux_basis_multi(moved, model.flag, params[3], lagr)]
    for build in builds:
        assert pullback(moved, build().matrix) == model.form
    corrupt_first_basis_column(monkeypatch)
    for build in builds:
        with pytest.raises(InternalCheckError,
                           match="constructed basis does not reproduce the model coefficients"):
            build()


def test_darboux_multi_multisymplectic_pattern():
    model = canonical_multi_model(1, 2, 2, 2)
    moved, lagr, _ = conjugated_multi_instance(model, seed=19)
    basis = darboux_basis_multi(moved, model.flag, 2, lagrangian=lagr)
    pulled = pullback(moved, basis.matrix)
    assert pulled == model.form
    # the normalized form has the model symbol
    sym = symbol(pulled, model.flag, 2)
    assert sym == canonical_multi_symbol(1, 2, 2, 2)


def test_conjugate_maps_are_unimodular_inverses():
    rng = random.Random(31)
    for _ in range(5):
        dim = rng.randint(2, 8)
        cmap = seeded_conjugate(dim, rng.randint(0, 10**6))
        assert matmul(cmap.matrix, cmap.inv) == identity(dim)


def test_flag_preserving_conjugates_fix_vertical_space():
    model = canonical_multi_model(2, 2, 2, 2)
    _, _, cmap = conjugated_multi_instance(model, seed=77)
    assert transform_subspace(cmap.matrix, model.flag.vertical) == model.flag.vertical


def test_poly_induction_sums_no_subspaces(monkeypatch):
    # the avoid span L + span(e_1..e_j) grows by one insert per step instead
    # of a subspace_sum and a Subspace rebuild each step
    calls = []

    def counted(a, b):
        calls.append((a.dim, b.dim))
        return subspace_sum(a, b)

    for name, mod in list(sys.modules.items()):
        if name.startswith("polydarboux") and getattr(mod, "subspace_sum", None) is subspace_sum:
            monkeypatch.setattr(mod, "subspace_sum", counted)
    moved, lagr, _ = conjugated_poly_instance(canonical_poly_model(4, 2, 1), 5)
    assert darboux_basis_poly(moved, lagr).params == (4, 2, 1)
    assert calls == []


def test_poly_induction_inverts_codim_l_matrices_only_at_pairing_steps(monkeypatch):
    # duals come from L⁰ through a codim L inverse, at most once per step whose
    # candidate pairs with a slot plus once for the finished frame; since the
    # basis is the same modulo L at every step, one inverse serves them all
    import polydarboux.darboux as darboux_module
    shapes = []

    def counted(m):
        shapes.append((m.rows, m.cols))
        return inverse(m)

    monkeypatch.setattr(darboux_module, "inverse", counted)
    model = canonical_poly_model(16, 2, 1)
    moved, lagr, _ = conjugated_poly_instance(model, 3)
    basis = darboux_basis_poly(moved, lagr)
    assert pullback(moved, basis.matrix) == model.form
    # the candidates are the standard vectors completing L, in index order; one
    # that pairs with no slot becomes its frame vector unchanged
    candidates = complement(lagr).pivot_columns()
    pairing_steps = sum(basis.matrix.col(j) != tuple(int(i == p) for i in range(model.dim))
                        for j, p in enumerate(candidates))
    assert 0 < pairing_steps < 16
    assert shapes == [(16, 16)] and len(shapes) <= pairing_steps + 1


def test_search_and_induction_read_no_rref_rows_but_the_kernels(monkeypatch):
    # vectors stay integer echelon rows from the kernel to the basis: the search
    # reads no RREF row, and the construction only the kernel's, whose unit rows
    # are the last columns of the basis matrix
    moved, _, _ = conjugated_poly_instance(canonical_poly_model(32, 1, 1), 3)
    read = []
    unit_rows = Subspace.unit_rows

    def counted(self):
        read.append(self)
        return unit_rows(self)

    monkeypatch.setattr(Subspace, "unit_rows", counted)
    assert search_polylagrangian(moved).status == "found"
    assert read == []
    basis = darboux_basis_poly(moved)
    assert basis.params == (32, 1, 1)
    assert read == [kernel_of_form(moved)]


def test_r1_model_subspace_missing_the_kernel_is_refused_by_name():
    model = canonical_multi_model(2, 2, 2, 1)
    ker = kernel_of_form(model.form)
    assert (model.lagrangian.dim, ker.dim) == (1, 2)
    assert check_multilagrangian(model.lagrangian, model.form, model.flag, 1)
    with pytest.raises(PreconditionError, match=r"kernel of the form \(dimension 2\)"):
        darboux_basis_multi(model.form, model.flag, 1, lagrangian=model.lagrangian)
    # detection returns a subspace that contains the kernel and builds the basis
    basis = darboux_basis_multi(model.form, model.flag, 1)
    assert basis.lagrangian.contains_subspace(ker)
