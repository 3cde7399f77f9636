import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import involutive, su2_invariant_fields
from polydarboux.corpus import check_claims, corpus_files
from polydarboux.errors import PreconditionError
from polydarboux.io import load_document
from polydarboux.exterior import basis_covector, form
from polydarboux.lie import (chevalley_eilenberg_d, frame_form,
                             invariant_two_forms, lie_algebra, su2, su2_example)
from polydarboux.linalg import Matrix, rank


def test_su2_constants_are_valid():
    g = su2()
    assert g.bracket([1, 0, 0], [0, 1, 0]) == [0, 0, 1]
    assert g.bracket([0, 1, 0], [1, 0, 0]) == [0, 0, -1]


def test_structure_constant_validation():
    # violating antisymmetry
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2] = 1
    with pytest.raises(PreconditionError):
        lie_algebra(3, c)
    # violating the Jacobi identity
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2], c[1][0][2] = 1, -1
    c[0][2][1], c[2][0][1] = 1, -1
    c[1][2][2], c[2][1][2] = 1, -1
    with pytest.raises(PreconditionError):
        lie_algebra(3, c)


def test_heisenberg_algebra_is_accepted():
    # [e1, e2] = e3, everything else zero
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2], c[1][0][2] = 1, -1
    g = lie_algebra(3, c)
    assert g.bracket([1, 0, 0], [0, 1, 0]) == [0, 0, 1]


def test_maurer_cartan_structure_shape():
    g = su2()
    # the differential of each basis covector is minus the corresponding
    # invariant 2-form
    betas = invariant_two_forms(g)
    for a in range(3):
        alpha = basis_covector(3, a + 1)
        d_alpha = chevalley_eilenberg_d(g, alpha)
        assert d_alpha == form(3, 2, {idx: -c for idx, c in betas[a].terms()})


def test_invariant_two_forms_are_closed():
    g = su2()
    for beta in invariant_two_forms(g):
        assert chevalley_eilenberg_d(g, beta).is_zero()


def test_top_cochain_differential_vanishes():
    g = su2()
    top = form(3, 3, {(1, 2, 3): 1})
    assert chevalley_eilenberg_d(g, top).is_zero()


def test_differential_is_nilpotent_su2_and_random_algebras():
    algebras = [su2()]
    # Heisenberg and a solvable algebra, both Jacobi-checked at construction
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2], c[1][0][2] = 1, -1
    algebras.append(lie_algebra(3, c))
    c2 = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c2[0][1][1], c2[1][0][1] = 1, -1   # [e1, e2] = e2
    algebras.append(lie_algebra(3, c2))
    rng = random.Random(3)
    for g in algebras:
        for _ in range(5):
            terms = {}
            for idx in itertools.combinations(range(1, 4), rng.randint(0, 2)):
                terms[idx] = Fraction(rng.randint(-3, 3))
            cochain = form(3, len(next(iter(terms))) if terms else 0, terms)
            assert chevalley_eilenberg_d(g, chevalley_eilenberg_d(g, cochain)).is_zero()


def test_su2_example_default_frame():
    rep = su2_example()
    assert rep.classification == "polysymplectic"
    assert rep.betas_closed
    assert rep.isotropic
    assert rep.polylagrangian
    assert not rep.involutive
    assert rep.distribution.dim == 2


def test_su2_example_rejects_degenerate_frame():
    with pytest.raises(PreconditionError):
        su2_example(Matrix.from_rows([[1, 2], [2, 4], [0, 0]]))


OTHER_FRAMES = ([[1, 1], [0, 1], [0, 0]],
                [[2, 0], [1, 1], [1, 0]],
                [[0, 1], [1, 0], [3, -2]])


def test_su2_example_other_injective_frames_agree():
    for rows in OTHER_FRAMES:
        rep = su2_example(Matrix.from_rows(rows))
        assert rep.classification == "polysymplectic"
        assert rep.polylagrangian
        assert not rep.involutive


def test_invariant_fields_bracket_off_plane():
    fields = su2_invariant_fields([[1, 0, 0], [0, 1, 0]])
    assert not involutive(fields)
    # the full triple of generators is involutive (it is the whole algebra)
    triple = su2_invariant_fields([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert involutive(triple)


def test_su2_involutivity_matches_the_polynomial_field_oracle():
    """The bracket test of the frame against the Frobenius test of its invariant fields,
    on 100 seeded injective integer frames and the frames above."""
    rng = random.Random(36)
    frames = [Matrix.from_rows(r) for r in OTHER_FRAMES]
    while len(frames) < 103:
        m = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(2)] for _ in range(3)])
        if rank(m) == 2:
            frames.append(m)
    for frame in frames:
        cols = [frame.col(j) for j in range(2)]
        assert su2_example(frame).involutive == involutive(su2_invariant_fields(cols))


def test_frame_form_components():
    g = su2()
    omega = frame_form(g, Matrix.from_rows([[1, 0], [0, 1], [0, 0]]))
    betas = invariant_two_forms(g)
    assert omega.components[0] == betas[0]
    assert omega.components[1] == betas[1]


def test_lie_claims_fail_on_an_algebra_that_is_not_su2(tmp_path):
    """The abelian copy of su2_frame.json passed all five claims, which ran on su(2) itself."""
    source = next(p for p in corpus_files() if p.endswith("su2_frame.json"))
    doc = json.loads(Path(source).read_text())
    assert all(r.ok for r in check_claims(source, load_document(source)))
    for term in doc["structure_constants"]:
        term["value"] = "0"
    path = str(tmp_path / "abelian_frame.json")
    Path(path).write_text(json.dumps(doc))
    results = {r.claim.split(" = ")[0]: r for r in check_claims(path, load_document(path))}
    assert set(results) == set(doc["claims"])
    assert not results["involutive"].ok and not results["classification"].ok
    assert all(not r.ok and r.detail == "the structure constants are not su(2)'s"
               for r in results.values())
