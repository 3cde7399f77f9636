"""Work remembered within one command: contraction images and the kernel per form, the
adapted matrix per flag, the adapted form per (form, flag), and canonical
forms written term by term.

Remembered contractions are compared with a fresh walk
(``conftest.contraction_oracle``), and the term-by-term builders with the
``add``/``wedge_all`` folds they replace, kept here as oracles.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import canonical_multi_symbol, contraction_oracle, multi_slot_index, vectors
from polydarboux import cli, corpus, darboux, exterior, lagrangian, linalg
from polydarboux.darboux import (_model, canonical_multi_model, canonical_poly_model,
                                 conjugated_multi_instance, conjugated_poly_instance,
                                 darboux_basis_multi)
from polydarboux.errors import PreconditionError
from polydarboux.exterior import (Flag, VectorValuedForm, add, basis_covector, contract,
                                  coordinate_flag, form, pullback, wedge_all, with_splitting,
                                  zero_form)
from polydarboux.io import load_document
from polydarboux.lagrangian import _adapted, kernel_of_form, search_polylagrangian, symbol
from polydarboux.linalg import Matrix, Subspace

settings.register_profile("derive_once", deadline=None, max_examples=120, derandomize=True)
PROFILE = settings.get_profile("derive_once")

entries = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def forms_on(draw, dim: int, degree: int):
    combos = list(itertools.combinations(range(1, dim + 1), degree))
    chosen = draw(st.lists(st.sampled_from(combos), unique=True, max_size=6))
    return form(dim, degree, {idx: draw(entries) for idx in chosen})


def _shaped(dense: list, shape: str):
    """One vector in the formats ``contract`` takes."""
    if shape == "list":
        return dense
    if shape == "dict":
        return {j: x for j, x in enumerate(dense) if x}
    if shape == "zeros":
        return dict(enumerate(dense))  # explicit zero entries kept
    return {j: Fraction(x) for j, x in enumerate(dense) if x}  # int entries as Fractions


# ---------------------------------------------------------------------------
# contraction images remembered per form


@settings(PROFILE)
@given(st.data())
def test_remembered_contraction_equals_a_fresh_walk(data):
    dim = data.draw(st.integers(1, 6))
    degree = data.draw(st.integers(1, dim))
    a = data.draw(forms_on(dim, degree))
    other = data.draw(forms_on(dim, degree))
    twin = form(dim, degree, {idx: c for idx, c in a.terms()})
    vectors = data.draw(st.lists(st.lists(entries, min_size=dim, max_size=dim),
                                 min_size=1, max_size=4))
    calls = data.draw(st.lists(st.tuples(st.sampled_from([a, other]),
                                         st.integers(0, len(vectors) - 1),
                                         st.sampled_from(["list", "dict", "zeros", "fraction"])),
                               min_size=1, max_size=12))
    for target, i, shape in calls:
        v = _shaped(vectors[i], shape)
        want = contraction_oracle(dict(enumerate(vectors[i])), target)
        got = contract(v, target)
        assert got == want and repr(got) == repr(want)
        if degree >= 2:
            u = _shaped(vectors[-1 - i], shape)
            assert contract(u, got) == contraction_oracle(dict(enumerate(vectors[-1 - i])), want)
    # a filled cache takes no part in equality or repr
    assert a == twin and twin == a and repr(a) == repr(twin)
    assert VectorValuedForm((a,)) == VectorValuedForm((twin,))


def test_images_belong_to_their_form_and_to_the_vector_entries():
    a = form(3, 2, {(1, 2): 1, (2, 3): 2})
    b = form(3, 2, {(1, 3): 5})
    assert contract({0: 1}, a) == form(3, 1, {(2,): 1})
    assert contract({0: 1}, b) == form(3, 1, {(3,): 5})      # not the image on a
    assert contract({0: 2}, a) == form(3, 1, {(2,): 2})      # same coordinate, other entry
    assert contract({0: 1, 2: 1}, a) == form(3, 1, {(2,): 1 - 2})


def test_one_walk_per_form_and_vector(monkeypatch):
    walks = []
    original = exterior._contraction_walk

    def counted(v, a):
        walks.append(a)
        return original(v, a)

    monkeypatch.setattr(exterior, "_contraction_walk", counted)
    a = form(4, 2, {(1, 2): 1, (3, 4): Fraction(1, 2)})
    first = contract({0: 1, 2: 3}, a)
    assert contract([1, 0, 3, 0], a) is first
    assert contract({2: Fraction(3), 0: Fraction(1)}, a) is first
    assert len(walks) == 1
    twin = form(4, 2, {(1, 2): 1, (3, 4): Fraction(1, 2)})
    assert contract({0: 1, 2: 3}, twin) == first
    assert len(walks) == 2 and walks[1] is twin


def test_kernel_belongs_to_its_form_and_to_every_wrapper_of_it():
    a = form(3, 2, {(1, 2): 1})
    b = form(3, 2, {(2, 3): 1})
    ker_a = kernel_of_form(a)
    assert ker_a == Subspace.span_of_coordinates(3, [3])
    assert kernel_of_form(b) == Subspace.span_of_coordinates(3, [1])   # not the kernel of a
    # one elimination per scalar form, shared by every one-component wrapper of it
    assert kernel_of_form(a) is ker_a
    assert kernel_of_form(VectorValuedForm((a,))) is ker_a
    twin = form(3, 2, {(1, 2): 1})
    assert kernel_of_form(twin) == ker_a and kernel_of_form(twin) is not ker_a
    pair = VectorValuedForm((a, b))
    assert kernel_of_form(pair) == Subspace.zero(3) and kernel_of_form(pair) is kernel_of_form(pair)
    assert kernel_of_form(a) is ker_a                       # the pair keeps its own kernel
    # a remembered kernel takes no part in equality or repr
    assert a == twin and repr(a) == repr(twin) and pair == VectorValuedForm((twin, b))


def test_search_walks_each_form_vector_pair_once(monkeypatch):
    moved, _, _ = conjugated_poly_instance(canonical_poly_model(4, 1, 2), 3)
    walked = []
    original = exterior._contraction_walk

    def counted(v, a):
        walked.append((a, frozenset((i, x) for i, x in v.items() if x)))  # holds a: ids stay unique
        return original(v, a)

    monkeypatch.setattr(exterior, "_contraction_walk", counted)
    assert search_polylagrangian(moved).status == "found"
    pairs = [(id(a), key) for a, key in walked]
    assert pairs and len(set(pairs)) == len(pairs)


# ---------------------------------------------------------------------------
# the adapted matrix per flag, the adapted form per (form, flag)


def _flags(dim: int) -> list:
    return [coordinate_flag(dim, range(1, dim // 2 + 1)), coordinate_flag(dim, [dim]),
            coordinate_flag(dim, range(2, dim + 1, 2))]


def test_adapted_form_is_remembered_per_form_and_flag():
    model = canonical_multi_model(2, 2, 2, 2)
    moved, _, _ = conjugated_multi_instance(model, 4)
    flags = [model.flag] + _flags(model.dim)
    for _ in range(2):
        for f in (model.form, moved):
            for flag in flags:
                pulled, b = _adapted(f, flag)
                assert b is flag.adapted_matrix()
                assert pulled == pullback(f, b)
                assert _adapted(f, flag)[0] is pulled


def test_adapted_matrix_is_built_once_per_flag():
    for flag in _flags(6) + [canonical_multi_model(2, 2, 2, 2).flag]:
        b = flag.adapted_matrix()
        assert flag.adapted_matrix() is b
        assert b == Matrix.from_cols([flag.splitting.col(j) for j in range(flag.dim_t)]
                                     + vectors(flag.vertical))


def test_darboux_multi_adapts_once_per_flag(monkeypatch):
    model = canonical_multi_model(3, 3, 3, 3)
    moved, _, _ = conjugated_multi_instance(model, 3)
    built = []
    original_cols = Flag.horizontal_cols

    def counted_cols(self):
        built.append(self)
        return original_cols(self)

    pulled = []
    original_pullback = lagrangian.pullback

    def counted_pullback(x, m):
        pulled.append((x, m))
        return original_pullback(x, m)

    monkeypatch.setattr(Flag, "horizontal_cols", counted_cols)
    monkeypatch.setattr(lagrangian, "pullback", counted_pullback)
    darboux_basis_multi(moved, model.flag, 3)
    assert sum(f is model.flag for f in built) == 1
    assert len({id(f) for f in built}) == len(built)
    b = model.flag.adapted_matrix()
    assert sum(1 for x, m in pulled if m is b) == 1
    assert sum(1 for x, m in pulled if x is moved) == 1


def test_symbol_is_remembered_per_form_flag_and_r():
    model = canonical_multi_model(2, 2, 2, 2)
    moved, _, _ = conjugated_multi_instance(model, 5)
    first = {r: symbol(moved, model.flag, r) for r in (2, 3)}
    for r in (3, 2):
        assert symbol(moved, model.flag, r) is first[r]
        # a new flag object remembers nothing
        assert first[r] == symbol(moved, with_splitting(model.flag, model.flag.splitting), r)
    assert not first[2].is_zero() and first[3].is_zero()
    assert symbol(model.form, model.flag, 2) is not first[2]


def test_darboux_builds_the_symbol_once_and_eliminates_as_analyze(tmp_path, monkeypatch, capsys):
    """``canonical multi 2 2 2 2 --shuffle-seed 3``: the search and the basis share one
    symbol, so ``darboux`` eliminates 4 kernels, as ``analyze`` does (5 when it built the
    symbol again)."""
    doc = tmp_path / "m2222.json"
    assert cli.main(["canonical", "multi", "2", "2", "2", "2", "--shuffle-seed", "3",
                     "-o", str(doc)]) == 0
    symbols, eliminations = [], []
    real_symbol, real_kernel = lagrangian.symbol, lagrangian.kernel_subspace

    def counted_symbol(*args):
        symbols.append(real_symbol(*args))
        return symbols[-1]

    def counted_kernel(*args):
        eliminations.append(1)
        return real_kernel(*args)

    monkeypatch.setattr(lagrangian, "symbol", counted_symbol)
    monkeypatch.setattr(darboux, "symbol", counted_symbol)
    monkeypatch.setattr(lagrangian, "kernel_subspace", counted_kernel)
    for command, kernels in (("analyze", 4), ("darboux", 4)):
        symbols.clear()
        eliminations.clear()
        assert cli.main([command, str(doc), "--json"]) == 0
        assert len({id(x) for x in symbols}) == 1 and len(eliminations) == kernels, command
    assert len(symbols) == 2  # darboux: the search's symbol and the basis's, one object
    capsys.readouterr()


@pytest.mark.parametrize("name", ["appendix_a1.json", "appendix_a2.json", "appendix_a3.json",
                                  "canonical_poly_2_2_1.json"])
def test_claims_read_the_search_of_the_classification(name, monkeypatch):
    """One search per document: the claim block reads the one the report ran (two here
    when it searched again)."""
    path = next(p for p in corpus.corpus_files() if Path(p).name == name)
    searches = []
    real = lagrangian.search_polylagrangian

    def counted(*args):
        searches.append(1)
        return real(*args)

    monkeypatch.setattr(lagrangian, "search_polylagrangian", counted)
    monkeypatch.setattr(corpus, "search_polylagrangian", counted)
    results = corpus.check_claims(path, load_document(path))
    assert results and all(r.ok for r in results)
    assert len(searches) == 1


def test_two_component_search_builds_no_complement(tmp_path, monkeypatch, capsys):
    """``analyze`` on conjugated ``poly 3 2 1``: the candidate is ker plus the intersections
    of the other components' kernels, with no complement cut out of each (two here when
    the search counted their dimensions)."""
    doc = tmp_path / "p321.json"
    assert cli.main(["canonical", "poly", "3", "2", "1", "--shuffle-seed", "3",
                     "-o", str(doc)]) == 0
    calls = []
    real = linalg.complement

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (linalg, lagrangian, darboux, corpus, cli):
        if getattr(module, "complement", None) is real:
            monkeypatch.setattr(module, "complement", counted)
    assert cli.main(["analyze", str(doc), "--json"]) == 0
    assert len(calls) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# canonical forms written term by term


def fold_poly_form(n_rank: int, nhat: int, k: int) -> VectorValuedForm:
    """The poly model form as ``canonical_poly_model`` used to fold it."""
    dim = n_rank + nhat * comb(n_rank, k)
    components = []
    pos = n_rank + 1
    for _ in range(nhat):
        coeffs = zero_form(dim, k + 1)
        for idx in itertools.combinations(range(1, n_rank + 1), k):
            coeffs = add(coeffs, wedge_all([basis_covector(dim, pos)]
                                           + [basis_covector(dim, i) for i in idx]))
            pos += 1
        components.append(coeffs)
    return VectorValuedForm(tuple(components))


def fold_multi_form(n_rank: int, n_base: int, k: int, r: int):
    slots = multi_slot_index(n_rank, n_base, k, r)
    dim = n_rank + n_base + len(slots)
    coeffs = zero_form(dim, k + 1)
    pos = n_rank + n_base + 1
    for (_, idx, mu) in slots:
        factors = [basis_covector(dim, pos)]
        factors += [basis_covector(dim, i) for i in idx]
        factors += [basis_covector(dim, n_rank + m) for m in mu]
        coeffs = add(coeffs, wedge_all(factors))
        pos += 1
    return coeffs


def fold_multi_symbol(n_rank: int, n_base: int, k: int, r: int) -> VectorValuedForm:
    slots = multi_slot_index(n_rank, n_base, k, r)
    v_dim = n_rank + len(slots)
    combos = list(itertools.combinations(range(1, n_base + 1), k + 1 - r))
    comps = [zero_form(v_dim, r) for _ in combos]
    pos_of = {c: i for i, c in enumerate(combos)}
    for slot, (s, idx, mu) in enumerate(slots):
        if s != r - 1:
            continue
        factors = [basis_covector(v_dim, n_rank + slot + 1)]
        factors += [basis_covector(v_dim, i) for i in idx]
        comps[pos_of[mu]] = add(comps[pos_of[mu]], wedge_all(factors))
    return VectorValuedForm(tuple(comps))


def _same_terms(got, want) -> bool:
    """Equal forms whose coefficients also sit in the same order."""
    pairs = (zip(got.components, want.components) if isinstance(got, VectorValuedForm)
             else [(got, want)])
    return got == want and all(list(g.coeffs.items()) == list(w.coeffs.items()) for g, w in pairs)


POLY = [(n, nhat, k) for n in range(1, 7) for nhat in (1, 2, 3) for k in range(1, min(n, 3) + 1)]
MULTI = [(n, b, k, r) for n in (1, 2, 3) for b in (1, 2, 3) for k in (1, 2, 3)
         for r in range(1, k + 2) if k + 1 - r <= b]


@pytest.mark.parametrize("params", POLY, ids=lambda p: "poly-" + "-".join(map(str, p)))
def test_poly_model_form_equals_the_fold(params):
    assert _same_terms(canonical_poly_model(*params).form, fold_poly_form(*params))


@pytest.mark.parametrize("params", MULTI, ids=lambda p: "multi-" + "-".join(map(str, p)))
def test_multi_model_form_and_symbol_equal_the_fold(params):
    want = fold_multi_form(*params)
    n_rank, n_base, k, r = params
    assert _same_terms(_model("multi", n_rank, 1, n_base, k, r).form, want)
    try:
        model = canonical_multi_model(*params)
    except PreconditionError:  # vacuous parameters: no momentum slot fits
        assert want.is_zero()
    else:
        assert _same_terms(model.form, want)
    assert _same_terms(canonical_multi_symbol(*params), fold_multi_symbol(*params))
