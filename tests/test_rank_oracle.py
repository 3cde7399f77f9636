"""Differential tests: the rank certificates against the code they replaced.

The oracles below are the previous implementations: the Fraction wedge,
the left-fold wedge power, the level-by-level ``uniform_rank`` loop, the
kernel-based ``rank_2form``, the eager ``constant_rank_sampled`` and the
eager seed list of ``scalar_polylagrangian_candidates``; and the wedge-power
memo ``uniform_rank``, the integer-pencil sampler and the classification
that ran both for every 2-form, before a uniform rank certified the
sampled rank, a single component skipped the memo and a found
polylagrangian subspace gave the uniform rank as its codimension.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import vectors, zero_matrix
from polydarboux import cli, exterior, lagrangian
from polydarboux.corpus import corpus_files
from polydarboux.darboux import (canonical_multi_model, canonical_poly_model,
                                 conjugated_multi_instance, conjugated_poly_instance)
from polydarboux.exterior import (AlternatingForm, VectorValuedForm, add, form, merge_sign,
                                  project, wedge, wedge_power_by_exponent, zero_form)
from polydarboux.errors import InternalCheckError, PreconditionError
from polydarboux.io import load_document
from polydarboux.lagrangian import (DEFAULT_SEED, MAX_WEDGE_TERMS, StructureReport,
                                    _coordinate_seeds, _exponents, _half_rank, _integer_entries,
                                    as_vector_form, check_polylagrangian, check_sample_budget,
                                    classify_horizontal_form, classify_vector_form,
                                    constant_rank_sampled,
                                    dimension_criterion_poly, greedy_maximal_isotropic,
                                    is_isotropic, kernel_of_form, random_covector, rank_2form,
                                    scalar_polylagrangian_candidates, search_polylagrangian,
                                    uniform_rank)
from polydarboux.linalg import Matrix, Subspace, rank
from polydarboux.sparse import span_of
from test_elimination_oracle import batch_rref_rows

ZERO = Fraction(0)
ONE = Fraction(1)
BIG = 10 ** 13

settings.register_profile("rank_oracle", deadline=None, max_examples=60, derandomize=True)


# ---------------------------------------------------------------------------
# oracles: the previous code


def oracle_wedge(a: AlternatingForm, b: AlternatingForm) -> AlternatingForm:
    out: dict = {}
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            s = merge_sign(ma, mb)
            if not s:
                continue
            key = ma | mb
            nv = out.get(key, 0) + (ca * cb if s > 0 else -ca * cb)
            if nv:
                out[key] = nv
            else:
                del out[key]
    return AlternatingForm(a.dim, a.degree + b.degree, {m: Fraction(c) for m, c in out.items()})


def oracle_wedge_power(omega: VectorValuedForm, exponent) -> AlternatingForm:
    factors = []
    for a, e in enumerate(exponent):
        factors.extend([omega.components[a]] * e)
    out = factors[0]
    for f in factors[1:]:
        out = oracle_wedge(out, f)
    return out


def oracle_uniform_rank(v: VectorValuedForm):
    nhat = v.value_dim
    for n_rank in range(1, v.dim // 2 + 1):
        indep = True
        ech_vectors = []
        for alpha in _exponents(nhat, n_rank):
            w = oracle_wedge_power(v, alpha)
            if w.is_zero():
                indep = False
                break
            ech_vectors.append(dict(w.coeffs))
        if indep:
            indep = span_of(ech_vectors).rank == len(ech_vectors)
        if not indep:
            continue
        if all(oracle_wedge_power(v, alpha).is_zero() for alpha in _exponents(nhat, n_rank + 1)):
            return n_rank
    return None


def oracle_rank_2form(omega: AlternatingForm) -> int:
    return (omega.dim - kernel_of_form(omega).dim) // 2


def oracle_constant_rank_sampled(v: VectorValuedForm, sample_count: int, seed: int):
    rng = random.Random(seed)
    covs = [[ONE if a == b else ZERO for b in range(v.value_dim)] for a in range(v.value_dim)]
    covs.extend(random_covector(rng, v.value_dim) for _ in range(sample_count))
    ranks = {oracle_rank_2form(project(v, t)) for t in covs}
    return ranks.pop() if len(ranks) == 1 else None


def memo_uniform_rank(v: VectorValuedForm):
    """The wedge-power memo walk, for every number of value components."""
    nhat = v.value_dim
    memo: dict = {}
    terms = 0

    def nonzero_power(alpha) -> bool:
        nonlocal terms
        stored = len(memo)
        w = wedge_power_by_exponent(v, alpha, memo)
        terms += sum(len(p.coeffs) for p in itertools.islice(memo.values(), stored, None))
        if terms > MAX_WEDGE_TERMS:
            raise PreconditionError("MAX_WEDGE_TERMS")
        return not w.is_zero()

    level = 2
    while any(nonzero_power(alpha) for alpha in _exponents(nhat, level)):
        level += 1
    powers = [memo[alpha] for alpha in _exponents(nhat, level - 1)]
    if any(w.is_zero() for w in powers):
        return None
    return level - 1 if span_of(dict(w.coeffs) for w in powers).rank == len(powers) else None


def pencil_sampler(v: VectorValuedForm, sample_count: int, seed: int):
    """The integer-pencil ``constant_rank_sampled``, which every 2-form ran."""
    if sample_count <= 0:
        raise PreconditionError("sample count must be positive")
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
        den = math.lcm(*(x.denominator for x in t))
        ts = [x.numerator * (den // x.denominator) for x in t]
        entries = [(i, j, s * x) for s, comp in zip(ts, pencil) if s for i, j, x in comp]
        if _half_rank(entries) != common:
            return None
    return common


def sampling_classify(v: VectorValuedForm, seed: int, samples: int) -> StructureReport:
    """``classify_vector_form`` as it was: memo rank, sampler, fresh kernels."""
    diagnostics: list[str] = []
    if v.is_zero():
        return StructureReport(Subspace.full(v.dim), True, None, None, "none", None,
                               ["form vanishes; definitions require a non-vanishing form"],
                               None, None, seed)
    ker = kernel_of_form(v)
    degenerate = ker.dim > 0
    uni = cons = None
    if v.degree == 2:
        check_sample_budget(samples)
        uni = memo_uniform_rank(v)
        cons = pencil_sampler(v, samples, seed)
        diagnostics.append(f"uniform rank: {uni}; sampled constant rank: {cons} "
                           f"(seed {seed}, {samples} samples)")
    search = search_polylagrangian(v)
    diagnostics.extend(search.diagnostics)
    if search.status != "found":
        label = "proved absent" if search.status == "absent" else "not found"
        diagnostics.append(f"distinguished subspace: {label}")
        return StructureReport(ker, degenerate, None, None, "none", None, diagnostics,
                               uni, cons, seed)
    sub = search.subspace
    if not dimension_criterion_poly(sub, v):
        raise InternalCheckError("dimension criterion disagrees with the contraction test")
    if v.degree == 2:
        classification = "polypresymplectic" if degenerate else "polysymplectic"
    else:
        classification = "polylagrangian"
    return StructureReport(ker, degenerate, search.rank, sub, classification, None,
                           diagnostics, uni, cons, seed)


def oracle_seeds(v: VectorValuedForm) -> list[Subspace]:
    seeds = []
    for i in range(v.dim):
        e = [ZERO] * v.dim
        e[i] = ONE
        seeds.append(Subspace.from_vectors(v.dim, [e]))
    if v.degree >= 3:
        for i, j in itertools.combinations(range(v.dim), 2):
            ei = [ZERO] * v.dim
            ei[i] = ONE
            ej = [ZERO] * v.dim
            ej[j] = ONE
            pair = Subspace.from_vectors(v.dim, [ei, ej])
            if is_isotropic(pair, v, 1):
                seeds.append(pair)
    return seeds


# ---------------------------------------------------------------------------
# strategies

coefficients = st.one_of(
    st.just(ZERO),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(BIG // 10, BIG - 1)),
)


@st.composite
def scalar_forms(draw, dim: int, degree: int):
    monomials = list(itertools.combinations(range(1, dim + 1), degree))
    terms = draw(st.dictionaries(st.sampled_from(monomials), coefficients,
                                 max_size=len(monomials))) if monomials else {}
    return form(dim, degree, terms)


@st.composite
def random_2forms(draw):
    """Vector-valued 2-forms with arbitrary sparse components, zero ones included."""
    dim = draw(st.integers(2, 10))
    nhat = draw(st.integers(1, 3))
    return VectorValuedForm(tuple(draw(scalar_forms(dim, 2)) for _ in range(nhat)))


@st.composite
def block_2forms(draw):
    """Components on shared Darboux planes with differing supports.

    Projections then have ranks that depend on the covector, so these
    forms carry rank gaps as well as genuine uniform ranks.
    """
    dim = draw(st.integers(2, 10))
    nhat = draw(st.integers(1, 3))
    planes = [(2 * i + 1, 2 * i + 2) for i in range(dim // 2)]
    comps = []
    for _ in range(nhat):
        chosen = draw(st.lists(st.sampled_from(planes), unique=True))
        comps.append(form(dim, 2, {p: draw(coefficients.filter(bool)) for p in chosen}))
    return VectorValuedForm(tuple(comps))


def canonical_2forms():
    """Small canonical models, their conjugates and the counterexample forms."""
    out = []
    for params in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (2, 3, 1)]:
        model = canonical_poly_model(*params)
        out.append(model.form)
        out.append(conjugated_poly_instance(model, 11)[0])
    out.append(VectorValuedForm((form(4, 2, {(1, 2): 1, (3, 4): 1}),
                                 form(4, 2, {(1, 3): 1, (2, 4): -1}))))
    out.append(VectorValuedForm((form(3, 2, {(2, 3): 1}), form(3, 2, {(3, 1): 1}),
                                 form(3, 2, {(1, 2): 1}))))
    out.append(VectorValuedForm((zero_form(6, 2), zero_form(6, 2))))
    out.append(VectorValuedForm((form(6, 2, {(1, 2): 1}), zero_form(6, 2))))
    return out


any_2form = st.one_of(random_2forms(), block_2forms(), st.sampled_from(canonical_2forms()))
single_2form = any_2form.map(lambda v: VectorValuedForm(v.components[:1]))


# ---------------------------------------------------------------------------
# wedge and wedge powers


@settings(settings.get_profile("rank_oracle"))
@given(st.data())
def test_wedge_matches_fraction_wedge(data):
    dim = data.draw(st.integers(2, 10))
    p = data.draw(st.integers(0, 3))
    q = data.draw(st.integers(0, 3))
    a = data.draw(scalar_forms(dim, p))
    b = data.draw(scalar_forms(dim, q))
    got = wedge(a, b)
    assert got == oracle_wedge(a, b)
    assert all(type(c) is Fraction for c in got.coeffs.values())


@settings(settings.get_profile("rank_oracle"))
@given(any_2form, st.data())
def test_wedge_power_matches_left_fold(v, data):
    exps = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * v.value_dim)
                              .filter(any), min_size=1, max_size=6))
    memo: dict = {}
    for alpha in exps:
        want = oracle_wedge_power(v, alpha)
        assert wedge_power_by_exponent(v, alpha) == want
        assert wedge_power_by_exponent(v, alpha, memo) == want


def test_wedge_power_rejects_empty_and_negative_exponents(rank_gap_form):
    with pytest.raises(ValueError):
        wedge_power_by_exponent(rank_gap_form, (0, 0))
    with pytest.raises(ValueError):
        wedge_power_by_exponent(rank_gap_form, (2, -1))


# ---------------------------------------------------------------------------
# ranks


@settings(settings.get_profile("rank_oracle"))
@given(any_2form)
def test_uniform_rank_matches_level_loop(v):
    assert uniform_rank(v) == oracle_uniform_rank(v)


@pytest.mark.parametrize("v", canonical_2forms())
def test_uniform_rank_matches_level_loop_on_known_forms(v):
    assert uniform_rank(v) == oracle_uniform_rank(v)


@settings(settings.get_profile("rank_oracle"))
@given(any_2form)
def test_rank_2form_matches_kernel_dimension(v):
    for comp in v.components:
        assert rank_2form(comp) == oracle_rank_2form(comp)


@settings(settings.get_profile("rank_oracle"))
@given(st.data())
def test_rank_matches_rref_pivot_count(data):
    rows = data.draw(st.integers(0, 8))
    cols = data.draw(st.integers(0, 8))
    raw = [[data.draw(coefficients) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and data.draw(st.booleans()):
        raw[-1] = [x + y for x, y in zip(raw[0], raw[1])]
    want = len(batch_rref_rows(raw)[1])
    assert rank(Matrix.from_rows(raw) if rows else zero_matrix(0, cols)) == want


@settings(settings.get_profile("rank_oracle"))
@given(any_2form, st.integers(1, 12), st.integers(0, 10 ** 6))
def test_constant_rank_sampled_matches_eager_sampler(v, samples, seed):
    assert constant_rank_sampled(v, samples, seed) == oracle_constant_rank_sampled(v, samples, seed)


def test_constant_rank_sampled_stops_at_first_disagreement():
    w1 = form(4, 2, {(1, 2): 1})
    w2 = form(4, 2, {(3, 4): 1})
    mixed = VectorValuedForm((w1, add(w1, w2)))
    t0 = time.perf_counter()
    assert constant_rank_sampled(mixed, 10 ** 9, DEFAULT_SEED) is None
    assert time.perf_counter() - t0 < 1.0


def test_uniform_rank_computes_each_power_once(monkeypatch):
    """poly 8 3 1: one wedge per exponent of levels 2..9, 216 in all."""
    model = canonical_poly_model(8, 3, 1)
    calls = []
    real = exterior.wedge

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(exterior, "wedge", counting)
    assert uniform_rank(model.form) == 8
    assert len(calls) <= sum(len(list(_exponents(3, n))) for n in range(2, 10)) == 216


# ---------------------------------------------------------------------------
# certified ranks: one component without the memo, no sampling under a uniform rank


@settings(settings.get_profile("rank_oracle"))
@given(single_2form)
def test_single_component_uniform_rank_matches_memo(v):
    assert uniform_rank(v) == memo_uniform_rank(v)


@pytest.mark.parametrize("params", [(1, 1, 1), (3, 1, 1), (6, 1, 1), (9, 1, 1)])
def test_single_component_uniform_rank_matches_memo_on_models(params):
    moved = conjugated_poly_instance(canonical_poly_model(*params), 3)[0]
    assert uniform_rank(moved) == memo_uniform_rank(moved) == params[0]


@settings(settings.get_profile("rank_oracle"))
@given(any_2form, st.integers(1, 12), st.integers(0, 10 ** 6))
def test_sampler_returns_the_uniform_rank_it_certifies(v, samples, seed):
    n_rank = memo_uniform_rank(v)
    if n_rank is not None:
        assert pencil_sampler(v, samples, seed) == n_rank


@settings(settings.get_profile("rank_oracle"))
@given(any_2form, st.integers(1, 12), st.integers(0, 10 ** 6))
def test_classification_matches_the_sampling_pipeline(v, samples, seed):
    assert classify_vector_form(v, seed=seed, samples=samples) == sampling_classify(v, seed, samples)


@pytest.mark.parametrize("samples", [0, -3])
def test_certified_rank_still_refuses_a_sample_count_below_one(samples):
    v = canonical_poly_model(2, 2, 1).form
    assert uniform_rank(v) == 2
    with pytest.raises(PreconditionError, match="sample count must be positive"):
        classify_vector_form(v, samples=samples)


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    real = getattr(lagrangian, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(lagrangian, name, counting)
    return calls


def test_analyze_samples_nothing_and_computes_one_kernel(tmp_path, monkeypatch, capsys):
    """poly 5 2 1 (shuffle seed 3): no sampled rank and one kernel per op.

    Sampling every 2-form made 102 ``_half_rank`` calls here (two unit
    covectors, 100 random ones), and four ``kernel_of_form`` calls.
    """
    doc = tmp_path / "p521.json"
    assert cli.main(["canonical", "poly", "5", "2", "1", "--shuffle-seed", "3",
                     "-o", str(doc)]) == 0
    half_ranks = _count_calls(monkeypatch, "_half_rank")
    kernels = _count_calls(monkeypatch, "kernel_of_form")
    assert cli.main(["analyze", str(doc), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["constant_rank_sampled"] == 5
    assert len(half_ranks) == 0
    assert len(kernels) == 1


@pytest.mark.parametrize("model, kernels_before", [
    (canonical_poly_model(4, 1, 1), 5),    # single component: greedy search
    (canonical_poly_model(3, 2, 2), 4),    # degree 3, two components
    (canonical_poly_model(3, 1, 2), 5),    # degree 3, single component
])
def test_classification_computes_the_kernel_once(model, kernels_before, monkeypatch):
    moved = conjugated_poly_instance(model, 3)[0]
    kernels = _count_calls(monkeypatch, "kernel_of_form")
    rep = classify_vector_form(moved)
    assert rep.lagrangian_subspace is not None
    assert len(kernels) == 1 < kernels_before


@pytest.mark.parametrize("params, kernels_before", [
    ((1, 2, 2, 2), 4), ((2, 2, 2, 2), 4), ((2, 1, 2, 3), 6), ((2, 3, 2, 3), 6)])
def test_horizontal_classification_computes_each_kernel_once(params, kernels_before,
                                                             monkeypatch):
    """One kernel of the form and one of its symbol."""
    model = canonical_multi_model(*params)
    moved = conjugated_multi_instance(model, 3)[0]
    kernels = _count_calls(monkeypatch, "kernel_of_form")
    rep = classify_horizontal_form(moved, model.flag, params[3])
    assert rep.lagrangian_subspace is not None
    assert len(kernels) == 2 < kernels_before


def analyze_conjugated_model(n_rank: int, nhat: int, tmp_path, capsys) -> dict:
    """The ``analyze --json`` result on conjugated ``poly N nhat 1``, asserted under 10 s."""
    doc = tmp_path / "model.json"
    assert cli.main(["canonical", "poly", str(n_rank), str(nhat), "1", "--shuffle-seed", "3",
                     "-o", str(doc)]) == 0
    capsys.readouterr()
    t0 = time.perf_counter()
    assert cli.main(["analyze", str(doc), "--json"]) == 0
    assert time.perf_counter() - t0 < 10.0
    return json.loads(capsys.readouterr().out)["result"]


def test_certified_rank_reaches_dimension_64(tmp_path, capsys):
    """poly 32 1 1 (dim 64): the memo refused it with MAX_WEDGE_TERMS."""
    result = analyze_conjugated_model(32, 1, tmp_path, capsys)
    assert result["uniform_rank"] == result["constant_rank_sampled"] == 32
    assert result["classification"] == "polysymplectic"


# ---------------------------------------------------------------------------
# uniform rank from the polylagrangian subspace: codim L, no wedge powers


CORPUS = {Path(p).name: p for p in corpus_files()}


def corpus_form(name: str) -> VectorValuedForm:
    return as_vector_form(load_document(CORPUS[name]).payload)


@st.composite
def conjugated_models(draw):
    """Conjugated ``poly N nhat 1`` with two or three components: L exists."""
    model = canonical_poly_model(draw(st.integers(1, 4)), draw(st.integers(2, 3)), 1)
    return conjugated_poly_instance(model, draw(st.integers(0, 99)))[0]


# random and block forms are mostly without L, the conjugated models always have one
multi_component_2form = st.one_of(random_2forms(), block_2forms(), conjugated_models()).filter(
    lambda v: v.value_dim >= 2)


@settings(settings.get_profile("rank_oracle"))
@given(multi_component_2form, st.integers(1, 12), st.integers(0, 10 ** 6))
def test_multi_component_classification_matches_the_memo_pipeline(v, samples, seed):
    rep = classify_vector_form(v, seed=seed, samples=samples)
    assert rep == sampling_classify(v, seed, samples)
    assert rep.uniform_rank == memo_uniform_rank(v)


@pytest.mark.parametrize("nhat", [2, 3])
@pytest.mark.parametrize("n_rank", range(1, 7))
@pytest.mark.parametrize("shuffle", [0, 3, 7])
def test_uniform_rank_from_codim_matches_the_memo_on_models(n_rank, nhat, shuffle):
    moved = conjugated_poly_instance(canonical_poly_model(n_rank, nhat, 1), shuffle)[0]
    rep = classify_vector_form(moved, seed=shuffle, samples=5)
    assert rep == sampling_classify(moved, shuffle, 5)
    assert rep.uniform_rank == memo_uniform_rank(moved) == n_rank
    assert rep.lagrangian_subspace is not None


@pytest.mark.parametrize("params", [(2, 2, 1), (5, 3, 1), (4, 2, 2)])
def test_search_carries_the_uniform_rank_of_a_found_2form(params):
    """codim L for a 2-form; no uniform rank is defined past degree 2."""
    moved = conjugated_poly_instance(canonical_poly_model(*params), 3)[0]
    search = search_polylagrangian(moved)
    assert search.status == "found"
    assert search.uniform_rank == (moved.dim - search.subspace.dim if params[2] == 1 else None)


def test_found_2form_builds_no_wedge_power(monkeypatch):
    moved = conjugated_poly_instance(canonical_poly_model(5, 3, 1), 3)[0]
    powers = _count_calls(monkeypatch, "wedge_power_by_exponent")
    ranks = _count_calls(monkeypatch, "uniform_rank")
    rep = classify_vector_form(moved)
    assert rep.uniform_rank == rep.constant_rank_sampled == 5
    assert rep.classification == "polysymplectic"
    assert len(powers) == len(ranks) == 0


@pytest.mark.parametrize("source", ["rank_gap_form", "area_triple_form", "small_candidates_form",
                                    "appendix_a1.json", "appendix_a2.json", "appendix_a3.json"])
def test_absent_classification_computes_the_uniform_rank_once(source, request, monkeypatch):
    """Without L the memo answers, once, inside the search (the pipeline made a second).

    The rank is the memo's, not the codim of a failed candidate: the
    kernels of appendix_a2 span the whole space, at uniform rank 1.
    """
    v = corpus_form(source) if source.endswith(".json") else request.getfixturevalue(source)
    assert search_polylagrangian(v).status == "absent"
    powers = _count_calls(monkeypatch, "wedge_power_by_exponent")
    ranks = _count_calls(monkeypatch, "uniform_rank")
    rep = classify_vector_form(v)
    assert len(ranks) == 1
    assert len(powers) > 0
    assert rep.classification == "none"
    assert rep == sampling_classify(v, DEFAULT_SEED, 25)


def test_codim_rank_answers_dimension_64_with_three_components(tmp_path, capsys):
    """poly 16 3 1 (dim 64): the memo refused it with MAX_WEDGE_TERMS."""
    result = analyze_conjugated_model(16, 3, tmp_path, capsys)
    assert result["uniform_rank"] == result["constant_rank_sampled"] == result["rank"] == 16
    assert result["classification"] == "polysymplectic"


# ---------------------------------------------------------------------------
# lazy seeds of the scalar search


def oracle_candidates(v: VectorValuedForm):
    """The candidates, each with the count of seeds drawn when it is found, and all seeds."""
    k = v.degree - 1
    ker = kernel_of_form(v)
    seen = set()
    out = []
    seeds = oracle_seeds(v)
    for drawn, seed_sub in enumerate(seeds, start=1):
        cand = greedy_maximal_isotropic(v, seed_sub)
        key = tuple(vectors(cand))  # the RREF rows, as the old dense key held them
        if key in seen:
            continue
        seen.add(key)
        n_codim = v.dim - cand.dim
        if (n_codim >= k and cand.dim == ker.dim + comb(n_codim, k)
                and check_polylagrangian(cand, v)):
            out.append((cand, drawn))
    return out, len(seeds)


SCALAR_FORMS = [
    VectorValuedForm((form(4, 2, {(1, 3): 1, (2, 4): 1}),)),
    canonical_poly_model(3, 1, 2).form,
    conjugated_poly_instance(canonical_poly_model(3, 1, 2), 5)[0],
    VectorValuedForm((form(5, 3, {(1, 2, 3): 1, (1, 4, 5): 2}),)),
]


@pytest.mark.parametrize("v", SCALAR_FORMS)
def test_coordinate_seeds_keep_their_order(v):
    assert list(_coordinate_seeds(v)) == oracle_seeds(v)


@pytest.mark.parametrize("v", SCALAR_FORMS)
@pytest.mark.parametrize("limit", [None, 1, 3, 7])
def test_scalar_candidates_match_eager_seeds(v, limit, monkeypatch):
    # a consumer that stops after ``limit`` candidates draws the seeds up to the last one's
    drawn = []
    seeds = lagrangian._coordinate_seeds

    def counted(form_in):
        for seed in seeds(form_in):
            drawn.append(seed)
            yield seed

    monkeypatch.setattr(lagrangian, "_coordinate_seeds", counted)
    want, n_seeds = oracle_candidates(v)
    got = list(itertools.islice(scalar_polylagrangian_candidates(v), limit))
    assert got == [cand for cand, _ in want[:limit]]
    stopped = limit is not None and len(want) >= limit
    assert len(drawn) == (want[limit - 1][1] if stopped else n_seeds)
