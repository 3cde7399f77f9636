"""The four workloads: op generation from a seed, and output verification.

An op is one or more ``polydarboux`` command lines run in sequence through
``polydarboux.cli.main``.  Every input document is written during set-up,
except in ``roundtrip``, whose op writes its own document with
``canonical ... -o``.  A round is a list of panels; each panel mixes every
op kind of its workload, so the first panel is a fair sample for the
traced run and a run can repeat whole rounds without changing the mix.

Verification runs after timing and returns ``None`` for a correct op, or
the cause of its failure: ``exit1``, ``exit2``, ``exit3``, ``exception``,
``wrong`` or, for the documented heuristic single-component search,
``not_found``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

from polydarboux.darboux import (canonical_multi_model, canonical_poly_model,
                                 conjugated_multi_instance, conjugated_poly_instance)
from polydarboux.errors import PreconditionError
from polydarboux.exterior import embed_in, form, pullback
from polydarboux.io import alternating_to_document, load_document, poly_form_to_document
from polydarboux.linalg import Matrix, Subspace, frac
from polydarboux.polyforms import PolyForm, exterior_d, poly_from_terms

CORPUS = Path(__file__).resolve().parent.parent / "src" / "polydarboux" / "corpus"


@dataclass
class Op:
    kind: str                       # label shown in failure lists
    argvs: tuple                    # command lines, each a tuple of strings
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    build: Callable                 # (seed, panels, workdir) -> list of panels
    verify: Callable                # (op, OpResult) -> cause or None
    panels: int                     # panels in a round; a round takes 7-30 s on 2 x86 CPUs
    must_fire: tuple                # wrapped functions the traced run must see


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return str(path)


def _exit_cause(res) -> str | None:
    if res.code == 0:
        return None
    if res.code == "exception":
        return "exception"
    return f"exit{res.code}"


# ---------------------------------------------------------------------------
# roundtrip: canonical model -> conjugated document -> darboux basis

# Acceptance grids 2 (poly, dims 2-20) and 3 (multi, dims 3-26).
POLY_GRID = [(n, nhat, k) for k in (1, 2, 3) for n in range(k, 5) for nhat in (1, 2, 3)
             if n + nhat * comb(n, k) <= 20]
MULTI_GRID = [(n, b, k, r) for n in (1, 2, 3) for b in (1, 2, 3) for k in (1, 2, 3)
              for r in range(2, k + 2) if k + 1 - r <= b]
# Poly models of dims 30-49: they expose the asymptotic elimination cost.
LARGE_POLY = [(10, 2, 1), (12, 2, 1), (8, 3, 1), (16, 2, 1), (6, 2, 3), (7, 2, 2)]
LARGE_PER_PANEL = 3


def _multi_grid():
    out = []
    for params in MULTI_GRID:
        try:
            canonical_multi_model(*params)
        except PreconditionError:
            continue  # vacuous parameter set: the model form would vanish
        out.append(params)
    return out


def build_roundtrip(seed: int, panels: int, workdir: Path) -> list:
    rng = random.Random(seed)
    grid = [("poly", p) for p in POLY_GRID] + [("multi", p) for p in _multi_grid()]
    multi_uses: dict = {}
    out = []
    for p in range(panels):
        if p % 4 == 0:
            offset = rng.randrange(4)
        # two interleaved quarters of the grid, so each panel spans both families
        # and all nhat, and 4 panels hold every grid entry twice
        small = grid[(p + offset) % 4::4] + grid[(p + offset + 1) % 4::4]
        rng.shuffle(small)
        large = [("poly", LARGE_POLY[(LARGE_PER_PANEL * p + i) % len(LARGE_POLY)])
                 for i in range(LARGE_PER_PANEL)]
        step = -(-len(small) // LARGE_PER_PANEL)
        specs = []
        for i, big in enumerate(large):  # one large op leads each stretch of small ones
            specs.append(big)
            specs.extend(small[i * step:(i + 1) * step])
        panel = []
        for family, params in specs:
            shuffle = rng.randrange(10 ** 6)  # drawn for every op: poly seeds stay put
            if family == "multi":
                # the conjugations of acceptance criterion 3 itself: a few of the
                # multi models' misses exhaust the search for up to 10 s, and with
                # seeded conjugations they would land in some runs and not others
                shuffle = 500 * multi_uses.get(params, 0) + 3
                multi_uses[params] = multi_uses.get(params, 0) + 1
            doc = str(workdir / f"rt{p}-{len(panel)}.json")
            argv_params = tuple(str(x) for x in params)
            panel.append(Op(f"{family} {' '.join(argv_params)}", (
                ("canonical", family) + argv_params + ("--shuffle-seed", str(shuffle), "-o", doc),
                ("darboux", doc, "--json")),
                {"family": family, "params": params, "shuffle": shuffle, "doc": doc}))
        out.append(panel)
    return out


def verify_roundtrip(op: Op, res) -> str | None:
    if res.code == 1 and "(not_found)" in res.stderr:
        return "not_found"
    cause = _exit_cause(res)
    if cause:
        return cause
    e = op.expect
    if e["family"] == "poly":
        model = canonical_poly_model(*e["params"])
        moved, lagr, _ = conjugated_poly_instance(model, e["shuffle"])
    else:
        model = canonical_multi_model(*e["params"])
        moved, lagr, _ = conjugated_multi_instance(model, e["shuffle"])
    if load_document(e["doc"]).payload != moved:
        return "wrong"
    result = json.loads(res.stdout)["result"]
    basis = Matrix.from_cols([[frac(x) for x in col] for col in result["basis_columns"]])
    if pullback(moved, basis) != model.form:
        return "wrong"
    nhat = e["params"][1]
    if e["family"] == "poly" and nhat >= 2:
        found = Subspace.from_vectors(model.dim, [[frac(x) for x in row]
                                                  for row in result["lagrangian_subspace"]])
        if found != lagr:
            return "wrong"
    return None


# ---------------------------------------------------------------------------
# analyze: classification of documents made in set-up

def _conjugated_poly(params, shuffle):
    return conjugated_poly_instance(canonical_poly_model(*params), shuffle)[0]


def _poly_doc(params, shuffle):
    return alternating_to_document(_conjugated_poly(params, shuffle))


def _multi_doc(params, shuffle):
    model = canonical_multi_model(*params)
    moved, _, _ = conjugated_multi_instance(model, shuffle)
    return alternating_to_document(moved, flag=model.flag, r=params[3])


def _embedded_doc(small, dim, shuffle):
    """A form of small support, embedded in R^dim and moved there.

    The map is a seeded permutation with six integer shears, so the large
    kernel is no coordinate block.  It is built by row operations:
    ``seeded_conjugate`` multiplies dense matrices, which takes 0.5 s in R^50.
    """
    rng = random.Random(shuffle)
    perm = list(range(dim))
    rng.shuffle(perm)
    rows = [[Fraction(int(j == perm[i])) for j in range(dim)] for i in range(dim)]
    for _ in range(6):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return alternating_to_document(pullback(embed_in(small, dim), Matrix.from_rows(rows)))


def _e13_e24():
    return form(4, 2, {(1, 3): 1, (2, 4): 1})


# (label, expected classification, expected uniform_rank, document maker)
ANALYZE_PANEL = (
    [(f"poly {n} {nhat} 1", "polysymplectic", n, lambda s, p=(n, nhat, 1): _poly_doc(p, s))
     for (n, nhat) in [(3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (3, 3), (4, 3), (5, 3)]]
    + [(f"poly {n} 1 1", "polysymplectic", n, lambda s, p=(n, 1, 1): _poly_doc(p, s))
       for n in (4, 6, 8, 10)]
    + [(f"e13+e24 in R{d}", "polypresymplectic", 2,
        lambda s, d=d: _embedded_doc(_e13_e24(), d, s)) for d in (20, 30, 40, 50)]
    + [(f"poly 3 2 1 in R{d}", "polypresymplectic", 3,
        lambda s, d=d: _embedded_doc(_conjugated_poly((3, 2, 1), s), d, s + 1))
       for d in (20, 35, 50)]
    + [(f"poly {n} {nhat} 2", "polylagrangian", None, lambda s, p=(n, nhat, 2): _poly_doc(p, s))
       for (n, nhat) in [(3, 1), (3, 2), (4, 1), (4, 2), (3, 3)]]
    + [(f"multi {n} {b} {k} {r}", "multisymplectic" if (k == b and r == 2) else "multilagrangian",
        None, lambda s, p=(n, b, k, r): _multi_doc(p, s))
       for (n, b, k, r) in [(1, 2, 2, 2), (2, 2, 2, 2), (2, 3, 2, 3), (3, 2, 2, 3), (3, 3, 3, 3)]]
)
CORPUS_FORMS = ("appendix_a1.json", "appendix_a2.json", "appendix_a3.json")


def build_analyze(seed: int, panels: int, workdir: Path) -> list:
    """Fixed documents; the seed picks each op's sampling seed.

    The cost of classifying one conjugate of a model varies up to 2.5x
    with the conjugation, and with seeded conjugations the tail
    percentile moved by 40% from seed to seed.
    """
    rng = random.Random(seed)
    out = []
    for p in range(panels):
        docs = [(label, _write(workdir / f"an{p}-{i}.json", make(1000 * p + i)), cls, uni)
                for i, (label, cls, uni, make) in enumerate(ANALYZE_PANEL)]
        for name in CORPUS_FORMS:
            claims = json.loads((CORPUS / name).read_text())["claims"]
            docs.append((name, str(CORPUS / name), claims["classification"],
                         claims.get("uniform_rank")))
        out.append([Op(label, (("analyze", path, "--seed", str(rng.randrange(10 ** 6)), "--json"),),
                       {"classification": cls, "uniform_rank": uni})
                    for label, path, cls, uni in docs])
    return out


def verify_analyze(op: Op, res) -> str | None:
    cause = _exit_cause(res)
    if cause:
        return cause
    result = json.loads(res.stdout)["result"]
    if result["uniform_rank"] != op.expect["uniform_rank"]:
        return "wrong"
    if result["classification"] == op.expect["classification"]:
        return None
    if result["classification"] == "none" and "distinguished subspace: not found" in result["diagnostics"]:
        return "not_found"
    return "wrong"


# ---------------------------------------------------------------------------
# moser: float deformation flow on perturbed multisymplectic fixtures

# Fixed fixtures with short flows; the seed picks each op's sample points.
# A fixture's flow cost varies by +-30% with its seed, which moved p50 by
# 9% from run to run when the fixtures followed the workload seed.
MOSER_STEPS = (40, 20)
MOSER_FIXTURES_PER_PANEL = 8
MOSER_BOUND = 1e-6  # acceptance criterion 8


def build_moser(seed: int, panels: int, workdir: Path) -> list:
    from polydarboux.moser import perturbed_multisymplectic
    rng = random.Random(seed)
    out = []
    for p in range(panels):
        panel = []
        for i in range(MOSER_FIXTURES_PER_PANEL):
            fixture_seed = 1 + MOSER_FIXTURES_PER_PANEL * p + i
            fx = perturbed_multisymplectic(seed=fixture_seed)
            path = _write(workdir / f"mo{p}-{i}.json", poly_form_to_document(
                fx.omega, description=f"perturbed multisymplectic fixture, seed {fixture_seed}"))
            for steps in MOSER_STEPS:
                panel.append(Op(f"moser fixture {fixture_seed} steps {steps}", (
                    ("moser", path, "--samples", "10", "--steps", str(steps),
                     "--seed", str(rng.randrange(10 ** 6)), "--json"),)))
        out.append(panel)
    return out


def verify_moser(op: Op, res) -> str | None:
    cause = _exit_cause(res)
    if cause:
        return cause
    residual = float(json.loads(res.stdout)["result"]["max_residual"])
    return None if residual < MOSER_BOUND else "wrong"


# ---------------------------------------------------------------------------
# homotopy: exact primitives of closed polynomial forms d(beta)

# Every panel runs each form shape once, (dim, form degree, base dim, r),
# so the op mix is the same in every run; only the coefficients are random.
HOMOTOPY_SHAPES = [(dim, k, x_dim, r) for dim in (8, 10, 12) for k in (3, 4)
                   for x_dim in (dim // 2 - 1, dim // 2 + 1) for r in range(2, k + 1)]


def _random_poly(rng, dim, max_degree):
    terms = {}
    for _ in range(rng.randint(2, 6)):
        e = [0] * dim
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(dim)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return poly_from_terms(dim, terms)


def _closed_form(rng, dim, k, x_dim, r):
    """d(beta) for a random polynomial (k-1)-form beta with < r fiber factors."""
    while True:
        coeffs = {}
        for idx in itertools.combinations(range(1, dim + 1), k - 1):
            if sum(1 for i in idx if i > x_dim) <= r - 1 and rng.random() < 0.7:
                p = _random_poly(rng, dim, 5)
                if not p.is_zero():
                    coeffs[sum(1 << (i - 1) for i in idx)] = p
        omega = exterior_d(PolyForm(dim, k - 1, (x_dim, dim - x_dim), coeffs))
        if not omega.is_zero():
            return omega


def build_homotopy(seed: int, panels: int, workdir: Path) -> list:
    rng = random.Random(seed)
    out = []
    for p in range(panels):
        panel = []
        for dim, k, x_dim, r in HOMOTOPY_SHAPES:
            doc = poly_form_to_document(_closed_form(rng, dim, k, x_dim, r))
            doc["r"] = r
            path = _write(workdir / f"ho{p}-{len(panel)}.json", doc)
            panel.append(Op(f"homotopy dim {dim} degree {k} base {x_dim} r {r}",
                            (("homotopy", path, "--json"),)))
        rng.shuffle(panel)
        out.append(panel)
    return out


def verify_homotopy(op: Op, res) -> str | None:
    cause = _exit_cause(res)
    if cause:
        return cause
    result = json.loads(res.stdout)["result"]
    if result["derivative_matches"] is not True:
        return "wrong"
    return None if result["vertical_factors_of_primitive"] <= result["r"] - 1 else "wrong"


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w for w in (
        Workload("roundtrip", build_roundtrip, verify_roundtrip, 4, (
            "cli.main", "io.load_document", "linalg.inverse", "linalg.kernel_basis",
            "linalg.Subspace.from_vectors", "sparse.SparseSolver.__init__",
            "sparse.SparseSolver.add_generator", "sparse.SparseSolver.solve",
            "exterior.pullback", "lagrangian.kernel_of_form", "lagrangian.search_polylagrangian",
            "lagrangian.detect_multilagrangian", "lagrangian.greedy_maximal_isotropic",
            "lagrangian.scalar_polylagrangian_candidates", "darboux.seeded_conjugate",
            "darboux.darboux_basis_poly", "darboux.darboux_basis_multi")),
        Workload("analyze", build_analyze, verify_analyze, 3, (
            "cli.main", "io.load_document", "linalg.kernel_basis", "linalg.Subspace.from_vectors",
            "sparse.SparseEchelon.insert", "exterior.wedge_power_by_exponent", "exterior.wedge",
            "lagrangian.kernel_of_form", "lagrangian.rank_2form", "lagrangian.uniform_rank",
            "lagrangian.search_polylagrangian", "lagrangian.greedy_maximal_isotropic",
            "lagrangian.scalar_polylagrangian_candidates", "lagrangian.classify_vector_form",
            "lagrangian.classify_horizontal_form", "lagrangian.detect_multilagrangian")),
        Workload("moser", build_moser, verify_moser, 4, (
            "cli.main", "io.load_document", "polyforms.constant_spread",
            "moser.DeformationField.batch", "moser.lstsq")),
        Workload("homotopy", build_homotopy, verify_homotopy, 5, (
            "cli.main", "io.load_document", "io.poly_form_to_document",
            "polyforms.exterior_d", "polyforms.homotopy_primitive")),
    )
}
