"""Executable claim corpus.

Each bundled document carries a ``claims`` object describing the exact
properties it is supposed to exhibit; this module evaluates every claim
and reports pass/fail lines.  The bundled files form the counterexample
and example suite that the command line replays.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass

from .exterior import project, wedge
from .io import FormDocument, load_document
from .lagrangian import (DEFAULT_SEED, as_vector_form, check_sample_budget,
                         classify_vector_form, constant_rank_sampled, kernel_of_form,
                         kernels_orthogonal_under, polysymplectic_uniform_rank_check,
                         projection_kernel_isotropy_check, search_polylagrangian,
                         uniform_rank)
from .lie import su2_example
from .linalg import Subspace, frac


@dataclass
class ClaimResult:
    source: str
    claim: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        detail = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.source}: {self.claim}{detail}"


def corpus_files() -> list[str]:
    root = importlib.resources.files("polydarboux") / "corpus"
    return sorted(str(p) for p in root.iterdir() if p.name.endswith(".json"))


def _sub_from_rows(ambient: int, rows) -> Subspace:
    return Subspace.from_vectors(ambient, [[frac(x) for x in row] for row in rows])


def check_claims(docpath: str, parsed: FormDocument, *, seed: int = DEFAULT_SEED,
                 samples: int = 100) -> list[ClaimResult]:
    name = docpath.rsplit("/", 1)[-1]
    claims = parsed.claims
    out: list[ClaimResult] = []
    if not claims:
        return out

    if parsed.kind == "lie_algebra":
        return _check_lie_claims(name, parsed, claims)
    if parsed.kind == "poly_form":
        return _check_moser_claims(name, parsed, claims, seed=seed)

    v = as_vector_form(parsed.payload)

    def add(claim, ok, detail=""):
        out.append(ClaimResult(name, claim, bool(ok), detail))

    if "kernel_dim" in claims:
        got = kernel_of_form(v).dim
        add(f"kernel dimension = {claims['kernel_dim']}", got == claims["kernel_dim"], f"got {got}")
    if "uniform_rank" in claims:
        got = uniform_rank(v)
        add(f"uniform rank = {claims['uniform_rank']}", got == claims["uniform_rank"], f"got {got}")
    if "constant_rank_sampled" in claims:
        spec = claims["constant_rank_sampled"]
        n_samples = spec.get("samples", samples)
        check_sample_budget(n_samples)
        got = constant_rank_sampled(v, n_samples, seed)
        add(f"sampled constant rank = {spec['value']}", got == spec["value"], f"got {got}")
    if "wedge_vanishes" in claims:
        for a, b in claims["wedge_vanishes"]:
            w = wedge(v.components[a - 1], v.components[b - 1])
            add(f"component {a} wedge component {b} = 0", w.is_zero())
    if "squared_projections" in claims:
        for spec in claims["squared_projections"]:
            t = [frac(x) for x in spec["t_star"]]
            p = project(v, t)
            sq = wedge(p, p)
            expected = {tuple(term["indices"]): frac(term["coefficient"])
                        for term in spec["terms"]}
            got = {idx: c for idx, c in sq.terms()}
            add(f"squared projection at {spec['t_star']}", got == expected, f"got {sq.terms()}")
    if "projection_kernels" in claims:
        for spec in claims["projection_kernels"]:
            t = [frac(x) for x in spec["t_star"]]
            ker = kernel_of_form(project(v, t))
            want = _sub_from_rows(v.dim, spec["span"])
            add(f"kernel of projection at {spec['t_star']} matches the stated span", ker == want)
    if "kernels_orthogonal" in claims:
        for spec in claims["kernels_orthogonal"]:
            got = kernels_orthogonal_under(v, [frac(x) for x in spec["a"]],
                                           [frac(x) for x in spec["b"]],
                                           [frac(x) for x in spec["under"]])
            add(f"kernels at {spec['a']} and {spec['b']} orthogonal under {spec['under']} "
                f"= {spec['expected']}", got == spec["expected"], f"got {got}")
    if "projection_kernel_isotropy_grid" in claims:
        got = projection_kernel_isotropy_check(v)
        add("projection kernels isotropic across the covector grid",
            got == claims["projection_kernel_isotropy_grid"], f"got {got}")
    if ("polylagrangian_status" in claims or "classification" in claims
            or "required_polylagrangian_dim" in claims):
        search = search_polylagrangian(v)
        report = classify_vector_form(v, seed=seed, samples=samples)
        if "polylagrangian_status" in claims:
            add(f"search status = {claims['polylagrangian_status']}",
                search.status == claims["polylagrangian_status"], f"got {search.status}")
        if "classification" in claims:
            add(f"classification = {claims['classification']}",
                report.classification == claims["classification"],
                f"got {report.classification}")
        if "diagnostic_contains" in claims:
            text = "; ".join(search.diagnostics + report.diagnostics)
            for needle in claims["diagnostic_contains"]:
                add(f"diagnostics mention {needle!r}", needle in text)
        if "required_polylagrangian_dim" in claims:
            needle = f"required polylagrangian dim {claims['required_polylagrangian_dim']}"
            text = "; ".join(search.diagnostics)
            add(f"diagnostics state {needle!r}", needle in text, text)
        if "candidate_dims" in claims:
            dims = " and ".join(str(d) for d in claims["candidate_dims"])
            text = "; ".join(search.diagnostics)
            add(f"candidate dims {dims} reported", f"candidates of dim {dims}" in text, text)
        if "lagrangian_dim" in claims and search.subspace is not None:
            add(f"subspace dim = {claims['lagrangian_dim']}",
                search.subspace.dim == claims["lagrangian_dim"],
                f"got {search.subspace.dim}")
    if claims.get("polysymplectic_uniform_rank"):
        search = search_polylagrangian(v)
        got = search.status == "found" and polysymplectic_uniform_rank_check(v, search.subspace)
        add("uniform rank equals the subspace codimension", got)
    return out


def _check_lie_claims(name: str, parsed: FormDocument, claims: dict) -> list[ClaimResult]:
    out = []
    rep = su2_example(parsed.frame)
    checks = {
        "betas_closed": rep.betas_closed,
        "isotropic": rep.isotropic,
        "polylagrangian": rep.polylagrangian,
        "involutive": rep.involutive,
        "classification": rep.classification,
    }
    for key, want in claims.items():
        if key in checks:
            out.append(ClaimResult(name, f"{key} = {want}", checks[key] == want,
                                   f"got {checks[key]}"))
    return out


def _check_moser_claims(name: str, parsed: FormDocument, claims: dict, *, seed: int) -> list[ClaimResult]:
    from .moser import ball_sample_points, verify_darboux
    from .polyforms import constant_spread
    out = []
    spec = claims.get("moser")
    if not spec:
        return out
    omega = parsed.payload
    omega0 = constant_spread(omega)
    pts = ball_sample_points(omega.dim, spec.get("samples", 10), spec.get("radius", 0.1), seed)
    rep = verify_darboux(omega, omega0, pts, spec.get("steps", 1000))
    bound = float(spec["max_residual_below"])
    out.append(ClaimResult(name, f"flow residual below {bound:g}",
                           rep.max_residual < bound, f"got {rep.max_residual:.3e}"))
    return out


def run_corpus(*, seed: int = DEFAULT_SEED, samples: int = 100) -> list[ClaimResult]:
    results: list[ClaimResult] = []
    for path in corpus_files():
        parsed = load_document(path)
        results.extend(check_claims(path, parsed, seed=seed, samples=samples))
    return results
