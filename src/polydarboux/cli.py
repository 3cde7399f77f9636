"""Command line driver.

Subcommands: analyze, darboux, symbol, canonical, homotopy, moser,
counterexamples.  Reports are deterministic for a fixed (input, seed,
flags) triple: timing goes to stderr only.  Exit codes: 0 success,
1 precondition/usage failure, 2 malformed document, 3 internal
consistency failure (a bug).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from . import __version__
from .darboux import (canonical_multi_model, canonical_poly_model, conjugating_map,
                      darboux_basis_multi, darboux_basis_poly)
from .errors import DocumentError, InternalCheckError, PolydarbouxError, PreconditionError
from .exterior import pullback
from .io import (alternating_to_document, load_document, matrix_columns,
                 poly_form_to_document, report_json, subspace_to_rows)
from .lagrangian import (DEFAULT_SEED, as_vector_form, classify_horizontal_form,
                         classify_vector_form, symbol)
from .polyforms import homotopy_primitive, max_vertical_factors
from .corpus import run_corpus


def _report_header(command: str, digest: str, seed: int) -> dict:
    """The head of a report on an input whose bytes have the sha256 ``digest``."""
    return {"tool": "polydarboux", "version": __version__, "command": command, "seed": seed,
            "input_digest": digest}


def _classification_dict(rep) -> dict:
    return {
        "classification": rep.classification,
        "is_degenerate": rep.is_degenerate,
        "kernel_dim": rep.kernel.dim,
        "kernel": subspace_to_rows(rep.kernel),
        "rank": rep.rank,
        "lagrangian_subspace": (subspace_to_rows(rep.lagrangian_subspace)
                                if rep.lagrangian_subspace is not None else None),
        "horizontality": list(rep.horizontality) if rep.horizontality else None,
        "uniform_rank": rep.uniform_rank,
        "constant_rank_sampled": rep.constant_rank_sampled,
        "diagnostics": rep.diagnostics,
    }


def _emit(report: dict, as_json: bool):
    if as_json:
        print(report_json(report))
        return
    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)) and v and not _short(v):
                    print(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{k}: {_fmt(v)}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)) and v and not _short(v):
                    walk(v, indent)
                else:
                    print(f"{pad}- {_fmt(v)}")
    walk(report)


def _short(v) -> bool:
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v) and len(v) <= 8


def _fmt(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    return str(v)


def cmd_analyze(args) -> int:
    parsed = load_document(args.file)
    report = _report_header("analyze", parsed.input_digest, args.seed)
    if parsed.kind == "vector_valued_form" or (parsed.kind == "scalar_form" and parsed.flag is None):
        rep = classify_vector_form(as_vector_form(parsed.payload),
                                   seed=args.seed, samples=args.samples)
    elif parsed.kind == "scalar_form":
        rep = classify_horizontal_form(parsed.payload, parsed.flag, parsed.r, seed=args.seed)
    else:
        raise PolydarbouxError(f"analyze does not apply to kind {parsed.kind!r}")
    report["result"] = _classification_dict(rep)
    _emit(report, args.json)
    return 0


def cmd_darboux(args) -> int:
    parsed = load_document(args.file)
    report = _report_header("darboux", parsed.input_digest, args.seed)
    if parsed.kind == "vector_valued_form" or (parsed.kind == "scalar_form" and parsed.flag is None):
        basis = darboux_basis_poly(as_vector_form(parsed.payload))
    elif parsed.kind == "scalar_form":
        r = parsed.r
        if r is None:
            raise PolydarbouxError("darboux on a flagged form needs the horizontality parameter r")
        basis = darboux_basis_multi(parsed.payload, parsed.flag, r)
    else:
        raise PolydarbouxError(f"darboux does not apply to kind {parsed.kind!r}")
    report["result"] = {
        "kind": basis.kind,
        "params": list(basis.params),
        "labels": [list(map(str, lab)) for lab in basis.labels],
        "basis_columns": matrix_columns(basis.matrix),
        "lagrangian_subspace": subspace_to_rows(basis.lagrangian),
        "canonical_pattern_match": True,  # construction raises otherwise
    }
    _emit(report, args.json)
    return 0


def cmd_symbol(args) -> int:
    parsed = load_document(args.file)
    if parsed.kind != "scalar_form" or parsed.flag is None:
        raise PolydarbouxError("symbol needs a scalar form with a flag")
    r = args.r if args.r is not None else parsed.r
    if r is None:
        raise PolydarbouxError("symbol needs the horizontality parameter r")
    sym = symbol(parsed.payload, parsed.flag, r)
    doc = alternating_to_document(sym, description=(
        f"symbol of {Path(args.file).name} at horizontality parameter r={r}; "
        f"components run over increasing base multi-indices"))
    print(report_json(doc))
    return 0


def cmd_canonical(args) -> int:
    if args.family == "poly":
        model = canonical_poly_model(args.N, args.nhat, args.k)
        if args.shuffle_seed is not None:
            moved = pullback(model.form, conjugating_map(model, args.shuffle_seed).matrix)
            doc = alternating_to_document(moved, description=(
                f"poly model N={args.N} nhat={args.nhat} k={args.k}, "
                f"conjugated with seed {args.shuffle_seed}"))
        else:
            doc = alternating_to_document(model.form, description=(
                f"canonical poly model N={args.N} nhat={args.nhat} k={args.k}"))
    else:
        model = canonical_multi_model(args.N, args.n, args.k, args.r)
        if args.shuffle_seed is not None:
            moved = pullback(model.form, conjugating_map(model, args.shuffle_seed).matrix)
            doc = alternating_to_document(moved, flag=model.flag, r=args.r, description=(
                f"multi model N={args.N} n={args.n} k={args.k} r={args.r}, "
                f"flag-preserving conjugate with seed {args.shuffle_seed}"))
        else:
            doc = alternating_to_document(model.form, flag=model.flag, r=args.r, description=(
                f"canonical multi model N={args.N} n={args.n} k={args.k} r={args.r}"))
    text = report_json(doc)
    if args.output:
        try:
            Path(args.output).write_text(text + "\n")
        except OSError as exc:
            raise PreconditionError(f"cannot write {args.output}: {exc}") from exc
    else:
        print(text)
    return 0


def cmd_homotopy(args) -> int:
    parsed = load_document(args.file)
    if parsed.kind != "poly_form":
        raise PolydarbouxError("homotopy needs a poly_form document")
    omega = parsed.payload
    r = args.r if args.r is not None else parsed.r
    if r is None:
        r = max_vertical_factors(omega)
    theta = homotopy_primitive(omega, r)  # raises unless d(theta) == omega
    report = _report_header("homotopy", parsed.input_digest, args.seed)
    report["result"] = {
        "r": r,
        "primitive": poly_form_to_document(theta),
        "derivative_matches": True,
        "vertical_factors_of_primitive": max_vertical_factors(theta),
    }
    _emit(report, args.json)
    return 0


def cmd_moser(args) -> int:
    from .moser import ball_sample_points, verify_darboux
    from .polyforms import constant_spread
    parsed = load_document(args.file)
    if parsed.kind != "poly_form":
        raise PolydarbouxError("moser needs a poly_form document")
    omega = parsed.payload
    omega0 = constant_spread(omega)
    pts = ball_sample_points(omega.dim, args.samples, args.radius, args.seed)
    rep = verify_darboux(omega, omega0, pts, args.steps, solve_tol=args.tol)
    report = _report_header("moser", parsed.input_digest, args.seed)
    report["result"] = {
        "steps": rep.steps,
        "solve_tol": rep.solve_tol,
        "samples": len(rep.residuals),
        "radius": args.radius,
        "residuals": [f"{r:.6e}" for r in rep.residuals],
        "max_residual": f"{rep.max_residual:.6e}",
        "min_jacobian_det": f"{rep.min_jacobian_det:.6f}",
    }
    _emit(report, args.json)
    return 0


def cmd_counterexamples(args) -> int:
    results = run_corpus(seed=args.seed, samples=args.samples)
    failures = 0
    for res in results:
        print(res.line())
        failures += 0 if res.ok else 1
    print(f"{len(results) - failures}/{len(results)} corpus claims hold")
    return 0 if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``main`` dispatches by command name."""
    parser = argparse.ArgumentParser(prog="polydarboux", description=__doc__)
    parser.add_argument("--version", action="version", version=f"polydarboux {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--json", action="store_true", help="machine-readable report")
        return p

    p = common(sub.add_parser("analyze", help="classify a form document"))
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=100)

    p = common(sub.add_parser("darboux", help="construct a canonical basis"))
    p.add_argument("file")

    p = common(sub.add_parser("symbol", help="emit the symbol of a flagged form"))
    p.add_argument("file")
    p.add_argument("--r", type=int, default=None)

    p = sub.add_parser("canonical", help="generate a canonical model document")
    fam = p.add_subparsers(dest="family", required=True)
    pp = fam.add_parser("poly")
    pp.add_argument("N", type=int)
    pp.add_argument("nhat", type=int)
    pp.add_argument("k", type=int)
    pm = fam.add_parser("multi")
    pm.add_argument("N", type=int)
    pm.add_argument("n", type=int)
    pm.add_argument("k", type=int)
    pm.add_argument("r", type=int)
    for q in (pp, pm):
        q.add_argument("--shuffle-seed", type=int, default=None)
        q.add_argument("-o", "--output", default=None)

    p = common(sub.add_parser("homotopy", help="exact primitive of a closed polynomial form"))
    p.add_argument("file")
    p.add_argument("--r", type=int, default=None)

    p = common(sub.add_parser("moser", help="run the deformation-flow demonstrator"))
    p.add_argument("file")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--radius", type=float, default=0.1)

    p = sub.add_parser("counterexamples", help="replay the bundled claim corpus")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=100)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        # looked up at call time, so a rebound ``cmd_*`` (a tracer, a test) is the one that runs
        code = globals()[f"cmd_{args.command}"](args)
    except DocumentError as exc:
        print(f"document error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except PolydarbouxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
