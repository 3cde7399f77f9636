#!/usr/bin/env python3
"""Regenerate the bundled corpus documents under src/polydarboux/corpus/.

    python3 tools/make_corpus.py [OUT_DIR]

The fixtures are static package data; rerun this only when the document
schema or the fixture definitions change.  OUT_DIR, the package corpus by
default, takes the documents in place of it, for instance to compare them
with the shipped ones.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polydarboux.darboux import canonical_poly_model
from polydarboux.exterior import VectorValuedForm, form
from polydarboux.io import alternating_to_document, poly_form_to_document
from polydarboux.moser import perturbed_multisymplectic

OUT = Path(__file__).resolve().parent.parent / "src" / "polydarboux" / "corpus"


def write(name: str, doc: dict):
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / name).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print("wrote", name)


def appendix_a1():
    # two-component 2-form on R^4 with constant sampled rank but no uniform rank
    w1 = form(4, 2, {(1, 2): 1, (3, 4): 1})
    w2 = form(4, 2, {(1, 3): 1, (2, 4): -1})
    omega = VectorValuedForm((w1, w2))
    claims = {
        "kernel_dim": 0,
        "wedge_vanishes": [[1, 2]],
        "constant_rank_sampled": {"samples": 100, "value": 2},
        "uniform_rank": None,
        "classification": "none",
        "polylagrangian_status": "absent",
        # the squared projections all hit the volume form; note the doubled
        # coefficient relative to reading the summed expression termwise
        "squared_projections": [
            {"t_star": ["1", "0"], "terms": [{"indices": [1, 2, 3, 4], "coefficient": "2"}]},
            {"t_star": ["0", "1"], "terms": [{"indices": [1, 2, 3, 4], "coefficient": "2"}]},
            {"t_star": ["1", "1"], "terms": [{"indices": [1, 2, 3, 4], "coefficient": "4"}]},
        ],
    }
    doc = alternating_to_document(omega, description=(
        "two-component 2-form on R^4: every projection has rank 2, yet the "
        "pair of components wedges to zero, so no uniform rank and no "
        "distinguished subspace exists"), claims=claims)
    write("appendix_a1.json", doc)


def appendix_a2():
    w1 = form(3, 2, {(2, 3): 1})
    w2 = form(3, 2, {(3, 1): 1})
    w3 = form(3, 2, {(1, 2): 1})
    omega = VectorValuedForm((w1, w2, w3))
    claims = {
        "kernel_dim": 0,
        "uniform_rank": 1,
        "classification": "none",
        "polylagrangian_status": "absent",
        "diagnostic_contains": ["sum of kernels = full space, not isotropic"],
        "projection_kernels": [
            {"t_star": ["1", "0", "0"], "span": [["1", "0", "0"]]},
            {"t_star": ["0", "1", "0"], "span": [["0", "1", "0"]]},
            {"t_star": ["0", "0", "1"], "span": [["0", "0", "1"]]},
            {"t_star": ["1", "1", "1"], "span": [["1", "1", "1"]]},
        ],
        "kernels_orthogonal": [
            {"a": ["1", "0", "0"], "b": ["0", "1", "0"], "under": ["1", "0", "0"], "expected": True},
            {"a": ["1", "0", "0"], "b": ["0", "1", "0"], "under": ["0", "1", "0"], "expected": True},
            {"a": ["1", "0", "0"], "b": ["0", "1", "0"], "under": ["0", "0", "1"], "expected": False},
        ],
        "projection_kernel_isotropy_grid": True,
    }
    doc = alternating_to_document(omega, description=(
        "three-component 2-form on R^3 built from the coordinate area "
        "elements: uniform rank 1 and non-degenerate, but the projection "
        "kernels span the whole space, which is not isotropic, so no "
        "distinguished subspace exists"), claims=claims)
    write("appendix_a2.json", doc)


def appendix_a3():
    w1 = form(5, 2, {(1, 4): 1, (2, 3): 1})
    w2 = form(5, 2, {(1, 3): 1, (2, 5): -1})
    omega = VectorValuedForm((w1, w2))
    claims = {
        "kernel_dim": 0,
        "uniform_rank": 2,
        "classification": "none",
        "polylagrangian_status": "absent",
        "projection_kernels": [
            {"t_star": ["1", "0"], "span": [["0", "0", "0", "0", "1"]]},
            {"t_star": ["0", "1"], "span": [["0", "0", "0", "1", "0"]]},
            {"t_star": ["1", "1"], "span": [["0", "0", "1", "-1", "1"]]},
        ],
        "required_polylagrangian_dim": 4,
        "candidate_dims": [2, 3],
        "projection_kernel_isotropy_grid": True,
    }
    doc = alternating_to_document(omega, description=(
        "two-component 2-form on R^5 of uniform rank 2 whose candidate "
        "subspaces (the pairwise kernel sum and the span of all projection "
        "kernels) have dimensions 2 and 3, both below the required 4"),
        claims=claims)
    write("appendix_a3.json", doc)


def canonical_poly_example():
    model = canonical_poly_model(2, 2, 1)
    claims = {
        "kernel_dim": 0,
        "classification": "polysymplectic",
        "polylagrangian_status": "found",
        "lagrangian_dim": 4,
        "uniform_rank": 2,
        "polysymplectic_uniform_rank": True,
    }
    doc = alternating_to_document(model.form, description=(
        "canonical two-component polysymplectic model of rank 2 on R^6"),
        claims=claims)
    write("canonical_poly_2_2_1.json", doc)


def su2_fixture():
    eps = {(1, 2, 3): "1", (2, 3, 1): "1", (3, 1, 2): "1",
           (2, 1, 3): "-1", (3, 2, 1): "-1", (1, 3, 2): "-1"}
    doc = {
        "schema_version": "1",
        "kind": "lie_algebra",
        "dim": 3,
        "structure_constants": [
            {"indices": list(k), "value": v} for k, v in sorted(eps.items())
        ],
        "frame": [["1", "0"], ["0", "1"], ["0", "0"]],
        "description": (
            "rotation algebra with the plane frame spanning the first two "
            "generators: the induced two-component 2-form is polysymplectic "
            "with a non-involutive distinguished plane"),
        "claims": {
            "betas_closed": True,
            "isotropic": True,
            "polylagrangian": True,
            "involutive": False,
            "classification": "polysymplectic",
        },
    }
    write("su2_frame.json", doc)


def moser_fixture():
    fx = perturbed_multisymplectic(seed=1)
    claims = {"moser": {"max_residual_below": 1e-6, "steps": 1000,
                        "samples": 10, "radius": 0.1}}
    doc = poly_form_to_document(fx.omega, description=(
        "six-dimensional multisymplectic model pulled back by a seeded "
        "near-identity cubic chart map (seed 1); closed, block-structured, "
        "and equal to the constant model at the origin"), claims=claims)
    write("perturbed_multisymplectic.json", doc)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="write the corpus documents")
    parser.add_argument("out", nargs="?", type=Path, default=OUT,
                        help="directory to write into (default: the package corpus)")
    OUT = parser.parse_args().out
    appendix_a1()
    appendix_a2()
    appendix_a3()
    canonical_poly_example()
    su2_fixture()
    moser_fixture()
