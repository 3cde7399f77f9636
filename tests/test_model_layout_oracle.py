"""Differential tests: the one slot layout against the model bodies it replaced.

``darboux._slots`` decides, for both kinds, which coordinate is which
slot's momentum, which indices it pairs with and what label it carries,
and ``darboux._model`` builds every model from it.  The oracle
``conftest.model_layout_oracle`` is the previous code: the poly term
formula, the multi model of ``multi_slot_index`` and the two label
functions.  Models must agree in kind, params, form (terms in the same
order), L, E, F, flag and labels.
"""

from __future__ import annotations

import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from conftest import model_layout_oracle
from polydarboux.darboux import _model, canonical_multi_model, canonical_poly_model
from polydarboux.errors import PreconditionError
from polydarboux.exterior import VectorValuedForm

ROOT = Path(__file__).resolve().parent.parent

# acceptance criteria 2 and 3
CRITERION_2 = [(n_rank, nhat, k) for k in (1, 2, 3) for n_rank in range(k, 5) for nhat in (1, 2, 3)
               if n_rank + nhat * comb(n_rank, k) <= 20]
CRITERION_3 = [(n_rank, n_base, k, r) for n_rank in (1, 2, 3) for n_base in (1, 2, 3)
               for k in (1, 2, 3) for r in range(2, k + 2) if k + 1 - r <= n_base]
# multi models over an empty base with r = k + 1: the layout of the one-component poly model
EMPTY_BASE = [(n_rank, 0, k, k + 1) for n_rank in range(5) for k in (1, 2, 3)]
# every small parameter set whose layout has no slot
EMPTY_POLY = [(n_rank, nhat, k) for n_rank in range(3) for nhat in (1, 2, 3)
              for k in range(n_rank + 1, 4)]
EMPTY_MULTI = [(n_rank, n_base, k, r) for n_rank in range(4) for n_base in range(4)
               for k in (1, 2, 3) for r in range(1, k + 2)
               if not sum(comb(n_rank, s) * comb(n_base, k - s) for s in range(r))]


def _large_poly() -> list:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import LARGE_POLY
    finally:
        sys.path.pop(0)
    return list(LARGE_POLY)


def _flag_key(flag):
    return None if flag is None else (flag.total_dim, flag.vertical, flag.splitting.columns)


def _terms(x) -> list:
    comps = x.components if isinstance(x, VectorValuedForm) else (x,)
    return [list(c.coeffs.items()) for c in comps]


def assert_same_model(new, old):
    assert (new.kind, new.params, new.labels) == (old.kind, old.params, old.labels)
    assert type(new.form) is type(old.form)
    assert new.form == old.form and _terms(new.form) == _terms(old.form)
    assert (new.lagrangian, new.isotropic_complement, new.frame_complement) == \
        (old.lagrangian, old.isotropic_complement, old.frame_complement)
    assert _flag_key(new.flag) == _flag_key(old.flag)
    assert new.dim == old.lagrangian.ambient_dim


def built(kind: str, params: tuple):
    if kind == "poly":
        n_rank, nhat, k = params
        return _model(kind, n_rank, nhat, 0, k, k + 1)
    n_rank, n_base, k, r = params
    return _model(kind, n_rank, 1, n_base, k, r)


def public(kind: str, params: tuple):
    """The public model, or None where it refuses the parameters."""
    try:
        return canonical_poly_model(*params) if kind == "poly" else canonical_multi_model(*params)
    except PreconditionError:
        return None


LAYOUTS = list(dict.fromkeys([("poly", p) for p in CRITERION_2 + _large_poly() + EMPTY_POLY]
                             + [("multi", p) for p in CRITERION_3 + EMPTY_BASE + EMPTY_MULTI]))


def test_the_parameter_sets_cover_what_they_name():
    assert (len(CRITERION_2), len(CRITERION_3), len(EMPTY_BASE)) == (26, 51, 15)
    assert len(_large_poly()) == 6 and EMPTY_POLY and EMPTY_MULTI
    # the public builders refuse exactly the layouts with no slot or no E
    refused = {(kind, p) for kind, p in LAYOUTS if public(kind, p) is None}
    assert refused == ({("poly", p) for p in EMPTY_POLY} | {("multi", p) for p in EMPTY_MULTI}
                       | {("multi", p) for p in EMPTY_BASE if p[0] == 0})


@pytest.mark.parametrize("kind, params", LAYOUTS)
def test_models_match_the_previous_bodies(kind, params):
    old = model_layout_oracle(kind, params)
    assert_same_model(built(kind, params), old)
    if (model := public(kind, params)) is not None:
        assert_same_model(model, old)


def test_regenerated_corpus_equals_the_shipped_one(tmp_path):
    # canonical_poly_2_2_1.json is written by canonical_poly_model: the layout end to end
    subprocess.run([sys.executable, str(ROOT / "tools" / "make_corpus.py"), str(tmp_path)],
                   check=True, capture_output=True)
    shipped = ROOT / "src" / "polydarboux" / "corpus"
    names = sorted(p.name for p in shipped.glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name
