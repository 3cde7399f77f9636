"""Differential tests: the one structure check for both kinds against the two it replaced.

``lagrangian._images_fill`` is the contraction-image equality of both kinds,
the poly one as the multi one over an empty base (n = 0, r = degree), and
``lagrangian._counted_dim`` the counting identity of both; the form now
remembers its kernel.  The oracles in ``conftest`` are the previous bodies:
``check_polylagrangian_oracle`` with its tensor basis, ``check_vertical_oracle``
with its horizontal cut, and the two dimension criteria, each eliminating
the kernel afresh.  On every candidate both sides must return the same
answer or raise the same error.

The candidates are the subspace L of a conjugated canonical model and L
with one vector dropped, added or moved, on acceptance criterion 2's poly
grid and criterion 3's multi grid at seeds 3 and 503.  The multi grid holds
forms whose symbols have two or more components and whose check needs the
horizontal cut (r <= k); their symbols are checked against the poly oracle
on the same candidates, in vertical coordinates.
"""

from __future__ import annotations

from math import comb

from conftest import (check_polylagrangian_oracle, check_vertical_oracle,
                      dimension_criterion_multi_oracle, dimension_criterion_poly_oracle)
from polydarboux.darboux import (canonical_multi_model, canonical_poly_model,
                                 conjugated_multi_instance, conjugated_poly_instance)
from polydarboux.errors import PolydarbouxError, PreconditionError
from polydarboux.exterior import AlternatingForm, VectorValuedForm, form
from polydarboux.lagrangian import (_adapted, check_multilagrangian, check_polylagrangian,
                                    dimension_criterion_multi, dimension_criterion_poly, symbol,
                                    to_vertical_coordinates)
from polydarboux.linalg import Subspace

SEEDS = (3, 503)
POLY_GRID = [(n_rank, nhat, k) for k in (1, 2, 3) for n_rank in range(k, 5) for nhat in (1, 2, 3)
             if n_rank + nhat * comb(n_rank, k) <= 20]
MULTI_GRID = [(n_rank, n_base, k, r) for n_rank in (1, 2, 3) for n_base in (1, 2, 3)
              for k in (1, 2, 3) for r in range(2, k + 2) if k + 1 - r <= n_base]


def outcome(call):
    try:
        return call()
    except PolydarbouxError as exc:
        return type(exc).__name__, str(exc)


def candidates(lagr: Subspace, space: Subspace) -> list[Subspace]:
    """L, then L with its first or last vector dropped, with the first unit row of ``space``
    outside L added, and with its last vector moved by that row."""
    rows = lagr.rows()
    out = [lagr, Subspace.from_vectors(lagr.ambient_dim, rows[1:]),
           Subspace.from_vectors(lagr.ambient_dim, rows[:-1])]
    extra = next((u for u in space.unit_rows() if not lagr.contains_subspace(
        Subspace.from_vectors(lagr.ambient_dim, [u]))), None)
    if extra is not None:
        moved = dict(rows[-1])
        for j, x in extra.items():
            moved[j] = moved.get(j, 0) + x
        out += [Subspace.from_vectors(lagr.ambient_dim, rows + [extra]),
                Subspace.from_vectors(lagr.ambient_dim, rows[:-1] + [moved])]
    return out


def fresh(omega):
    """An equal form that remembers nothing: no kernel and no contraction image."""
    if isinstance(omega, AlternatingForm):
        return form(omega.dim, omega.degree, dict(omega.terms()))
    return VectorValuedForm(tuple(fresh(c) for c in omega.components))


def poly_cases():
    for params in POLY_GRID:
        model = canonical_poly_model(*params)
        for seed in SEEDS:
            moved, lagr, _ = conjugated_poly_instance(model, seed)
            assert check_polylagrangian(lagr, moved)
            for sub in candidates(lagr, Subspace.full(model.dim)):
                yield params, seed, moved, sub


def multi_cases():
    for params in MULTI_GRID:
        try:
            model = canonical_multi_model(*params)
        except PreconditionError:
            continue  # empty momentum block
        for seed in SEEDS:
            moved, lagr, _ = conjugated_multi_instance(model, seed)
            assert check_multilagrangian(lagr, moved, model.flag, params[3])
            for sub in candidates(lagr, model.flag.vertical):
                yield params, seed, moved, model.flag, sub


def test_poly_check_and_criterion_match_the_previous_bodies():
    refused = 0
    for params, seed, moved, sub in poly_cases():
        new = (outcome(lambda: check_polylagrangian(sub, moved)),
               outcome(lambda: dimension_criterion_poly(sub, moved)))
        old_form = fresh(moved)
        old = (outcome(lambda: check_polylagrangian_oracle(sub, old_form)),
               outcome(lambda: dimension_criterion_poly_oracle(sub, old_form)))
        assert new == old, (params, seed, sub)
        refused += new[0] is False
    assert refused  # every L holds (``poly_cases``), and some changed candidates fail


def test_multi_check_and_criterion_match_the_previous_bodies():
    refused = cut = wide = 0
    for params, seed, moved, flag, sub in multi_cases():
        r = params[3]
        new = (outcome(lambda: check_multilagrangian(sub, moved, flag, r)),
               outcome(lambda: dimension_criterion_multi(sub, moved, flag, r)))
        old_form = fresh(moved)
        aomega = _adapted(old_form, flag)[0]
        sub_v = to_vertical_coordinates(flag, sub)
        old = (outcome(lambda: check_vertical_oracle(sub_v, aomega, flag.dim_t, r)),
               outcome(lambda: dimension_criterion_multi_oracle(sub, old_form, flag, r)))
        assert new == old, (params, seed, sub)
        sym = symbol(moved, flag, r)
        assert (outcome(lambda: check_polylagrangian(sub_v, sym))
                == outcome(lambda: check_polylagrangian_oracle(sub_v, fresh(sym)))), (params, seed)
        refused += new[0] is False
        cut += r <= params[2]
        wide += sym.value_dim >= 2 and r <= params[2]
    assert refused and cut and wide

