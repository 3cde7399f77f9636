"""Differential tests: the batched deformation step against the per-point loop.

``DeformationField.batch`` now makes one least-squares solve per point
against the stacked columns [b | db^T | dA_c...] and does the residual
check, the assembly and the error choice as array operations; the
monomial table gathers from one power table, ``_systems`` fills the
derivative blocks by fancy indexing, and ``pullback_constant_float`` takes
one stacked determinant.  The oracles below are the previous code: the
float ``pow`` over every (point, monomial, variable) triple, the
per-variable fill, the two-solve loop per point and the per-minor
determinant.  Where the arithmetic is unchanged the results must be
equal; the solve now distributes A^+ over the Jacobian's right-hand side,
so the field and its Jacobian agree within 1e-12.  ``_lstsq_blocks`` solves
a block of points with one call on diag(A_1, ..., A_m); its oracle is the
per-point solve it replaced, and its solutions agree within 1e-12.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polydarboux.moser import (DeformationField, MoserFlowError, _lstsq_blocks,
                               perturbed_multisymplectic, pullback_constant_float)
from polydarboux.polyforms import PolyForm, moser_potential, poly_var

settings.register_profile("moser_oracle", deadline=None, max_examples=60, derandomize=True)
PROFILE = settings.get_profile("moser_oracle")

RADIUS = 0.5
TOL = 1e-12


# ---------------------------------------------------------------------------
# oracles: the previous code


def oracle_eval(compiled, points):
    exps = compiled.exps.astype(float)
    mono = np.prod(points[:, None, :] ** exps[None, :, :], axis=2)
    return mono @ compiled.weights.T


def oracle_systems(field: DeformationField, points, t):
    vals = oracle_eval(field.compiled, points)
    ne, nr = field.n_entries, field.n_rhs
    batch = points.shape[0]
    a = np.broadcast_to(field.a_const, (batch, field.n_rows, field.n_cols)).copy()
    if ne:
        a[:, field.entry_rows, field.entry_cols] += t * field.entry_signs * vals[:, :ne]
    b = np.zeros((batch, field.n_rows))
    off = ne * (1 + field.dim)
    if nr:
        b[:, field.rhs_rows] = vals[:, off:off + nr]
    da = np.zeros((batch, field.dim, field.n_rows, field.n_cols))
    db = np.zeros((batch, field.dim, field.n_rows))
    for v in range(field.dim):
        if ne:
            seg = vals[:, ne * (1 + v):ne * (2 + v)]
            da[:, v, field.entry_rows, field.entry_cols] = t * field.entry_signs * seg
        if nr:
            seg = vals[:, off + nr * (1 + v):off + nr * (2 + v)]
            db[:, v, field.rhs_rows] = seg
    return a, b, da, db


def oracle_batch(field: DeformationField, points, t, with_jacobian=True):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    a, b, da, db = oracle_systems(field, points, t)
    batch = points.shape[0]
    x = np.zeros((batch, field.dim))
    dx = np.zeros((batch, field.dim, field.dim)) if with_jacobian else None
    for i in range(batch):
        sol, _, rk, _ = np.linalg.lstsq(a[i], b[i], rcond=None)
        if rk < field.n_cols:
            raise MoserFlowError(f"deformation system is singular at t={t}")
        resid = float(np.max(np.abs(a[i] @ sol - b[i]))) if field.n_rows else 0.0
        if resid > field.solve_tol:
            raise MoserFlowError(
                f"deformation solve residual {resid:.3e} exceeds {field.solve_tol:.1e}")
        x[i, field.l_indices] = sol
        if with_jacobian:
            rhs = db[i].T - np.einsum('vrc,c->rv', da[i], sol)
            corr, _, _, _ = np.linalg.lstsq(a[i], rhs, rcond=None)
            dx[i][np.ix_(field.l_indices, range(field.dim))] = corr
    return x, dx


def oracle_lstsq(a, rhs):
    """One least-squares solve per point: solutions and ranks."""
    ys = np.empty((a.shape[0], a.shape[2], rhs.shape[2]))
    ranks = np.empty(a.shape[0], dtype=int)
    for i in range(a.shape[0]):
        ys[i], _, ranks[i], _ = np.linalg.lstsq(a[i], rhs[i], rcond=None)
    return ys, ranks


def oracle_pullback(coeffs: dict, jac: np.ndarray, degree: int, dim: int) -> dict:
    out = {}
    for target in itertools.combinations(range(dim), degree):
        total = 0.0
        for m, c in coeffs.items():
            rows = [b for b in range(dim) if m & (1 << b)]
            sub = jac[np.ix_(rows, list(target))]
            total += c * float(np.linalg.det(sub))
        if total:
            out[sum(1 << t for t in target)] = total
    return out


# ---------------------------------------------------------------------------
# inputs


@functools.lru_cache(maxsize=None)
def fixture_field(seed: int):
    fx = perturbed_multisymplectic(seed=seed)
    return fx, DeformationField(fx.omega, fx.omega0, moser_potential(fx.omega, fx.omega0))


coordinate = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def ball_points(draw, dim=6, max_size=5):
    """A batch of points in the closed ball of radius RADIUS."""
    raw = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                        min_size=1, max_size=max_size))
    pts = np.array(raw)
    norms = np.maximum(np.linalg.norm(pts, axis=1), 1.0)
    return RADIUS * pts / norms[:, None]


def outcome(run):
    try:
        return None, run()
    except MoserFlowError as exc:
        return str(exc), None


# ---------------------------------------------------------------------------
# tests


@settings(PROFILE)
@given(st.integers(1, 32), ball_points(), st.floats(0.0, 1.0), st.booleans())
def test_batch_matches_per_point_loop(seed, points, t, with_jacobian):
    _, field = fixture_field(seed)
    vals = field.compiled.eval(points)
    assert np.array_equal(vals, oracle_eval(field.compiled, points))
    for got, want in zip(field._systems(points, t), oracle_systems(field, points, t)):
        assert np.array_equal(got, want)
    err_want, want = outcome(lambda: oracle_batch(field, points, t, with_jacobian))
    err_got, got = outcome(lambda: field.batch(points, t, with_jacobian))
    assert err_got == err_want
    if want is None:
        return
    assert np.max(np.abs(got[0] - want[0])) <= TOL
    if with_jacobian:
        assert np.max(np.abs(got[1] - want[1])) <= TOL
    else:
        assert got[1] is None


@settings(PROFILE)
@given(st.integers(1, 32), ball_points(max_size=1),
       st.lists(st.floats(-0.2, 0.2), min_size=36, max_size=36))
def test_pullback_matches_per_minor_determinants(seed, points, perturbation):
    fx, _ = fixture_field(seed)
    coeffs = fx.omega.coeffs_float(points[0])
    jac = np.eye(6) + np.array(perturbation).reshape(6, 6)
    got = pullback_constant_float(coeffs, jac, fx.omega.degree, fx.omega.dim)
    want = oracle_pullback(coeffs, jac, fx.omega.degree, fx.omega.dim)
    assert list(got.items()) == list(want.items())


def failing_field(solve_tol: float) -> DeformationField:
    """A system on R^1 x R^1 that fails where the sampled point asks it to.

    omega_t = t x1 dx1^dx2 contracts the fiber direction to -t x1 dx1, so
    the system is singular exactly where t x1 = 0; alpha = x1 dx1 + x2 dx2
    has a dx2 row that no field reaches, so the solve residual is |x2|
    where the system is regular, and a singular system is consistent
    wherever |x1|, |x2| <= solve_tol.
    """
    split = (1, 1)
    omega = PolyForm(2, 2, split, {0b11: poly_var(2, 1)})
    omega0 = PolyForm(2, 2, split, {})
    alpha = PolyForm(2, 1, split, {0b01: poly_var(2, 1), 0b10: poly_var(2, 2)})
    return DeformationField(omega, omega0, alpha, solve_tol)


@settings(PROFILE)
@given(st.lists(st.tuples(st.one_of(st.just(0.0), coordinate),
                          st.one_of(st.just(0.0), coordinate)), min_size=1, max_size=6),
       st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       st.floats(1e-3, 1.0), st.booleans())
def test_failures_name_the_first_failing_point(points, t, solve_tol, with_jacobian):
    field = failing_field(solve_tol)
    pts = np.array(points)
    err_want, _ = outcome(lambda: oracle_batch(field, pts, t, with_jacobian))
    err_got, _ = outcome(lambda: field.batch(pts, t, with_jacobian))
    assert err_got == err_want


@st.composite
def point_systems(draw):
    """A batch of 1-25 systems (n_rows >= n_cols) with well-conditioned points, some of
    them singular (a zero column) and some consistent, so that every flag varies."""
    n_cols = draw(st.integers(1, 6))
    n_rows = draw(st.integers(n_cols, 40))
    batch = draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.uniform(-0.5, 0.5, (batch, n_rows, n_cols)) / max(n_rows, n_cols)
    a[:, :n_cols] += np.eye(n_cols)
    rhs = rng.uniform(-1.0, 1.0, (batch, n_rows, draw(st.integers(1, 4))))
    for i in draw(st.sets(st.integers(0, batch - 1))):
        rhs[i] = a[i] @ rhs[i, :n_cols]
    for i in draw(st.lists(st.integers(0, batch - 1), max_size=3)):
        a[i, :, rng.integers(n_cols)] = 0.0
    return a, rhs


def solve_flags(a, rhs, ys, ranks):
    resid = np.abs(np.einsum('brc,bc->br', a, ys[:, :, 0]) - rhs[:, :, 0]).max(axis=1)
    return (ranks < a.shape[2]) | (resid > 1e-10)


@settings(PROFILE, max_examples=200)
@given(point_systems())
def test_block_solve_matches_the_per_point_solve(system):
    a, rhs = system
    got_ys, got_ranks = _lstsq_blocks(a, rhs)
    want_ys, want_ranks = oracle_lstsq(a, rhs)
    assert np.max(np.abs(got_ys - want_ys)) <= TOL
    assert np.array_equal(got_ranks, want_ranks)
    assert np.array_equal(solve_flags(a, rhs, got_ys, got_ranks),
                          solve_flags(a, rhs, want_ys, want_ranks))


def test_block_solve_falls_back_where_only_the_block_cutoff_fails():
    # one block of ten 3 x 3 points: 1e-15 * I is of full rank on its own, but below the
    # block's cutoff eps * 30 * 1, set by the identity beside it
    a = np.broadcast_to(np.eye(3), (10, 3, 3)).copy()
    a[4] *= 1e-15
    rhs = np.random.default_rng(3).uniform(-1.0, 1.0, (10, 3, 5))
    block = np.zeros((30, 30))
    for i in range(10):
        block[3 * i:3 * i + 3, 3 * i:3 * i + 3] = a[i]
    assert np.linalg.lstsq(block, np.zeros(30), rcond=None)[2] < 30
    got_ys, got_ranks = _lstsq_blocks(a, rhs)
    want_ys, want_ranks = oracle_lstsq(a, rhs)
    assert np.array_equal(got_ranks, want_ranks) and (want_ranks == 3).all()
    assert np.array_equal(got_ys, want_ys)


@pytest.mark.parametrize("failing, message", [
    # (index, x1, x2) of the points that fail; every other point is (0.5, 0) and solves
    # exactly.  The systems are 2 x 1, so blocks hold 22 points: 0-21, then 22-24
    ([(5, 0.0, 0.0), (23, 0.0, 0.0), (24, 0.5, 0.375)], "deformation system is singular at t=0.5"),
    ([(3, 0.5, 0.25), (5, 0.0, 0.0)], "deformation solve residual 2.500e-01 exceeds 1.0e-10"),
    ([(23, 0.0, 0.0), (24, 0.5, 0.375)], "deformation system is singular at t=0.5"),
    ([(22, 0.5, 0.125), (23, 0.0, 0.0), (24, 0.5, 0.375)],
     "deformation solve residual 1.250e-01 exceeds 1.0e-10"),
    ([(10, 0.5, 0.375), (24, 0.5, 0.125)],
     "deformation solve residual 3.750e-01 exceeds 1.0e-10"),
])
@pytest.mark.parametrize("with_jacobian", [True, False])
def test_block_failures_name_the_first_failing_point(failing, message, with_jacobian):
    field = failing_field(1e-10)
    pts = np.tile([0.5, 0.0], (25, 1))
    for i, x1, x2 in failing:
        pts[i] = x1, x2
    err_want, _ = outcome(lambda: oracle_batch(field, pts, 0.5, with_jacobian))
    err_got, _ = outcome(lambda: field.batch(pts, 0.5, with_jacobian))
    assert err_got == err_want == message
