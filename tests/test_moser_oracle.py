"""Differential tests: the batched deformation step against the previous assembly.

``DeformationField`` compiles the cells of [D | b] (omega_t = omega0 + t delta gives the
system [A0 + t D | b]) and their partial derivatives into one monomial table, and
``batch`` solves each point against [b | I], so that one least-squares solve gives the
field X and the pseudo-inverse P = A^+, and the Jacobian is P [D_v | db_v] [-t X; 1].
The oracle is the previous code, rebuilt here from the three forms in ``Fraction``
arithmetic rather than from the field's attributes: one polynomial per (mask, fiber
index) entry of delta and per mask of alpha, each followed by its partial derivatives,
evaluated by the float ``pow`` over every (point, monomial, variable) triple, filled into
dense A, b, dA and db, and solved point by point against the stacked columns
[b | db^T | dA_c...].  The table, A and b must be equal to the oracle's bit for bit; the
field and its Jacobian agree within 1e-12, and every failure names the same point with
the same text.  A field keeps its block layouts and its [b | I] buffers from call to call;
whatever batches it has solved, and whichever blocks fell back to the per-point solve, it
answers bit for bit as a fresh field does.  ``_lstsq_blocks`` solves a block of points
with one call on diag(A_1, ..., A_m); its oracle is the per-point solve it replaced, and
its solutions agree within 1e-12.  A square batch whose constant system's singular values
certify, by Weyl's inequality, that every per-point solve finds full rank is solved by one
batched LU (``_certified_solve``); it agrees with the per-point solve within 1e-12, and
every batch it does not certify answers bit for bit as ``_lstsq_blocks``, failures
included.  ``_pullback_residuals`` checks every sample after the
flow at once; its oracle is the per-sample check it replaced (``tests/conftest.py``), and
the residuals are equal bit for bit.  That oracle's stacked determinant has the
per-minor determinant as its own oracle.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import pullback_constant_float, pullback_residuals_oracle
from polydarboux.exterior import removal_sign
from polydarboux.moser import (_CERTIFICATE_MARGIN, DEFAULT_SOLVE_TOL, DeformationField,
                               MoserFlowError, _certified_solve, _lstsq_blocks,
                               _pullback_residuals, ball_sample_points, integrate_flow_batch,
                               perturbed_multisymplectic, verify_darboux)
from polydarboux.polyforms import (PolyForm, moser_potential, pf_add, pf_scale, pf_sub,
                                   poly_const, poly_var)

settings.register_profile("moser_oracle", deadline=None, max_examples=60, derandomize=True)
PROFILE = settings.get_profile("moser_oracle")

RADIUS = 0.5
TOL = 1e-12


# ---------------------------------------------------------------------------
# oracles: the previous code


def oracle_eval(exps, weights, points):
    mono = np.prod(points[:, None, :] ** exps.astype(float)[None, :, :], axis=2)
    return mono @ weights.T


class OracleField:
    """The previous assembly and solve, from omega, omega0 and alpha."""

    def __init__(self, omega: PolyForm, omega0: PolyForm, alpha: PolyForm,
                 solve_tol: float = DEFAULT_SOLVE_TOL):
        self.dim, self.solve_tol = omega.dim, solve_tol
        self.l_indices = list(range(omega.x_dim, omega.dim))
        delta = pf_sub(omega, omega0)
        rows = sorted({m ^ (1 << j) for m in set(omega0.coeffs) | set(delta.coeffs)
                       for j in self.l_indices if m & (1 << j)} | set(alpha.coeffs))
        row_pos = {m: i for i, m in enumerate(rows)}
        self.n_rows, self.n_cols = len(rows), len(self.l_indices)
        self.a_const = np.zeros((self.n_rows, self.n_cols))
        entries = []  # (row, col, sign, polynomial)
        for m, p in omega0.coeffs.items():
            val = float(p.terms.get((0,) * self.dim, 0))
            for col, j in enumerate(self.l_indices):
                if m & (1 << j):
                    self.a_const[row_pos[m ^ (1 << j)], col] += removal_sign(m, j) * val
        for m, p in delta.coeffs.items():
            for col, j in enumerate(self.l_indices):
                if m & (1 << j):
                    entries.append((row_pos[m ^ (1 << j)], col, removal_sign(m, j), p))
        self.entry_rows = np.array([e[0] for e in entries], dtype=int)
        self.entry_cols = np.array([e[1] for e in entries], dtype=int)
        self.entry_signs = np.array([float(e[2]) for e in entries])
        self.rhs_rows = np.array([row_pos[m] for m in alpha.coeffs], dtype=int)
        polys = []
        for ps in ([e[3] for e in entries], list(alpha.coeffs.values())):
            polys += ps + [p.diff(v) for v in range(1, self.dim + 1) for p in ps]
        monos = {}
        for p in polys:
            for e in p.terms:
                monos.setdefault(e, len(monos))
        monos = monos or {(0,) * self.dim: 0}
        self.exps = np.array(list(monos), dtype=int)
        self.weights = np.zeros((len(polys), len(monos)))
        for i, p in enumerate(polys):
            for e, c in p.terms.items():
                self.weights[i, monos[e]] = float(c)

    def systems(self, points, t):
        vals = oracle_eval(self.exps, self.weights, points)
        ne, nr = len(self.entry_rows), len(self.rhs_rows)
        batch = points.shape[0]
        a = np.broadcast_to(self.a_const, (batch, self.n_rows, self.n_cols)).copy()
        if ne:
            a[:, self.entry_rows, self.entry_cols] += t * self.entry_signs * vals[:, :ne]
        b = np.zeros((batch, self.n_rows))
        off = ne * (1 + self.dim)
        if nr:
            b[:, self.rhs_rows] = vals[:, off:off + nr]
        da = np.zeros((batch, self.dim, self.n_rows, self.n_cols))
        db = np.zeros((batch, self.dim, self.n_rows))
        for v in range(self.dim):
            if ne:
                seg = vals[:, ne * (1 + v):ne * (2 + v)]
                da[:, v, self.entry_rows, self.entry_cols] = t * self.entry_signs * seg
            if nr:
                seg = vals[:, off + nr * (1 + v):off + nr * (2 + v)]
                db[:, v, self.rhs_rows] = seg
        return a, b, da, db

    def batch(self, points, t, with_jacobian=True):
        """One solve per point against [b | db^T | dA_c...]:
        dX = A^+ db^T - sum_c X_c A^+ dA_c."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        a, b, da, db = self.systems(points, t)
        batch, dim, n_cols = points.shape[0], self.dim, self.n_cols
        x = np.zeros((batch, dim))
        dx = np.zeros((batch, dim, dim)) if with_jacobian else None
        for i in range(batch):
            rhs = np.concatenate([b[i][:, None], db[i].T, da[i].transpose(1, 2, 0).reshape(
                self.n_rows, n_cols * dim)], axis=1)
            ys, _, rk, _ = np.linalg.lstsq(a[i], rhs, rcond=None)
            if rk < n_cols:
                raise MoserFlowError(f"deformation system is singular at t={t}")
            sol = ys[:, 0]
            resid = float(np.max(np.abs(a[i] @ sol - b[i]))) if self.n_rows else 0.0
            if resid > self.solve_tol:
                raise MoserFlowError(
                    f"deformation solve residual {resid:.3e} exceeds {self.solve_tol:.1e}")
            x[i, self.l_indices] = sol
            if with_jacobian:
                terms = ys[:, 1 + dim:].reshape(n_cols, n_cols, dim)
                dx[i, self.l_indices] = ys[:, 1:1 + dim] - np.einsum('c,kcv->kv', sol, terms)
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
    forms = fx.omega, fx.omega0, moser_potential(fx.omega, fx.omega0)
    return fx, DeformationField(*forms), OracleField(*forms)


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
@given(st.integers(1, 32), ball_points(max_size=25), st.floats(0.0, 1.0), st.booleans())
def test_batch_matches_per_point_loop(seed, points, t, with_jacobian):
    _, field, oracle = fixture_field(seed)
    vals = field.compiled.eval(points)
    assert np.array_equal(vals, oracle_eval(field.compiled.exps, field.compiled.weights, points))
    a, b, table = field._assemble(points, t)
    want_a, want_b, want_da, want_db = oracle.systems(points, t)
    assert np.array_equal(a, want_a) and np.array_equal(b, want_b)
    assert np.array_equal(t * table[:, 1:, :, :-1], want_da)
    assert np.array_equal(table[:, 1:, :, -1], want_db)
    err_want, want = outcome(lambda: oracle.batch(points, t, with_jacobian))
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
    fx, _, _ = fixture_field(seed)
    coeffs = fx.omega.coeffs_float(points[0])
    jac = np.eye(6) + np.array(perturbation).reshape(6, 6)
    got = pullback_constant_float(coeffs, jac, fx.omega.degree, fx.omega.dim)
    want = oracle_pullback(coeffs, jac, fx.omega.degree, fx.omega.dim)
    assert list(got.items()) == list(want.items())


def failing_forms() -> tuple[PolyForm, PolyForm, PolyForm]:
    """omega, omega0 and alpha of a system on R^1 x R^1 that fails where the sampled point
    asks it to.

    omega_t = t x1 dx1^dx2 contracts the fiber direction to -t x1 dx1, so
    the system is singular exactly where t x1 = 0; alpha = x1 dx1 + x2 dx2
    has a dx2 row that no field reaches, so the solve residual is |x2|
    where the system is regular, and a singular system is consistent
    wherever |x1|, |x2| <= solve_tol.
    """
    split = (1, 1)
    return (PolyForm(2, 2, split, {0b11: poly_var(2, 1)}), PolyForm(2, 2, split, {}),
            PolyForm(2, 1, split, {0b01: poly_var(2, 1), 0b10: poly_var(2, 2)}))


def failing_field(solve_tol: float) -> tuple[DeformationField, OracleField]:
    forms = failing_forms()
    return DeformationField(*forms, solve_tol), OracleField(*forms, solve_tol)


@settings(PROFILE)
@given(st.lists(st.tuples(st.one_of(st.just(0.0), coordinate),
                          st.one_of(st.just(0.0), coordinate)), min_size=1, max_size=6),
       st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       st.floats(1e-3, 1.0), st.booleans())
def test_failures_name_the_first_failing_point(points, t, solve_tol, with_jacobian):
    field, oracle = failing_field(solve_tol)
    pts = np.array(points)
    err_want, _ = outcome(lambda: oracle.batch(pts, t, with_jacobian))
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
    field, oracle = failing_field(1e-10)
    pts = np.tile([0.5, 0.0], (25, 1))
    for i, x1, x2 in failing:
        pts[i] = x1, x2
    err_want, _ = outcome(lambda: oracle.batch(pts, 0.5, with_jacobian))
    err_got, _ = outcome(lambda: field.batch(pts, 0.5, with_jacobian))
    assert err_got == err_want == message


# ---------------------------------------------------------------------------
# the certified batched LU of square systems


def counted(name):
    """numpy.linalg.<name>, wrapped so that its calls are counted."""
    return mock.patch.object(np.linalg, name, wraps=getattr(np.linalg, name))


def certifies(spectrum, eps, n):
    """Whether A0's (s_max, s_min) certify every point of the batch, eps_i = ||A_i - A0||_F
    bounding how far each singular value of A_i moves (Weyl)."""
    s_max, s_min = spectrum
    cutoff = n * np.finfo(float).eps  # lstsq's rcond=None
    return bool(np.all(s_min - eps > _CERTIFICATE_MARGIN * cutoff * (s_max + eps)))


def fallback_field(*forms, solve_tol=DEFAULT_SOLVE_TOL):
    """A field that solves every batch by ``_lstsq_blocks``, as one without the LU did."""
    field = DeformationField(*forms, solve_tol)
    field.spectrum = None
    return field


@st.composite
def square_systems(draw):
    """A0 well conditioned (I plus at most 1/2 in norm), a batch of perturbations d, t of
    either sign and right-hand sides of 1 to n + 1 columns: the scales of d and t both keep
    and void the certificate of A0 + t d."""
    n = draw(st.integers(1, 6))
    batch = draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a0 = np.eye(n) + rng.uniform(-0.5, 0.5, (n, n)) / n
    d = draw(st.sampled_from([1e-3, 0.1, 1.0, 10.0])) * rng.uniform(-1.0, 1.0, (batch, n, n))
    rhs = rng.uniform(-1.0, 1.0, (batch, n, draw(st.integers(1, n + 1))))
    return a0, d, draw(st.floats(-1.0, 1.0)), rhs


@settings(PROFILE, max_examples=200)
@given(square_systems())
def test_certified_solve_matches_the_per_point_solve(system):
    a0, d, t, rhs = system
    a, n = a0 + t * d, len(a0)
    _, _, rank, s0 = np.linalg.lstsq(a0, np.zeros(n), rcond=None)
    assert rank == n
    spectrum = s0.max(), s0.min()
    certified = certifies(spectrum, abs(t) * np.linalg.norm(d, axis=(1, 2)), n)
    with counted("solve") as solve, counted("lstsq") as lstsq:
        got_ys, got_ranks = _certified_solve(a, rhs, d, t, spectrum, {})
    assert (solve.call_count, lstsq.call_count > 0) == (certified, not certified)
    want_ys, want_ranks = oracle_lstsq(a, rhs)
    assert np.array_equal(got_ranks, want_ranks)
    if certified:
        assert np.max(np.abs(got_ys - want_ys)) <= TOL
    else:
        blocks_ys, blocks_ranks = _lstsq_blocks(a, rhs)
        assert np.array_equal(got_ys, blocks_ys) and np.array_equal(got_ranks, blocks_ranks)


@settings(PROFILE)
@given(st.integers(1, 32), ball_points(max_size=25), st.sampled_from([0.1, 0.8]),
       st.floats(0.0, 1.0))
def test_fixture_stages_take_the_certified_solve(seed, points, radius, t):
    # the perfbench radius and that of the tolerance goldens: every stage is certified
    _, field, _ = fixture_field(seed)
    points = radius / RADIUS * points
    a, b, table = field._assemble(points, t)
    rhs = np.concatenate([b[:, :, None], np.broadcast_to(np.eye(3), (len(a), 3, 3))], axis=2)
    with counted("solve") as solve, counted("lstsq") as lstsq:
        got_ys, got_ranks = _certified_solve(a, rhs, table[:, 0, :, :-1], t, field.spectrum, {})
        x, _ = field.batch(points, t)
    assert (solve.call_count, lstsq.call_count) == (2, 0)
    want_ys, want_ranks = oracle_lstsq(a, rhs)
    assert np.array_equal(got_ranks, want_ranks) and (want_ranks == 3).all()
    assert np.max(np.abs(got_ys - want_ys)) <= TOL
    assert np.array_equal(x[:, 3:], got_ys[:, :, 0])


@pytest.mark.parametrize("seed", [1, 2, 17])
@pytest.mark.parametrize("t, far", [(200.0, None), (-200.0, None), (1.0, 0), (1.0, 6),
                                    (-1.0, 9)])
def test_voided_certificate_answers_as_the_block_solve(seed, t, far):
    # a large |t|, or one point far out, moves some A_i too far from A0 to certify the batch:
    # ||D||_F is at most 0.02 at the near points and above 1.2 at the far one
    fx = perturbed_multisymplectic(seed=seed)
    forms = fx.omega, fx.omega0, moser_potential(fx.omega, fx.omega0)
    points = np.random.default_rng(seed).uniform(-0.1, 0.1, (10, 6))
    if far is not None:
        points[far] = 3.0
    field = DeformationField(*forms)
    with counted("solve") as solve:
        got = outcome(lambda: field.batch(points, t))
    assert solve.call_count == 0
    assert_same_outcome(got, outcome(lambda: fallback_field(*forms).batch(points, t)))


def test_a_failed_lu_falls_back_to_the_block_solve():
    fx, field, _ = fixture_field(1)
    forms = fx.omega, fx.omega0, moser_potential(fx.omega, fx.omega0)
    points = np.random.default_rng(1).uniform(-0.1, 0.1, (10, 6))
    with mock.patch.object(np.linalg, "solve", side_effect=np.linalg.LinAlgError):
        got = outcome(lambda: field.batch(points, 0.5))
    assert_same_outcome(got, outcome(lambda: fallback_field(*forms).batch(points, 0.5)))


DELTA0 = 2.0 ** -40


def square_forms(delta0: float = DELTA0) -> tuple[PolyForm, PolyForm, PolyForm]:
    """omega, omega0 and alpha of a 2 x 2 system on R^2 x R^2 that is singular exactly where
    t x1 = delta0.

    omega0 = dx1^dy1 + delta0 dx2^dy2 and omega = omega0 - x1 dx2^dy2 give
    A = -diag(1, delta0 - t x1), A0's singular values are (1, delta0), and the Weyl bound
    eps = |t x1| is tight.  alpha = x2 dx1 + dx2 is outside the range wherever A is
    singular.
    """
    split = (2, 2)
    omega0 = PolyForm(4, 2, split, {0b0101: poly_const(4, 1),
                                    0b1010: poly_const(4, Fraction(delta0))})
    omega = pf_sub(omega0, PolyForm(4, 2, split, {0b1010: poly_var(4, 1)}))
    return omega, omega0, PolyForm(4, 1, split, {0b0001: poly_var(4, 2),
                                                 0b0010: poly_const(4, 1)})


@pytest.mark.parametrize("t", [0.5, -0.5])
@pytest.mark.parametrize("gap, message", [
    # DELTA0 - t x1 at the failing points: exactly singular; nearly singular, below lstsq's
    # cutoff 2 eps; and of full rank, where every point solves
    (0.0, "deformation system is singular at t={t}"),
    (2.0 ** -57, "deformation system is singular at t={t}"),
    (2.0 ** -45, None),
])
@pytest.mark.parametrize("failing", [[0], [4], [9], [2, 7]])
@pytest.mark.parametrize("with_jacobian", [True, False])
def test_square_failures_match_the_per_point_solve(t, gap, message, failing, with_jacobian):
    forms = square_forms()
    field = DeformationField(*forms)
    assert field.spectrum == (1.0, DELTA0)
    points = np.column_stack([np.zeros(10), np.linspace(-1.0, 1.0, 10), np.zeros((10, 2))])
    points[failing, 0] = (DELTA0 - gap) / t
    got = outcome(lambda: field.batch(points, t, with_jacobian))
    assert got[0] == (message and message.format(t=t))
    assert_same_outcome(got, outcome(lambda: fallback_field(*forms).batch(points, t,
                                                                          with_jacobian)))
    assert outcome(lambda: OracleField(*forms).batch(points, t, with_jacobian))[0] == got[0]
    # the regular points alone are certified, 2^-40 clearing the cutoff 2e3 eps_mach
    with counted("solve") as solve:
        field.batch(np.delete(points, failing, axis=0), t, with_jacobian)
    assert solve.call_count == 1


def test_only_full_rank_square_constant_systems_keep_a_spectrum():
    # 2^-60 is nonzero but below lstsq's cutoff 2 eps_mach: A0 has rank 1 by its rule, and
    # no batch of the field takes the LU
    field = DeformationField(*square_forms(2.0 ** -60))
    assert (field.n_rows, field.n_cols, field.spectrum) == (2, 2, None)
    points = np.column_stack([np.zeros(10), np.linspace(-1.0, 1.0, 10), np.zeros((10, 2))])
    with counted("solve") as solve:
        got = outcome(lambda: field.batch(points, 0.5))
    assert solve.call_count == 0 and got[0] == "deformation system is singular at t=0.5"
    assert fixture_field(1)[1].spectrum == (1.0, 1.0)
    assert DeformationField(*failing_forms()).spectrum is None  # 2 x 1
    flat = PolyForm(2, 2, (2, 0), {0b11: poly_const(2, 1)})  # 0 x 0
    assert DeformationField(flat, flat, PolyForm(2, 1, (2, 0), {})).spectrum is None


# ---------------------------------------------------------------------------
# buffers kept from call to call


def fresh_outcome(forms, points, t, with_jacobian, solve_tol=DEFAULT_SOLVE_TOL):
    return outcome(lambda: DeformationField(*forms, solve_tol).batch(points, t, with_jacobian))


def assert_same_outcome(got, want):
    assert got[0] == want[0]
    if want[1] is not None:
        assert all(g is None and w is None or np.array_equal(g, w)
                   for g, w in zip(got[1], want[1]))


@pytest.mark.parametrize("seed", [1, 2, 17])
def test_kept_buffers_answer_as_a_fresh_field(seed):
    fx = perturbed_multisymplectic(seed=seed)
    forms = fx.omega, fx.omega0, moser_potential(fx.omega, fx.omega0)
    field = DeformationField(*forms)
    rng = np.random.default_rng(seed)
    # 10 samples are one full block of the 3 x 3 systems, 3 a partial one, 13 both
    for n, t, with_jacobian in [(10, 0.5, True), (3, 0.25, True), (10, 0.75, True),
                                (13, 0.5, True), (10, 0.5, False), (3, 1.0, True)]:
        points = rng.uniform(-0.1, 0.1, (n, 6))
        got = outcome(lambda: field.batch(points, t, with_jacobian))
        assert got[0] is None
        assert_same_outcome(got, fresh_outcome(forms, points, t, with_jacobian))


def test_kept_buffers_answer_as_a_fresh_field_after_the_fallback(monkeypatch):
    # the 2 x 1 systems make blocks of 22 points; a point at x1 = 1e-15 has full rank on its
    # own but not beside the others, so its block falls back to the per-point solve
    forms = failing_forms()
    field = DeformationField(*forms, 1e-10)
    rng = np.random.default_rng(5)
    before = np.column_stack([rng.uniform(0.25, 0.75, 25), np.zeros(25)])
    tiny = before.copy()
    tiny[4] = 1e-15, 0.0
    singular = before.copy()
    singular[23] = 0.0, 0.0
    after = np.column_stack([rng.uniform(0.25, 0.75, 25), np.zeros(25)])
    for points in (before, tiny, singular, after, tiny[:3], after[:3], after):
        got = outcome(lambda: field.batch(points, 0.5))
        assert_same_outcome(got, fresh_outcome(forms, points, 0.5, True, 1e-10))
    assert outcome(lambda: field.batch(singular, 0.5))[0] == (
        "deformation system is singular at t=0.5")
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kwargs: calls.append(
        args[0].shape) or lstsq(*args, **kwargs))
    assert outcome(lambda: field.batch(tiny, 0.5))[0] is None
    # the first block, then its 22 points one by one, then the block of points 22-24
    assert calls == [(44, 22)] + [(2, 1)] * 22 + [(6, 3)]


# ---------------------------------------------------------------------------
# the batched check after the flow


@functools.lru_cache(maxsize=None)
def fixture_forms(seed: int):
    fx = perturbed_multisymplectic(seed=seed)
    return fx.omega, fx.omega0, fx.omega0.coeffs_float([0.0] * fx.omega.dim)


def hexes(values):
    return [float(v).hex() for v in values]


@settings(PROFILE)
@given(st.integers(1, 32), ball_points(max_size=25), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([None, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]))
def test_batched_check_matches_the_per_sample_check(seed, points, jac_seed, t):
    omega, omega0, base = fixture_forms(seed)
    form = omega if t is None else pf_add(omega0, pf_scale(pf_sub(omega, omega0), t))
    rng = np.random.default_rng(jac_seed)
    jacobians = np.eye(6) + rng.uniform(-0.3, 0.3, (len(points), 6, 6))
    got = _pullback_residuals(form, base, points, jacobians)
    assert hexes(got) == hexes(pullback_residuals_oracle(form, base, points, jacobians))


@settings(PROFILE)
@given(st.integers(1, 32), ball_points(max_size=25), st.sampled_from([1.0, 4.0, 8.0]))
def test_batched_check_reads_each_coefficient_bit_for_bit(seed, points, scale):
    # against the identity and a zero constant, the check of a one-slot form is the slot's
    # |coefficient| itself; far from the origin the higher powers carry the sum
    omega, _, _ = fixture_forms(seed)
    points = scale * points
    identity = np.broadcast_to(np.eye(6), (len(points), 6, 6))
    for m, p in omega.coeffs.items():
        slot = PolyForm(6, omega.degree, omega.split, {m: p})
        want = [abs(slot.coeffs_float(x)[m]) for x in points]
        assert hexes(_pullback_residuals(slot, {m: 0.0}, points, identity)) == hexes(want)
        assert hexes(pullback_residuals_oracle(slot, {m: 0.0}, points, identity)) == hexes(want)


@pytest.mark.parametrize("seed", [1, 9, 32])
def test_flow_check_matches_the_per_sample_check(seed):
    omega, omega0, base = fixture_forms(seed)
    points = ball_sample_points(6, 10, 0.1, seed=seed)
    report = verify_darboux(omega, omega0, points, steps=3)
    field = DeformationField(omega, omega0, moser_potential(omega, omega0))
    states = integrate_flow_batch(field.batch, np.array(points), 3)
    want = pullback_residuals_oracle(omega, base, [s.point for s in states],
                                     [s.jacobian for s in states])
    assert hexes(report.residuals) == hexes(want)
    assert report.min_jacobian_det == min(s.min_det for s in states)
