"""Floating-point deformation-flow demonstrator.

Interpolates between a closed polynomial structure form and its constant
value at the origin, solves for the fiber-valued deformation field from
the exact correction form, and integrates the flow together with its
Jacobian.  The time-1 pullback is compared against the constant form
coefficientwise; everything up to the linear solves (one certified LU per
stage, or least squares) is exact, the flow itself is fourth-order Runge-Kutta.
Float powers are running products x * x * ... * x, never numpy's float pow,
whose rounding depends on the loop numpy picks for the CPU.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .darboux import canonical_multi_model
from .errors import PolydarbouxError, PreconditionError
from .exterior import indices_of, removal_sign
from .lagrangian import check_sample_budget
from .linalg import ZERO
from .polyforms import (PolyForm, Polynomial, constant_spread, exterior_d,
                        moser_potential, pf_add, pf_scale, pf_sub, pf_wedge, pf_zero,
                        poly_const, poly_from_terms, poly_var)


class MoserFlowError(PolydarbouxError, RuntimeError):
    """The deformation field left its validity neighborhood."""


DEFAULT_SOLVE_TOL = 1e-10
DEFAULT_STEPS = 1000
MAX_BALL_DRAWS = 100_000  # cube draws of ball_sample_points: about 0.7 s at any dimension
# RK4 steps times samples of one flow: about 18 s with one sample on the six-dimensional
# perturbed fixture, where a step costs most per sample
MAX_POINT_STEPS = 60_000
_CERTIFICATE_MARGIN = 1e3  # over lstsq's rank cutoff: covers the rounding of A and of its SVD


@dataclass
class FlowState:
    point: np.ndarray
    jacobian: np.ndarray
    min_det: float = 1.0


@dataclass
class MoserReport:
    residuals: list[float]
    max_residual: float
    steps: int
    solve_tol: float
    min_jacobian_det: float


class _CompiledPolys:
    """Batch evaluator for a family of float polynomials {exponents: weight} over shared
    monomials, each written to its own cell of a table of ``size`` cells.

    A power x_v ** e is the running product x_v * x_v * ... * x_v, and a monomial the
    product of its factors x_v ** e_v with e_v > 0 in variable order, padded to the widest
    monomial with the cell x_0 ** 0 = 1: the same floats as the left-to-right products of
    plain Python, on every machine."""

    def __init__(self, polys: dict[int, dict], dim: int, size: int):
        monos: dict[tuple, int] = {}
        for p in polys.values():
            for e in p:
                monos.setdefault(e, len(monos))
        if not monos:
            monos[(0,) * dim] = 0
        exps = sorted(monos, key=monos.get)
        self.dim, self.n_powers = dim, 1 + max(map(max, exps))
        factors = [[v * self.n_powers + e_v for v, e_v in enumerate(e) if e_v] for e in exps]
        # flat positions of each monomial's factors in the (dim, n_powers) power table
        self.gather = np.zeros((max(1, *map(len, factors)), len(exps)), dtype=np.intp)
        for i, f in enumerate(factors):
            self.gather[:len(f), i] = f
        # row ``place`` holds the weights of the polynomial of that cell, zero where none does
        self.weights = np.zeros((size, len(exps)))
        for place, p in polys.items():
            for e, w in p.items():
                self.weights[place, monos[e]] = w
        self.buffers = {}  # per batch size: its power table, x_v ** 0 written, and gather

    def eval(self, points: np.ndarray) -> np.ndarray:
        """points: (batch, dim) -> the table of values (batch, size).

        One cumulative product along the exponent axis of [1, x, x, ...] gives every power,
        one gather and product every monomial, one matrix product every cell."""
        batch = points.shape[0]
        if batch not in self.buffers:
            table = np.empty((batch, self.dim, self.n_powers))
            table[:, :, 0] = 1.0
            starts = np.arange(batch, dtype=np.intp)[:, None, None] * (self.dim * self.n_powers)
            self.buffers[batch] = table, starts + self.gather
        table, gather = self.buffers[batch]
        table[:, :, 1:] = points[:, :, None]
        np.multiply.accumulate(table, axis=2, out=table)
        return np.multiply.reduce(table.take(gather), axis=1) @ self.weights.T


def _spectrum(a0: np.ndarray) -> tuple | None:
    """A0's (s_max, s_min, cutoff) where A0 is square and of full rank by lstsq's rule, None
    otherwise: cutoff = ``_CERTIFICATE_MARGIN`` n eps_mach is lstsq's rcond=None cutoff
    n eps_mach with the certificate's margin over it."""
    n = a0.shape[1]
    if a0.shape[0] != n or n == 0:
        return None
    _, _, rank, s0 = np.linalg.lstsq(a0, np.zeros(n), rcond=None)
    if rank < n:
        return None
    return s0.max(), s0.min(), _CERTIFICATE_MARGIN * n * np.finfo(float).eps


def _certified_solve(a: np.ndarray, rhs: np.ndarray, d: np.ndarray, t: float,
                     spectrum: tuple | None) -> tuple[np.ndarray, np.ndarray]:
    """Per-point least-squares solutions (batch, n_cols, k) and ranks of a = A0 + t d
    (batch, n_rows, n_cols) against rhs (batch, n_rows, k), by one batched LU where Weyl's
    inequality certifies it: each singular value of A_i lies within
    eps = |t| max ||d_i||_F of A0's ``spectrum`` (s_max, s_min, cutoff; None: no LU), so
    where s_min - eps clears lstsq's cutoff n eps_mach (s_max + eps) by
    ``_CERTIFICATE_MARGIN``, every per-point lstsq would find full rank and answer the unique
    A_i^-1 rhs_i.  Otherwise one lstsq per point in batch order, up to the first point whose
    [A_i | rhs_i] is not finite: that point and every later one keep rank -1 and NaN."""
    if spectrum is not None:
        s_max, s_min, cutoff = spectrum
        eps = abs(t) * math.sqrt(np.einsum('bij,bij->b', d, d).max(initial=0.0))
        if s_min - eps > cutoff * (s_max + eps):
            try:
                return np.linalg.solve(a, rhs), np.full(a.shape[0], a.shape[2])
            except np.linalg.LinAlgError:
                pass
    ys, ranks = np.full((len(a), a.shape[2], rhs.shape[2]), np.nan), np.full(len(a), -1)
    finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=(1, 2))
    for i in range(len(a)):
        if not finite[i]:  # LAPACK would print to stdout and fail on it
            break
        ys[i], _, ranks[i], _ = np.linalg.lstsq(a[i], rhs[i], rcond=None)
    return ys, ranks


def _with_partials(slots: list[dict], den: int, dim: int) -> list[dict]:
    """The float weights of the integer slots {exponents: n} over den, then those of their
    partial derivatives, variable by variable: d(n x^e)/dx_v is e_v n at e - 1_v, whose
    weight e_v n / den is float(Fraction(e_v n, den))."""
    out = [{e: n / den for e, n in slot.items()} for slot in slots]
    for v in range(dim):
        out.extend({e[:v] + (e[v] - 1,) + e[v + 1:]: e[v] * n / den
                    for e, n in slot.items() if e[v]} for slot in slots)
    return out


class DeformationField:
    """Solves i_X omega_t = alpha for X in the fiber block, with Jacobian.

    With omega_t = omega0 + t delta the system at a point is [A0 + t D(x) | b(x)]: A0 from
    the constant form, D from delta, b from alpha.  The cells of [D | b] and their partial
    derivatives are one precompiled monomial table, evaluated for the whole batch of points
    straight into its layout (batch, 1 + dim, n_rows, n_cols + 1).  A batch is one certified LU or
    one least-squares call per point (``_certified_solve``), and the rank and residual checks
    are array operations over the batch.
    """

    def __init__(self, omega: PolyForm, omega0: PolyForm, alpha: PolyForm,
                 solve_tol: float = DEFAULT_SOLVE_TOL):
        if not (solve_tol > 0 and math.isfinite(solve_tol)):
            raise PreconditionError(f"solve tolerance must be positive and finite, got {solve_tol}")
        self.dim = omega.dim
        self.x_dim = omega.x_dim
        self.solve_tol = solve_tol
        l_indices = range(self.x_dim, self.dim)
        delta = pf_sub(omega, omega0)  # omega_t = omega0 + t * delta
        (nums0, den0), (nums_d, den_d), (nums_a, den_a) = (
            omega0._numerators, delta._numerators, alpha._numerators)
        masks = sorted(set(nums0) | set(nums_d))
        rows = sorted({m ^ (1 << j) for m in masks
                       for j in l_indices if m & (1 << j)}
                      | set(nums_a))
        row_pos = {m: i for i, m in enumerate(rows)}
        self.n_rows = len(rows)
        self.n_cols = len(l_indices)

        # A0 from the constant form; a (mask, fiber index) pair names its cell alone
        self.a_const = np.zeros((self.n_rows, self.n_cols))
        for m, slot in nums0.items():
            val = slot.get((0,) * self.dim, 0) / den0
            for col, j in enumerate(l_indices):
                if m & (1 << j):
                    self.a_const[row_pos[m ^ (1 << j)], col] = removal_sign(m, j) * val
        self.spectrum = _spectrum(self.a_const)

        # the cells of [D | b] and their partial derivatives, laid out as (1 + dim, n_rows,
        # n_cols + 1); a sign folded into a D cell's numerators is exact, and the table
        # lists D's cells before b's, values before partials, as the monomials are numbered
        width = self.n_cols + 1
        cells, slots = [], []
        for m, slot in nums_d.items():
            for col, j in enumerate(l_indices):
                if m & (1 << j):
                    cells.append(row_pos[m ^ (1 << j)] * width + col)
                    sign = removal_sign(m, j)
                    slots.append({e: sign * n for e, n in slot.items()})
        b_cells = [row_pos[m] * width + self.n_cols for m in nums_a]
        size = self.n_rows * width
        places = [v * size + c for group in (cells, b_cells)
                  for v in range(1 + self.dim) for c in group]
        polys = (_with_partials(slots, den_d, self.dim)
                 + _with_partials(list(nums_a.values()), den_a, self.dim))
        self.compiled = _CompiledPolys(dict(zip(places, polys)), self.dim,
                                       (1 + self.dim) * size)
        # [b | I] and [-t X | 1] per batch size
        self.rhs_buffers, self.weight_buffers = {}, {}

    def _assemble(self, points: np.ndarray, t: float):
        """A = A0 + t D and b at each point, with the table of [D | b] and its partials,
        (batch, 1 + dim, n_rows, n_cols + 1)."""
        table = self.compiled.eval(points).reshape(
            points.shape[0], 1 + self.dim, self.n_rows, self.n_cols + 1)
        return self.a_const + t * table[:, 0, :, :self.n_cols], table[:, 0, :, self.n_cols], table

    def batch(self, points: np.ndarray, t: float):
        """Field values (batch, dim) and Jacobians (batch, dim, dim).

        One solve per point against [b | I] gives the field X and the pseudo-inverse P = A^+
        together.  Differentiating A X = b along x_v, with dA = t D_v, gives
        dX_v = P (db_v - t D_v X) = P [D_v | db_v] [-t X; 1].
        The points are solved together (``_certified_solve``); failures are raised for
        the first failing point in batch order, before P is read.  A residual that is not
        finite, as where a solution overflows, fails its point.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        batch = points.shape[0]
        n_rows, n_cols = self.n_rows, self.n_cols
        a, b, table = self._assemble(points, t)
        if batch not in self.rhs_buffers:  # [b | I]: one buffer per batch size
            self.rhs_buffers[batch] = np.concatenate(
                [b[:, :, None], np.broadcast_to(np.eye(n_rows), (batch, n_rows, n_rows))], axis=2)
        rhs = self.rhs_buffers[batch]
        rhs[:, :, 0] = b
        ys, ranks = _certified_solve(a, rhs, table[:, 0, :, :-1], t, self.spectrum)
        sol = ys[:, :, 0]
        resid = np.abs((a @ ys[:, :, :1])[:, :, 0] - b).max(axis=1, initial=0.0)
        bad = (ranks < n_cols) | ~(resid <= self.solve_tol)
        if bad.any():
            i = int(np.argmax(bad))
            if ranks[i] < 0:
                raise MoserFlowError(f"deformation system is not finite at t={t}")
            if ranks[i] < n_cols:
                raise MoserFlowError(f"deformation system is singular at t={t}")
            raise MoserFlowError(
                f"deformation solve residual {resid[i]:.3e} exceeds {self.solve_tol:.1e}")
        x = np.zeros((batch, self.dim))
        x[:, self.x_dim:] = sol
        if batch not in self.weight_buffers:  # [-t X | 1]: its ones column written once
            self.weight_buffers[batch] = np.ones((batch, n_cols + 1))
        weights = self.weight_buffers[batch]
        np.multiply(sol, -t, out=weights[:, :n_cols])
        moved = table[:, 1:] @ weights[:, None, :, None]  # (batch, dim, n_rows, 1)
        dx = np.zeros((batch, self.dim, self.dim))
        dx[:, self.x_dim:] = ys[:, :, 1:] @ moved[:, :, :, 0].transpose(0, 2, 1)
        return x, dx


@np.errstate(over="ignore", invalid="ignore")
def integrate_flow_batch(batch_field, p0s: np.ndarray, steps: int) -> list[FlowState]:
    """Classical fourth-order Runge-Kutta from t=0 to t=1 over a batch of points.

    batch_field(points, t) returns the field values and their Jacobians at every point.  The
    variational equation for the Jacobian is integrated alongside the points using the same
    stages; the Jacobian determinant is monitored.  Overflows are not warned of:
    ``DeformationField.batch`` refuses by name a stage whose system or residual they leave
    not finite."""
    if steps < 1:
        raise PreconditionError("need at least one step")
    pts = np.array(p0s, dtype=float)
    batch, dim = pts.shape
    jac = np.broadcast_to(np.eye(dim), (batch, dim, dim)).copy()
    h = 1.0 / steps
    t = 0.0
    min_det = np.abs(np.linalg.det(jac))
    for _ in range(steps):
        k1, d1 = batch_field(pts, t)
        k2, d2 = batch_field(pts + 0.5 * h * k1, t + 0.5 * h)
        k3, d3 = batch_field(pts + 0.5 * h * k2, t + 0.5 * h)
        k4, d4 = batch_field(pts + h * k3, t + h)
        j1 = d1 @ jac
        j2 = d2 @ (jac + 0.5 * h * j1)
        j3 = d3 @ (jac + 0.5 * h * j2)
        j4 = d4 @ (jac + h * j3)
        jac = jac + (h / 6.0) * (j1 + 2 * j2 + 2 * j3 + j4)
        dets = np.abs(np.linalg.det(jac))
        min_det = np.minimum(min_det, dets)
        if np.any(dets < 1e-12):
            raise MoserFlowError("flow Jacobian collapsed")
        pts = pts + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return [FlowState(pts[i], jac[i], float(min_det[i])) for i in range(batch)]


def _pullback_residuals(form: PolyForm, base: dict, points: np.ndarray,
                        jacobians: np.ndarray) -> np.ndarray:
    """Per point x with Jacobian J, the largest |coefficient| of J* form(x) - base, bit for
    bit as the per-point evaluation and pullback of the float coefficients give it.

    A term is its weight times its factors x_v ** e_v in variable order (Python's float
    pow, which numpy's vectorized pow does not always match), a coefficient the sum of its
    terms in view order, a pulled coefficient the sum of its coefficient x minor products
    in mask order: each sum runs left to right over the outer axis of an array.  All the
    minors come from one stacked determinant."""
    dim, degree = form.dim, form.degree
    nums, den = form._numerators
    depth = max(map(len, nums.values()), default=0)
    exps = np.zeros((depth, len(nums), dim), dtype=int)  # a padded term is 0 * x^0
    weights = np.zeros((depth, len(nums)))
    for i, slot in enumerate(nums.values()):
        exps[:len(slot), i], weights[:len(slot), i] = list(slot), [n / den for n in slot.values()]
    powers = np.array([[[x ** e for x in xs] for e in range(1 + exps.max(initial=0))]
                       for xs in points.T.tolist()])  # (variable, exponent, point)
    terms = weights[:, :, None]
    for v in range(dim):
        terms = terms * powers[v][exps[:, :, v]]
    targets = list(itertools.combinations(range(dim), degree))
    rows = np.array([indices_of(m) for m in nums], dtype=int).reshape(len(nums), degree) - 1
    cols = np.array(targets, dtype=int).reshape(len(targets), degree)
    dets = np.linalg.det(jacobians[:, rows[:, None, :, None], cols[None, :, None, :]])
    coeffs = sum(terms, np.zeros((len(nums), len(points))))
    pulled = sum(coeffs[:, :, None] * dets.transpose(1, 0, 2), np.zeros((len(points), len(cols))))
    constant = np.array([base.get(sum(1 << t for t in target), 0.0) for target in targets])
    return np.abs(pulled - constant).max(axis=1, initial=0.0)


def verify_darboux(omega: PolyForm, omega0: PolyForm, sample_points, steps: int = DEFAULT_STEPS,
                   *, solve_tol: float = DEFAULT_SOLVE_TOL) -> MoserReport:
    """Flow each sample to t=1 and compare the pullback against the constant form: the max
    coefficient residual per sample and the smallest Jacobian determinant seen along any
    trajectory.

    The correction form is exact; the only approximations are the linear
    solves along the trajectory and the Runge-Kutta discretization.
    """
    if len(sample_points) < 1:
        raise PreconditionError("sample count must be at least 1, got 0")
    for i, p in enumerate(sample_points):
        if np.shape(p) != (omega.dim,):
            raise PreconditionError(f"sample point {i} of shape {np.shape(p)} is not a point "
                                    f"of R^{omega.dim}")
    if steps * len(sample_points) > MAX_POINT_STEPS:
        raise PreconditionError(f"{steps} steps of {len(sample_points)} samples exceed the budget "
                                f"of {MAX_POINT_STEPS} point steps (MAX_POINT_STEPS)")
    alpha = moser_potential(omega, omega0)  # checks d(omega) = 0 and proves d(alpha)
    if omega.is_zero():  # as every form of degree above dim is, and so every form on R^0 here
        raise PreconditionError(f"the flow needs a nonzero form, got the zero {omega.degree}-form "
                                f"on R^{omega.dim}")
    try:
        solver = DeformationField(omega, omega0, alpha, solve_tol)
    except OverflowError:  # n / den, or a partial's e_v n / den, beyond the largest float
        raise PreconditionError("a coefficient of the deformation system or of one of its "
                                "partial derivatives is too large for a float") from None
    states = integrate_flow_batch(solver.batch, np.array(sample_points, dtype=float), steps)
    residuals = _pullback_residuals(omega, omega0.coeffs_float([0.0] * omega.dim),
                                    np.array([s.point for s in states]),
                                    np.array([s.jacobian for s in states])).tolist()
    return MoserReport(residuals, max(residuals), steps, solve_tol,
                       min(s.min_det for s in states))


# ---------------------------------------------------------------------------
# fixtures


@dataclass
class MoserFixture:
    omega: PolyForm
    omega0: PolyForm
    seed: int


def constant_poly_form(values, dim: int, degree: int, split: tuple[int, int]) -> PolyForm:
    coeffs = {}
    for m, c in values.items():
        c = Fraction(c)
        if c:
            coeffs[m] = poly_const(dim, c)
    return PolyForm(dim, degree, split, coeffs)


def polynomial_map_pullback(constant: PolyForm, chart_map: list[Polynomial]) -> PolyForm:
    """Pullback of a constant-coefficient form by a polynomial map."""
    dim = constant.dim
    differentials = []
    for comp in chart_map:
        coeffs = {}
        for v in range(1, dim + 1):
            dp = comp.diff(v)
            if not dp.is_zero():
                coeffs[1 << (v - 1)] = dp
        differentials.append(PolyForm(dim, 1, constant.split, coeffs))
    out = pf_zero(dim, constant.degree, constant.split)
    for m, p in constant.coeffs.items():
        c = p.terms.get((0,) * dim, ZERO)
        if not c:
            continue
        w = None
        for b in indices_of(m):
            w = differentials[b - 1] if w is None else pf_wedge(w, differentials[b - 1])
        out = pf_add(out, pf_scale(w, c))
    return out


def perturbed_multisymplectic(seed: int = 1) -> MoserFixture:
    """Pullback of the six-dimensional multisymplectic model by a seeded
    near-identity cubic map that preserves the base/fiber block structure:
    each coordinate gains two monomials of degree 2 or 3 with coefficients
    ±1/40 or ±2/40.

    Closedness and the structure property hold by construction, the value
    at the origin is unchanged, and the distinguished fiber block stays
    distinguished because the map is block-triangular.
    """
    model = canonical_multi_model(1, 2, 2, 2)
    dim = model.dim  # 6: E(1) + base(2) + momentum block(3)
    split = (3, 3)
    values = {m: c for m, c in model.form.coeffs.items()}
    omega0 = constant_poly_form(values, dim, model.form.degree, split)
    rng = random.Random(seed)
    # allowed variable dependencies keep the vertical and fiber blocks invariant
    allowed = {1: [1, 2, 3], 2: [2, 3], 3: [2, 3], 4: [1, 2, 3, 4, 5, 6],
               5: [1, 2, 3, 4, 5, 6], 6: [1, 2, 3, 4, 5, 6]}
    chart_map = []
    for i in range(1, dim + 1):
        comp = poly_var(dim, i)
        vars_i = allowed[i]
        for _ in range(2):
            deg = rng.choice([2, 3])
            exps = [0] * dim
            for _ in range(deg):
                exps[rng.choice(vars_i) - 1] += 1
            num = rng.choice([-2, -1, 1, 2])
            comp = comp + poly_from_terms(dim, {tuple(exps): Fraction(num, 40)})
        chart_map.append(comp)
    omega = polynomial_map_pullback(omega0, chart_map)
    if not exterior_d(omega).is_zero():
        raise PreconditionError("perturbed form is not closed (fixture bug)")
    if constant_spread(omega) != omega0:
        raise PreconditionError("perturbation moved the value at the origin (fixture bug)")
    return MoserFixture(omega, omega0, seed)


@np.errstate(over="ignore")  # a draw whose norm overflows is outside the ball all the same
def ball_sample_points(dim: int, count: int, radius: float, seed: int = 20070):
    """``count`` points of the ball, drawn from the cube until they land in it.

    A draw lands with probability pi^(d/2) / (Gamma(d/2 + 1) 2^d), 2.5e-8 at d = 20:
    draws beyond ``MAX_BALL_DRAWS`` are refused, a count beyond ``MAX_RANK_SAMPLES``, and a
    radius whose square overflows, beyond which the norm of a point near the sphere is inf."""
    if count < 1:
        raise PreconditionError(f"sample count must be at least 1, got {count}")
    check_sample_budget(count)
    if not (radius > 0 and math.isfinite(radius)):
        raise PreconditionError(f"sample radius must be positive and finite, got {radius}")
    if math.isinf(radius * radius):
        raise PreconditionError(f"sample radius {radius} is too large: its square overflows")
    rng = random.Random(seed)
    pts = []
    draws = 0
    while len(pts) < count:
        if draws == MAX_BALL_DRAWS:
            raise PreconditionError(f"{count} points of the ball in dimension {dim} took more than "
                                    f"{MAX_BALL_DRAWS} draws from the cube (MAX_BALL_DRAWS)")
        draws += 1
        p = np.array([rng.uniform(-radius, radius) for _ in range(dim)])
        if np.linalg.norm(p) <= radius:
            pts.append(p)
    return pts
