import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import intermediate_residual, pullback_constant_float
from polydarboux.errors import PreconditionError
from polydarboux.moser import (MAX_BALL_DRAWS, MAX_POINT_STEPS, DeformationField,
                               _pullback_residuals, ball_sample_points, constant_poly_form,
                               integrate_flow_batch, perturbed_multisymplectic,
                               polynomial_map_pullback, verify_darboux)
from polydarboux.polyforms import (PolyForm, constant_spread, exterior_d,
                                   moser_potential, pf_contract_basis, pf_sub,
                                   poly_from_terms, poly_var)


@pytest.fixture(scope="module")
def fixture():
    return perturbed_multisymplectic(seed=1)


def test_fixture_is_closed_and_block_structured(fixture):
    assert exterior_d(fixture.omega).is_zero()
    assert constant_spread(fixture.omega) == fixture.omega0
    # fiber block isotropy: no monomial carries two fiber differentials
    from polydarboux.polyforms import max_vertical_factors
    assert max_vertical_factors(fixture.omega) == 1


def test_potential_annihilates_fiber_directions(fixture):
    alpha = moser_potential(fixture.omega, fixture.omega0)
    assert exterior_d(alpha) == pf_sub(fixture.omega0, fixture.omega)
    for i in range(4, 7):
        assert pf_contract_basis(alpha, i).is_zero()


def test_field_vanishes_when_nothing_moves(fixture):
    omega0 = fixture.omega0
    alpha = moser_potential(omega0, constant_spread(omega0))
    solver = DeformationField(omega0, omega0, alpha)
    x, dx = solver.batch(np.zeros((1, 6)), 0.5)
    assert np.allclose(x, 0) and np.allclose(dx, 0)


def test_field_vanishes_at_origin(fixture):
    alpha = moser_potential(fixture.omega, fixture.omega0)
    solver = DeformationField(fixture.omega, fixture.omega0, alpha)
    x = solver.batch(np.zeros((1, 6)), 0.3)[0][0]
    assert np.allclose(x, 0)


def test_field_lies_in_fiber_block_and_solves(fixture):
    alpha = moser_potential(fixture.omega, fixture.omega0)
    solver = DeformationField(fixture.omega, fixture.omega0, alpha)
    rng = np.random.default_rng(4)
    for _ in range(5):
        p = rng.uniform(-0.1, 0.1, size=6)
        t = float(rng.uniform(0, 1))
        x = solver.batch(p[None, :], t)[0][0]
        assert np.allclose(x[:3], 0)
        # recontract: i_X omega_t(p) must reproduce alpha(p)
        coeffs_t = {m: c.eval_float(p) for m, c in fixture.omega0.coeffs.items()}
        for m, c in pf_sub(fixture.omega, fixture.omega0).coeffs.items():
            coeffs_t[m] = coeffs_t.get(m, 0.0) + t * c.eval_float(p)
        from polydarboux.exterior import removal_sign
        residual = {m: c.eval_float(p) for m, c in alpha.coeffs.items()}
        for m, val in coeffs_t.items():
            for j in range(3, 6):
                bit = 1 << j
                if m & bit and x[j]:
                    key = m ^ bit
                    residual[key] = residual.get(key, 0.0) - removal_sign(m, j) * val * x[j]
        assert max(abs(v) for v in residual.values()) < 1e-10


def test_integrate_zero_field_is_identity():
    def field(p, t):
        return np.zeros((1, 3)), np.zeros((1, 3, 3))
    state = integrate_flow_batch(field, np.array([[0.5, -0.25, 1.0]]), 10)[0]
    assert np.allclose(state.point, [0.5, -0.25, 1.0])
    assert np.allclose(state.jacobian, np.eye(3))


def test_integrate_nilpotent_linear_field_matches_exponential():
    # dp/dt = A p with A strictly upper triangular in the fiber directions
    a = np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])

    def field(p, t):
        return p @ a.T, a[None, :, :].copy()

    p0 = np.array([0.3, -0.2, 0.7])
    state = integrate_flow_batch(field, p0[None, :], 1000)[0]
    expm = np.eye(3) + a + (a @ a) / 2.0  # nilpotent: the series terminates
    assert np.max(np.abs(state.point - expm @ p0)) < 1e-8
    assert np.max(np.abs(state.jacobian - expm)) < 1e-8


def test_integrate_fourth_order_convergence():
    # scalar flow with oscillating rate; closed form p(1) = p0 * exp(1/2)
    def field(p, t):
        rate = math.sin(2 * math.pi * t) ** 2
        return rate * p, np.array([[[rate]]])

    p0 = np.array([1.0])
    exact = math.exp(0.5)
    errs = {}
    for steps in (500, 1000):
        state = integrate_flow_batch(field, p0[None, :], steps)[0]
        errs[steps] = abs(state.point[0] - exact)
    ratio = errs[500] / errs[1000]
    assert 12 <= ratio <= 20


def test_verify_darboux_on_constant_form(fixture):
    rep = verify_darboux(fixture.omega0, fixture.omega0,
                         ball_sample_points(6, 3, 0.1), steps=10)
    assert rep.max_residual < 1e-12


def test_verify_darboux_small_residual(fixture):
    rep = verify_darboux(fixture.omega, fixture.omega0,
                         ball_sample_points(6, 3, 0.1), steps=100)
    assert rep.max_residual < 1e-6
    assert rep.min_jacobian_det > 0.5


def test_verify_darboux_rejects_non_closed(fixture):
    from polydarboux.polyforms import poly_var
    bad = PolyForm(6, 3, (3, 3), {0b000111: poly_var(6, 4)})
    with pytest.raises(PreconditionError, match="^form is not closed$"):
        verify_darboux(bad, constant_spread(bad), [np.zeros(6)], steps=2)


@pytest.mark.parametrize("points, message", [
    ([], r"^sample count must be at least 1, got 0$"),
    ([np.zeros(6), np.zeros(5)], r"^sample point 1 of shape \(5,\) is not a point of R\^6$"),
    ([[0.0] * 7], r"^sample point 0 of shape \(7,\) is not a point of R\^6$"),
    ([np.zeros((2, 6))], r"^sample point 0 of shape \(2, 6\) is not a point of R\^6$"),
])
def test_verify_darboux_refuses_bad_samples_before_any_flow_work(monkeypatch, fixture,
                                                                 points, message):
    import polydarboux.moser as moser

    def unreachable(*args, **kwargs):
        raise AssertionError("flow work started")

    monkeypatch.setattr(moser, "moser_potential", unreachable)
    with pytest.raises(PreconditionError, match=message):
        verify_darboux(fixture.omega, fixture.omega0, points, steps=2)


def test_moser_command_differentiates_twice(monkeypatch, capsys):
    # once for d(omega) = 0 in moser_potential, once for the primitive's post-check
    from polydarboux import cli, moser, polyforms
    from polydarboux.corpus import corpus_files
    doc = next(p for p in corpus_files() if p.endswith("perturbed_multisymplectic.json"))
    calls = []
    original = polyforms.exterior_d

    def counted(a):
        calls.append(a.degree)
        return original(a)

    monkeypatch.setattr(polyforms, "exterior_d", counted)
    monkeypatch.setattr(moser, "exterior_d", counted)
    assert cli.main(["moser", doc, "--steps", "2", "--samples", "2"]) == 0
    capsys.readouterr()
    assert calls == [3, 2]


def counted_solvers(monkeypatch) -> dict:
    """The matrix shapes of every ``numpy.linalg`` lstsq and solve call from now on."""
    calls = {"lstsq": [], "solve": []}

    def counted(name):
        original = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name].append(args[0].shape)
            return original(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    return calls


def test_moser_command_solves_once_per_block_and_stage(monkeypatch, capsys):
    # four Runge-Kutta stages per step.  The fixture's systems are 3 x 3 and its constant
    # system's singular values certify every stage, so one least-squares call per field
    # reads them, and one batched LU per stage gives the field and its Jacobian at all 21
    # samples together
    from polydarboux import cli
    from polydarboux.corpus import corpus_files
    doc = next(p for p in corpus_files() if p.endswith("perturbed_multisymplectic.json"))
    calls = counted_solvers(monkeypatch)
    steps, samples = 3, 21
    assert cli.main(["moser", doc, "--steps", str(steps), "--samples", str(samples)]) == 0
    capsys.readouterr()
    assert calls == {"lstsq": [(3, 3)], "solve": [(samples, 3, 3)] * 4 * steps}


def test_moser_command_solves_uncertified_stages_point_by_point(tmp_path, monkeypatch, capsys):
    # the pullback of e124 + e135 on R^3 x R^2 by x1 -> x1 + x2 x3 adds -x2 e234 + x3 e235:
    # its systems are 3 x 2, so A0 is not square, no field reads a spectrum and no stage is
    # certified.  The first stage solves the 10 default samples one lstsq call each, and
    # the residual check ends the run
    from polydarboux import cli
    from polydarboux.io import poly_form_to_document
    chart = [poly_var(5, i) for i in range(1, 6)]
    chart[0] = chart[0] + poly_from_terms(5, {(0, 1, 1, 0, 0): 1})
    omega = polynomial_map_pullback(
        constant_poly_form({0b01011: 1, 0b10101: 1}, 5, 3, (3, 2)), chart)
    assert sorted(omega.coeffs) == [0b01011, 0b01110, 0b10101, 0b10110]
    doc = tmp_path / "chart.json"
    doc.write_text(json.dumps(poly_form_to_document(omega)))
    calls = counted_solvers(monkeypatch)
    assert cli.main(["moser", str(doc)]) == 1
    assert capsys.readouterr().err.startswith("error: deformation solve residual 3.053e-03 "
                                              "exceeds 1.0e-10\n")
    assert calls == {"lstsq": [(3, 2)] * 10, "solve": []}


def test_flow_refuses_beyond_the_point_step_budget(monkeypatch, fixture):
    import polydarboux.moser as moser
    pts = ball_sample_points(6, 3, 0.1)
    monkeypatch.setattr(moser, "MAX_POINT_STEPS", 6)
    assert len(verify_darboux(fixture.omega, fixture.omega0, pts, steps=2).residuals) == 3
    with pytest.raises(PreconditionError,
                       match=r"3 steps of 3 samples exceed the budget of 6 point steps "
                             r"\(MAX_POINT_STEPS\)"):
        verify_darboux(fixture.omega, fixture.omega0, pts, steps=3)
    # the CLI defaults, 1 000 steps of 10 samples, are accepted
    assert MAX_POINT_STEPS == 60_000 and 1000 * 10 <= MAX_POINT_STEPS


def test_intermediate_residuals_shrink_with_steps(fixture):
    # discretization error decreases monotonically and at fourth order
    pts = ball_sample_points(6, 4, 0.1)
    res = {s: verify_darboux(fixture.omega, fixture.omega0, pts, steps=s).max_residual
           for s in (1, 2, 4)}
    assert res[1] > res[2] > res[4]
    assert 12 <= res[1] / res[2] <= 20
    assert 12 <= res[2] / res[4] <= 20


def test_interpolated_form_constant_along_flow(fixture):
    # at each intermediate time the partial pullback reproduces the constant
    # form up to a discretization error that is monotone in the step size
    pts = ball_sample_points(6, 3, 0.1)
    floor = 5e-14  # below this the measurement is float roundoff
    for t_end in (0.25, 0.5, 0.75):
        res = {s: intermediate_residual(fixture.omega, fixture.omega0, pts, s, t_end)
               for s in (1, 2, 4)}
        assert res[1] < 1e-10
        if res[2] > floor:
            assert res[1] > res[2] and res[1] / res[2] > 8
        if res[4] > floor:
            assert res[2] > res[4]


def test_pullback_constant_float_identity():
    coeffs = {0b011: 2.0, 0b110: -1.0}
    out = pullback_constant_float(coeffs, np.eye(3), 2, 3)
    assert out == coeffs


def test_pullback_residuals_of_a_constant_form():
    # the identity leaves every coefficient in place; the shear x2 -> x2 + 2 x1 pulls
    # e^{12} back to e^{12} and e^{23} to e^{23} + 2 e^{13}, so -e^{23} leaves -2 e^{13}
    form = constant_poly_form({0b011: 2, 0b110: -1}, 3, 2, (2, 1))
    base = {0b011: 2.0, 0b110: -1.0}
    points = np.zeros((2, 3))
    shear = np.eye(3)
    shear[1, 0] = 2.0
    got = _pullback_residuals(form, base, points, np.stack([np.eye(3), shear]))
    assert got.tolist() == [0.0, 2.0]


def test_polynomial_map_pullback_matches_linear_case():
    # a linear chart map reduces to a constant-coefficient pullback
    base = constant_poly_form({0b011: Fraction(1)}, 3, 2, (2, 1))
    chart = [poly_from_terms(3, {(1, 0, 0): 2}),
             poly_from_terms(3, {(0, 1, 0): 1, (1, 0, 0): 1}),
             poly_from_terms(3, {(0, 0, 1): 1})]
    out = polynomial_map_pullback(base, chart)
    assert out == constant_poly_form({0b011: Fraction(2)}, 3, 2, (2, 1))


def test_fixture_seeds_differ():
    fx1 = perturbed_multisymplectic(seed=1)
    fx2 = perturbed_multisymplectic(seed=2)
    assert fx1.omega != fx2.omega
    assert fx1.omega0 == fx2.omega0


def _unbudgeted_ball_points(dim, count, radius, seed):
    """The rejection sampler without its budgets: the draws of every accepted run."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        p = np.array([rng.uniform(-radius, radius) for _ in range(dim)])
        if np.linalg.norm(p) <= radius:
            pts.append(p)
    return pts


@pytest.mark.parametrize("dim, count, radius, seed", [(6, 10, 0.1, 1), (6, 4, 0.8, 3),
                                                      (2, 50, 1.0, 7), (10, 5, 0.1, 20070),
                                                      (1, 1, 0.5, 0),
                                                      (1, 3, 1.3407807929942596e154, 0)])
def test_budgeted_ball_sampler_keeps_the_draws_of_accepted_runs(dim, count, radius, seed):
    got = ball_sample_points(dim, count, radius, seed)
    want = _unbudgeted_ball_points(dim, count, radius, seed)
    assert len(got) == count and all(np.array_equal(a, b) for a, b in zip(got, want))


def test_ball_sampler_refuses_at_the_draw_budget(monkeypatch):
    import polydarboux.moser as moser
    # with seed 7, the 50 points in the unit 2-ball take more than 50 draws
    monkeypatch.setattr(moser, "MAX_BALL_DRAWS", 50)
    with pytest.raises(PreconditionError,
                       match=r"more than 50 draws from the cube \(MAX_BALL_DRAWS\)"):
        ball_sample_points(2, 50, 1.0, 7)
    # a run that needs exactly the budget is accepted
    rng, draws, hits = random.Random(7), 0, 0
    while hits < 5:
        draws += 1
        hits += np.linalg.norm([rng.uniform(-1, 1) for _ in range(2)]) <= 1
    monkeypatch.setattr(moser, "MAX_BALL_DRAWS", draws)
    assert len(ball_sample_points(2, 5, 1.0, 7)) == 5
    monkeypatch.setattr(moser, "MAX_BALL_DRAWS", draws - 1)
    with pytest.raises(PreconditionError, match="MAX_BALL_DRAWS"):
        ball_sample_points(2, 5, 1.0, 7)
    assert MAX_BALL_DRAWS == 100_000
