import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_state
from phasefrac import solver
from phasefrac._philox import uniforms
from phasefrac.energy import (DiffuseState, ElasticModel, diffuse_energy,
                              evaluate, mass, project_mass)
from phasefrac.fields import Grid, ScalarField, VectorField, gradient
from phasefrac.sharp import SharpGeometry1D, sharp_energy_1d
from phasefrac.solver import (DESCENT_RTOL, SolverPlan, _axis_basis,
                              _fast_diag_preconditioner, alternate, default_state,
                              minimize_c, minimize_u, minimize_z)


def test_plan_validation():
    with pytest.raises(ValueError):
        SolverPlan(mass_constraint=1.5)
    with pytest.raises(ValueError, match="max_outer: must be >= 1"):
        SolverPlan(max_outer=0)
    with pytest.raises(ValueError, match="cg_max_iters: must be >= 1"):
        SolverPlan(cg_max_iters=0)


@pytest.mark.parametrize("name", ["tol_rel_energy", "cg_tol"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
def test_plan_refuses_a_tolerance_that_is_not_positive_and_finite(name, value):
    with pytest.raises(ValueError, match=f"{name}: must be positive and finite"):
        SolverPlan(**{name: value})


def test_minimize_u_step_profile(P, elastic_1d):
    # c is a sampled step; the weighted least-squares minimizer drives the
    # elastic energy to the discrete compatibility floor, ~1/n^2
    n = 2 ** 14
    g = Grid((0.0,), (1.0,), (n,))
    x = g.centers(0)
    s = DiffuseState(ScalarField(g, (x > 0.5).astype(float)),
                     VectorField.full(g, 0.0), ScalarField.full(g, 1.0),
                     eps=2.0 ** -7, delta=2.0 ** -7)
    plan = SolverPlan(cg_tol=1e-12, cg_max_iters=20000)
    s2, res = minimize_u(s, P, elastic_1d, plan)
    assert res.accepted and res.flag == ""
    assert diffuse_energy(s2, P, elastic_1d).e_elastic <= 1e-8


def test_minimize_u_matches_dense_least_squares(P, elastic_1d):
    # independent oracle: assemble the 1D difference operator densely and
    # compare the reached elastic energy with numpy.linalg.lstsq
    n = 96
    g = Grid((0.0,), (1.0,), (n,))
    rng = np.random.Generator(np.random.Philox(12))
    c = ScalarField(g, rng.uniform(0, 1, g.cells))
    z = ScalarField(g, rng.uniform(0.3, 1.0, g.cells))
    s = DiffuseState(c, VectorField.full(g, 0.0), z, eps=0.05, delta=0.1)
    D = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        D[:, j] = gradient(e, g.spacing)[0]
    w = z.values ** 2 + s.delta ** 2
    sqw = np.sqrt(w)
    sol, *_ = np.linalg.lstsq(sqw[:, None] * D, sqw * c.values, rcond=None)
    oracle = g.cell_volume * float(np.sum(w * (D @ sol - c.values) ** 2))
    s2, _ = minimize_u(s, P, elastic_1d, SolverPlan(cg_tol=1e-13, cg_max_iters=20000))
    reached = diffuse_energy(s2, P, elastic_1d).e_elastic
    assert reached <= oracle * (1 + 1e-9) + 1e-14


def test_minimize_u_zero_target(P, elastic_1d_free):
    g = Grid((0.0,), (1.0,), (256,))
    rng = np.random.Generator(np.random.Philox(13))
    s = DiffuseState(ScalarField.full(g, 0.0),
                     VectorField(g, rng.normal(size=g.cells + (1,))),
                     ScalarField.full(g, 1.0), 0.05, 0.1)
    before = diffuse_energy(s, P, elastic_1d_free).e_elastic
    s2, _ = minimize_u(s, P, elastic_1d_free, SolverPlan(cg_tol=1e-10, cg_max_iters=5000))
    assert diffuse_energy(s2, P, elastic_1d_free).e_elastic <= 1e-10 * before


def test_minimize_u_already_optimal(P, elastic_1d):
    g = Grid((0.0,), (1.0,), (256,))
    s = DiffuseState(ScalarField.full(g, 1.0),
                     VectorField.from_function(g, lambda x: (x,)),
                     ScalarField.full(g, 1.0), 0.05, 0.1)
    e0 = diffuse_energy(s, P, elastic_1d).e_total
    s2, res = minimize_u(s, P, elastic_1d, SolverPlan())
    assert res.iters == 0
    assert abs(diffuse_energy(s2, P, elastic_1d).e_total - e0) <= 1e-12


@pytest.mark.parametrize("n", [2, 95, 96, 4096])
@pytest.mark.parametrize("psi,lam", [("quadratic", 0.0), ("linear", 0.7)])
def test_minimize_u_1d_is_exact(P, n, psi, lam):
    # closed-form step: dE/du vanishes to rounding, no CG iterations, no
    # flag, and the constant (nullspace) mode of u is left where it was
    M = ElasticModel(lame_lambda=lam, e0=np.array([[0.8]]), degradation=psi)
    g = Grid((-3.25,), (2.0,), (n,))
    rng = np.random.Generator(np.random.Philox(n))
    z = rng.uniform(-0.2, 1.2, g.cells)
    z[0], z[-1] = -0.1, 1.1  # the clamp acts on both faces
    s = DiffuseState(ScalarField(g, rng.uniform(-0.3, 1.3, g.cells)),
                     VectorField(g, rng.normal(0.4, 0.5, g.cells + (1,))),
                     ScalarField(g, z), eps=0.05, delta=0.1)
    before = float(np.abs(evaluate(s, P, M, "u")[1]["u"]).max())
    s2, res = minimize_u(s, P, M, SolverPlan())
    assert float(np.abs(evaluate(s2, P, M, "u")[1]["u"]).max()) <= 1e-12 * before
    assert res.accepted and res.flag == "" and res.iters == 0
    assert abs(s2.u.values.mean() - s.u.values.mean()) <= 1e-14


def test_minimize_z_floor_state(P, elastic_1d_free):
    g = Grid((0.0,), (1.0,), (128,))
    s = DiffuseState(ScalarField.full(g, 0.0), VectorField.full(g, 0.0),
                     ScalarField.full(g, 1.0), 0.05, 0.1)
    s2, res = minimize_z(s, P, elastic_1d_free, SolverPlan())
    assert res.flag == "stationary"
    assert np.array_equal(s2.z.values, s.z.values)


def test_minimize_z_damages_under_load(P):
    # huge misfit in a band: the accepted step lowers z there and the energy drops
    M = ElasticModel(e0=np.array([[1.0]]))
    g = Grid((0.0,), (1.0,), (128,))
    x = g.centers(0)
    band = (x > 0.45) & (x < 0.55)
    u = VectorField.from_function(g, lambda x: (np.where(x > 0.5, 8.0 * (x - 0.5), 0.0),))
    s = DiffuseState(ScalarField.full(g, 0.0), u, ScalarField.full(g, 1.0),
                     0.05, delta=0.02)
    before = diffuse_energy(s, P, M).e_total
    s2, res = minimize_z(s, P, M, SolverPlan())
    assert res.accepted and res.flag == ""
    assert diffuse_energy(s2, P, M).e_total < before
    assert s2.z.values[band].min() < 1.0


def test_minimize_z_heals_toward_one(P, elastic_1d_free):
    g = Grid((0.0,), (1.0,), (128,))
    s = DiffuseState(ScalarField.full(g, 0.0), VectorField.full(g, 0.0),
                     ScalarField.full(g, 0.0), 0.05, 0.1)
    s2, res = minimize_z(s, P, elastic_1d_free, SolverPlan())
    assert res.accepted
    assert s2.z.values.min() > 0.0


def test_minimize_c_saddle_is_stationary(P, elastic_1d_free):
    g = Grid((0.0,), (1.0,), (128,))
    s = DiffuseState(ScalarField.full(g, 0.5), VectorField.full(g, 0.0),
                     ScalarField.full(g, 1.0), 0.05, 0.1)
    s2, res = minimize_c(s, P, elastic_1d_free, SolverPlan())
    assert res.flag == "stationary"
    assert np.array_equal(s2.c.values, s.c.values)


def test_minimize_c_escapes_jittered_saddle(P, elastic_1d_free):
    g = Grid((0.0,), (1.0,), (128,))
    s = default_state(g, eps=0.05, delta=0.1, c0=0.5, seed=2)
    # the jitter is _JITTER times four cosine modes weighted at most 1/m^2
    assert 0.0 < np.abs(s.c.values - 0.5).max() <= 1.43 * solver._JITTER
    plan = SolverPlan()
    before = diffuse_energy(s, P, elastic_1d_free).e_total
    for _ in range(5):
        s, res = minimize_c(s, P, elastic_1d_free, plan)
    assert diffuse_energy(s, P, elastic_1d_free).e_total < before


def test_minimize_c_keeps_mass(P, elastic_1d):
    g = Grid((0.0,), (1.0,), (128,))
    s = default_state(g, eps=0.05, delta=0.1, c0=0.4, seed=5)
    plan = SolverPlan(mass_constraint=0.4)
    for _ in range(3):
        s, _ = minimize_c(s, P, elastic_1d, plan)
    assert abs(mass(s.c) - 0.4) <= 1e-12


def test_alternate_at_minimizer_stops_immediately(P, elastic_1d_free):
    g = Grid((0.0,), (1.0,), (64,))
    s = DiffuseState(ScalarField.full(g, 0.0), VectorField.full(g, 0.0),
                     ScalarField.full(g, 1.0), 0.05, 0.1)
    s2, traj = alternate(s, P, elastic_1d_free, SolverPlan(max_outer=10))
    assert traj.reason == "converged"
    assert len(traj.energies) == 2
    assert traj.energies[-1].e_total == traj.energies[0].e_total == 0.0


@pytest.mark.parametrize("cells", [(96,), (24, 24)], ids=["1d_exact", "2d_pcg"])
@pytest.mark.parametrize("mass_constraint", [None, 0.5], ids=["free", "mass"])
def test_alternate_monotone_descent_random_start(P, cells, mass_constraint):
    d = len(cells)
    M = ElasticModel(e0=np.eye(d))  # in 1D the elastic_1d model
    g = Grid((0.0,) * d, (1.0,) * d, cells)
    s0 = random_state(g, seed=9, eps=0.05, delta=0.1)
    plan = SolverPlan(max_outer=40, cg_max_iters=400, mass_constraint=mass_constraint)
    s, traj = alternate(s0, P, M, plan)
    tot = traj.totals
    assert np.all(tot[1:] <= tot[:-1] * (1 + DESCENT_RTOL))
    assert s.z.values.min() >= 0.0 and s.z.values.max() <= 1.0
    assert tot[-1] <= tot[0]


def test_alternate_descends_below_initial(P, elastic_1d):
    # mass-constrained run: monotone energies and exact mass after every sweep
    g = Grid((0.0,), (1.0,), (256,))
    eps = 2.0 ** -7
    plan = SolverPlan(max_outer=30, mass_constraint=0.5, cg_max_iters=200)
    s0 = default_state(g, eps, eps ** (2 / 3), c0=0.5, seed=1)
    s, traj = alternate(s0, P, elastic_1d, plan)
    assert traj.energies[-1].e_total <= traj.energies[0].e_total
    assert abs(mass(s.c) - 0.5) <= 1e-12
    assert not [f for sweep in traj.flags for f in sweep if f.startswith("u:")]


def test_sharp_candidates_for_descent_bound(P, elastic_1d):
    # the two single-interface candidates bounding the mass-constrained solve;
    # the full descent-to-bound run lives in the acceptance suite
    cand_a = SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), c_pieces=(0, 1),
                             u_pieces=((0.0, 0.0), (1.0, -0.5)))
    cand_b = SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), crack_points=(0.5,),
                             c_pieces=(0, 1), u_pieces=((0.0, 0.0), (1.0, -0.5)))
    assert sharp_energy_1d(cand_a, P, elastic_1d).e_total == pytest.approx(1 / 3, abs=1e-10)
    # coincident interface is excluded: only the crack is charged
    assert sharp_energy_1d(cand_b, P, elastic_1d).e_total == pytest.approx(2.0, abs=1e-10)


def test_alternate_deterministic(P, elastic_1d):
    g = Grid((0.0,), (1.0,), (128,))
    plan = SolverPlan(max_outer=25, mass_constraint=0.5, cg_max_iters=200)
    runs = []
    for _ in range(2):
        s0 = default_state(g, 0.05, 0.1, c0=0.5, seed=11)
        _, traj = alternate(s0, P, elastic_1d, plan)
        runs.append([e.e_total for e in traj.energies])
    assert runs[0] == runs[1]


def test_default_state_mass_is_exact():
    g = Grid((0.0,), (1.0,), (200,))
    s = default_state(g, 0.05, 0.1, c0=0.37, seed=8)
    assert mass(s.c) == pytest.approx(0.37, abs=1e-14)
    assert np.all(s.z.values == 1.0)
    assert np.all(s.u.values == 0.0)


def _step_state(n: int, band_z: float = 1.0) -> DiffuseState:
    """Step in c at x = 1/2 on an n^2 grid, u = 0; z = band_z on the 4 cell
    columns around the step, 1 elsewhere."""
    g = Grid((0.0, 0.0), (1.0, 1.0), (n, n))
    x, _ = g.meshgrid()
    z = np.ones(g.cells)
    z[n // 2 - 2:n // 2 + 2, :] = band_z
    return DiffuseState(ScalarField(g, (x > 0.5).astype(float)),
                        VectorField.full(g, np.zeros(2)), ScalarField(g, z),
                        eps=0.05, delta=0.1)


def test_minimize_u_2d_at_its_solution(P, elastic_2d_free):
    # no misfit and u = 0: the starting residual is 0, so CG takes no step
    s = random_state(Grid((0.0, 0.0), (1.0, 1.0), (12, 16)), seed=3)
    s = s.replace(u=VectorField.full(s.grid, np.zeros(2)))
    s2, res = minimize_u(s, P, elastic_2d_free, SolverPlan())
    assert res.accepted and res.flag == "" and res.iters == 0
    assert np.all(s2.u.values == 0.0)


def test_minimize_u_rejects_a_rise(P, monkeypatch):
    # a CG that returns a worse displacement: the step keeps the old state
    def bad_cg(apply_a, apply_p, b, x0, tol, max_iters):
        return x0 + np.random.Generator(np.random.Philox(4)).normal(size=x0.shape), 7, True
    monkeypatch.setattr(solver, "_cg", bad_cg)
    M = ElasticModel(e0=0.3 * np.eye(2))
    s = _step_state(16)
    before = diffuse_energy(s, P, M)
    s2, res = minimize_u(s, P, M, SolverPlan())
    assert s2 is s and not res.accepted and res.flag == "energy_rose"
    assert res.iters == 7 and res.energy == before


@pytest.mark.parametrize("step", [minimize_z, minimize_c], ids=["z", "c"])
def test_armijo_step_without_descent_is_no_step(P, elastic_1d, monkeypatch, step):
    # the gradient negated and scaled up: every trial rises, and none moves so
    # little that the step would count as stationary
    real = solver.evaluate_block

    def uphill(s, P, M, block):
        energy, grad, trial = real(s, P, M, block)
        return energy, -1e6 * grad, trial
    monkeypatch.setattr(solver, "evaluate_block", uphill)
    s = random_state(Grid((0.0,), (1.0,), (64,)), seed=6)
    before = diffuse_energy(s, P, elastic_1d)
    s2, res = step(s, P, elastic_1d, SolverPlan())
    assert s2 is s and not res.accepted and res.flag == "no_step"
    assert res.iters == solver._MAX_BACKTRACKS and res.energy == before


def _count_trials(monkeypatch, scale: float = 1.0) -> list:
    """Wrap `solver.evaluate_block` so that the gradient is scaled by `scale`
    and each trial's values are recorded; returns the record."""
    real = solver.evaluate_block
    trials = []

    def counted(s, P, M, block):
        energy, grad, trial = real(s, P, M, block)

        def recorded(values):
            trials.append(values)
            return trial(values)
        return energy, scale * grad, recorded
    monkeypatch.setattr(solver, "evaluate_block", counted)
    return trials


@pytest.mark.parametrize("start_step", [1.0, 256.0])
def test_a_mass_constrained_c_step_returns_the_trial_it_measured(P, elastic_1d, monkeypatch,
                                                                 start_step):
    # the trial is projected on the mass before its energy is taken, so the
    # accepted trial is the state returned, with no second measurement
    trials = _count_trials(monkeypatch)
    g = Grid((0.0,), (1.0,), (128,))
    s = default_state(g, eps=0.05, delta=0.1, c0=0.4, seed=5)
    s = s.replace(c=project_mass(s.c, 0.4))
    s2, res = minimize_c(s, P, elastic_1d, SolverPlan(mass_constraint=0.4), start_step)
    assert res.accepted and res.flag == "" and res.step > 0.0
    assert (res.iters > 0) == (start_step > 1.0)
    assert len(trials) == res.iters + 1
    assert np.array_equal(trials[-1], s2.c.values)
    assert abs(mass(s2.c) - 0.4) <= 1e-12
    assert res.energy == diffuse_energy(s2, P, elastic_1d)


@pytest.mark.parametrize("start_step", [2.0 ** k for k in range(-3, 9)])
def test_a_c_step_moves_along_the_h1_gradient_by_the_armijo_rule(P, elastic_1d, monkeypatch,
                                                                 start_step):
    # d = (I + eps^2 L_N)^-1 (g - mean g) / vol from the dense inverse; the
    # accepted trial is c - t d on the mass, it lowers E by at least
    # _ARMIJO_C t <g, d>, and the trial at 2t before it did not
    trials = _count_trials(monkeypatch)
    g = Grid((0.0,), (1.0,), (24,))
    s = random_state(g, seed=6)
    s = s.replace(c=project_mass(s.c, 0.5))
    before, grads = evaluate(s, P, elastic_1d, "c")
    gc = grads["c"] - grads["c"].mean()
    d = _dense_h1_inverse(g.cells, g.spacing, s.eps) @ gc / g.cell_volume
    slope = float(np.dot(gc, d))
    s2, res = minimize_c(s, P, elastic_1d, SolverPlan(mass_constraint=0.5), start_step)
    assert res.accepted and res.step > 0.0
    t = res.step
    assert np.abs(s2.c.values - project_mass(ScalarField(g, s.c.values - t * d), 0.5).values
                  ).max() <= 1e-12 * t * np.abs(d).max()
    assert res.energy.e_total <= before.e_total - solver._ARMIJO_C * t * slope
    if res.iters > 0:
        rejected = diffuse_energy(s.replace(c=ScalarField(g, trials[-2])), P, elastic_1d)
        assert rejected.e_total > before.e_total - solver._ARMIJO_C * 2.0 * t * slope


@pytest.mark.parametrize("step,mass_constraint", [
    (minimize_z, None), (minimize_c, None), (minimize_c, 0.4)], ids=["z", "c", "c_mass"])
def test_armijo_step_with_a_negligible_first_move_is_stationary(P, elastic_1d, monkeypatch,
                                                                step, mass_constraint):
    # a gradient so small that the first trial moves by less than 1e-16 of
    # the block's scale: the step takes no trial energy and returns `s`
    trials = _count_trials(monkeypatch, scale=1e-20)
    s = random_state(Grid((0.0,), (1.0,), (64,)), seed=6)
    if mass_constraint is not None:
        s = s.replace(c=project_mass(s.c, mass_constraint))
        # projected once more, this c moves by an ulp, over 1e-16 of its scale:
        # the test of the move must come before the projection
        again = project_mass(s.c, mass_constraint).values
        assert np.abs(again - s.c.values).max() >= 1e-16 * np.abs(s.c.values).max()
    before = diffuse_energy(s, P, elastic_1d)
    s2, res = step(s, P, elastic_1d, SolverPlan(mass_constraint=mass_constraint))
    assert s2 is s and res.accepted and res.flag == "stationary"
    assert res.iters == 0 and res.step == 0.0 and res.energy == before
    assert trials == []


@pytest.mark.parametrize("cells", [50, 128, 257, 393])
def test_a_mass_constrained_c_step_on_a_flat_state_is_stationary(P, monkeypatch, cells):
    # the c-gradient of a flat state is one value, so its zero-mean part is 0
    # in exact arithmetic: the step takes no trial energy and returns `s`
    M = ElasticModel(e0=np.zeros((1, 1)))
    trials = _count_trials(monkeypatch)
    g = Grid((0.0,), (1.0,), (cells,))
    for c0 in (0.3, 0.4, 0.7, 0.9):
        s = DiffuseState(ScalarField.full(g, c0), VectorField.full(g, [0.0]),
                         ScalarField.full(g, 1.0), eps=0.05, delta=0.1)
        grad = evaluate(s, P, M, "c")[1]["c"]
        assert np.all(grad == grad[0]) and grad[0] != 0.0
        s2, res = minimize_c(s, P, M, SolverPlan(mass_constraint=c0))
        assert s2 is s and res.accepted and res.flag == "stationary", c0
        assert res.iters == 0 and res.energy == diffuse_energy(s, P, M)
        assert trials == []


def test_minimize_u_nonconvergence_flagged(P):
    # the cap is a 2D matter: the 1D u-step is an exact solve with no CG
    M = ElasticModel(e0=0.3 * np.eye(2))
    s = _step_state(32)
    before = diffuse_energy(s, P, M).e_total
    s2, res = minimize_u(s, P, M, SolverPlan(cg_tol=1e-14, cg_max_iters=3))
    assert res.flag == "cg_max_iters"
    assert diffuse_energy(s2, P, M).e_total <= before


@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("lam", [0.0, 0.2])
@pytest.mark.parametrize("band_z,max_iters", [(1.0, 40), (0.05, 200)])
def test_minimize_u_2d_preconditioned_iterations(P, n, lam, band_z, max_iters):
    # the fast-diagonalization preconditioner keeps the count nearly flat in n;
    # a cracked band (weight 0.0125 against 1.01) costs more but still converges
    M = ElasticModel(lame_lambda=lam, e0=0.3 * np.eye(2))
    s = _step_state(n, band_z)
    _, res = minimize_u(s, P, M, SolverPlan())
    assert res.accepted and res.flag == ""
    assert 0 < res.iters <= max_iters


def test_axis_basis_is_built_by_the_2d_u_step_only(P, elastic_1d):
    # the eigenbasis costs LAPACK pages and O(n^2) memory: 1D never builds it
    _axis_basis.cache_clear()
    g = Grid((0.0,), (1.0,), (64,))
    alternate(default_state(g, 0.05, 0.1), P, elastic_1d, SolverPlan(max_outer=3))
    assert _axis_basis.cache_info().currsize == 0
    minimize_u(_step_state(16), P, ElasticModel(e0=0.3 * np.eye(2)), SolverPlan())
    assert _axis_basis.cache_info().currsize == 1  # one (n, h) serves both axes


@pytest.mark.parametrize("cells", [(16, 16), (12, 20)])
def test_fast_diag_preconditioner_is_symmetric(cells):
    M = ElasticModel(lame_lambda=0.3, lame_mu=0.7, e0=np.zeros((2, 2)))
    g = Grid((0.0, -1.0), (1.0, 3.0), cells)
    rng = np.random.Generator(np.random.Philox(21))
    apply_p = _fast_diag_preconditioner(g, M, rng.uniform(0.01, 1.0, g.cells))
    r, s = rng.normal(size=(2,) + g.cells + (2,))
    pr_s = float(np.sum(apply_p(r) * s))
    r_ps = float(np.sum(r * apply_p(s)))
    assert abs(pr_s - r_ps) <= 1e-12 * abs(pr_s)


def _dense_h1_inverse(cells: tuple, spacing: tuple, eps: float) -> np.ndarray:
    """(I + eps^2 L_N)^-1 as a dense matrix on the row-major cells, L_N the
    3-point Neumann Laplacian of each axis summed over the axes."""
    lap = []
    for n, h in zip(cells, spacing):
        a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        a[0, 0] = a[-1, -1] = 1.0
        lap.append(a / (h * h))
    total = lap[0] if len(cells) == 1 else (np.kron(lap[0], np.eye(cells[1]))
                                            + np.kron(np.eye(cells[0]), lap[1]))
    return np.linalg.inv(np.eye(total.shape[0]) + eps * eps * total)


H1_GRIDS = [Grid((0.0,), (1.0,), (7,)), Grid((0.0, -1.0), (1.0, 3.0), (5, 6)),
            Grid((0.0,), (1.0,), (256,)), Grid((0.0, 0.0), (1.0, 1.0), (32, 32))]


@pytest.mark.parametrize("g", H1_GRIDS[:2], ids=["7", "5x6"])
def test_h1_smoother_equals_the_dense_inverse(g):
    rng = np.random.Generator(np.random.Philox(4))
    x = rng.normal(size=g.cells)
    dense = _dense_h1_inverse(g.cells, g.spacing, 0.3) @ x.reshape(-1)
    got = solver._h1_smooth(x, g.spacing, 0.3)
    assert got.shape == g.cells
    assert np.abs(got.reshape(-1) - dense).max() <= 1e-14 * np.abs(dense).max()


@pytest.mark.parametrize("g", H1_GRIDS, ids=["7", "5x6", "256", "32x32"])
def test_h1_smoother_is_symmetric_positive_and_keeps_constants(g):
    rng = np.random.Generator(np.random.Philox(8))
    eps = 0.05
    x, y = rng.normal(size=(2,) + g.cells)
    sx, sy = solver._h1_smooth(x, g.spacing, eps), solver._h1_smooth(y, g.spacing, eps)
    assert abs(float(np.sum(x * sy)) - float(np.sum(sx * y))) <= 1e-13 * float(np.sum(x * x))
    assert float(np.sum(x * sx)) > 0.0
    # the highest mode is damped by 1 + eps^2 lam_max and is still positive
    checker = np.indices(g.cells).sum(axis=0) % 2 * 2.0 - 1.0
    assert float(np.sum(checker * solver._h1_smooth(checker, g.spacing, eps))) > 0.0
    const = np.full(g.cells, 0.37)
    assert np.abs(solver._h1_smooth(const, g.spacing, eps) - 0.37).max() <= 1e-15


def test_c_step_sweeps_do_not_grow_with_the_grid(P, elastic_1d):
    # criterion 07's problem: the plain L2 c-step took 1863 sweeps at 512
    # cells and 20783 at 2048; the bound of 150 was fixed before this run
    eps = 2.0 ** -7
    plan = SolverPlan(max_outer=4000, tol_rel_energy=1e-9, cg_tol=1e-10,
                      cg_max_iters=150, mass_constraint=0.5)
    for n in (512, 2048):
        s0 = default_state(Grid((0.0,), (1.0,), (n,)), eps, eps ** (2 / 3), c0=0.5, seed=0)
        _, traj = alternate(s0, P, elastic_1d, plan)
        assert traj.reason == "converged" and len(traj.energies) - 1 <= 150, n


@pytest.mark.parametrize("cells", [(40,), (6, 9)], ids=["1d", "2d"])
def test_the_residual_is_zero_at_a_stationary_state(P, cells):
    # c uniform, z = 1, u = 0 and e0 = 0: dE/dc is one value, which the mass
    # constraint removes, dE/dz is 0 (phi' and V' vanish at 1) and so is dE/du
    d = len(cells)
    g = Grid((0.0,) * d, (1.0,) * d, cells)
    M = ElasticModel(e0=np.zeros((d, d)))
    s = DiffuseState(ScalarField.full(g, 0.3), VectorField.full(g, np.zeros(d)),
                     ScalarField.full(g, 1.0), eps=0.05, delta=0.1)
    assert evaluate(s, P, M, "c")[1]["c"][(0,) * d] != 0.0
    res = solver.residual(s, P, M, SolverPlan(mass_constraint=0.3))
    assert res == {"c": 0.0, "z": 0.0, "u": 0.0}
    _, traj = alternate(s, P, M, SolverPlan(max_outer=3, mass_constraint=0.3))
    assert traj.residual == {"c": 0.0, "z": 0.0, "u": 0.0}


def test_the_residual_falls_with_the_stopping_tolerance(P, elastic_1d):
    eps = 2.0 ** -6
    g = Grid((0.0,), (1.0,), (128,))
    res = []
    for tol in (1e-4, 1e-8):
        plan = SolverPlan(max_outer=4000, tol_rel_energy=tol, mass_constraint=0.5)
        _, traj = alternate(default_state(g, eps, eps ** (2 / 3), c0=0.5, seed=0),
                            P, elastic_1d, plan)
        assert traj.reason == "converged"
        res.append(traj.residual)
    assert res[1]["c"] < 0.1 * res[0]["c"] and res[1]["u"] < 0.1 * res[0]["u"]


def test_the_residual_keeps_only_what_a_step_could_move(P, elastic_1d):
    s = random_state(Grid((0.0,), (1.0,), (48,)), seed=3)
    z = s.z.values.copy()
    z[:8], z[-8:] = 0.0, 1.0
    s = s.replace(z=ScalarField(s.grid, z))
    grads = evaluate(s, P, elastic_1d, "cuz")[1]
    vol = s.grid.cell_volume
    gz = grads["z"].copy()
    gz[:8] = np.minimum(gz[:8], 0.0)  # at the floor only a rise is a move
    gz[-8:] = np.maximum(gz[-8:], 0.0)  # at the cap only a fall is
    gc = grads["c"] - grads["c"].mean()
    expected = {"c": np.sqrt(np.sum(gc * gc) / vol), "z": np.sqrt(np.sum(gz * gz) / vol),
                "u": np.sqrt(np.sum(grads["u"] ** 2) / vol)}
    res = solver.residual(s, P, elastic_1d, SolverPlan(mass_constraint=0.5))
    assert res == pytest.approx(expected, rel=1e-14)
    free = solver.residual(s, P, elastic_1d, SolverPlan())["c"]
    assert free == pytest.approx(np.sqrt(np.sum(grads["c"] ** 2) / vol), rel=1e-14)


def test_alternate_2d_smoke(P):
    M = ElasticModel(lame_lambda=0.2, lame_mu=0.5, e0=0.3 * np.eye(2))
    g = Grid((0.0, 0.0), (1.0, 1.0), (24, 24))
    plan = SolverPlan(max_outer=25, mass_constraint=0.5, cg_max_iters=300)
    s0 = default_state(g, eps=0.08, delta=0.12, c0=0.5, seed=2)
    s, traj = alternate(s0, P, M, plan)
    tot = traj.totals
    assert np.all(tot[1:] <= tot[:-1] * (1 + DESCENT_RTOL))
    assert tot[-1] < tot[0]
    assert s.z.values.min() >= 0.0 and s.z.values.max() <= 1.0
    assert abs(mass(s.c) - 0.5) <= 1e-12
    assert not [f for sweep in traj.flags for f in sweep if f.startswith("u:")]


def test_philox_stream_equals_numpys_bit_for_bit():
    # seeds of one to five 32-bit words; 14 draws run from the first 4-word
    # Philox block into the fourth, in the ranges default_state and
    # slicing_identity_check draw from
    for seed in [*range(300), 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 128 + 17, np.int64(3)]:
        rng = np.random.Generator(np.random.Philox(seed))
        draws = uniforms(seed)
        for low, high in [(-1.0, 1.0), (0.0, 2.0 * np.pi)] * 7:
            assert low + (high - low) * next(draws) == rng.uniform(low, high), seed


def test_philox_seed_is_checked_as_numpys():
    for seed, error in ((-1, ValueError), (1.5, TypeError)):
        with pytest.raises(error):
            np.random.Philox(seed)
        with pytest.raises(error):
            uniforms(seed)


NO_RANDOM_PACKAGE = """
import sys
from phasefrac.cli import main
from phasefrac.fields import Grid
from phasefrac.harness import slicing_identity_check
from phasefrac.sharp import quadratic_displacement

for command in ("minimize", "check"):
    assert main([command, "--config", sys.argv[1], "--out", sys.argv[2], "--quiet"]) == 0
slicing_identity_check(quadratic_displacement(), Grid((0.0, 0.0), (1.0, 1.0), (32, 32)), 2)
print(" ".join(m for m in ("numpy.random", "secrets", "_hashlib") if m in sys.modules))
"""


def test_seeded_draws_load_no_random_package(tmp_path):
    # numpy's random package imports secrets, hence hmac and OpenSSL's libcrypto
    config = tmp_path / "run.ini"
    config.write_text("[elastic]\ne0 = 1\n\n[geometry]\ndim = 1\ncells = 64\n\n"
                      "[solver]\nmax_outer = 5\nmass = 0.5\neps = 0.0625\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(solver.__file__)))
    proc = subprocess.run([sys.executable, "-c", NO_RANDOM_PACKAGE, str(config),
                           str(tmp_path / "out")], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
