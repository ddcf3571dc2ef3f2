import re

import numpy as np
import pytest

from conftest import random_state
from phasefrac import solver
from phasefrac.energy import (DEGRADATIONS, ETA_RULES, DiffuseState, ElasticModel,
                              EnergyBreakdown, diffuse_energy, evaluate, evaluate_block,
                              mass, project_mass)
from phasefrac.fields import Grid, ScalarField, VectorField, gradient, gradient_adjoint
from phasefrac.potentials import phi_delta
from phasefrac.recovery import ProfileParams, build_profile


def fd_gradient(state, P, M, block, rel_step=1e-6):
    """Central finite differences of the total discrete energy."""
    def total(st):
        return diffuse_energy(st, P, M).e_total

    base = getattr(state, block).values
    out = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    for val in it:
        idx = it.multi_index
        step = rel_step * (1.0 + abs(float(val)))
        vp = base.copy()
        vm = base.copy()
        vp[idx] += step
        vm[idx] -= step
        if block == "u":
            sp = state.replace(u=VectorField(state.grid, vp))
            sm = state.replace(u=VectorField(state.grid, vm))
        elif block == "c":
            sp = state.replace(c=ScalarField(state.grid, vp))
            sm = state.replace(c=ScalarField(state.grid, vm))
        else:
            sp = state.replace(z=ScalarField(state.grid, vp))
            sm = state.replace(z=ScalarField(state.grid, vm))
        out[idx] = (total(sp) - total(sm)) / (2.0 * step)
    return out


def test_global_minimizer_zero(P, elastic_1d_free):
    g = Grid((0.0,), (1.0,), (64,))
    s = DiffuseState(ScalarField.full(g, 0.0), VectorField.full(g, 0.0),
                     ScalarField.full(g, 1.0), 0.1, 0.1)
    b = diffuse_energy(s, P, elastic_1d_free)
    assert b.e_total == 0.0
    for grad in evaluate(s, P, elastic_1d_free, "cuz")[1].values():
        assert np.abs(grad).max() == 0.0


def test_compatible_state_zero(P, elastic_1d):
    # c = 1, u = e0 x, z = 1: every integrand vanishes
    g = Grid((0.0,), (1.0,), (64,))
    s = DiffuseState(ScalarField.full(g, 1.0),
                     VectorField.from_function(g, lambda x: (x,)),
                     ScalarField.full(g, 1.0), 0.1, 0.1)
    b = diffuse_energy(s, P, elastic_1d)
    assert b.e_phase == 0.0 and b.e_elastic == pytest.approx(0.0, abs=1e-25)
    assert b.e_crack == 0.0


def test_profile_phase_energy_band(P, elastic_1d_free):
    # c = near-optimal transition at 1/2 (lam=1e-4, eps=2^-8): e_phase within
    # [alpha_surf * phi_delta(1) * 0.98, (alpha_surf + 2 sqrt(lam)) * phi_delta(1) * 1.02]
    lam, eps, delta = 1e-4, 2.0 ** -8, 2.0 ** -6
    prof = build_profile(ProfileParams(P.w, lam, eps))
    g = Grid((0.0,), (1.0,), (2 ** 12,))
    x = g.centers(0)
    c = ScalarField(g, np.asarray(prof.g(x - 0.5 + prof.width / 2)))
    s = DiffuseState(c, VectorField.full(g, 0.0), ScalarField.full(g, 1.0), eps, delta)
    b = diffuse_energy(s, P, elastic_1d_free)
    pd1 = phi_delta(P, delta, 1.0)
    assert (1 / 3) * pd1 * 0.98 <= b.e_phase <= (1 / 3 + 2 * np.sqrt(lam)) * pd1 * 1.02


@pytest.mark.parametrize("psi,eta_rule", [("quadratic", "delta_squared"),
                                          ("linear", "delta_cubed")])
@pytest.mark.parametrize("block", ["c", "u", "z"])
def test_gradients_match_finite_differences(P, block, psi, eta_rule):
    psi_fn, dpsi_fn = DEGRADATIONS[psi]
    M = ElasticModel(e0=np.array([[1.0]]), psi=psi_fn, dpsi=dpsi_fn,
                     eta_rule=ETA_RULES[eta_rule])
    g = Grid((0.0,), (1.0,), (64,))
    s = random_state(g, seed=21)
    fd = fd_gradient(s, P, M, block)
    an = evaluate(s, P, M, block)[1][block]
    scale = max(np.abs(fd).max(), 1e-12)
    assert np.abs(an - fd).max() / scale <= 1e-5


def test_gradients_match_fd_2d(P):
    M = ElasticModel(lame_lambda=0.3, lame_mu=0.7,
                     e0=np.array([[0.8, 0.1], [0.1, -0.2]]))
    g = Grid((0.0, 0.0), (1.0, 1.0), (7, 9))
    s = random_state(g, seed=4)
    grads = evaluate(s, P, M, "cuz")[1]
    for block in ("c", "u", "z"):
        fd = fd_gradient(s, P, M, block)
        an = grads[block]
        scale = max(np.abs(fd).max(), 1e-12)
        assert np.abs(an - fd).max() / scale <= 1e-5


def test_u_gradient_affine_in_u(P, elastic_1d):
    g = Grid((0.0,), (1.0,), (32,))
    s = random_state(g, seed=30)
    rng = np.random.Generator(np.random.Philox(31))
    u1 = rng.normal(size=g.cells + (1,))
    u2 = rng.normal(size=g.cells + (1,))
    def gu(uv):
        return evaluate(s.replace(u=VectorField(g, uv)), P, elastic_1d, "u")[1]["u"]
    lhs = gu(u1 + u2)
    rhs = gu(u1) + gu(u2) - gu(np.zeros_like(u1))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_components_nonnegative_random(P, elastic_1d):
    g = Grid((0.0,), (1.0,), (48,))
    for seed in range(8):
        b = diffuse_energy(random_state(g, seed=seed), P, elastic_1d)
        assert b.e_phase >= 0 and b.e_elastic >= 0 and b.e_crack >= 0
        assert b.e_total == pytest.approx(b.e_phase + b.e_elastic + b.e_crack)


def test_phase_term_monotone_in_z(P, elastic_1d):
    g = Grid((0.0,), (1.0,), (48,))
    for seed in range(5):
        s = random_state(g, seed=100 + seed)
        up = ScalarField(g, np.minimum(s.z.values + 0.1, 1.0))
        assert diffuse_energy(s.replace(z=up), P, elastic_1d).e_phase >= \
            diffuse_energy(s, P, elastic_1d).e_phase


def test_degradation_limit(P):
    # with z = 1 the elastic term equals (1 + eta) times the undegraded energy
    M = ElasticModel(e0=np.array([[1.0]]))
    g = Grid((0.0,), (1.0,), (64,))
    s = random_state(g, seed=44)
    s = s.replace(z=ScalarField.full(g, 1.0))
    eta = M.eta(s.delta)
    b = diffuse_energy(s, P, M)
    undegraded = b.e_elastic / (1.0 + eta)
    s_half = s.replace(delta=s.delta / 2)
    b2 = diffuse_energy(s_half, P, M)
    assert b2.e_elastic / (1.0 + M.eta(s.delta / 2)) == pytest.approx(undegraded, rel=1e-12)


def test_clamp_audit_counter(P, elastic_1d):
    g = Grid((0.0,), (1.0,), (16,))
    z = np.full(g.cells, 0.5)
    z[3] = 1.2
    z[7] = -0.1
    s = DiffuseState(ScalarField.full(g, 0.2), VectorField.full(g, 0.0),
                     ScalarField(g, z), 0.1, 0.1)
    assert diffuse_energy(s, P, elastic_1d).clamped_cells == 2


def test_nonfinite_names_cell(P, elastic_1d):
    g = Grid((0.0,), (1.0,), (16,))
    s = DiffuseState(ScalarField.full(g, 0.2), VectorField.full(g, 0.0),
                     ScalarField.full(g, 0.5), 0.1, 0.1)
    bad = ElasticModel(e0=np.array([[1.0]]),
                       psi=lambda z: np.where(np.asarray(z) == 0.5, np.inf, z ** 2),
                       dpsi=lambda z: 2 * np.asarray(z))
    with pytest.raises(ValueError, match=r"cell \(0,\)"):
        diffuse_energy(s, P, bad)


def test_mass_and_projection(P):
    g = Grid((0.0,), (1.0,), (256,))
    c = ScalarField.full(g, 0.3)
    assert mass(c) == pytest.approx(0.3, abs=1e-15)
    assert np.abs(project_mass(c, 0.3).values - c.values).max() <= 1e-15
    zero = ScalarField.full(g, 0.0)
    assert np.abs(project_mass(zero, 0.3).values - 0.3).max() < 1e-15
    rng = np.random.Generator(np.random.Philox(3))
    r = ScalarField(g, rng.normal(size=g.cells))
    assert abs(mass(project_mass(r, 0.5)) - 0.5) <= 1e-12


def test_breakdown_validates():
    with pytest.raises(ValueError):
        EnergyBreakdown(-1.0, 0.0, 0.0)


@pytest.mark.parametrize("lame", [dict(lame_mu=np.nan), dict(lame_mu=np.inf),
                                  dict(lame_lambda=np.nan), dict(lame_lambda=np.inf)])
def test_elastic_model_refuses_nonfinite_moduli(lame):
    with pytest.raises(ValueError, match="need 0 < mu < inf and 0 <= lambda < inf"):
        ElasticModel(**lame)


def test_e0_is_copied_frozen_and_checked_at_construction():
    e0 = np.array([[0.8, 0.1], [0.1, -0.2]])
    M = ElasticModel(e0=e0)
    planes = M.e0_planes(2)
    e0[0, 0] = 7.0
    e0[0, 1] = 5.0  # would also break the symmetry the model checked
    assert M.e0[0, 0] == 0.8 and M.e0[0, 1] == 0.1
    assert M.e0_planes(2) == planes == (0.8, -0.2, 0.1)
    with pytest.raises(ValueError, match="read-only"):
        M.e0[0, 0] = 7.0
    with pytest.raises(ValueError, match=r"e0 must be a 1x1 or 2x2 matrix, got shape \(3, 3\)"):
        ElasticModel(e0=np.eye(3))


def test_e0_of_another_dimension_is_refused(P):
    # broadcast, a 1x1 e0 would act as the all-ones matrix in 2D (e_elastic
    # 1.01 here instead of 0.505), and a 2x2 e0 would widen the 1D strain to 2x2
    g = Grid((0.0, 0.0), (1.0, 1.0), (8, 8))
    s = DiffuseState(ScalarField.full(g, 0.5), VectorField.full(g, 0.0),
                     ScalarField.full(g, 1.0), 0.1, 0.1)
    assert diffuse_energy(s, P, ElasticModel(e0=np.eye(2))).e_elastic == \
        pytest.approx(0.505, rel=1e-12)
    g1 = Grid((0.0,), (1.0,), (8,))
    s1 = DiffuseState(ScalarField.full(g1, 0.5), VectorField.full(g1, 0.0),
                      ScalarField.full(g1, 1.0), 0.1, 0.1)
    for state, e0, need in ((s, np.ones((1, 1)), "(2, 2)"), (s1, np.eye(2), "(1, 1)")):
        M = ElasticModel(e0=e0)
        message = re.escape(f"e0 has shape {e0.shape}, but a {state.grid.dim}D grid needs {need}")
        with pytest.raises(ValueError, match=message):
            evaluate(state, P, M, "cuz")
        with pytest.raises(ValueError, match=message):
            solver.minimize_u(state, P, M, solver.SolverPlan(),
                              before=EnergyBreakdown(1.0, 1.0, 1.0))


# The (d, d) formulas that the strain planes replaced, and the stacked
# cells + (d,) gradient that the gradient planes replaced, kept as references:
# evaluate and the u-step must reproduce them bit for bit.

def _stacked_gradient(f, h):
    return np.stack(gradient(f, h), axis=-1)


def _stacked_gradient_adjoint(v, h):
    return gradient_adjoint(tuple(v[..., a] for a in range(len(h))), h)


def _reference_sym_gradient(u, h):
    jac = np.stack([_stacked_gradient(u[..., a], h) for a in range(len(h))], axis=-2)
    return 0.5 * (jac + np.swapaxes(jac, -1, -2))


def _reference_form(M, xi):
    tr = np.trace(xi, axis1=-2, axis2=-1)
    return M.lame_lambda * tr * tr + 2.0 * M.lame_mu * np.sum(xi * xi, axis=(-2, -1))


def _reference_dform(M, xi):
    tr = np.trace(xi, axis1=-2, axis2=-1)
    return (2.0 * M.lame_lambda * tr[..., None, None] * np.eye(xi.shape[-1])
            + 4.0 * M.lame_mu * xi)


def _reference_stress_divergence(grid, M, weight, xi):
    s = weight[..., None, None] * _reference_dform(M, xi)
    h = grid.spacing
    return grid.cell_volume * np.stack(
        [_stacked_gradient_adjoint(s[..., a, :], h) for a in range(len(h))], axis=-1)


def _reference_evaluate(s, P, M):
    """evaluate(s, P, M, "cuz") with the (d, d) strain."""
    grid = s.grid
    h, vol = grid.spacing, grid.cell_volume
    c, z = s.c.values, s.z.values
    outside = (z < 0.0) | (z > 1.0)
    zc = np.clip(z, 0.0, 1.0)
    phase_weight = P.phi(zc) + P.c_delta(s.delta)
    elastic_weight = M.psi(zc) + M.eta(s.delta)
    gc = _stacked_gradient(c, h)
    gz = _stacked_gradient(z, h)
    xi = _reference_sym_gradient(s.u.values, h) - c[..., None, None] * M.e0
    phase_raw = P.w(c) / s.eps + s.eps * np.sum(gc * gc, axis=-1)
    form = _reference_form(M, xi)
    energy = [vol * (phase_weight * phase_raw).sum(), vol * (elastic_weight * form).sum(),
              vol * (P.v(zc) / s.delta + s.delta * np.sum(gz * gz, axis=-1)).sum()]
    gc_out = phase_weight * P.dw(c) / s.eps
    gc_out += 2.0 * s.eps * _stacked_gradient_adjoint(phase_weight[..., None] * gc, h)
    gc_out -= elastic_weight * np.sum(_reference_dform(M, xi) * M.e0, axis=(-2, -1))
    mask = np.where(outside, 0.0, 1.0)
    gz_out = mask * P.dphi(zc) * phase_raw
    gz_out += mask * M.dpsi(zc) * form
    gz_out += mask * P.dv(zc) / s.delta
    gz_out += 2.0 * s.delta * _stacked_gradient_adjoint(gz, h)
    return (np.array(energy), {"c": vol * gc_out, "z": vol * gz_out,
                               "u": _reference_stress_divergence(grid, M, elastic_weight, xi)})


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("zero_u", [False, True])
@pytest.mark.parametrize("lam", [0.0, 0.7])
def test_strain_planes_match_the_dd_reference_bitwise(P, dim, zero_u, lam):
    e0 = np.array([[0.8, 0.1], [0.1, -0.2]])[:dim, :dim]
    M = ElasticModel(lame_lambda=lam, lame_mu=0.6, e0=e0)
    g = Grid((0.0,) * dim, (1.0,) * dim, (23, 17)[:dim])
    s = random_state(g, seed=50 + dim)
    rng = np.random.Generator(np.random.Philox(7))
    s = s.replace(z=ScalarField(g, rng.uniform(-0.2, 1.2, g.cells)))  # some cells clamp
    if zero_u:
        s = s.replace(u=VectorField.full(g, np.zeros(dim)))
    energy, grads = evaluate(s, P, M, "cuz")
    ref_energy, ref_grads = _reference_evaluate(s, P, M)
    assert energy.clamped_cells > 0
    got = np.array([energy.e_phase, energy.e_elastic, energy.e_crack])
    assert np.array_equal(_bits(got), _bits(ref_energy))
    for block in "cuz":
        assert np.array_equal(_bits(grads[block]), _bits(ref_grads[block])), block
    # one u-step capped at 5 CG iterations (the exact solve in 1D)
    plan = solver.SolverPlan(cg_max_iters=5)
    s2, res = solver.minimize_u(s, P, M, plan)
    assert res.accepted
    weight = M.psi(np.clip(s.z.values, 0.0, 1.0)) + M.eta(s.delta)
    if dim == 1:
        ref_u = solver._solve_u_1d(s.u.values[:, 0], weight, s.c.values * M.e0[0, 0],
                                   g.spacing[0])
    else:
        b = _reference_stress_divergence(g, M, weight, s.c.values[..., None, None] * M.e0)
        ref_u, iters, _ = solver._cg(
            lambda u: _reference_stress_divergence(
                g, M, weight, _reference_sym_gradient(u, g.spacing)),
            solver._fast_diag_preconditioner(g, M, weight), b, s.u.values,
            plan.cg_tol, plan.cg_max_iters)
        assert res.iters == iters == 5
    assert np.array_equal(_bits(s2.u.values), _bits(ref_u))


def _same_energy(a, b):
    """Bit-equal components and the same clamp count."""
    return (np.array_equal(_bits([a.e_phase, a.e_elastic, a.e_crack]),
                           _bits([b.e_phase, b.e_elastic, b.e_crack]))
            and a.clamped_cells == b.clamped_cells)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("lam", [0.0, 0.7])
@pytest.mark.parametrize("mass_constraint", [None, 0.45])
def test_trial_energies_match_a_full_pass_bitwise(P, dim, lam, mass_constraint):
    e0 = np.array([[0.8, 0.1], [0.1, -0.2]])[:dim, :dim]
    M = ElasticModel(lame_lambda=lam, lame_mu=0.6, e0=e0)
    g = Grid((0.0,) * dim, (1.0,) * dim, (23, 17)[:dim])
    rng = np.random.Generator(np.random.Philox(11 + dim))
    s = random_state(g, seed=60 + dim)
    s = s.replace(z=ScalarField(g, rng.uniform(-0.2, 1.2, g.cells)))  # some cells clamp
    for block in "czu":
        energy, grad, trial = evaluate_block(s, P, M, block)
        ref_energy, ref_grads = evaluate(s, P, M, block)
        assert _same_energy(energy, ref_energy), block
        assert np.array_equal(_bits(grad), _bits(ref_grads[block])), block
        base = getattr(s, block).values
        clamped = set()
        for t in (1.0, 0.3, 1e-3):  # several trials of one pass, none changes it
            new = base + t * rng.standard_normal(base.shape)
            if block == "c" and mass_constraint is not None:
                new = project_mass(ScalarField(g, new), mass_constraint).values
            field = (VectorField if block == "u" else ScalarField)(g, new)
            want = diffuse_energy(s.replace(**{block: field}), P, M)
            assert _same_energy(trial(new), want), (block, t)
            clamped.add(want.clamped_cells)
        if block == "z":
            assert len(clamped | {energy.clamped_cells}) > 1
    # the solver's steps return the energy of the state they return
    plan = solver.SolverPlan(mass_constraint=mass_constraint)
    for step in (solver.minimize_u, solver.minimize_z, solver.minimize_c):
        s2, res = step(s, P, M, plan)
        assert res.accepted and s2 is not s, res.block
        assert _same_energy(res.energy, diffuse_energy(s2, P, M)), res.block
    if mass_constraint is not None:
        assert mass(s2.c) == pytest.approx(mass_constraint, abs=1e-15)
