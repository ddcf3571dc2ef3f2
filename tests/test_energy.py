import numpy as np
import pytest

from conftest import random_state
from phasefrac.energy import (DiffuseState, ElasticModel, EnergyBreakdown,
                              diffuse_energy, evaluate, mass, project_mass)
from phasefrac.fields import Grid, ScalarField, VectorField
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


@pytest.mark.parametrize("block", ["c", "u", "z"])
def test_gradients_match_finite_differences(P, elastic_1d, block):
    g = Grid((0.0,), (1.0,), (64,))
    s = random_state(g, seed=21)
    fd = fd_gradient(s, P, elastic_1d, block)
    an = evaluate(s, P, elastic_1d, block)[1][block]
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
