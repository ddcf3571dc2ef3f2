import numpy as np
import pytest
from scipy.integrate import quad

from phasefrac.energy import diffuse_energy
from phasefrac.fields import Grid
from phasefrac.recovery import (ProfileParams, ResolutionError,
                                WidthConditionError, build_profile, build_recovery,
                                profile_energy_1d, smoothstep)
from phasefrac.sharp import SegmentSet, SharpGeometry1D, SharpGeometry2D, \
    sharp_energy_1d


def flat(s):
    return np.zeros_like(np.asarray(s, dtype=float))


def test_params_validation(P):
    with pytest.raises(ValueError):
        ProfileParams(flat, 0.0, 1.0)
    with pytest.raises(ValueError):
        ProfileParams(flat, 1.0, 1.0)
    with pytest.raises(ValueError):
        ProfileParams.from_potentials(P, "Q", 0.1, 1.0)


def test_zeta_basics(P):
    pp = ProfileParams.from_potentials(P, "V", 0.5, 1.0)
    assert build_profile(pp).zeta(0.0) == 0.0
    # f == 0, lam = 1: integrand is identically 1
    prof = build_profile(ProfileParams(flat, 1.0 - 1e-12, 1.0))
    assert prof.zeta(1.0) == pytest.approx(1.0, rel=1e-9)


def test_zeta_against_adaptive_quadrature(P):
    lam = 1e-4
    pp = ProfileParams.from_potentials(P, "V", lam, 1.0)
    oracle, _ = quad(lambda t: 1.0 / np.sqrt(lam + (1 - t) ** 2), 0, 1, epsabs=1e-12)
    assert build_profile(pp).zeta(1.0) == pytest.approx(oracle, abs=1e-8)
    assert build_profile(pp).zeta(1.0) == pytest.approx(np.arcsinh(1 / np.sqrt(lam)), abs=1e-8)


def test_zeta_width_cap(P):
    for lam in (1e-4, 0.04, 0.5):
        prof = build_profile(ProfileParams.from_potentials(P, "W", lam, 0.01))
        assert prof.width <= 0.01 / np.sqrt(lam) * (1 + 1e-12)


def test_g_profile_endpoints_and_roundtrip(P):
    prof = build_profile(ProfileParams.from_potentials(P, "W", 1e-4, 0.01))
    assert prof.g(-1.0) == 0.0
    assert prof.g(prof.width) == 1.0
    assert prof.g(prof.width + 1.0) == 1.0
    s = np.linspace(0.0, 1.0, 513)
    assert np.abs(prof.g(prof.zeta(s)) - s).max() <= 1e-9
    mid = prof.zeta(0.5)
    assert prof.g(mid) == pytest.approx(0.5, abs=1e-9)


def test_profile_strictly_increasing(P):
    prof = build_profile(ProfileParams.from_potentials(P, "V", 0.01, 0.1))
    assert np.all(np.diff(prof.zeta_nodes) > 0)
    r = np.linspace(0, prof.width, 200)
    assert np.all(np.diff(prof.g(r)) >= 0)


def test_profile_energy_w_bound(P):
    lam = 1e-4
    pp = ProfileParams.from_potentials(P, "W", lam, 2.0 ** -8)
    val = profile_energy_1d(pp)
    oracle, _ = quad(lambda s: (2 * s ** 2 * (1 - s) ** 2 + lam)
                     / np.sqrt(lam + s ** 2 * (1 - s) ** 2), 0, 1, epsabs=1e-12)
    assert val == pytest.approx(oracle, abs=1e-9)
    assert (1 / 3) * 0.5 * 0.99 < val <= 1 / 3 + 2 * np.sqrt(lam) + 1e-6


def test_profile_energy_v_closed_form(P):
    # for V = (1-s)^2 the transition energy is exactly sqrt(1 + lam)
    for lam in (1e-4, 1e-2, 0.25):
        val = profile_energy_1d(ProfileParams.from_potentials(P, "V", lam, 0.37))
        assert val == pytest.approx(np.sqrt(1 + lam), abs=1e-10)
        assert val <= 1.0 + 2 * np.sqrt(lam) + 1e-9


def test_profile_energy_flat_closed_form():
    # f == 0: zeta(1) = scale/sqrt(lam), g linear, energy = sqrt(lam)
    for lam in (0.04, 0.25):
        assert profile_energy_1d(ProfileParams(flat, lam, 1.0)) == \
            pytest.approx(np.sqrt(lam), rel=1e-12)


def test_smoothstep_shape():
    assert smoothstep(np.array(-1.0)) == 0.0
    assert smoothstep(np.array(2.0)) == 1.0
    t = np.linspace(0, 1, 101)
    slopes = np.diff(smoothstep(t)) / np.diff(t)
    assert slopes.max() <= 1.5 + 1e-12


def test_recovery_empty_geometry(P):
    g = SharpGeometry1D((0.0, 1.0))
    grid = Grid((0.0,), (1.0,), (128,))
    st = build_recovery(g, 0.05, 0.1, 0.1, grid, P)
    assert np.all(st.c.values == 0.0)
    assert np.all(st.u.values == 0.0)
    assert np.all(st.z.values == 1.0)


def test_recovery_phase_only_profile(P, elastic_1d_free):
    g = SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), c_pieces=(0, 1),
                        u_pieces=((0.0, 0.0), (0.0, 0.0)))
    grid = Grid((0.0,), (1.0,), (4096,))
    st = build_recovery(g, 2.0 ** -6, 0.1, 0.25, grid, P)
    assert np.all(st.z.values == 1.0)
    x = grid.centers(0)
    assert np.all(st.c.values[x > 0.5] == 1.0)  # c = 1 exactly on the phase set
    assert st.c.values[x < 0.4].max() == 0.0
    assert 0 < np.count_nonzero((st.c.values > 0) & (st.c.values < 1)) < 300


def test_recovery_exclusion_inclusion(P):
    # width condition satisfied: every partially transitioned c-cell sits in
    # the fully damaged tube
    lam, delta, eps = 0.25, 0.2, 2.0 ** -6
    assert eps / np.sqrt(lam) <= lam * delta
    g = SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), crack_points=(0.5,),
                        c_pieces=(0, 1), u_pieces=((0.0, 0.0), (0.0, 0.1)))
    grid = Grid((0.0,), (1.0,), (2 ** 12,))
    st = build_recovery(g, eps, delta, lam, grid, P)
    trans = (st.c.values > 0.01) & (st.c.values < 0.99)
    assert trans.any()
    assert st.z.values[trans].max() <= 1e-12


def test_recovery_transition_width_bound(P):
    lam, delta, eps = 0.25, 0.2, 2.0 ** -6
    g = SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), crack_points=(0.5,),
                        c_pieces=(0, 1), u_pieces=((0.0, 0.0), (0.0, 0.1)))
    grid = Grid((0.0,), (1.0,), (2 ** 12,))
    st = build_recovery(g, eps, delta, lam, grid, P)
    x = grid.centers(0)
    band = x[(st.c.values > 0.0) & (st.c.values < 1.0)]
    h = grid.spacing[0]
    assert band.size == 0 or band.max() - band.min() <= eps / np.sqrt(lam) + 2 * h


def test_recovery_width_violation_raises(P):
    g = SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), crack_points=(0.5,),
                        c_pieces=(0, 1), u_pieces=((0.0, 0.0), (0.0, 0.1)))
    grid = Grid((0.0,), (1.0,), (1024,))
    with pytest.raises(WidthConditionError):
        build_recovery(g, 2.0 ** -5, 2.0 ** -5, 1e-4, grid, P)
    st = build_recovery(g, 2.0 ** -5, 2.0 ** -5, 1e-4, grid, P, enforce_width=False)
    assert st.z.values.min() >= 0.0


def test_recovery_unresolvable_raises(P):
    g = SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), c_pieces=(0, 1),
                        u_pieces=((0.0, 0.0), (0.0, 0.0)))
    grid = Grid((0.0,), (1.0,), (64,))
    with pytest.raises(ResolutionError):
        build_recovery(g, 2.0 ** -9, 0.1, 0.25, grid, P)


def test_recovery_u_outside_tube_matches_sharp(P):
    lam, delta, eps = 0.25, 0.2, 2.0 ** -6
    g = SharpGeometry1D((0.0, 1.0), crack_points=(0.5,), c_pieces=(0, 0),
                        u_pieces=((0.0, 0.0), (0.0, 0.3)))
    grid = Grid((0.0,), (1.0,), (2 ** 12,))
    st = build_recovery(g, eps, delta, lam, grid, P)
    x = grid.centers(0)
    outside = np.abs(x - 0.5) > lam * delta
    expected = np.where(x > 0.5, 0.3, 0.0)
    assert np.abs(st.u.values[outside, 0] - expected[outside]).max() < 1e-12
    at_crack = np.abs(x - 0.5) <= 0.25 * lam * delta
    if at_crack.any():
        assert np.abs(st.u.values[at_crack, 0]).max() <= 0.3 * 0.5


def test_recovery_energy_upper_bound_1d(P, elastic_1d_free):
    # diffuse energy of the embedding approaches the sharp value from nearby
    g = SharpGeometry1D((0.0, 1.0), crack_points=(0.5,), c_pieces=(0, 0),
                        u_pieces=((0.0, 0.0), (0.0, 0.1)))
    sharp = sharp_energy_1d(g, P, elastic_1d_free).e_total
    grid = Grid((0.0,), (1.0,), (2 ** 14,))
    eps = 2.0 ** -9
    st = build_recovery(g, eps, eps ** (2 / 3), 1e-4, grid, P, enforce_width=False)
    diffuse = diffuse_energy(st, P, elastic_1d_free).e_total
    assert diffuse <= sharp * 1.05
    assert diffuse >= sharp * 0.9


def test_recovery_2d_fields_in_range(P):
    segs = SegmentSet([[[0.5, 0.25], [0.5, 0.75]]])
    g = SharpGeometry2D((0.0, 0.0), (1.0, 1.0), segments=segs)
    grid = Grid((0.0, 0.0), (1.0, 1.0), (256, 256))
    st = build_recovery(g, 2.0 ** -6, 0.02, 1e-4, grid, P, enforce_width=False)
    assert st.c.values.min() >= 0.0 and st.c.values.max() <= 1.0
    assert st.z.values.min() >= 0.0 and st.z.values.max() <= 1.0
    assert st.z.values.min() < 0.15  # damaged near the segment
