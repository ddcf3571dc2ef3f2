import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from phasefrac.potentials import (check_admissibility, fracture_density,
                                  geodesic_table, geodesic_transform,
                                  make_default_potentials, phi_delta,
                                  surface_density)


def test_default_phi_values(P):
    assert P.phi(np.array(0.0)) == pytest.approx(0.0, abs=1e-15)
    assert P.phi(np.array(1.0)) == pytest.approx(1.0, abs=1e-15)
    assert P.phi(np.array(0.5)) == pytest.approx(0.75, abs=1e-15)


def test_default_w_value(P):
    assert P.w(np.array(0.5)) == pytest.approx(1.0 / 16.0, abs=1e-15)


def test_energy_densities_closed_form(P):
    # 2*int s(1-s) = 1/3 and 4*int (1-s) = 2
    assert surface_density(P) == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert fracture_density(P) == pytest.approx(2.0, abs=1e-10)


def test_densities_match_adaptive_quadrature(P):
    ref_w, _ = quad(lambda s: np.sqrt(s * s * (1 - s) ** 2), 0, 1, epsabs=1e-13)
    ref_v, _ = quad(lambda s: np.sqrt((1 - s) ** 2), 0, 1, epsabs=1e-13)
    assert surface_density(P) == pytest.approx(2 * ref_w, abs=1e-10)
    assert fracture_density(P) == pytest.approx(4 * ref_v, abs=1e-10)


def test_scaled_w_scales_density(P):
    P4 = make_default_potentials(w_scale=4.0)
    assert surface_density(P4) == pytest.approx(2 * surface_density(P), rel=1e-12)


def test_default_admissibility(P):
    report = check_admissibility(P, 1001)
    assert report.passed
    # margin of the interfacial-vs-fracture inequality: 2*(1/2) - 1/6 = 5/6
    assert report["surface_le_fracture"].margin == pytest.approx(5.0 / 6.0, abs=1e-8)


def test_broken_v_fails_surface_bound():
    bad = make_default_potentials(v_scale=0.01)
    report = check_admissibility(bad, 501)
    assert not report.passed
    assert not report["surface_le_fracture"].passed
    # 2*int sqrt(V/100) = 1/10 < 1/6
    assert report["surface_le_fracture"].margin == pytest.approx(0.1 - 1 / 6, abs=1e-8)


def test_constant_phi_passes_mixing_trivially(P):
    one = make_default_potentials()
    object.__setattr__(one, "phi", lambda m: np.ones_like(np.asarray(m, dtype=float)))
    report = check_admissibility(one, 501)
    assert report["mixing_bound"].passed
    assert not report["phi_endpoints"].passed


def test_mixing_margin_nonnegative_for_canonical_phi(P):
    report = check_admissibility(P, 4001)
    assert report["mixing_bound"].margin >= 0.0


def test_nonfinite_potential_reported_not_raised():
    bad = make_default_potentials()
    object.__setattr__(bad, "v", lambda s: np.where(np.asarray(s) > 0.5, np.nan, 1.0))
    report = check_admissibility(bad, 101)
    assert not report.passed


def test_nonfinite_w_reported_not_raised(P):
    # W is NaN near s = 0.3: the sqrt(W) quadrature fails inside the checks
    def w(s):
        s = np.asarray(s, dtype=float)
        return np.where(np.abs(s - 0.3) < 0.01, np.nan, P.w(s))
    bad = dataclasses.replace(P, w=w)
    report = check_admissibility(bad, 101)
    assert not report.passed
    assert not report["surface_le_fracture"].passed


def test_geodesic_transform_values(P):
    assert geodesic_transform("V", P, 0.0) == 0.0
    # min{V, 1} = V on [0,1]: 2*int (1-s) = 1
    assert geodesic_transform("V", P, 1.0) == pytest.approx(1.0, abs=1e-10)
    # sqrt(W) <= 1/4 <= cap, so d_W(1) equals the surface density
    assert geodesic_transform("W", P, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0])
def test_coercivity_must_be_positive_and_finite(value):
    with pytest.raises(ValueError, match="coercivity must be positive and finite"):
        make_default_potentials(coercivity=value)


def test_replace_recomputes_the_caps(P):
    # the caps follow the potentials: the stale cap 1/16 gave d_W(1) = 0.431
    def w4(s):
        return 4.0 * P.w(s)
    P4 = dataclasses.replace(P, w=w4)
    assert P4.m_cap_w == 0.25 and P4.m_cap_v == P.m_cap_v
    assert geodesic_transform("W", P4, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_geodesic_monotone_and_lipschitz(P):
    rng = np.random.Generator(np.random.Philox(7))
    for which, cap in (("W", P.m_cap_w), ("V", P.m_cap_v)):
        ts = rng.uniform(-1.5, 2.5, 40)
        vals = {t: geodesic_transform(which, P, float(t)) for t in ts}
        for t1 in ts:
            for t2 in ts:
                if t1 < t2:
                    assert vals[t1] < vals[t2]
                assert abs(vals[t1] - vals[t2]) <= 2 * np.sqrt(cap) * abs(t1 - t2) + 1e-6


def test_geodesic_table_matches_pointwise(P):
    nodes, tab = geodesic_table("W", P, -0.5, 1.5)
    for t in (-0.5, -0.1, 0.3, 0.9, 1.5):
        direct = geodesic_transform("W", P, t)
        assert np.interp(t, nodes, tab) == pytest.approx(direct, abs=2e-6)


def test_phi_delta_values(P):
    assert phi_delta(P, 0.1, 1.0) == pytest.approx(1.1, abs=1e-14)
    assert phi_delta(P, 0.1, 0.0) == pytest.approx(0.1, abs=1e-14)
    # C_delta vanishes as delta -> 0
    vals = [phi_delta(P, 10.0 ** -k, 0.0) for k in range(1, 8)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-6


def test_phi_delta_rejects_out_of_range(P):
    with pytest.raises(ValueError):
        phi_delta(P, 0.1, 1.5)
    with pytest.raises(ValueError):
        phi_delta(P, 0.1, -0.2)


def test_theta_zero_matches_the_plain_phi_bitwise():
    # theta + (1 - theta) phi at theta = 0 against phi itself, the branch the
    # default set took before; only the zero that phi(-0.0) returns may differ
    # in sign, and phi_delta adds C_delta > 0 to it
    P0 = make_default_potentials(theta=0.0)
    clipped = np.clip(np.array([-0.0, -1e-300, -0.5, 0.25, 1.0, 2.0]), 0.0, 1.0)
    assert np.signbit(clipped[0])
    for z in (np.linspace(0.0, 1.0, 1001), clipped):
        for delta in (0.3, 1e-3):
            old = (2.0 * z - z * z) + P0.c_delta(delta)
            assert np.array_equal(phi_delta(P0, delta, z).view(np.uint64), old.view(np.uint64))
        assert np.array_equal(P0.dphi(z).view(np.uint64), (2.0 - 2.0 * z).view(np.uint64))


def test_theta_mode_endpoints():
    Pt = make_default_potentials(theta=0.3)
    assert Pt.phi(np.array(0.0)) == pytest.approx(0.3, abs=1e-15)
    assert Pt.phi(np.array(1.0)) == pytest.approx(1.0, abs=1e-15)
    assert check_admissibility(Pt, 501).passed


def test_simpson_matches_adaptive_on_geodesic(P):
    # composite Simpson at the configured panel count agrees with adaptive
    # quadrature to 1e-10 on the capped integrand
    ref, _ = quad(lambda s: 2 * np.sqrt(min(float(P.v(np.array(s))), P.m_cap_v)),
                  0.0, 0.7, epsabs=1e-13, limit=200)
    assert geodesic_transform("V", P, 0.7) == pytest.approx(ref, abs=1e-10)
