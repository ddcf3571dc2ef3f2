import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from phasefrac import energy, recovery
from phasefrac.energy import ElasticModel, diffuse_energy
from phasefrac.fields import Grid
from phasefrac.harness import SweepPlan, gamma_sweep
from phasefrac.potentials import geodesic_transform
from phasefrac.recovery import (ProfileParams, ResolutionError,
                                WidthConditionError, build_profile, build_recovery,
                                profile_energy_1d, smoothstep)
from phasefrac.sharp import (Polygon, SegmentSet, SharpGeometry1D, SharpGeometry2D,
                             affine_displacement, piecewise_rigid_displacement,
                             sharp_energy_1d, zero_displacement)


def flat(s):
    return np.zeros_like(np.asarray(s, dtype=float))


def test_params_validation(P):
    with pytest.raises(ValueError):
        ProfileParams(flat, 0.0, 1.0)
    with pytest.raises(ValueError):
        ProfileParams(flat, 1.0, 1.0)
    with pytest.raises(ValueError):
        geodesic_transform("Q", P, 0.5)


def test_zeta_basics(P):
    pp = ProfileParams(P.v, 0.5, 1.0)
    assert build_profile(pp).zeta(0.0) == 0.0
    # f == 0, lam = 1: integrand is identically 1
    prof = build_profile(ProfileParams(flat, 1.0 - 1e-12, 1.0))
    assert prof.zeta(1.0) == pytest.approx(1.0, rel=1e-9)


def test_zeta_against_adaptive_quadrature(P):
    lam = 1e-4
    pp = ProfileParams(P.v, lam, 1.0)
    oracle, _ = quad(lambda t: 1.0 / np.sqrt(lam + (1 - t) ** 2), 0, 1, epsabs=1e-12)
    assert build_profile(pp).zeta(1.0) == pytest.approx(oracle, abs=1e-8)
    assert build_profile(pp).zeta(1.0) == pytest.approx(np.arcsinh(1 / np.sqrt(lam)), abs=1e-8)


def test_zeta_width_cap(P):
    for lam in (1e-4, 0.04, 0.5):
        prof = build_profile(ProfileParams(P.w, lam, 0.01))
        assert prof.width <= 0.01 / np.sqrt(lam) * (1 + 1e-12)


def test_g_profile_endpoints_and_roundtrip(P):
    prof = build_profile(ProfileParams(P.w, 1e-4, 0.01))
    assert prof.g(-1.0) == 0.0
    assert prof.g(prof.width) == 1.0
    assert prof.g(prof.width + 1.0) == 1.0
    s = np.linspace(0.0, 1.0, 513)
    assert np.abs(prof.g(prof.zeta(s)) - s).max() <= 1e-9
    mid = prof.zeta(0.5)
    assert prof.g(mid) == pytest.approx(0.5, abs=1e-9)


def test_profile_strictly_increasing(P):
    prof = build_profile(ProfileParams(P.v, 0.01, 0.1))
    assert np.all(np.diff(prof.zeta_nodes) > 0)
    r = np.linspace(0, prof.width, 200)
    assert np.all(np.diff(prof.g(r)) >= 0)


def test_profile_energy_w_bound(P):
    lam = 1e-4
    pp = ProfileParams(P.w, lam, 2.0 ** -8)
    val = profile_energy_1d(pp)
    oracle, _ = quad(lambda s: (2 * s ** 2 * (1 - s) ** 2 + lam)
                     / np.sqrt(lam + s ** 2 * (1 - s) ** 2), 0, 1, epsabs=1e-12)
    assert val == pytest.approx(oracle, abs=1e-9)
    assert (1 / 3) * 0.5 * 0.99 < val <= 1 / 3 + 2 * np.sqrt(lam) + 1e-6


def test_profile_energy_v_closed_form(P):
    # for V = (1-s)^2 the transition energy is exactly sqrt(1 + lam)
    for lam in (1e-4, 1e-2, 0.25):
        val = profile_energy_1d(ProfileParams(P.v, lam, 0.37))
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


def test_a_recovery_refuses_a_grid_of_another_dimension(P):
    geometry = SharpGeometry1D((0.0, 1.0), crack_points=(0.5,), c_pieces=(0, 0),
                               u_pieces=((0.0, 0.0), (0.0, 0.1)))
    grid = Grid((0.0, 0.0), (1.0, 1.0), (64, 64))
    with pytest.raises(ValueError, match="^grid and geometry dimensions differ$"):
        recovery.RecoveryBands(geometry, 0.05, 0.1, 1e-4, grid, P, enforce_width=False)


def test_a_displacement_without_corners_prove_proves_no_slab(P):
    # criterion 05's polygon and segment with u = 0: the zero displacement
    # proves the slabs far from both, and the same u without `corners_prove`
    # proves none, though its corners agree; the energy keeps its bits
    grid = Grid((0.0, 0.0), (1.0, 1.0), (256, 256))
    halos = [halo for halo, _ in energy._slabs(grid)]
    M = ElasticModel(e0=0.2 * np.eye(2))
    proofs, energies = [], []
    for u_spec in (zero_displacement(2),
                   dataclasses.replace(zero_displacement(2), corners_prove=None)):
        geometry = SharpGeometry2D(
            (0.0, 0.0), (1.0, 1.0),
            polygon=Polygon([(0.5, 0.0), (1.0, 0.0), (1.0, 1.0), (0.5, 1.0)]),
            segments=SegmentSet([[[0.5, 0.25], [0.5, 0.75]]]), u_spec=u_spec)
        bands = recovery.RecoveryBands(geometry, 2.0 ** -5, 0.018, 1e-4, grid, P,
                                       enforce_width=False)
        proofs.append([key is not None for key in bands._prove(halos)])
        e = diffuse_energy(bands, P, M)
        energies.append((e.e_phase.hex(), e.e_elastic.hex(), e.e_crack.hex(), e.clamped_cells))
    assert any(proofs[0]) and not any(proofs[1])
    assert energies[0] == energies[1]


def test_recovery_empty_geometry(P):
    g = SharpGeometry1D((0.0, 1.0))
    grid = Grid((0.0,), (1.0,), (128,))
    st = build_recovery(g, 0.05, 0.1, 0.1, grid, P, enforce_width=True)
    assert np.all(st.c.values == 0.0)
    assert np.all(st.u.values == 0.0)
    assert np.all(st.z.values == 1.0)


def test_recovery_phase_only_profile(P, elastic_1d_free):
    g = SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), c_pieces=(0, 1),
                        u_pieces=((0.0, 0.0), (0.0, 0.0)))
    grid = Grid((0.0,), (1.0,), (4096,))
    st = build_recovery(g, 2.0 ** -6, 0.1, 0.25, grid, P, enforce_width=True)
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
    st = build_recovery(g, eps, delta, lam, grid, P, enforce_width=True)
    trans = (st.c.values > 0.01) & (st.c.values < 0.99)
    assert trans.any()
    assert st.z.values[trans].max() <= 1e-12


def test_recovery_transition_width_bound(P):
    lam, delta, eps = 0.25, 0.2, 2.0 ** -6
    g = SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), crack_points=(0.5,),
                        c_pieces=(0, 1), u_pieces=((0.0, 0.0), (0.0, 0.1)))
    grid = Grid((0.0,), (1.0,), (2 ** 12,))
    st = build_recovery(g, eps, delta, lam, grid, P, enforce_width=True)
    x = grid.centers(0)
    band = x[(st.c.values > 0.0) & (st.c.values < 1.0)]
    h = grid.spacing[0]
    assert band.size == 0 or band.max() - band.min() <= eps / np.sqrt(lam) + 2 * h


def test_recovery_width_violation_raises(P):
    g = SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), crack_points=(0.5,),
                        c_pieces=(0, 1), u_pieces=((0.0, 0.0), (0.0, 0.1)))
    grid = Grid((0.0,), (1.0,), (1024,))
    with pytest.raises(WidthConditionError):
        build_recovery(g, 2.0 ** -5, 2.0 ** -5, 1e-4, grid, P, enforce_width=True)
    st = build_recovery(g, 2.0 ** -5, 2.0 ** -5, 1e-4, grid, P, enforce_width=False)
    assert st.z.values.min() >= 0.0
    # the flag has no default here: SweepPlan owns it
    with pytest.raises(TypeError, match="enforce_width"):
        build_recovery(g, 2.0 ** -5, 2.0 ** -5, 1e-4, grid, P)


def test_recovery_unresolvable_raises(P):
    g = SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), c_pieces=(0, 1),
                        u_pieces=((0.0, 0.0), (0.0, 0.0)))
    grid = Grid((0.0,), (1.0,), (64,))
    with pytest.raises(ResolutionError):
        build_recovery(g, 2.0 ** -9, 0.1, 0.25, grid, P, enforce_width=True)


def test_recovery_u_outside_tube_matches_sharp(P):
    lam, delta, eps = 0.25, 0.2, 2.0 ** -6
    g = SharpGeometry1D((0.0, 1.0), crack_points=(0.5,), c_pieces=(0, 0),
                        u_pieces=((0.0, 0.0), (0.0, 0.3)))
    grid = Grid((0.0,), (1.0,), (2 ** 12,))
    st = build_recovery(g, eps, delta, lam, grid, P, enforce_width=True)
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


def _reference_g(prof, r):
    """The full-array profile evaluation the banded one replaced."""
    r = np.asarray(r, dtype=float)
    idx = np.clip(np.searchsorted(prof.zeta_nodes, r, side="right"),
                  1, len(prof.zeta_nodes) - 1)
    z0, z1 = prof.zeta_nodes[idx - 1], prof.zeta_nodes[idx]
    s0, s1 = prof.s_nodes[idx - 1], prof.s_nodes[idx]
    out = np.clip(s0 + (r - z0) / (z1 - z0) * (s1 - s0), 0.0, 1.0)
    out = np.where(r <= 0.0, 0.0, np.where(r >= prof.width, 1.0, out))
    return float(out) if out.ndim == 0 else out


def test_profile_g_bitwise_against_reference(P):
    prof = build_profile(ProfileParams(P.w, 1e-4, 0.05))
    w = prof.width
    rng = np.random.default_rng(21)
    r = np.concatenate([rng.uniform(-0.5 * w, 1.5 * w, 50000), prof.zeta_nodes,
                        [0.0, -0.0, w, np.nextafter(w, 0.0), np.inf, -np.inf, np.nan]])
    got = prof.g(r)
    assert got.dtype == float and got.shape == r.shape
    assert np.array_equal(got, _reference_g(prof, r), equal_nan=True)
    assert np.array_equal(prof.g(r[:50000].reshape(100, 500)), got[:50000].reshape(100, 500))
    assert prof.g(np.empty(0)).shape == (0,)
    for x in (0.3 * w, 0.0, w, -1.0, np.inf):
        value = prof.g(x)
        assert type(value) is float and value == _reference_g(prof, x)


def test_plateau_values_are_exact_bits(P):
    # build_recovery writes these constants, not the profiles' values, on a
    # tile far from every transition: a change to either must show here
    def bits(values):
        return np.asarray(values, dtype=float).view(np.uint64)

    for f in (P.w, P.v):
        prof = build_profile(ProfileParams(f, 1e-4, 0.03))
        w = prof.width
        low = [0.0, -0.0, -5e-324, -w, -1e300, -np.inf]
        high = [w, np.nextafter(w, np.inf), 2.0 * w, 1e300, np.inf]
        assert np.array_equal(bits(prof.g(np.array(low))), bits(np.zeros(len(low))))
        assert np.array_equal(bits(prof.g(np.array(high))), bits(np.ones(len(high))))
        assert np.array_equal(bits([prof.g(r) for r in low + high]),
                              bits([0.0] * len(low) + [1.0] * len(high)))
    t = np.array([1.0, np.nextafter(1.0, 2.0), 1.5, 1e300, np.inf])
    assert np.array_equal(bits(smoothstep(t)), bits(np.ones(len(t))))
    u = np.array([[-0.0, 0.0], [5e-324, -1e300], [0.1, -0.3]])
    assert np.array_equal(bits(u * smoothstep(t[:3])[:, None]), bits(u))


_NOTCHED = [(0.2, 0.2), (0.9, 0.2), (0.9, 0.9), (0.2, 0.9), (0.2, 0.51), (0.42, 0.51),
            (0.42, 0.49), (0.2, 0.49)]


def _blocking_cases():
    box = ((0.0, 0.0), (1.0, 1.0))
    poly = Polygon([(0.31, 0.17), (0.83, 0.17), (0.77, 0.69), (0.41, 0.88)])
    segs = SegmentSet([[[0.83, 0.1], [0.83, 0.9]], [[0.12, 0.23], [0.61, 0.94]]])
    rigid = piecewise_rigid_displacement((0.83, 0.5), (0.0, 1.0), (0.01, 0.02),
                                         (-0.03, 0.0), 0.1, -0.2)
    affine = affine_displacement([[0.3, -0.1], [0.2, 0.05]], [0.01, -0.02])
    grid2 = Grid(box[0], box[1], (50, 37))  # no tile side below divides 50 or 37
    sides = (3, 7, 13, 16)
    # criterion 05's geometry on 64^2: tiles of side 4, 8 or 16 meet at the
    # phase boundary x = 0.5 and at the crack tips (0.5, 0.25) and (0.5, 0.75)
    tips = piecewise_rigid_displacement((0.5, 0.5), (0.0, 1.0), (0.002, 0.0), (-0.002, 0.0))
    return {
        "phase+crack": (SharpGeometry2D(*box, polygon=poly, segments=segs, u_spec=rigid),
                        grid2, sides),
        "phase": (SharpGeometry2D(*box, polygon=poly, u_spec=affine), grid2, sides),
        "crack": (SharpGeometry2D(*box, segments=segs, u_spec=rigid), grid2, sides),
        "empty": (SharpGeometry2D(*box, u_spec=affine), grid2, sides),
        "tile corners": (SharpGeometry2D(*box, polygon=Polygon([(0.5, 0.0), (1.0, 0.0),
                                                                  (1.0, 1.0), (0.5, 1.0)]),
                                         segments=SegmentSet([[[0.5, 0.25], [0.5, 0.75]]]),
                                         u_spec=tips),
                         Grid(box[0], box[1], (64, 64)), (4, 8, 16)),
        # a square with a notch: for side 16 the notch's edges enter the box of
        # the tile of cells 16:32 x 16:32, whose corners and middle lie in A
        "notch": (SharpGeometry2D(*box, polygon=Polygon(_NOTCHED), u_spec=affine), grid2, sides),
        "1d": (SharpGeometry1D((0.0, 1.0), phase_points=(0.3,), crack_points=(0.6,),
                               c_pieces=(0, 1, 1),
                               u_pieces=((0.1, 0.0), (0.1, 0.0), (0.1, 0.2))),
               Grid((0.0,), (1.0,), (2500,)), (1000, 333, 77)),
    }


@pytest.mark.parametrize("case", ["phase+crack", "phase", "crack", "empty", "tile corners",
                                  "notch", "1d"])
def test_blocked_recovery_matches_one_block_bitwise(P, monkeypatch, case):
    geometry, grid, sides = _blocking_cases()[case]
    centers = [grid.centers(a) for a in range(grid.dim)]
    # the cells whose centres each distance was evaluated at, per build
    seen = {"phase_distance": np.zeros(grid.cells, dtype=bool),
            "crack_distance": np.zeros(grid.cells, dtype=bool)}

    def recorded(name):
        method = getattr(type(geometry), name)

        def wrapper(self, *axes):
            coords = [x.reshape(-1) for x in np.broadcast_arrays(*axes)]
            index = [np.minimum(np.searchsorted(x, p), len(x) - 1) for x, p in zip(centers, coords)]
            hit = np.logical_and.reduce([x[i] == p for x, i, p in zip(centers, index, coords)])
            seen[name][tuple(i[hit] for i in index)] = True
            return method(self, *axes)
        return wrapper

    for name in seen:
        monkeypatch.setattr(type(geometry), name, recorded(name))

    def build(side):
        for mask in seen.values():
            mask[...] = False
        monkeypatch.setattr(recovery, "_BLOCK", side ** grid.dim)
        return build_recovery(geometry, 0.05, 0.1, 0.25, grid, P, enforce_width=False)

    whole = build(max(grid.cells))
    assert recovery._tiles(grid.cells) == [tuple(slice(0, m) for m in grid.cells)]
    plateaus = set()
    for side in sides:
        st = build(side)
        assert side < max(grid.cells)
        assert all(m % side for m in grid.cells) != (case == "tile corners")
        for name in ("c", "u", "z"):
            got, want = getattr(st, name).values, getattr(whole, name).values
            assert got.shape == want.shape and not got.flags.writeable
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (side, name)
        c, z = st.c.values, st.z.values
        skipped_c, skipped_z = ~seen["phase_distance"], ~seen["crack_distance"]
        assert skipped_c.all() == (not geometry.has_phase())
        assert skipped_z.all() == (not geometry.has_crack())
        if geometry.has_phase():
            plateaus |= {"c = 1"} if (skipped_c & (c == 1.0)).any() else set()
            plateaus |= {"c = 0"} if (skipped_c & (c == 0.0)).any() else set()
        if geometry.has_crack():
            plateaus |= {"z = 1"} if (skipped_z & (z == 1.0)).any() else set()
        if case == "tile corners":
            # the tiles in A, x > 0.5, are 1/128 or more from every edge of A
            # (three of them on the domain's boundary): none takes a distance
            assert not seen["phase_distance"][grid.cells[0] // 2:].any(), side
    # each plateau of each transition was taken by some tile
    assert plateaus == ({"c = 1", "c = 0"} if geometry.has_phase() else set()) | \
        ({"z = 1"} if geometry.has_crack() else set())
    c, z = whole.c.values, whole.z.values
    if case == "notch":
        tile = (slice(16, 32), slice(16, 32))
        first = np.array([[centers[0][16], centers[1][16]]])
        last = np.array([[centers[0][31], centers[1][31]]])
        box = [(x, y) for x in (first[0, 0], last[0, 0]) for y in (first[0, 1], last[0, 1])]
        assert geometry.polygon.contains(*np.array(box + [0.5 * (first[0] + last[0])]).T).all()
        assert geometry.phase_boundary_box_distance(first, last)[0] == 0.0
        assert (c[tile] < 1.0).any()
    assert (0.0 < c.max()) == geometry.has_phase()
    assert (z.min() < 1.0) == geometry.has_crack()


# Symmetries of the domain that the recovery tiles and the energy slabs must
# respect: a swap of the axes gives the transposed arrays bit for bit, and a
# mirror of a 1D sweep moves no term but the elastic one beyond rounding.

def _criterion_05(swap: bool) -> SharpGeometry2D:
    """Criterion 05's geometry, or its reflection across the diagonal y = x:
    the rigid motions trade sides of the crack line, and their components
    trade places."""
    def sw(p):
        return tuple(p[::-1]) if swap else tuple(p)
    plus, minus = (0.002, 0.0), (-0.002, 0.0)
    if swap:
        plus, minus = minus, plus
    return SharpGeometry2D(
        (0.0, 0.0), (1.0, 1.0),
        polygon=Polygon([sw(p) for p in ((0.5, 0.0), (1.0, 0.0), (1.0, 1.0), (0.5, 1.0))]),
        segments=SegmentSet([[sw((0.5, 0.25)), sw((0.5, 0.75))]]),
        u_spec=piecewise_rigid_displacement(sw((0.5, 0.5)), sw((0.0, 1.0)), sw(plus),
                                            sw(minus)))


@pytest.mark.parametrize("eps", [2.0 ** -5, 2.0 ** -6])
def test_axis_swap_transposes_the_recovery_and_keeps_each_term(P, elastic_2d_free, eps):
    delta, lam = 0.18 * eps ** (2.0 / 3.0), 1e-4
    states = [build_recovery(g, eps, delta, lam, g.grid(cells), P, enforce_width=False)
              for g, cells in ((_criterion_05(False), (300, 200)),
                               (_criterion_05(True), (200, 300)))]
    (c, z, u), (c_t, z_t, u_t) = [(s.c.values, s.z.values, s.u.values) for s in states]

    def same_bits(a, b):
        return np.array_equal(a.view(np.uint64), np.ascontiguousarray(b).view(np.uint64))
    assert same_bits(c_t, c.T) and same_bits(z_t, z.T)
    assert same_bits(u_t[..., 0], u[..., 1].T) and same_bits(u_t[..., 1], u[..., 0].T)
    assert (z < 1.0).any() and (0.0 < c).any() and (u[..., 0] != 0.0).any()
    energies = [diffuse_energy(s, P, elastic_2d_free) for s in states]
    for term in ("e_phase", "e_elastic", "e_crack"):
        a, b = (getattr(e, term) for e in energies)
        assert a > 0.0 and abs(a - b) <= 1e-14 * a, term


def _pieces_1d(mirror: bool) -> SharpGeometry1D:
    """The seven-piece 1D geometry of `tools/same_outputs.py`'s
    SWEEP_1D_PIECES, or its mirror x -> 1 - x, with u mirrored as a vector,
    u'(x) = -u(1 - x): on each piece the slope stays and the offset o turns
    into -(slope + o)."""
    phase, crack = (0.2, 0.35, 0.6, 0.8), (0.45, 0.7)
    c = (0, 1, 0, 0, 1, 1, 0)
    u = tuple((0.02, o) for o in (0.0, 0.0, 0.0, 0.01, 0.01, -0.005, -0.005))
    if mirror:
        phase, crack = (tuple(1.0 - p for p in pts) for pts in (phase, crack))
        c, u = c[::-1], tuple((s, -(s + o)) for s, o in u[::-1])
    return SharpGeometry1D((0.0, 1.0), phase_points=phase, crack_points=crack,
                           c_pieces=c, u_pieces=u)


def test_mirror_keeps_the_1d_sweep_terms(P):
    # e_elastic is left out: the unresolved displacement layer depends on the
    # values of u at the cracks, not only on its jump (ROADMAP item 16)
    M = ElasticModel(e0=np.array([[0.5]]))
    tables = [gamma_sweep(SweepPlan(_pieces_1d(mirror), (2.0 ** -7, 2.0 ** -8),
                                    cells=(1 << 18,)), P, M) for mirror in (False, True)]
    assert tables[0].e_sharp == tables[1].e_sharp
    for row, mirrored in zip(tables[0].rows, tables[1].rows):
        assert row.status == mirrored.status == "ok"
        for term in ("e_phase", "e_crack"):
            a, b = getattr(row.energy, term), getattr(mirrored.energy, term)
            assert a > 0.0 and abs(a - b) <= 1e-14 * a, term
