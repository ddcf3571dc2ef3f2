import dataclasses
import math

import numpy as np
import pytest

from phasefrac.energy import ElasticModel
from phasefrac.fields import Grid, sym_planes
from phasefrac.potentials import make_default_potentials
from phasefrac.recovery import _tiles
from phasefrac.sharp import (GeometryError, Polygon, SegmentSet, SharpGeometry1D,
                             SharpGeometry2D, _point_segment_distance,
                             affine_displacement, distance_field,
                             minkowski_content_estimate,
                             piecewise_rigid_displacement, quadratic_displacement,
                             sharp_energy, sharp_energy_1d, sharp_energy_2d,
                             skew_affine_displacement, zero_displacement)

RIGHT_HALF = [(0.5, 0.0), (1.0, 0.0), (1.0, 1.0), (0.5, 1.0)]
MID_SEGMENT = [[[0.5, 0.25], [0.5, 0.75]]]


def test_1d_phase_interface_only(P, elastic_1d):
    g = SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), c_pieces=(0, 1),
                        u_pieces=((0.0, 0.0), (1.0, -0.5)))
    b = sharp_energy_1d(g, P, elastic_1d)
    assert b.e_elastic == pytest.approx(0.0, abs=1e-15)
    assert b.e_total == pytest.approx(1 / 3, abs=1e-10)


def test_1d_coincident_charges_crack_only(P, elastic_1d_free):
    g = SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), crack_points=(0.5,),
                        c_pieces=(0, 1), u_pieces=((0.0, 0.0), (0.0, 0.3)))
    assert sharp_energy_1d(g, P, elastic_1d_free).e_total == pytest.approx(2.0, abs=1e-10)


def test_1d_disjoint_counts_both(P, elastic_1d_free):
    g = SharpGeometry1D((0.0, 1.0), phase_points=(0.75,), crack_points=(0.25,),
                        c_pieces=(0, 0, 1),
                        u_pieces=((0.0, 0.0), (0.0, 0.1), (0.0, 0.1)))
    assert sharp_energy_1d(g, P, elastic_1d_free).e_total == \
        pytest.approx(2 + 1 / 3, abs=1e-10)


def test_1d_coincidence_exclusion_amount(P, elastic_1d_free):
    apart = SharpGeometry1D((0.0, 1.0), phase_points=(0.7,), crack_points=(0.3,),
                            c_pieces=(0, 0, 1),
                            u_pieces=((0.0, 0.0), (0.0, 0.1), (0.0, 0.1)))
    onto = SharpGeometry1D((0.0, 1.0), phase_points=(0.3,), crack_points=(0.3,),
                           c_pieces=(0, 1), u_pieces=((0.0, 0.0), (0.0, 0.1)))
    drop = sharp_energy_1d(apart, P, elastic_1d_free).e_total - \
        sharp_energy_1d(onto, P, elastic_1d_free).e_total
    assert drop == pytest.approx(1 / 3, abs=1e-10)


def test_1d_theta_mode_residual(elastic_1d_free):
    Pt = make_default_potentials(theta=0.3)
    apart = SharpGeometry1D((0.0, 1.0), phase_points=(0.7,), crack_points=(0.3,),
                            c_pieces=(0, 0, 1),
                            u_pieces=((0.0, 0.0), (0.0, 0.1), (0.0, 0.1)))
    onto = SharpGeometry1D((0.0, 1.0), phase_points=(0.3,), crack_points=(0.3,),
                           c_pieces=(0, 1), u_pieces=((0.0, 0.0), (0.0, 0.1)))
    drop = sharp_energy_1d(apart, Pt, elastic_1d_free).e_total - \
        sharp_energy_1d(onto, Pt, elastic_1d_free).e_total
    assert drop == pytest.approx((1 - 0.3) / 3, abs=1e-10)


def test_1d_elastic_piecewise_exact(P):
    M = ElasticModel(lame_lambda=0.0, lame_mu=0.5, e0=np.array([[2.0]]))
    g = SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), c_pieces=(0, 1),
                        u_pieces=((1.0, 0.0), (0.0, 0.5)))
    # pieces: (u' - c e0)^2 -> (1)^2 on (0, 1/2), (0 - 2)^2 on (1/2, 1)
    b = sharp_energy_1d(g, P, M)
    assert b.e_elastic == pytest.approx(0.5 * 1.0 + 0.5 * 4.0, abs=1e-12)


def test_1d_validation_errors():
    with pytest.raises(GeometryError):
        SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), c_pieces=(0, 0),
                        u_pieces=((0.0, 0.0), (0.0, 0.0)))  # c does not jump
    with pytest.raises(GeometryError):
        SharpGeometry1D((0.0, 1.0), crack_points=(1.5,), c_pieces=(0, 0),
                        u_pieces=((0.0, 0.0), (0.0, 0.0)))  # exterior point
    with pytest.raises(GeometryError):
        SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), c_pieces=(0, 1),
                        u_pieces=((0.0, 0.0), (0.0, 0.5)))  # u jumps off-crack


@pytest.mark.parametrize("points,c_pieces,fault", [
    ({"phase_points": (0.5, 0.5)}, (0, 1), "phase points 0.5 and 0.5"),
    ({"crack_points": (0.3, 0.3 + 1e-10)}, (0, 0), "crack points 0.3 and 0.3000000001")])
def test_1d_repeated_point_is_refused(points, c_pieces, fault):
    # the energy counts points, so a repeated one was charged twice (e_phase
    # 2/3 for the phase points here, against 1/3 for one); breakpoints merge
    # them, so the pieces are those of a single point
    with pytest.raises(GeometryError, match=f"{fault} coincide within the tolerance"):
        SharpGeometry1D((0.0, 1.0), c_pieces=c_pieces, u_pieces=((0.0, 0.0),) * 2, **points)


def test_1d_near_coincidence_warns():
    with pytest.warns(UserWarning, match="near-coincident"):
        SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), crack_points=(0.5 + 1e-7,),
                        c_pieces=(0, 1, 1),
                        u_pieces=((0.0, 0.0), (0.0, 0.0), (0.0, 0.2)))


def test_2d_half_square_boundary_in_open_box(P, elastic_2d_free):
    g = SharpGeometry2D((0.0, 0.0), (1.0, 1.0), polygon=Polygon(RIGHT_HALF))
    b = sharp_energy_2d(g, P, elastic_2d_free)
    # only the dividing segment counts; box-boundary edges carry no length
    assert b.e_total == pytest.approx(1 / 3, abs=1e-10)


def test_2d_overlap_case(P, elastic_2d_free):
    g = SharpGeometry2D((0.0, 0.0), (1.0, 1.0), polygon=Polygon(RIGHT_HALF),
                        segments=SegmentSet(MID_SEGMENT),
                        u_spec=piecewise_rigid_displacement(
                            (0.5, 0.5), (0.0, 1.0), (0.002, 0.0), (-0.002, 0.0)))
    b = sharp_energy_2d(g, P, elastic_2d_free)
    assert b.e_phase == pytest.approx((1 / 3) * 0.5, abs=1e-10)
    assert b.e_crack == pytest.approx(2.0 * 0.5, abs=1e-12)
    assert b.e_elastic == 0.0
    assert b.e_total == pytest.approx(7 / 6, abs=1e-10)


def test_2d_empty_zero(P, elastic_2d_free):
    g = SharpGeometry2D((0.0, 0.0), (1.0, 1.0))
    assert sharp_energy_2d(g, P, elastic_2d_free).e_total == 0.0


def test_2d_affine_elastic_exact_areas(P):
    M = ElasticModel(lame_lambda=0.2, lame_mu=0.5, e0=np.array([[1.0, 0.0], [0.0, 0.0]]))
    F = np.array([[0.3, 0.0], [0.0, 0.1]])
    g = SharpGeometry2D((0.0, 0.0), (1.0, 1.0), polygon=Polygon(RIGHT_HALF),
                        u_spec=affine_displacement(F))
    b = sharp_energy_2d(g, P, M)
    q_in = M.form(sym_planes(0.5 * (F + F.T) - M.e0, 2, "strain"))
    q_out = M.form(sym_planes(0.5 * (F + F.T), 2, "strain"))
    assert b.e_elastic == pytest.approx(0.5 * q_in + 0.5 * q_out, rel=1e-12)


def test_sharp_energies_refuse_e0_of_another_dimension(P):
    # broadcast, a 1x1 e0 would act as the all-ones matrix in 2D (2.0 here
    # instead of 1.0)
    g2 = SharpGeometry2D((0.0, 0.0), (1.0, 1.0), polygon=Polygon(RIGHT_HALF))
    assert sharp_energy_2d(g2, P, ElasticModel(e0=np.eye(2))).e_elastic == \
        pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match=r"e0 has shape \(1, 1\), but a 2D grid needs \(2, 2\)"):
        sharp_energy_2d(g2, P, ElasticModel(e0=np.array([[1.0]])))
    g1 = SharpGeometry1D((0.0, 1.0), phase_points=(0.5,), c_pieces=(0, 1),
                         u_pieces=((0.0, 0.0), (0.0, 0.0)))
    with pytest.raises(ValueError, match=r"e0 has shape \(2, 2\), but a 1D grid needs \(1, 1\)"):
        sharp_energy_1d(g1, P, ElasticModel(e0=np.eye(2)))


def test_2d_crack_scaling(P, elastic_2d_free):
    segs1 = SegmentSet([[[0.2, 0.3], [0.2, 0.6]], [[0.6, 0.1], [0.9, 0.1]]])
    segs2 = SegmentSet(2.0 * segs1.endpoints)
    g1 = SharpGeometry2D((0.0, 0.0), (2.0, 2.0), segments=segs1)
    g2 = SharpGeometry2D((0.0, 0.0), (2.0, 2.0), segments=segs2)
    assert sharp_energy_2d(g2, P, elastic_2d_free).e_crack == \
        pytest.approx(2.0 * sharp_energy_2d(g1, P, elastic_2d_free).e_crack, rel=1e-12)


def test_polygon_self_intersection_rejected():
    with pytest.raises(GeometryError):
        Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])


@pytest.mark.parametrize("segments,length", [
    ([[[0.5, 0.0], [0.5, 1.0]], [[0.5, 0.0], [0.5, 1.0]]], "1"),
    ([[[0.5, 0.0], [0.5, 0.6]], [[0.5, 1.0], [0.5, 0.4]]], "0.2"),
    ([[[0.1, 0.1], [0.2, 0.2]], [[0.6, 0.1], [0.9, 0.1]], [[0.3, 0.1], [0.7, 0.1]]], "0.1")])
def test_2d_overlapping_crack_segments_are_refused(segments, length):
    # the crack energy sums the lengths, so an overlap was charged twice
    pair = "2 and 3" if len(segments) == 3 else "1 and 2"
    with pytest.raises(GeometryError, match=f"crack segments {pair} overlap along a "
                                            f"length of {length}$"):
        SharpGeometry2D((0.0, 0.0), (1.0, 1.0), segments=SegmentSet(segments))


def test_2d_crossing_or_touching_crack_segments_are_allowed(P, elastic_2d_free):
    for segments in ([[[0.5, 0.0], [0.5, 1.0]], [[0.0, 0.5], [1.0, 0.5]]],
                     [[[0.5, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.5, 1.0]]]):
        g = SharpGeometry2D((0.0, 0.0), (1.0, 1.0), segments=SegmentSet(segments))
        assert sharp_energy_2d(g, P, elastic_2d_free).e_crack == \
            pytest.approx(2.0 * SegmentSet(segments).total_length(), rel=1e-12)


def test_affine_displacement_refuses_a_matrix_other_than_2x2():
    # a 3x3 matrix used to give a three-plane strain, e_elastic 2.0 on the box
    for f in (np.eye(3), np.eye(1)):
        with pytest.raises(ValueError, match=r"affine_matrix has shape .*, but a 2D grid "
                                             r"needs \(2, 2\)"):
            affine_displacement(f)


def test_displacements_refuse_a_point_or_vector_other_than_2_values():
    # a 1-value offset used to broadcast to both components, a 3-value line_dir
    # was normalised with its third value and a 3-value u_plus was truncated
    for offset in ([1.0], [1.0, 2.0, 3.0], np.eye(2)):
        with pytest.raises(GeometryError, match=r"^offset must be 2 values, got shape"):
            affine_displacement(np.eye(2), offset)
    good = {"line_point": (0.5, 0.5), "line_dir": (0.0, 1.0), "u_plus": (0.1, 0.0),
            "u_minus": (0.0, 0.0)}
    for name in good:
        for bad in ([0.5], [0.0, 1.0, 0.5], [[0.5, 0.5]]):
            with pytest.raises(GeometryError, match=rf"^{name} must be 2 values, got shape"):
                piecewise_rigid_displacement(**dict(good, **{name: bad}))
    piecewise_rigid_displacement(**good)


def test_segments_outside_domain_rejected():
    with pytest.raises(GeometryError):
        SharpGeometry2D((0.0, 0.0), (1.0, 1.0),
                        segments=SegmentSet([[[0.5, 0.5], [1.5, 0.5]]]))


def test_polygon_outside_domain_rejected():
    # the box cuts this polygon to its right half, but the sharp energy
    # charges a polygon's whole area
    over = Polygon([(0.5, -0.5), (1.5, -0.5), (1.5, 1.5), (0.5, 1.5)])
    with pytest.raises(GeometryError, match="^polygon must lie in the closed domain$"):
        SharpGeometry2D((0.0, 0.0), (1.0, 1.0), polygon=over)
    # a vertex on the boundary, or past it by less than tol_geom, lies in it
    tol = SharpGeometry2D((0.0, 0.0), (1.0, 1.0)).tol_geom
    for past, ok in ((0.0, True), (0.5 * tol, True), (2.0 * tol, False)):
        poly = Polygon([(0.5, -past), (1.0 + past, 0.0), (1.0, 1.0), (0.5, 1.0)])
        if ok:
            SharpGeometry2D((0.0, 0.0), (1.0, 1.0), polygon=poly)
        else:
            with pytest.raises(GeometryError, match="polygon must lie"):
                SharpGeometry2D((0.0, 0.0), (1.0, 1.0), polygon=poly)


def test_replace_recomputes_tol_geom():
    # the tolerance follows the domain: 1e-9 of its length or diagonal
    wide = dataclasses.replace(SharpGeometry1D((0.0, 1.0)), domain=(0.0, 1e6))
    assert wide.tol_geom == pytest.approx(1e-3, rel=1e-12)
    box = dataclasses.replace(SharpGeometry2D((0.0, 0.0), (1.0, 1.0)), extent=(3.0, 4.0))
    assert box.tol_geom == pytest.approx(5e-9, rel=1e-12)


@pytest.mark.parametrize("origin,extent", [
    ((0.0, 0.0), (np.nan, np.nan)), ((0.0, 0.0), (1.0, np.inf)),
    ((np.nan, 0.0), (1.0, 1.0))])
def test_2d_box_must_be_finite(origin, extent):
    with pytest.raises(GeometryError, match="finite"):
        SharpGeometry2D(origin, extent)


def test_distance_field_polygon(P):
    grid = Grid((0.0, 0.0), (1.0, 1.0), (64, 64))
    d = distance_field(Polygon(RIGHT_HALF), grid).values
    x, y = grid.meshgrid()
    inside = x > 0.5
    assert np.all(d[inside] == 0.0)
    outside = x < 0.5
    assert np.abs(d[outside] - (0.5 - x[outside])).max() < 1e-12


def test_distance_field_segment_perpendicular():
    grid = Grid((0.0, 0.0), (1.0, 1.0), (64, 64))
    d = distance_field(SegmentSet(MID_SEGMENT), grid).values
    # at (3/4, 1/2) the nearest segment point is (1/2, 1/2)
    i = int((0.75 - grid.spacing[0] / 2) / grid.spacing[0])
    j = int((0.5 - grid.spacing[1] / 2) / grid.spacing[1])
    x = grid.centers(0)[i]
    assert d[i, j] == pytest.approx(abs(x - 0.5), abs=1e-12)


def test_distance_field_lipschitz():
    grid = Grid((0.0, 0.0), (1.0, 1.0), (128, 128))
    segs = SegmentSet([[[0.3, 0.2], [0.8, 0.9]]])
    d = distance_field(segs, grid).values
    for axis, h in enumerate(grid.spacing):
        assert np.abs(np.diff(d, axis=axis)).max() <= h + 1e-12


def test_distance_field_takes_a_polygon_or_a_segment_set():
    grid = Grid((0.0, 0.0), (1.0, 1.0), (8, 8))
    with pytest.raises(TypeError, match="no distance for SharpGeometry2D"):
        distance_field(SharpGeometry2D((0.0, 0.0), (1.0, 1.0)), grid)


def test_nonfinite_polygon_vertex_is_refused():
    # a NaN vertex gave a NaN phase energy; segment endpoints were already checked
    for bad in (np.nan, np.inf):
        with pytest.raises(GeometryError, match="polygon vertices must be finite"):
            Polygon([(0.5, 0.0), (1.0, 0.0), (1.0, bad), (0.5, 1.0)])


def test_a_nonfinite_sharp_energy_raises(P, elastic_1d_free):
    g = SharpGeometry1D((0.0, 1.0), crack_points=(0.5,), c_pieces=(0, 0),
                        u_pieces=((np.nan, 0.0), (0.0, 0.1)))
    with pytest.raises(ValueError, match="e_elastic must be finite and nonnegative, got nan"):
        sharp_energy(g, P, elastic_1d_free)


@pytest.mark.parametrize("geometry,cells,fault", [
    (SharpGeometry1D((0.0, 1.0)), (64, 128), r"got 2 counts \(64, 128\), expected 1"),
    (SharpGeometry1D((0.0, 1.0)), (), r"got 0 counts \(\), expected 1"),
    (SharpGeometry2D((0.0, 0.0), (1.0, 1.0)), (16, 16, 16),
     r"got 3 counts \(16, 16, 16\), expected 1 or 2")])
def test_grid_refuses_cell_counts_of_another_length(geometry, cells, fault):
    with pytest.raises(GeometryError, match=fault):
        geometry.grid(cells)


def test_grid_takes_one_count_or_one_per_axis():
    assert SharpGeometry1D((0.0, 2.0)).grid((64,)).cells == (64,)
    g2 = SharpGeometry2D((0.0, 0.0), (1.0, 1.0))
    assert g2.grid((16,)).cells == (16, 16) and g2.grid((16, 8)).cells == (16, 8)


def test_minkowski_single_segment_band(P):
    grid = Grid((0.0, 0.0), (1.0, 1.0), (1024, 1024))
    segs = SegmentSet(MID_SEGMENT)
    h = grid.spacing[0]
    for r in (1 / 8, 1 / 16, 1 / 32):
        est = minkowski_content_estimate(segs, r, grid)
        band_mid = 0.5 + np.pi * r / 2.0
        assert abs(est - band_mid) <= 4.0 * h / r * 0.5


def test_minkowski_empty_zero():
    grid = Grid((0.0, 0.0), (1.0, 1.0), (128, 128))
    assert minkowski_content_estimate(SegmentSet(np.zeros((0, 2, 2))), 0.1, grid) == 0.0


def test_minkowski_two_parallel_segments_additive():
    grid = Grid((0.0, 0.0), (1.0, 1.0), (1024, 1024))
    segs = SegmentSet([[[0.25, 0.2], [0.25, 0.5]], [[0.75, 0.3], [0.75, 0.9]]])
    r = 1 / 16
    est = minkowski_content_estimate(segs, r, grid)
    expected = 0.3 + 0.6 + np.pi * r
    assert abs(est - expected) <= 4.0 * grid.spacing[0] / r * 0.9


def test_minkowski_unresolvable_raises():
    grid = Grid((0.0, 0.0), (1.0, 1.0), (16, 16))
    with pytest.raises(ValueError, match="unresolvable"):
        minkowski_content_estimate(SegmentSet(MID_SEGMENT), 0.05, grid)


def test_sharp_energy_dispatch(P, elastic_1d_free, elastic_2d_free):
    g1 = SharpGeometry1D((0.0, 1.0))
    g2 = SharpGeometry2D((0.0, 0.0), (1.0, 1.0))
    assert sharp_energy(g1, P, elastic_1d_free).e_total == 0.0
    assert sharp_energy(g2, P, elastic_2d_free).e_total == 0.0
    with pytest.raises(TypeError):
        sharp_energy("nope", P, elastic_1d_free)


def test_quadratic_uspec_rejected_in_sharp_energy(P, elastic_2d_free):
    g = SharpGeometry2D((0.0, 0.0), (1.0, 1.0), u_spec=quadratic_displacement())
    with pytest.raises(GeometryError, match="constant strain"):
        sharp_energy_2d(g, P, elastic_2d_free)


def test_2d_tube_bound_reported(P):
    M = ElasticModel(lame_lambda=0.0, lame_mu=0.5, e0=np.zeros((2, 2)))
    F = np.array([[0.3, 0.0], [0.0, 0.1]])
    g = SharpGeometry2D((0.0, 0.0), (1.0, 1.0), segments=SegmentSet(MID_SEGMENT),
                        u_spec=affine_displacement(F))
    b = sharp_energy_2d(g, P, M)
    assert 0.0 < b.excluded_bound < 1e-8  # O(tol_geom) by construction


# The (m, 2) formulas the column kernels replaced, kept as references.

def _reference_segment_distance(pts, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        d = pts - a
        return np.sqrt(np.sum(d * d, axis=1))
    t = np.clip((pts - a) @ ab / denom, 0.0, 1.0)
    d = pts - (a + t[:, None] * ab)
    return np.sqrt(np.sum(d * d, axis=1))


def _reference_rigid(pts, p, tau, bp, bm, omega_plus, omega_minus):
    rel = pts - p
    side = rel[:, 0] * tau[1] - rel[:, 1] * tau[0]
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    spin = np.where(side[:, None] <= 0.0, omega_plus, omega_minus) * (rel @ rot.T)
    return np.where(side[:, None] <= 0.0, bp, bm) + spin


def _random_points(seed, n=20000):
    return np.random.default_rng(seed).uniform(-1.0, 2.0, (n, 2))


@pytest.mark.parametrize("kind", ["vertical", "horizontal", "degenerate"])
def test_segment_distance_bitwise_on_axis_aligned(kind):
    rng = np.random.default_rng(11)
    pts = _random_points(12)
    for _ in range(20):
        # endpoints off any binary grid, so rounding order shows
        a, b = rng.uniform(0.0, 1.0, 2), rng.uniform(0.0, 1.0, 2)
        axis = {"vertical": 0, "horizontal": 1}.get(kind)
        if axis is None:
            b = a.copy()
        else:
            b[axis] = a[axis]
        assert np.array_equal(_point_segment_distance(*pts.T, a, b),
                              _reference_segment_distance(pts, a, b))


def test_segment_distance_oblique_to_last_bits():
    rng = np.random.default_rng(13)
    pts = _random_points(14)
    for _ in range(20):
        a, b = rng.uniform(0.0, 1.0, 2), rng.uniform(0.0, 1.0, 2)
        got = _point_segment_distance(*pts.T, a, b)
        assert np.max(np.abs(got - _reference_segment_distance(pts, a, b))) <= 1e-15


def _mixed_segments(rng):
    """Four oblique, one vertical, one horizontal and one degenerate segment,
    endpoints off any binary grid."""
    a, b = rng.uniform(0.0, 1.0, (7, 2)), rng.uniform(0.0, 1.0, (7, 2))
    b[4, 0] = a[4, 0]
    b[5, 1] = a[5, 1]
    b[6] = a[6]
    return np.stack([a, b], axis=1)


def test_union_distance_is_the_per_segment_minimum_bitwise():
    # one sqrt after the minimum of the squares: a correctly rounded sqrt is
    # monotone, so the result is the minimum of the per-segment distances
    rng = np.random.default_rng(18)
    pts = _random_points(19)
    for _ in range(5):
        segs = _mixed_segments(rng)
        ref = np.min([_point_segment_distance(*pts.T, a, b) for a, b in segs], axis=0)
        assert np.array_equal(SegmentSet(segs).distance(*pts.T), ref)
    # a polygon with oblique and axis-aligned edges; points inside and outside
    x0, x1 = np.sort(rng.uniform(0.0, 1.0, 2))
    y0, y1 = np.sort(rng.uniform(0.0, 1.0, 2))
    poly = Polygon([(x0, y0), (x1, y0), (x1, y1), (0.5 * (x0 + x1), y1 + 0.3), (x0, y1)])
    pts = np.concatenate([pts, rng.uniform((x0, y0), (x1, y1), (5000, 2))])
    inside = poly.contains(*pts.T)
    assert 5000 <= np.count_nonzero(inside) < pts.shape[0]
    edges = np.min([_point_segment_distance(*pts.T, a, b) for a, b in poly.edges], axis=0)
    assert np.array_equal(poly.distance(*pts.T), np.where(inside, 0.0, edges))


def test_phase_boundary_distance_is_the_distance_to_the_jumps_of_c():
    # a box of one point gives that point's distance
    x = np.linspace(0.0, 1.0, 1001)[:, None]
    g1 = SharpGeometry1D((0.0, 1.0), phase_points=(0.3, 0.7), crack_points=(0.5,),
                         c_pieces=(0, 1, 1, 0))
    boundary = g1.phase_boundary_box_distance(x, x)
    assert np.array_equal(boundary, np.minimum(np.abs(x[:, 0] - 0.3), np.abs(x[:, 0] - 0.7)))
    outside = (x[:, 0] < 0.3) | (x[:, 0] > 0.7)  # the crack point at 0.5 is no jump of c
    assert np.array_equal(g1.phase_distance(*x.T)[outside], boundary[outside])
    assert np.array_equal(g1.crack_box_distance(x, x), np.abs(x[:, 0] - 0.5))
    assert np.array_equal(g1.crack_distance(*x.T), np.abs(x[:, 0] - 0.5))
    # an interval: 0 when it holds a jump, else the distance of its nearer end
    lo, hi = x[:-80], x[80:]
    want = np.min([np.maximum(np.maximum(lo[:, 0] - p, p - hi[:, 0]), 0.0) for p in (0.3, 0.7)],
                  axis=0)
    assert np.array_equal(g1.phase_boundary_box_distance(lo, hi), want)
    assert 0 < np.count_nonzero(want == 0.0) < len(want)
    assert np.all(SharpGeometry1D((0.0, 1.0)).phase_boundary_box_distance(x, x) == np.inf)
    pts = _random_points(19, 2000)
    poly = Polygon([(0.1, 0.2), (0.9, 0.1), (0.6, 0.8)])
    g2 = SharpGeometry2D((-1.0, -1.0), (3.0, 3.0), polygon=poly)
    edges = np.min([_point_segment_distance(*pts.T, a, b) for a, b in poly.edges], axis=0)
    assert np.array_equal(g2.phase_boundary_box_distance(pts, pts), edges)
    assert np.all(SharpGeometry2D((-1.0, -1.0), (3.0, 3.0)).phase_boundary_box_distance(pts, pts)
                  == np.inf)


def _gap(lo, hi, a, b):
    """Distance from the interval [lo, hi] to [a, b], case by case."""
    return np.where(hi < a, a - hi, np.where(lo > b, lo - b, 0.0))


def test_1d_distances_over_several_pieces_are_per_interval_minima():
    # two runs of c = 1, a crack point between them and one inside the second,
    # which splits it into two pieces: the breakpoints merge once, into bounds
    g = SharpGeometry1D((0.0, 1.0), phase_points=(0.2, 0.35, 0.6, 0.8),
                        crack_points=(0.45, 0.7), c_pieces=(0, 1, 0, 0, 1, 1, 0),
                        u_pieces=((0.02, 0.0),) * 3 + ((0.02, 0.01),) * 2
                        + ((0.02, -0.005),) * 2)
    assert g.bounds == (0.0, 0.2, 0.35, 0.45, 0.6, 0.7, 0.8, 1.0)
    rng = np.random.default_rng(5)
    x = np.sort(np.concatenate([np.linspace(0.0, 1.0, 1001), g.bounds,
                                rng.uniform(0.0, 1.0, 1000)]))
    ends = np.sort(rng.uniform(0.0, 1.0, (3000, 2)), axis=1)

    def same_bits(got, lo, hi, intervals):
        want = np.min([_gap(lo, hi, a, b) for a, b in intervals], axis=0)
        return got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    phase_points = [(p, p) for p in g.phase_points]
    crack_points = [(p, p) for p in g.crack_points]
    # degenerate boxes (points), then boxes of random lengths
    for lo, hi in ((x, x), (ends[:, 0], ends[:, 1])):
        assert same_bits(g.phase_boundary_box_distance(lo[:, None], hi[:, None]), lo, hi,
                         phase_points)
        assert same_bits(g.crack_box_distance(lo[:, None], hi[:, None]), lo, hi, crack_points)
    assert same_bits(g.phase_distance(x), x, x, [(0.2, 0.35), (0.6, 0.7), (0.7, 0.8)])
    assert same_bits(g.crack_distance(x), x, x, crack_points)
    pts = np.array([0.1, 0.5, 0.75, 0.9])
    assert np.array_equal(g.u_values(pts)[:, 0],
                          0.02 * pts + np.array([0.0, 0.01, -0.005, -0.005]))


def _box_distance_by_samples(seg, lo, hi, n):
    """The least distance from n evenly spaced points of the segment to each
    box [lo, hi]: at most half a spacing above the exact distance."""
    t = np.linspace(0.0, 1.0, n)[:, None]
    pts = (1.0 - t) * seg[0] + t * seg[1]
    gap = np.maximum(np.maximum(lo[:, None, :] - pts, pts - hi[:, None, :]), 0.0)
    return np.sqrt(np.sum(gap * gap, axis=2)).min(axis=1)


def test_box_distance_is_the_distance_from_a_box_to_the_segments():
    rng = np.random.default_rng(23)
    lo = rng.uniform(-0.2, 1.0, (300, 2))
    hi = lo + rng.uniform(0.0, 0.4, (300, 2)) * (rng.uniform(size=(300, 1)) > 0.1)
    n = 4001
    for _ in range(3):
        segs = _mixed_segments(rng)
        sampled = [_box_distance_by_samples(seg, lo, hi, n) for seg in segs]
        for seg, want in zip(segs, sampled):
            got = SegmentSet(seg).box_distance(lo, hi)
            spacing = float(np.linalg.norm(seg[1] - seg[0])) / (n - 1)
            assert np.all(got <= want + 1e-12) and np.all(want - got <= 0.5 * spacing + 1e-12)
            assert 0 < np.count_nonzero(got == 0.0) < len(lo)
        assert np.array_equal(SegmentSet(segs).box_distance(lo, hi), np.min(
            [SegmentSet(seg).box_distance(lo, hi) for seg in segs], axis=0))
    # segments that cross the box with both ends and every corner off them,
    # touch a corner, run along a face or are a point inside; then two off
    # the box, nearest a face and nearest a corner
    box = (np.array([[0.25, 0.25]]), np.array([[0.5, 0.75]]))
    cases = [(((0.0, 0.4), (1.0, 0.6)), 0.0), (((0.5, 0.75), (0.9, 0.9)), 0.0),
             (((0.3, 0.25), (0.4, 0.25)), 0.0), (((0.3, 0.3), (0.3, 0.3)), 0.0),
             (((0.6, 0.0), (0.6, 1.0)), 0.1), (((0.0, 1.0), (0.5, 1.5)), 0.5 / np.sqrt(2.0))]
    for seg, want in cases:
        assert SegmentSet([seg]).box_distance(*box)[0] == pytest.approx(want, abs=1e-15), seg
    assert np.all(SegmentSet(np.zeros((0, 2, 2))).box_distance(lo, hi) == np.inf)


def test_segment_set_empty_is_infinite():
    d = SegmentSet(np.zeros((0, 2, 2))).distance(*_random_points(15, 5).T)
    assert d.shape == (5,) and np.all(d == np.inf)


@pytest.mark.parametrize("omega_plus,omega_minus", [(0.0, 0.0), (0.3, -0.7), (-1.5, 2.25)])
def test_piecewise_rigid_bitwise(omega_plus, omega_minus):
    rng = np.random.default_rng(16)
    pts = _random_points(17)
    p, tau = rng.uniform(0.0, 1.0, 2), rng.normal(size=2)
    bp, bm = rng.normal(size=2), rng.normal(size=2)
    spec = piecewise_rigid_displacement(p, tau, bp, bm, omega_plus, omega_minus)
    ref = _reference_rigid(pts, p, tau / np.linalg.norm(tau), bp, bm,
                           omega_plus, omega_minus)
    assert np.array_equal(spec.u_at(*pts.T), ref)


_HALF = 127.5 / 256  # the cell centre at a corner of the first 128^2 tile of 256^2
# cells, line point, line direction, (u_plus, u_minus), (omega_plus, omega_minus),
# (one-side tiles, tiles taking the per-cell test); the domain is the unit
# square, or 1.5 x 1 on 300 x 200 cells
RIGID_TILE_CASES = {
    # the sweep_2d line x = 0.5, on a seam between tiles
    "seam": ((1024, 1024), (0.5, 0.3), (0.0, 1.0), ((0.002, 0.0), (-0.002, 0.0)), (0.0, 0.0),
             (64, 0)),
    # through the corner cell of the first tile: its cross there is exactly 0,
    # the right side, so the tile takes one side when its other cells lie on
    # the right and the per-cell test when they lie on the left
    "corner right": ((256, 256), (_HALF, _HALF), (-1.0, 1.0), ((0.1, 0.2), (0.3, 0.4)),
                     (0.0, 0.0), (2, 2)),
    "corner left": ((256, 256), (_HALF, _HALF), (1.0, -1.0), ((0.1, 0.2), (0.3, 0.4)),
                    (0.0, 0.0), (1, 3)),
    # PARTIAL_RECOVER's slanted line, which crosses tiles beyond the end of
    # its crack segment, on tiles cut short on both axes
    "slanted": ((300, 200), (0.3, 0.3), (0.6, 0.4), ((0.002, 0.001), (-0.002, 0.0)),
                (0.01, -0.02), (2, 4)),
    "horizontal": ((256, 256), (0.3, 0.5), (1.0, 0.0), ((0.1, 0.2), (0.3, 0.4)),
                   (0.0, 0.0), (4, 0)),
    "vertical": ((256, 256), (0.3, 0.6), (0.0, -1.0), ((0.1, 0.2), (0.3, 0.4)),
                 (0.0, 0.0), (2, 2)),
    # b - omega*ry with b = -0.0 and omega = 0 is -0.0 for ry > 0 and 0.0 for
    # ry < 0; y = 0.3 lies between centres, so each tile holds ry of both signs
    "signed zeros": ((256, 256), (0.5, 0.3), (0.0, 1.0), ((-0.0, 0.0), (0.0, -0.0)),
                     (0.0, 0.0), (4, 0)),
    "spin": ((256, 256), (0.5, 0.3), (0.0, 1.0), ((0.1, -0.2), (-0.3, 0.4)), (0.3, -0.7),
             (4, 0)),
    # a NaN x centre: the tiles holding it fall through to the per-cell test
    "nan": ((256, 256), (0.5, 0.3), (0.0, 1.0), ((0.1, -0.2), (-0.3, 0.4)), (0.3, -0.7),
            (2, 2)),
}


@pytest.mark.parametrize("case", list(RIGID_TILE_CASES))
def test_piecewise_rigid_on_tile_axes_bitwise(monkeypatch, case):
    cells, p, tau, (bp, bm), (omega_plus, omega_minus), want = RIGID_TILE_CASES[case]
    grid = Grid((0.0, 0.0), (1.5, 1.0) if cells == (300, 200) else (1.0, 1.0), cells)
    centers = [grid.centers(a) for a in range(2)]
    if case == "nan":
        centers[0][5] = np.nan
    spec = piecewise_rigid_displacement(p, tau, bp, bm, omega_plus, omega_minus)
    unit = np.array(tau) / np.linalg.norm(tau)
    wheres = []
    where = np.where
    monkeypatch.setattr(np, "where", lambda *a: wheres.append(1) or where(*a))
    taken = [0, 0]
    for tile in _tiles(cells):
        axes = np.meshgrid(*[x[s] for x, s in zip(centers, tile)], indexing="ij", sparse=True)
        wheres.clear()
        got = spec.u_at(*axes)
        taken[bool(wheres)] += 1
        assert got.shape == tuple(s.stop - s.start for s in tile) + (2,)
        bits = got.reshape(-1, 2).view(np.uint64)
        # the per-cell side test, which a NaN cell takes: its NaN stays in
        # the components it reaches, where the reference's product spreads it
        rx, ry = np.broadcast_arrays(axes[0] - p[0], axes[1] - p[1])
        right = rx * unit[1] - ry * unit[0] <= 0.0
        omega = np.where(right, omega_plus, omega_minus)
        per_cell = np.stack([np.where(right, bp[0], bm[0]) - omega * ry,
                             np.where(right, bp[1], bm[1]) + omega * rx], axis=-1)
        assert np.array_equal(bits, per_cell.reshape(-1, 2).view(np.uint64)), tile
        if case != "nan":
            pts = np.stack(np.broadcast_arrays(*axes), axis=-1).reshape(-1, 2)
            ref = _reference_rigid(pts, np.array(p), unit, np.array(bp), np.array(bm),
                                   omega_plus, omega_minus)
            assert np.array_equal(bits, ref.view(np.uint64)), tile
    assert tuple(taken) == want
    if case == "signed zeros":
        assert np.signbit(spec.u_at(0.25, 0.4)[0]) and not np.signbit(spec.u_at(0.25, 0.2)[0])


def test_1d_domain_must_be_finite():
    for domain in [(0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)]:
        with pytest.raises(GeometryError, match="domain"):
            SharpGeometry1D(domain)


def _matrix_planes(m):
    """Planes of (..., d, d) strain matrices in the order of `sym_gradient`."""
    if m.shape[-1] == 1:
        return (m[..., 0, 0],)
    return m[..., 0, 0], m[..., 1, 1], m[..., 0, 1]


def _quadratic_matrix(pts):
    x, y = pts[..., 0], pts[..., 1]
    e = np.empty(pts.shape[:-1] + (2, 2))
    e[..., 0, 0] = 0.6 * x + 0.1 * y
    e[..., 1, 1] = -0.4 * y
    e[..., 0, 1] = e[..., 1, 0] = 0.5 * (0.1 * x + 0.1 * x)
    return e


F_OBLIQUE = np.array([[0.3, -0.7], [0.45, 0.1]])
SKEW = np.array([[0.0, -0.7], [0.7, 0.0]])
# spec, e_at and e_const as (d, d) matrices, the form they had before the
# strain was held as planes (None: no constant strain)
MATRIX_SPECS = {
    "zero_2d": (zero_displacement(2), lambda pts: np.zeros(pts.shape[:-1] + (2, 2)),
                np.zeros((2, 2))),
    "zero_1d": (zero_displacement(1), lambda pts: np.zeros(pts.shape[:-1] + (1, 1)),
                np.zeros((1, 1))),
    "affine_oblique": (affine_displacement(F_OBLIQUE, (0.1, -0.2)),
                       lambda pts: np.broadcast_to(0.5 * (F_OBLIQUE + F_OBLIQUE.T),
                                                   pts.shape[:-1] + (2, 2)),
                       0.5 * (F_OBLIQUE + F_OBLIQUE.T)),
    "skew_affine": (skew_affine_displacement(0.7),
                    lambda pts: np.broadcast_to(0.5 * (SKEW + SKEW.T), pts.shape[:-1] + (2, 2)),
                    0.5 * (SKEW + SKEW.T)),
    "piecewise_rigid": (piecewise_rigid_displacement((0.5, 0.5), (0.0, 1.0), (0.002, 0.0),
                                                     (-0.002, 0.0), 0.1, -0.2),
                        lambda pts: np.zeros(pts.shape[:-1] + (2, 2)), np.zeros((2, 2))),
    "quadratic": (quadratic_displacement(), _quadratic_matrix, None),
}


@pytest.mark.parametrize("name", list(MATRIX_SPECS))
def test_displacement_strain_planes_match_the_matrices_bitwise(name):
    spec, e_matrix, const_matrix = MATRIX_SPECS[name]
    d = 1 if name == "zero_1d" else 2
    pts = np.random.Generator(np.random.Philox(3)).uniform(-1.0, 2.0, size=(257, d))
    planes = spec.e_at(*pts.T)
    reference = _matrix_planes(e_matrix(pts))
    assert len(planes) == len(reference) == (1 if d == 1 else 3)
    for got, want in zip(planes, reference):
        assert got.shape == (257,)
        assert np.array_equal(np.asarray(got, dtype=float).view(np.uint64),
                              np.asarray(want, dtype=float).view(np.uint64))
    if const_matrix is None:
        assert spec.e_const is None
    else:
        assert np.array_equal(np.array(spec.e_const, dtype=float).view(np.uint64),
                              np.array(_matrix_planes(const_matrix)).view(np.uint64))


# The broadcast contract: every method that takes sample locations takes
# coordinate arrays that broadcast, (x,) in 1D and (x, y) in 2D, and answers
# in their broadcast shape (plus (d,) for a displacement).  A tile's sparse
# axes and the same locations flattened give the same bits.

def _bits(a) -> list[int]:
    return np.ascontiguousarray(a, dtype=float).reshape(-1).view(np.uint64).tolist()


_AXES = np.random.default_rng(29).uniform(-0.2, 1.2, (2, 41))
# off-grid axes of 37 and 41 locations: a sparse pair and its dense, flat twin
_SPARSE = (_AXES[0, :37, None], _AXES[1, None, :])
_DENSE = tuple(c.reshape(-1) for c in np.broadcast_arrays(*_SPARSE))
# a non-convex polygon with slanted edges and a slanted and a vertical crack
_ARROW = Polygon([(0.1, 0.1), (0.55, 0.2), (0.9, 0.05), (0.75, 0.6), (0.45, 0.4), (0.2, 0.65)])
_CRACKS = SegmentSet([[[0.3, 0.15], [0.8, 0.55]], [[0.6, 0.0], [0.6, 0.3]]])
_RIGID = piecewise_rigid_displacement((0.3, 0.15), (0.5, 0.4), (0.01, 0.02), (-0.03, 0.0),
                                      0.1, -0.2)
GEOMETRIES = {
    "2d phase+crack": SharpGeometry2D((0.0, 0.0), (1.0, 1.0), polygon=_ARROW,
                                      segments=_CRACKS, u_spec=_RIGID),
    "2d phase": SharpGeometry2D((0.0, 0.0), (1.0, 1.0), polygon=_ARROW,
                                u_spec=affine_displacement(F_OBLIQUE, (0.1, -0.2))),
    "2d crack": SharpGeometry2D((0.0, 0.0), (1.0, 1.0), segments=_CRACKS,
                                u_spec=quadratic_displacement()),
    "2d empty": SharpGeometry2D((0.0, 0.0), (1.0, 1.0)),
    "1d phase+crack": SharpGeometry1D((0.0, 1.0), phase_points=(0.3, 0.55), crack_points=(0.7,),
                                      c_pieces=(0, 1, 0, 0),
                                      u_pieces=((0.1, 0.0),) * 3 + ((0.1, 0.2),)),
    "1d phase": SharpGeometry1D((0.0, 1.0), phase_points=(0.3,), c_pieces=(0, 1),
                                u_pieces=((0.1, 0.0), (0.1, 0.0))),
    "1d crack": SharpGeometry1D((0.0, 1.0), crack_points=(0.7,),
                                u_pieces=((0.1, 0.0), (0.1, 0.2))),
    "1d empty": SharpGeometry1D((0.0, 1.0)),
}


@pytest.mark.parametrize("method", ["phase_distance", "crack_distance", "u_values"])
@pytest.mark.parametrize("name", list(GEOMETRIES))
def test_geometry_broadcasts_over_a_tile_s_axes_bitwise(name, method):
    g = GEOMETRIES[name]
    fn = getattr(g, method)
    tail = (g.dim,) if method == "u_values" else ()
    if g.dim == 1:
        # one axis: any shape in, the same shape out
        x = _AXES[0]
        got, flat = fn(x.reshape(1, -1)), fn(x)
        assert got.shape == (1, x.size) + tail and flat.shape == (x.size,) + tail
    else:
        got, flat = fn(*_SPARSE), fn(*_DENSE)
        assert got.shape == (37, 41) + tail and flat.shape == (37 * 41,) + tail
    assert _bits(got) == _bits(flat)
    if method == "phase_distance" and g.has_phase():
        assert 0 < np.count_nonzero(flat == 0.0) < flat.size  # locations in A and off it


def test_polygon_and_segments_broadcast_over_a_tile_s_axes_bitwise():
    inside = _ARROW.contains(*_SPARSE)
    assert inside.shape == (37, 41) and inside.reshape(-1).tolist() == \
        _ARROW.contains(*_DENSE).tolist()
    assert 0 < np.count_nonzero(inside) < inside.size
    for shape in (_ARROW, _CRACKS):
        got = shape.distance(*_SPARSE)
        assert got.shape == (37, 41) and _bits(got) == _bits(shape.distance(*_DENSE))


@pytest.mark.parametrize("name", list(MATRIX_SPECS))
def test_displacement_broadcasts_over_a_tile_s_axes_bitwise(name):
    spec = MATRIX_SPECS[name][0]
    d = 1 if name == "zero_1d" else 2
    sparse = (_AXES[0].reshape(1, -1),) if d == 1 else _SPARSE
    dense = (_AXES[0],) if d == 1 else _DENSE
    shape = (1, 41) if d == 1 else (37, 41)
    u = spec.u_at(*sparse)
    assert u.shape == shape + (d,) and spec.u_at(*dense).shape == (math.prod(shape), d)
    assert _bits(u) == _bits(spec.u_at(*dense))
    planes, flat = spec.e_at(*sparse), spec.e_at(*dense)
    assert len(planes) == len(flat) == (1 if d == 1 else 3)
    for got, want in zip(planes, flat):
        assert got.shape == shape and want.shape == (math.prod(shape),)
        assert _bits(got) == _bits(want)
