import dataclasses

import numpy as np
import pytest

from phasefrac.energy import ElasticModel
from phasefrac.fields import Grid, sym_planes
from phasefrac.potentials import make_default_potentials
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


def test_segments_outside_domain_rejected():
    with pytest.raises(GeometryError):
        SharpGeometry2D((0.0, 0.0), (1.0, 1.0),
                        segments=SegmentSet([[[0.5, 0.5], [1.5, 0.5]]]))


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
        assert np.array_equal(_point_segment_distance(pts, a, b),
                              _reference_segment_distance(pts, a, b))


def test_segment_distance_oblique_to_last_bits():
    rng = np.random.default_rng(13)
    pts = _random_points(14)
    for _ in range(20):
        a, b = rng.uniform(0.0, 1.0, 2), rng.uniform(0.0, 1.0, 2)
        got = _point_segment_distance(pts, a, b)
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
        ref = np.min([_point_segment_distance(pts, a, b) for a, b in segs], axis=0)
        assert np.array_equal(SegmentSet(segs).distance(pts), ref)
    # a polygon with oblique and axis-aligned edges; points inside and outside
    x0, x1 = np.sort(rng.uniform(0.0, 1.0, 2))
    y0, y1 = np.sort(rng.uniform(0.0, 1.0, 2))
    poly = Polygon([(x0, y0), (x1, y0), (x1, y1), (0.5 * (x0 + x1), y1 + 0.3), (x0, y1)])
    pts = np.concatenate([pts, rng.uniform((x0, y0), (x1, y1), (5000, 2))])
    inside = poly.contains(pts)
    assert 5000 <= np.count_nonzero(inside) < pts.shape[0]
    edges = np.min([_point_segment_distance(pts, a, b) for a, b in poly.edges], axis=0)
    assert np.array_equal(poly.distance(pts), np.where(inside, 0.0, edges))


def test_segment_set_empty_is_infinite():
    d = SegmentSet(np.zeros((0, 2, 2))).distance(_random_points(15, 5))
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
    assert np.array_equal(spec.u_at(pts), ref)


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
    planes = spec.e_at(pts)
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
