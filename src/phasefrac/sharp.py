"""Sharp-interface configurations and exact evaluation of the limit energy.

A configuration declares the phase set A = {c = 1}, the crack set M, and a
closed-form displacement; the limit energy charges

    alpha_surf * H^{d-1}(boundary of A away from M)  +  elastic misfit
    + alpha_frac * H^{d-1}(M),

with boundary portions on the crack excluded (or weighted by the residual
theta).  Crack sets are finite point sets (1D) or finite segment unions (2D),
phase sets are interval unions (1D) or simple polygons (2D), so all surface
measures and overlaps are computed exactly up to the coincidence tolerance.
"""
from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .energy import ElasticModel, EnergyBreakdown
from .fields import Grid, ScalarField, sym_planes
from .potentials import PotentialSet, fracture_density, surface_density


class GeometryError(ValueError):
    pass


def _shape(*coords) -> tuple[int, ...]:
    """The shape that the coordinate arrays `coords` broadcast to."""
    return np.broadcast_shapes(*(np.shape(x) for x in coords))


# ---------------------------------------------------------------------------
# geometric primitives


@dataclass(frozen=True)
class SegmentSet:
    """A finite union of closed line segments, stored as an (m, 2, 2) array.

    A set of sample locations is a pair of coordinate arrays (x, y) that
    broadcast, such as a tile's axes x[:, None] and y[None, :]; a distance
    comes back in their broadcast shape."""
    endpoints: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.endpoints, dtype=float).reshape(-1, 2, 2)
        object.__setattr__(self, "endpoints", arr)
        if arr.size and not np.all(np.isfinite(arr)):
            raise GeometryError("segment endpoints must be finite")

    def __len__(self) -> int:
        return self.endpoints.shape[0]

    @property
    def lengths(self) -> np.ndarray:
        d = self.endpoints[:, 1] - self.endpoints[:, 0]
        return np.sqrt(np.sum(d * d, axis=1))

    def total_length(self) -> float:
        return float(self.lengths.sum())

    def distance(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Euclidean distance from each location (x, y) to the segment union
        (inf if empty), in the broadcast shape of x and y.

        The minimum runs over squared distances and one sqrt follows: a
        correctly rounded sqrt is monotone, so this is the minimum of the
        per-segment `_point_segment_distance` bit for bit."""
        best = np.full(_shape(x, y), np.inf)
        for a, b in self.endpoints:
            np.minimum(best, _point_segment_sq_distance(x, y, a, b), out=best)
        return np.sqrt(best, out=best)

    def box_distance(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Euclidean distance from each closed box [lo, hi] (lo and hi (k, 2))
        to the segment union (inf if empty).

        A segment meets a box when no separating axis parts them: not x, not
        y, not the segment's normal.  Otherwise the two are closest at an end
        of the segment or at a corner of the box, so the distance is the
        least of the ends' distances to the box and the corners' distances to
        the segment."""
        best = np.full(lo.shape[0], np.inf)
        corners = [np.stack([x, y], axis=1) for x in (lo[:, 0], hi[:, 0])
                   for y in (lo[:, 1], hi[:, 1])]
        for a, b in self.endpoints:
            normal = np.array([a[1] - b[1], b[0] - a[0]])
            side = np.stack([(q - a) @ normal for q in corners])
            meets = (np.all(np.minimum(a, b) <= hi, axis=1)
                     & np.all(np.maximum(a, b) >= lo, axis=1)
                     & (side.min(axis=0) <= 0.0) & (side.max(axis=0) >= 0.0))
            ends = [np.sum(np.maximum(np.maximum(lo - p, p - hi), 0.0) ** 2, axis=1)
                    for p in (a, b)]
            sq = np.minimum.reduce(ends + [_point_segment_sq_distance(*q.T, a, b)
                                           for q in corners])
            np.minimum(best, np.where(meets, 0.0, sq), out=best)
        return np.sqrt(best, out=best)


def _point_segment_sq_distance(x, y, a, b) -> np.ndarray:
    """Squared distance from each location (x, y) to the closed segment [a, b],
    in the broadcast shape of x and y.

    The residual is rounded as x - (a + t*ab), not as (x - a) - t*ab, which
    rounds twice past the ends: distances to axis-aligned and degenerate
    segments then equal the row formula |p - (a + t*ab)| bit for bit.
    """
    ab = b - a
    denom = float(ab @ ab)
    dx, dy = x - a[0], y - a[1]
    if denom == 0.0:
        return dx * dx + dy * dy
    t = np.clip((dx * ab[0] + dy * ab[1]) / denom, 0.0, 1.0)
    # x - (a + t*ab) in place: no block-sized array beyond t and dx, which shows in sweeps
    dx = np.multiply(t, ab[0])
    dx += a[0]
    np.subtract(x, dx, out=dx)
    t *= ab[1]
    t += a[1]
    dy = np.subtract(y, t, out=t)
    dx *= dx
    dy *= dy
    return np.add(dx, dy, out=dx)


def _point_segment_distance(x, y, a, b) -> np.ndarray:
    """Distance from each location (x, y) to the closed segment [a, b]."""
    return np.sqrt(_point_segment_sq_distance(x, y, a, b))


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _segments_cross(p1, p2, p3, p4) -> bool:
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    return False


@dataclass(frozen=True)
class Polygon:
    """A simple polygon (vertices counter- or clockwise, not self-intersecting).

    `contains` and `distance` take the sample locations as coordinate arrays
    (x, y) that broadcast and answer in their broadcast shape."""
    vertices: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "vertices", arr)
        if not np.all(np.isfinite(arr)):
            raise GeometryError("polygon vertices must be finite")
        if arr.shape[0] < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        n = arr.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue  # adjacent edges share a vertex
                if _segments_cross(arr[i], arr[(i + 1) % n], arr[j], arr[(j + 1) % n]):
                    raise GeometryError("polygon is self-intersecting")

    @property
    def edges(self) -> np.ndarray:
        v = self.vertices
        return np.stack([v, np.roll(v, -1, axis=0)], axis=1)

    def area(self) -> float:
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0)

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Crossing-number inside test, vectorized over the locations (x, y)."""
        inside = np.zeros(_shape(x, y), dtype=bool)
        v = self.vertices
        n = v.shape[0]
        for i in range(n):
            x1, y1 = v[i]
            x2, y2 = v[(i + 1) % n]
            cond = (y1 > y) != (y2 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xcross = (x2 - x1) * (y - y1) / (y2 - y1) + x1
            inside ^= cond & (x < xcross)
        return inside

    def distance(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """dist(x, A): zero inside the closed polygon, edge distance outside."""
        d = SegmentSet(self.edges).distance(x, y)
        return np.where(self.contains(x, y), 0.0, d)


def _collinear_overlap(e1: np.ndarray, e2: np.ndarray, tol: float) -> float:
    """Length of the overlap of two segments lying on a common line (else 0)."""
    a, b = e1
    direction = b - a
    length = float(np.linalg.norm(direction))
    if length == 0.0:
        return 0.0
    tau = direction / length
    # both endpoints of e2 must lie on the supporting line of e1
    off = e2 - a
    perp = np.abs(off[:, 0] * tau[1] - off[:, 1] * tau[0])
    if np.any(perp > tol):
        return 0.0
    t = off @ tau
    lo, hi = min(t), max(t)
    return max(0.0, min(hi, length) - max(lo, 0.0))


def _length_in_open_box(edge: np.ndarray, origin, extent, tol: float) -> float:
    """Portion of an edge inside the open box, excluding runs along its boundary."""
    a, b = edge
    lo = np.asarray(origin)
    hi = lo + np.asarray(extent)
    # collinear with a boundary facet -> contributes nothing to the interior
    for axis in range(2):
        for val in (lo[axis], hi[axis]):
            if abs(a[axis] - val) <= tol and abs(b[axis] - val) <= tol:
                return 0.0
    d = b - a
    t0, t1 = 0.0, 1.0
    for axis in range(2):
        if abs(d[axis]) < 1e-300:
            if not (lo[axis] <= a[axis] <= hi[axis]):
                return 0.0
            continue
        ta = (lo[axis] - a[axis]) / d[axis]
        tb = (hi[axis] - a[axis]) / d[axis]
        t0 = max(t0, min(ta, tb))
        t1 = min(t1, max(ta, tb))
    if t1 <= t0:
        return 0.0
    return (t1 - t0) * float(np.linalg.norm(d))


# ---------------------------------------------------------------------------
# closed-form displacements


@dataclass(frozen=True)
class DisplacementSpec:
    """Named closed-form displacement with its symmetric gradient.

    Sample locations are coordinate arrays that broadcast, (x,) in 1D and
    (x, y) in 2D, such as a tile's axes: `u_at(x, y)` returns their broadcast
    shape plus a trailing (d,), and a tile's temporaries are tile-sized.  The
    strain is held as planes, in the order of `fields.sym_gradient`:
    `e_at(x, y)` returns (xx,) or (xx, yy, xy), each in the broadcast shape.
    `e_const` is set when e(u) is one constant strain off the crack
    set, as a tuple of plane values, which is what the sharp energy
    evaluator needs; diagnostic specs (quadratic) provide only `e_at`.  An
    affine spec converts its matrix to planes once, where it enters.

    `corners_prove(lo, hi)` takes boxes [lo, hi] (lo and hi (k, 2)) and
    tells, per box, that `u_at` gives every location of the box the bits it
    gives the box's four corners whenever those four agree bit for bit
    (`SharpGeometry2D.u_plateau`, which proves that u is one constant on a
    recovery's plateau slabs, whose energy reads only u's differences).  A
    spec without it (quadratic) proves no box.
    """
    name: str
    u_at: Callable[..., np.ndarray]
    e_at: Callable[..., tuple]
    e_const: Optional[tuple] = None
    corners_prove: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


def _constant_strain(planes: tuple) -> Callable[..., tuple]:
    """`e_at` of a strain whose planes take the values `planes` everywhere."""
    return lambda *coords: tuple(np.full(_shape(*coords), p) for p in planes)


def zero_displacement(dim: int = 2) -> DisplacementSpec:
    """u = 0.0 everywhere, +0.0 bit for bit (`np.zeros`), so it proves every
    box."""
    planes = (0.0,) if dim == 1 else (0.0, 0.0, 0.0)
    return DisplacementSpec("zero", u_at=lambda *coords: np.zeros(_shape(*coords) + (dim,)),
                            e_at=_constant_strain(planes), e_const=planes,
                            corners_prove=lambda lo, hi: np.ones(len(lo), dtype=bool))


def _vector(value, name: str) -> np.ndarray:
    """A point or vector argument of a 2D displacement as 2 floats, else GeometryError."""
    v = np.asarray(value, dtype=float)
    if v.shape != (2,):
        raise GeometryError(f"{name} must be 2 values, got shape {v.shape}")
    return v


def affine_displacement(f_matrix, offset=None) -> DisplacementSpec:
    """u(x) = F x + b.  It proves every box when F is zero (-0.0 entries
    included) and no component of b is -0.0, and no box otherwise: each
    product is then a signed zero, however the matrix product orders or
    fuses its sums, and b + (+-0.0) is b, since b is nonzero or +0.0."""
    f = np.asarray(f_matrix, dtype=float)
    b = np.zeros(2) if offset is None else _vector(offset, "offset")
    planes = sym_planes(0.5 * (f + f.T), 2, "affine_matrix")
    constant = not f.any() and not np.any((b == 0.0) & np.signbit(b))

    def u_at(x, y):
        # one product on stacked points: x*f00 + y*f01 written out may round
        # otherwise where the product fuses the multiply and the add
        pts = np.stack(np.broadcast_arrays(x, y), axis=-1)
        return (pts.reshape(-1, 2) @ f.T + b).reshape(pts.shape)

    return DisplacementSpec("affine", u_at, e_at=_constant_strain(planes), e_const=planes,
                            corners_prove=lambda lo, hi: np.full(len(lo), constant))


def piecewise_rigid_displacement(line_point, line_dir, u_plus, u_minus,
                                 omega_plus: float = 0.0,
                                 omega_minus: float = 0.0) -> DisplacementSpec:
    """Rigid motion on each side of the supporting line of the crack.

    The jump is constant across the whole supporting line; the sharp energy
    charges only the declared crack segments, so keep the jump amplitude small
    when the segments do not disconnect the domain.

    `u_at` first takes the side cross rx*tau1 - ry*tau0 at the four corners
    of the box [min rx, max rx] x [min ry, max ry] of its locations.  x - p,
    a product with a constant and a difference are each monotone under
    round-to-nearest, so every location's rounded cross lies between the
    corners' rounded values, with no tolerance.  When all four are <= 0
    (right) or all four > 0 (left), every location lies on that side, and
    u_at returns that side's rigid map, b0 - omega*ry and b1 + omega*rx, over
    the coordinates as given (a tile's sparse axes stay sparse until the one
    write): the same operands and operations as the per-location test, so
    the same bits, -0.0 included.  A NaN corner passes neither test and
    falls through to that test.

    `corners_prove` takes the same corner test on each box and proves the
    boxes that lie on one side whose omega is 0 (-0.0 included).  Without
    spin each component there is b plus a signed zero, b0 - omega*ry and
    b1 + omega*rx, whose sign follows the sign of the offset ry or rx; that
    sign changes at most once along the box, so when the four corners agree
    bit for bit, every location between them holds the same bits.  So a
    side whose b holds no -0.0, or whose offsets keep one sign, is proved,
    and one where b0 = -0.0 and the box spans ry < 0 and ry >= 0 is refused:
    u0 is 0.0 on one part and -0.0 on the other.
    """
    p = _vector(line_point, "line_point")
    tau = _vector(line_dir, "line_dir")
    nrm = np.linalg.norm(tau)
    if nrm == 0:
        raise GeometryError("line direction must be nonzero")
    tau = tau / nrm
    bp, bm = _vector(u_plus, "u_plus"), _vector(u_minus, "u_minus")

    def one_side(b, omega, rx, ry):
        out = np.empty(_shape(rx, ry) + (2,))
        out[..., 0] = b[0] - omega * ry
        out[..., 1] = b[1] + omega * rx
        return out

    def sides(rx, ry):
        """Whether each box [rx] x [ry] of offsets from p (rx, ry (k, 2):
        least and greatest) lies wholly right, and whether wholly left."""
        corners = rx[:, :, None] * tau[1] - ry[:, None, :] * tau[0]
        return np.all(corners <= 0.0, axis=(1, 2)), np.all(corners > 0.0, axis=(1, 2))

    def u_at(x, y):
        rx, ry = x - p[0], y - p[1]
        if np.size(rx) and np.size(ry):
            (right,), (left,) = sides(np.array([[np.min(rx), np.max(rx)]]),
                                      np.array([[np.min(ry), np.max(ry)]]))
            if right:
                return one_side(bp, omega_plus, rx, ry)
            if left:
                return one_side(bm, omega_minus, rx, ry)
        right = rx * tau[1] - ry * tau[0] <= 0.0  # negative cross: right side
        omega = np.where(right, omega_plus, omega_minus)  # spin omega * (-ry, rx)
        return np.stack([np.where(right, bp[0], bm[0]) - omega * ry,
                         np.where(right, bp[1], bm[1]) + omega * rx], axis=-1)

    def corners_prove(lo, hi):
        right, left = sides(np.stack([lo[:, 0], hi[:, 0]], axis=1) - p[0],
                            np.stack([lo[:, 1], hi[:, 1]], axis=1) - p[1])
        return right & (omega_plus == 0.0) | left & (omega_minus == 0.0)

    zero = (0.0, 0.0, 0.0)
    return DisplacementSpec("piecewise_rigid", u_at, e_at=_constant_strain(zero), e_const=zero,
                            corners_prove=corners_prove)


def quadratic_displacement() -> DisplacementSpec:
    """Fixed quadratic field for slicing diagnostics (no constant e(u))."""
    def u_at(x, y):
        return np.stack([0.3 * x * x + 0.1 * x * y,
                         -0.2 * y * y + 0.05 * x * x], axis=-1)

    def e_at(x, y):
        return tuple(np.broadcast_arrays(0.6 * x + 0.1 * y, -0.4 * y, 0.5 * (0.1 * x + 0.1 * x)))

    return DisplacementSpec("quadratic", u_at, e_at, e_const=None)


def skew_affine_displacement(omega: float = 0.7) -> DisplacementSpec:
    return affine_displacement(np.array([[0.0, -omega], [omega, 0.0]]))


# ---------------------------------------------------------------------------
# sharp configurations


def _interval_distance(lo: np.ndarray, hi: np.ndarray, a, b) -> np.ndarray:
    """Distance from each interval [lo, hi] to the nearest of the closed
    intervals [a_k, b_k] (inf if none), in the shape of lo and hi.  A point p
    is the interval [p, p], and at lo = hi the distance from p is |x - p| bit
    for bit."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    gap = np.maximum(np.maximum(lo[..., None] - b, a - hi[..., None]), 0.0)
    return np.min(gap, axis=-1, initial=np.inf)


def _agreeing(corners: np.ndarray) -> np.ndarray:
    """From u at the corners of k boxes ((k, ..., d), the corners of box i
    at [i]): whether each box's corners hold one finite value, bit for bit
    ((k,))."""
    values = corners.reshape(corners.shape[0], -1, corners.shape[-1])
    bits = values.view(np.uint64)
    return np.all(bits == bits[:, :1], axis=(1, 2)) & np.all(np.isfinite(values), axis=(1, 2))


def _grid_counts(cells, dim: int) -> tuple[int, ...]:
    """`cells` as one count per axis, where a single count serves every axis;
    any other length raises GeometryError naming the counts."""
    cells = tuple(cells)
    if len(cells) not in (1, dim):
        need = "1" if dim == 1 else f"1 or {dim}"
        raise GeometryError(f"got {len(cells)} counts {cells}, expected {need}")
    return cells * (dim // len(cells))


@dataclass(frozen=True)
class SharpGeometry1D:
    """Piecewise description on an interval: jump points of c and of u.

    Pieces live between the merged, sorted breakpoints (phase and crack
    points, one breakpoint where a phase and a crack point coincide within
    `tol_geom`); `bounds` holds the domain's ends with the breakpoints
    between them, so piece k is [bounds[k], bounds[k + 1]].  c_pieces gives
    the {0,1} value and u_pieces the affine displacement (slope, offset) on
    each piece.  `u_plateau` proves u constant, bit for bit, on an interval
    inside one piece of slope 0.
    """
    domain: tuple[float, float]
    phase_points: tuple[float, ...] = ()
    crack_points: tuple[float, ...] = ()
    c_pieces: tuple[int, ...] = ()
    u_pieces: tuple[tuple[float, float], ...] = ()
    tol_geom: float = field(init=False)  # coincidence tolerance, 1e-9 of the length
    bounds: tuple[float, ...] = field(init=False)  # the pieces' ends, merged once

    def __post_init__(self):
        a, b = self.domain
        if not -np.inf < a < b < np.inf:
            raise GeometryError(f"domain must be a finite interval a < b, got {self.domain}")
        tol = 1e-9 * (b - a)
        object.__setattr__(self, "tol_geom", tol)
        object.__setattr__(self, "phase_points", tuple(sorted(self.phase_points)))
        object.__setattr__(self, "crack_points", tuple(sorted(self.crack_points)))
        for p in self.phase_points + self.crack_points:
            if not a < p < b:
                raise GeometryError(f"point {p} not interior to the domain")
        # one point would be charged twice; a phase and a crack point may coincide
        for kind, pts in (("phase", self.phase_points), ("crack", self.crack_points)):
            for p, q in zip(pts, pts[1:]):
                if q - p <= tol:
                    raise GeometryError(f"{kind} points {p} and {q} coincide within "
                                        f"the tolerance {tol:g}")
        near = [(p, q) for p in self.phase_points for q in self.crack_points
                if tol < abs(p - q) <= 1e3 * tol]
        if near:
            warnings.warn(f"near-coincident phase/crack points {near}; "
                          "treated as distinct", stacklevel=2)
        # each breakpoint is the first point of its cluster within tol, which
        # holds at most one phase and one crack point: [point, phase?, crack?]
        merged: list[list] = []
        for p, crack in sorted([(p, False) for p in self.phase_points]
                               + [(p, True) for p in self.crack_points]):
            if not merged or p - merged[-1][0] > tol:
                merged.append([p, False, False])
            merged[-1][1 + crack] = True
        object.__setattr__(self, "bounds", (a, *(m[0] for m in merged), b))
        npieces = len(merged) + 1
        c = self.c_pieces if self.c_pieces else tuple([0] * npieces)
        u = self.u_pieces if self.u_pieces else tuple([(0.0, 0.0)] * npieces)
        if len(c) != npieces or len(u) != npieces:
            raise GeometryError(f"need {npieces} pieces, got {len(c)} c / {len(u)} u")
        if any(v not in (0, 1) for v in c):
            raise GeometryError("c pieces must be 0 or 1")
        object.__setattr__(self, "c_pieces", tuple(int(v) for v in c))
        object.__setattr__(self, "u_pieces", tuple((float(s), float(o)) for s, o in u))
        scale = max(1.0, max(abs(a), abs(b)))
        c, u = self.c_pieces, self.u_pieces
        for (p, phase, crack), cl, cr, (sl, ol), (sr, orr) in zip(merged, c, c[1:], u, u[1:]):
            if phase and cl == cr:
                raise GeometryError(f"c does not jump at phase point {p}")
            if not phase and cl != cr:
                raise GeometryError(f"c jumps at non-phase point {p}")
            if not crack and abs((sl * p + ol) - (sr * p + orr)) > 1e-9 * scale:
                raise GeometryError(f"u jumps at non-crack point {p}")

    # -- runtime accessors used by the diffuse embedding -------------------

    @property
    def dim(self) -> int:
        return 1

    def has_phase(self) -> bool:
        return any(v == 1 for v in self.c_pieces)

    def has_crack(self) -> bool:
        return len(self.crack_points) > 0

    def phase_distance(self, x: np.ndarray) -> np.ndarray:
        """Distance from each location x to the closure of {c = 1} (zero
        inside), in the shape of x."""
        one = np.flatnonzero(self.c_pieces)
        return _interval_distance(x, x, np.take(self.bounds, one), np.take(self.bounds, one + 1))

    def phase_boundary_box_distance(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Distance from each interval [lo, hi] (lo and hi (k, 1)) to the
        boundary of {c = 1} in the domain: its phase points."""
        return _interval_distance(lo.reshape(-1), hi.reshape(-1), self.phase_points,
                                  self.phase_points)

    def crack_box_distance(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Distance from each interval [lo, hi] (lo and hi (k, 1)) to the crack points."""
        return _interval_distance(lo.reshape(-1), hi.reshape(-1), self.crack_points,
                                  self.crack_points)

    def crack_distance(self, x: np.ndarray) -> np.ndarray:
        return _interval_distance(x, x, self.crack_points, self.crack_points)

    def u_values(self, x: np.ndarray) -> np.ndarray:
        """The displacement at each location x, in the shape of x plus (1,)."""
        idx = np.searchsorted(self.bounds[1:-1], x, side="right")
        pieces = np.asarray(self.u_pieces)
        return (pieces[idx, 0] * x + pieces[idx, 1])[..., None]

    def u_plateau(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Whether `u_values` gives each interval [lo, hi] (lo and hi (k, 1))
        one finite value, bit for bit, at every location ((k,)).  Proved
        when both ends lie in one piece, the piece's slope is 0 (-0.0
        included) and `u_values` gives both ends the same finite bits: the
        value is then offset + (+-0.0), a signed zero whose sign follows the
        sign of x, which changes at most once along the interval, so
        agreeing ends hold for every location between."""
        ends = np.concatenate([lo, hi], axis=1)
        idx = np.searchsorted(self.bounds[1:-1], ends, side="right")
        flat = (idx[:, 0] == idx[:, 1]) & (np.asarray(self.u_pieces)[idx[:, 0], 0] == 0.0)
        return flat & _agreeing(self.u_values(ends))

    def grid(self, cells: tuple[int, ...]) -> Grid:
        """Cell-centered grid on the domain; `cells` holds one count."""
        a, b = self.domain
        return Grid((a,), (b - a,), _grid_counts(cells, 1))


@dataclass(frozen=True)
class SharpGeometry2D:
    """Polygonal phase set A, segment crack set M, closed-form displacement.

    The polygon and the segments lie in the closed box, within `tol_geom`.
    `phase_distance`, `crack_distance` and `u_values` take coordinate arrays
    (x, y) that broadcast and answer in their broadcast shape (plus (2,) for
    u)."""
    origin: tuple[float, float]
    extent: tuple[float, float]
    polygon: Optional[Polygon] = None
    segments: SegmentSet = field(default_factory=lambda: SegmentSet(np.zeros((0, 2, 2))))
    u_spec: DisplacementSpec = field(default_factory=lambda: zero_displacement(2))
    tol_geom: float = field(init=False)  # coincidence tolerance, 1e-9 of the diagonal

    def __post_init__(self):
        if not all(0.0 < e < np.inf for e in self.extent):
            raise GeometryError(f"domain box must have positive, finite extent, "
                                f"got {self.extent}")
        if not np.all(np.isfinite(self.origin)):
            raise GeometryError(f"domain box origin must be finite, got {self.origin}")
        eps = 1e-9 * float(np.sqrt(sum(e * e for e in self.extent)))
        object.__setattr__(self, "tol_geom", eps)
        lo = np.asarray(self.origin)
        hi = lo + np.asarray(self.extent)
        # the sharp energy charges the polygon's whole area, so it must not leave the box
        polygon = np.zeros((0, 2)) if self.polygon is None else self.polygon.vertices
        for name, p in (("crack segments", self.segments.endpoints), ("polygon", polygon)):
            if np.any(p < lo - eps) or np.any(p > hi + eps):
                raise GeometryError(f"{name} must lie in the closed domain")
        # an overlap would be charged twice; crossing segments are allowed
        for (i, a), (j, b) in itertools.combinations(enumerate(self.segments.endpoints, 1), 2):
            overlap = _collinear_overlap(a, b, eps)
            if overlap > eps:
                raise GeometryError(f"crack segments {i} and {j} overlap along a length "
                                    f"of {overlap:.12g}")

    @property
    def dim(self) -> int:
        return 2

    def has_phase(self) -> bool:
        return self.polygon is not None

    def has_crack(self) -> bool:
        return len(self.segments) > 0

    def phase_distance(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.polygon is None:
            return np.full(_shape(x, y), np.inf)
        return self.polygon.distance(x, y)

    def phase_boundary_box_distance(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Distance from each box [lo, hi] (lo and hi (k, 2)) to the polygon's
        edges (inf without a polygon)."""
        if self.polygon is None:
            return np.full(lo.shape[0], np.inf)
        return SegmentSet(self.polygon.edges).box_distance(lo, hi)

    def crack_box_distance(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Distance from each box [lo, hi] (lo and hi (k, 2)) to the crack segments."""
        return self.segments.box_distance(lo, hi)

    def crack_distance(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.segments.distance(x, y)

    def u_values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.u_spec.u_at(x, y)

    def u_plateau(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Whether `u_values` gives each box [lo, hi] (lo and hi (k, 2)) one
        finite value, bit for bit, at every location ((k,)).  Proved where
        the spec's `corners_prove` holds and `u_values` gives the box's four
        corners the same finite bits; a spec without `corners_prove` proves
        no box."""
        if self.u_spec.corners_prove is None:
            return np.zeros(len(lo), dtype=bool)
        return self.u_spec.corners_prove(lo, hi) & _agreeing(
            self.u_values(np.stack([lo[:, 0], hi[:, 0]], axis=1)[:, :, None],
                          np.stack([lo[:, 1], hi[:, 1]], axis=1)[:, None, :]))

    def grid(self, cells: tuple[int, ...]) -> Grid:
        """Cell-centered grid on the box; a single count is used on both axes."""
        return Grid(tuple(self.origin), tuple(self.extent), _grid_counts(cells, 2))


# ---------------------------------------------------------------------------
# sharp energies


def sharp_energy_1d(g: SharpGeometry1D, P: PotentialSet, M: ElasticModel) -> EnergyBreakdown:
    """Exact limit energy of a 1D configuration (point counting + closed forms)."""
    a_surf = surface_density(P)
    a_frac = fracture_density(P)
    # a phase point that shares its breakpoint with a crack point merged away
    coincident = len(g.phase_points) + len(g.crack_points) - (len(g.bounds) - 2)
    disjoint = len(g.phase_points) - coincident
    e_phase = a_surf * (disjoint + P.theta * coincident)
    e_crack = a_frac * len(g.crack_points)
    (e00,) = M.e0_planes(1)
    e_el = 0.0
    for k, (slope, _off) in enumerate(g.u_pieces):
        xi = slope - g.c_pieces[k] * e00
        e_el += (g.bounds[k + 1] - g.bounds[k]) * float(M.form((xi,)))
    return EnergyBreakdown(e_phase, e_el, e_crack)


def sharp_energy_2d(g: SharpGeometry2D, P: PotentialSet, M: ElasticModel) -> EnergyBreakdown:
    """Exact limit energy of a 2D configuration.

    The phase boundary length inside the open box is reduced by its collinear
    overlap with the crack segments (the overlap is charged theta * alpha_surf).
    The elastic misfit is evaluated exactly from the piecewise-constant
    integrand; the contribution of the tol_geom-tube around the cracks is
    bounded and folded into the reported value's accuracy, not subtracted.
    """
    a_surf = surface_density(P)
    a_frac = fracture_density(P)
    e_crack = a_frac * g.segments.total_length()

    boundary_len = 0.0
    overlap_len = 0.0
    if g.polygon is not None:
        for edge in g.polygon.edges:
            L = _length_in_open_box(edge, g.origin, g.extent, g.tol_geom)
            if L <= 0.0:
                continue
            boundary_len += L
            for seg in g.segments.endpoints:
                overlap_len += _collinear_overlap(edge, seg, g.tol_geom)
    overlap_len = min(overlap_len, boundary_len)
    e_phase = a_surf * ((boundary_len - overlap_len) + P.theta * overlap_len)

    if g.u_spec.e_const is None:
        raise GeometryError(
            f"displacement {g.u_spec.name!r} has no constant strain; "
            "sharp energies support the zero/affine/piecewise_rigid built-ins")
    box_area = float(np.prod(g.extent))
    area_a = g.polygon.area() if g.polygon is not None else 0.0
    strain = g.u_spec.e_const
    q_phase = float(M.form(tuple(p - e for p, e in zip(strain, M.e0_planes(2), strict=True))))
    q_void = float(M.form(strain))
    e_el = q_phase * area_a + q_void * (box_area - area_a)
    # bound on what the tol_geom-tube around the cracks could have contributed
    tube_area = 2.0 * g.tol_geom * g.segments.total_length() + np.pi * g.tol_geom ** 2
    bound = max(q_phase, q_void) * tube_area
    return EnergyBreakdown(e_phase, e_el, e_crack, excluded_bound=bound)


def sharp_energy(g, P: PotentialSet, M: ElasticModel) -> EnergyBreakdown:
    if isinstance(g, SharpGeometry1D):
        return sharp_energy_1d(g, P, M)
    if isinstance(g, SharpGeometry2D):
        return sharp_energy_2d(g, P, M)
    raise TypeError(f"not a sharp configuration: {type(g).__name__}")


# ---------------------------------------------------------------------------
# geometric diagnostics


def distance_field(shape, grid: Grid) -> ScalarField:
    """Exact per-cell-center distance to a polygon (zero inside) or segment set."""
    if not isinstance(shape, (Polygon, SegmentSet)):
        raise TypeError(f"no distance for {type(shape).__name__}")
    return ScalarField.from_function(grid, shape.distance)


def minkowski_content_estimate(segments: SegmentSet, r: float, grid: Grid) -> float:
    """Volume of the r-tube around the segments divided by 2r (cell counting)."""
    hmax = max(grid.spacing)
    if r <= 2.0 * hmax:
        raise ValueError(f"tube radius {r} unresolvable on spacing {hmax} (need r > 2h)")
    if len(segments) == 0:
        return 0.0
    dist = distance_field(segments, grid)
    count = int(np.count_nonzero(dist.values < r))
    return grid.cell_volume * count / (2.0 * r)
