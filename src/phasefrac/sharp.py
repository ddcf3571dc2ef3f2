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

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .energy import ElasticModel, EnergyBreakdown
from .fields import Grid, ScalarField, sym_planes
from .potentials import PotentialSet, fracture_density, surface_density


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# geometric primitives


@dataclass(frozen=True)
class SegmentSet:
    """A finite union of closed line segments, stored as an (m, 2, 2) array."""
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

    def distance(self, pts: np.ndarray) -> np.ndarray:
        """Euclidean distance from each point (m, 2) to the segment union (inf if empty).

        The minimum runs over squared distances and one sqrt follows: a
        correctly rounded sqrt is monotone, so this is the minimum of the
        per-segment `_point_segment_distance` bit for bit."""
        best = np.full(pts.shape[0], np.inf)
        for a, b in self.endpoints:
            np.minimum(best, _point_segment_sq_distance(pts, a, b), out=best)
        return np.sqrt(best, out=best)


def _point_segment_sq_distance(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance from each point (m, 2) to the closed segment [a, b], on columns.

    The residual is rounded as x - (a + t*ab), not as (x - a) - t*ab, which
    rounds twice past the ends: distances to axis-aligned and degenerate
    segments then equal the row formula |pts - (a + t*ab)| bit for bit.
    """
    ab = b - a
    denom = float(ab @ ab)
    x, y = pts[:, 0], pts[:, 1]
    dx, dy = x - a[0], y - a[1]
    if denom != 0.0:
        t = np.clip((dx * ab[0] + dy * ab[1]) / denom, 0.0, 1.0)
        np.subtract(x, a[0] + t * ab[0], out=dx)
        np.subtract(y, a[1] + t * ab[1], out=dy)
    dx *= dx  # in place: two fewer block-sized arrays per segment, which shows in sweeps
    dy *= dy
    return np.add(dx, dy, out=dx)


def _point_segment_distance(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each point (m, 2) to the closed segment [a, b]."""
    return np.sqrt(_point_segment_sq_distance(pts, a, b))


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
    """A simple polygon (vertices counter- or clockwise, not self-intersecting)."""
    vertices: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "vertices", arr)
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

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Crossing-number inside test, vectorized over points (m, 2)."""
        x, y = pts[:, 0], pts[:, 1]
        inside = np.zeros(pts.shape[0], dtype=bool)
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

    def distance(self, pts: np.ndarray) -> np.ndarray:
        """dist(x, A): zero inside the closed polygon, edge distance outside."""
        d = SegmentSet(self.edges).distance(pts)
        return np.where(self.contains(pts), 0.0, d)


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

    The strain is held as planes, in the order of `fields.sym_gradient`:
    `e_at(pts)` maps points (m, d) to (xx,) or (xx, yy, xy), each of shape
    (m,).  `e_const` is set when e(u) is one constant strain off the crack
    set, as a tuple of plane values, which is what the sharp energy
    evaluator needs; diagnostic specs (quadratic) provide only `e_at`.  An
    affine spec converts its matrix to planes once, where it enters.
    """
    name: str
    u_at: Callable[[np.ndarray], np.ndarray]
    e_at: Callable[[np.ndarray], tuple]
    e_const: Optional[tuple] = None


def _constant_strain(planes: tuple) -> Callable[[np.ndarray], tuple]:
    """`e_at` of a strain whose planes take the values `planes` everywhere."""
    return lambda pts: tuple(np.full(pts.shape[:-1], p) for p in planes)


def zero_displacement(dim: int = 2) -> DisplacementSpec:
    planes = (0.0,) if dim == 1 else (0.0, 0.0, 0.0)
    return DisplacementSpec("zero", u_at=lambda pts: np.zeros_like(pts),
                            e_at=_constant_strain(planes), e_const=planes)


def affine_displacement(f_matrix, offset=None) -> DisplacementSpec:
    f = np.asarray(f_matrix, dtype=float)
    d = f.shape[0]
    b = np.zeros(d) if offset is None else np.asarray(offset, dtype=float)
    planes = sym_planes(0.5 * (f + f.T), d, "affine_matrix")

    def u_at(pts):
        return pts @ f.T + b

    return DisplacementSpec("affine", u_at, e_at=_constant_strain(planes), e_const=planes)


def piecewise_rigid_displacement(line_point, line_dir, u_plus, u_minus,
                                 omega_plus: float = 0.0,
                                 omega_minus: float = 0.0) -> DisplacementSpec:
    """Rigid motion on each side of the supporting line of the crack.

    The jump is constant across the whole supporting line; the sharp energy
    charges only the declared crack segments, so keep the jump amplitude small
    when the segments do not disconnect the domain.
    """
    p = np.asarray(line_point, dtype=float)
    tau = np.asarray(line_dir, dtype=float)
    nrm = np.linalg.norm(tau)
    if nrm == 0:
        raise GeometryError("line direction must be nonzero")
    tau = tau / nrm
    bp = np.asarray(u_plus, dtype=float)
    bm = np.asarray(u_minus, dtype=float)

    def u_at(pts):
        rx, ry = pts[:, 0] - p[0], pts[:, 1] - p[1]
        right = rx * tau[1] - ry * tau[0] <= 0.0  # negative cross: right side
        omega = np.where(right, omega_plus, omega_minus)  # spin omega * (-ry, rx)
        return np.stack([np.where(right, bp[0], bm[0]) - omega * ry,
                         np.where(right, bp[1], bm[1]) + omega * rx], axis=-1)

    zero = (0.0, 0.0, 0.0)
    return DisplacementSpec("piecewise_rigid", u_at, e_at=_constant_strain(zero), e_const=zero)


def quadratic_displacement() -> DisplacementSpec:
    """Fixed quadratic field for slicing diagnostics (no constant e(u))."""
    def u_at(pts):
        x, y = pts[..., 0], pts[..., 1]
        return np.stack([0.3 * x * x + 0.1 * x * y,
                         -0.2 * y * y + 0.05 * x * x], axis=-1)

    def e_at(pts):
        x, y = pts[..., 0], pts[..., 1]
        return 0.6 * x + 0.1 * y, -0.4 * y, 0.5 * (0.1 * x + 0.1 * x)

    return DisplacementSpec("quadratic", u_at, e_at, e_const=None)


def skew_affine_displacement(omega: float = 0.7) -> DisplacementSpec:
    return affine_displacement(np.array([[0.0, -omega], [omega, 0.0]]))


# ---------------------------------------------------------------------------
# sharp configurations


@dataclass(frozen=True)
class SharpGeometry1D:
    """Piecewise description on an interval: jump points of c and of u.

    Pieces live between the merged, sorted breakpoints (phase and crack
    points); c_pieces gives the {0,1} value and u_pieces the affine
    displacement (slope, offset) on each piece.
    """
    domain: tuple[float, float]
    phase_points: tuple[float, ...] = ()
    crack_points: tuple[float, ...] = ()
    c_pieces: tuple[int, ...] = ()
    u_pieces: tuple[tuple[float, float], ...] = ()
    tol_geom: float = field(init=False)  # coincidence tolerance, 1e-9 of the length

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
        bps = self.breakpoints()
        if any(q - p <= tol for p, q in zip(bps, bps[1:])):
            raise GeometryError("breakpoints closer than the tolerance")
        near = [(p, q) for p in self.phase_points for q in self.crack_points
                if tol < abs(p - q) <= 1e3 * tol]
        if near:
            warnings.warn(f"near-coincident phase/crack points {near}; "
                          "treated as distinct", stacklevel=2)
        npieces = len(bps) + 1
        c = self.c_pieces if self.c_pieces else tuple([0] * npieces)
        u = self.u_pieces if self.u_pieces else tuple([(0.0, 0.0)] * npieces)
        if len(c) != npieces or len(u) != npieces:
            raise GeometryError(f"need {npieces} pieces, got {len(c)} c / {len(u)} u")
        if any(v not in (0, 1) for v in c):
            raise GeometryError("c pieces must be 0 or 1")
        object.__setattr__(self, "c_pieces", tuple(int(v) for v in c))
        object.__setattr__(self, "u_pieces", tuple((float(s), float(o)) for s, o in u))
        self._validate_consistency()

    def breakpoints(self) -> tuple[float, ...]:
        pts: list[float] = []
        for p in sorted(self.phase_points + self.crack_points):
            if not pts or abs(p - pts[-1]) > self.tol_geom:
                pts.append(p)
        return tuple(pts)

    def _is_crack(self, p: float) -> bool:
        return any(abs(p - q) <= self.tol_geom for q in self.crack_points)

    def _is_phase(self, p: float) -> bool:
        return any(abs(p - q) <= self.tol_geom for q in self.phase_points)

    def _validate_consistency(self):
        bps = self.breakpoints()
        scale = max(1.0, max(abs(self.domain[0]), abs(self.domain[1])))
        for k, p in enumerate(bps):
            cl, cr = self.c_pieces[k], self.c_pieces[k + 1]
            if self._is_phase(p) and cl == cr:
                raise GeometryError(f"c does not jump at phase point {p}")
            if not self._is_phase(p) and cl != cr:
                raise GeometryError(f"c jumps at non-phase point {p}")
            if not self._is_crack(p):
                sl, ol = self.u_pieces[k]
                sr, orr = self.u_pieces[k + 1]
                if abs((sl * p + ol) - (sr * p + orr)) > 1e-9 * scale:
                    raise GeometryError(f"u jumps at non-crack point {p}")

    # -- runtime accessors used by the diffuse embedding -------------------

    @property
    def dim(self) -> int:
        return 1

    def has_phase(self) -> bool:
        return any(v == 1 for v in self.c_pieces)

    def has_crack(self) -> bool:
        return len(self.crack_points) > 0

    def _piece_index(self, x: np.ndarray) -> np.ndarray:
        return np.searchsorted(np.asarray(self.breakpoints()), x, side="right")

    def phase_distance(self, pts: np.ndarray) -> np.ndarray:
        """Distance to the closure of {c = 1} (zero inside)."""
        x = pts.reshape(-1)
        bps = (self.domain[0],) + self.breakpoints() + (self.domain[1],)
        dist = np.full(x.shape, np.inf)
        for k, cv in enumerate(self.c_pieces):
            if cv != 1:
                continue
            lo, hi = bps[k], bps[k + 1]
            dist = np.minimum(dist, np.maximum.reduce([lo - x, x - hi, np.zeros_like(x)]))
        return dist

    def crack_distance(self, pts: np.ndarray) -> np.ndarray:
        x = pts.reshape(-1)
        if not self.crack_points:
            return np.full(x.shape, np.inf)
        return np.min(np.abs(x[:, None] - np.asarray(self.crack_points)[None, :]), axis=1)

    def u_values(self, pts: np.ndarray) -> np.ndarray:
        x = pts.reshape(-1)
        idx = self._piece_index(x)
        pieces = np.asarray(self.u_pieces)
        return (pieces[idx, 0] * x + pieces[idx, 1])[:, None]

    def grid(self, cells: tuple[int, ...]) -> Grid:
        """Cell-centered grid on the domain with the first count of `cells`."""
        a, b = self.domain
        return Grid((a,), (b - a,), tuple(cells[:1]))


@dataclass(frozen=True)
class SharpGeometry2D:
    """Polygonal phase set A, segment crack set M, closed-form displacement."""
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
        if len(self.segments):
            p = self.segments.endpoints.reshape(-1, 2)
            if np.any(p < lo - eps) or np.any(p > hi + eps):
                raise GeometryError("crack segments must lie in the closed domain")

    @property
    def dim(self) -> int:
        return 2

    def has_phase(self) -> bool:
        return self.polygon is not None

    def has_crack(self) -> bool:
        return len(self.segments) > 0

    def phase_distance(self, pts: np.ndarray) -> np.ndarray:
        if self.polygon is None:
            return np.full(pts.shape[0], np.inf)
        return self.polygon.distance(pts)

    def crack_distance(self, pts: np.ndarray) -> np.ndarray:
        return self.segments.distance(pts)

    def u_values(self, pts: np.ndarray) -> np.ndarray:
        return self.u_spec.u_at(pts)

    def grid(self, cells: tuple[int, ...]) -> Grid:
        """Cell-centered grid on the box; a single count is used on both axes."""
        cells = tuple(cells)
        return Grid(tuple(self.origin), tuple(self.extent),
                    cells if len(cells) == 2 else cells * 2)


# ---------------------------------------------------------------------------
# sharp energies


def sharp_energy_1d(g: SharpGeometry1D, P: PotentialSet, M: ElasticModel) -> EnergyBreakdown:
    """Exact limit energy of a 1D configuration (point counting + closed forms)."""
    a_surf = surface_density(P)
    a_frac = fracture_density(P)
    coincident = sum(1 for p in g.phase_points if g._is_crack(p))
    disjoint = len(g.phase_points) - coincident
    e_phase = a_surf * (disjoint + P.theta * coincident)
    e_crack = a_frac * len(g.crack_points)
    bps = (g.domain[0],) + g.breakpoints() + (g.domain[1],)
    (e00,) = M.e0_planes(1)
    e_el = 0.0
    for k, (slope, _off) in enumerate(g.u_pieces):
        xi = slope - g.c_pieces[k] * e00
        e_el += (bps[k + 1] - bps[k]) * float(M.form((xi,)))
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
    pts = np.stack([m.reshape(-1) for m in grid.meshgrid()], axis=-1)
    if isinstance(shape, (Polygon, SegmentSet)):
        d = shape.distance(pts)
    elif isinstance(shape, (SharpGeometry1D, SharpGeometry2D)):
        d = shape.crack_distance(pts)
    else:
        raise TypeError(f"no distance for {type(shape).__name__}")
    return ScalarField(grid, d.reshape(grid.cells))


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
