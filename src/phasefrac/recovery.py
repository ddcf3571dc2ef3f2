"""Near-optimal 1D transition profiles and the diffuse embedding of a sharp
configuration.

For a well potential f and regularization lambda > 0, the profile inverse is

    zeta(s) = int_0^s scale / sqrt(lambda + f(t)) dt,

and the transition g(r) is 0 for r < 0, zeta^{-1} on [0, zeta(1)], 1 beyond.
Its derivative satisfies g'(r) = sqrt(lambda + f(g(r))) / scale, which makes
the profile energy computable without numerical differentiation and bounded
by int_0^1 2 sqrt(f) + 2 sqrt(lambda).  zeta is tabulated, and the profile
energy integrated, with the `_quad.PANELS` Simpson panels of the potentials.

`build_recovery` samples a diffuse triplet from the exact distance fields of
a sharp configuration:

    c(x) = g_W(zeta_W(1) - dist(x, A))          (c = 1 on A, layer outside)
    z(x) = g_V(dist(x, M) - lambda*delta)       (z = 0 on a tube around M)
    u(x) = u_sharp(x) * smoothstep(dist(x, M) / (lambda*delta))

When both a phase boundary and a crack are present, the construction confines
the c-transition to the damaged tube only if zeta_W(1) <= eps/sqrt(lambda)
<= lambda*delta (the width condition, tested by `width_violation`); the
builder enforces it when its required keyword `enforce_width` is true, and
builds anyway when it is false, for regimes where only the energy values
matter (`harness.SweepPlan.enforce_width`, false by default).

The builder samples the grid in square tiles of `fields._BLOCK` cells:
isqrt(`_BLOCK`) = 128 a side in 2D and `_BLOCK` in 1D, cut short at the far
end of an axis whose count the side does not divide.  Each tile first takes
the exact distances from its box of cell centres to the phase boundary
(`phase_boundary_box_distance`: the phase points in 1D, the polygon's
edges in 2D) and to the crack (`crack_box_distance`), less a margin of
`geometry.tol_geom`: a lower bound for every cell centre of the tile.  The
margin, 1e-9 of the domain's length or diagonal, exceeds the rounding of
these distances (a few ulps of the coordinates) while the grid and the
geometry lie within 1e5 diagonals of the origin.  A box that no edge
reaches lies wholly in A or wholly outside, so its middle tells which.  A
tile that the bounds put off a transition takes that transition's plateau,
which its formula gives there exactly:

    c = 1      when the phase bound is > 0 and the middle lies in A,
    c = 0      when the phase bound is >= the width of g_W,
    z = 1, u = u_sharp   when the crack bound - lambda*delta is >= the
               width of g_V,

since g is exactly 0.0 for r <= 0 and 1.0 for r >= its width, smoothstep
is exactly 1.0 for t >= 1, and x * 1.0 == x.  Every other tile evaluates
the exact distances at each of its cells.  The displacement u_sharp is
taken on every tile, since its jump runs along the whole supporting line of
a crack, far tiles included; a piecewise-rigid u_sharp whose supporting line
leaves the tile's box of cell centres on one side gives that side's rigid
map over the tile's axes, without a side test per cell
(`sharp.piecewise_rigid_displacement`).  A tile's sample locations are its
axes of cell centres, broadcast (`np.meshgrid(..., sparse=True)`), never a
stack of points: the geometry takes coordinate arrays and answers in the
tile's shape, which is written straight into the tile.

The checks, the profiles and the tiles' plateau decisions are made once per
recovery (`RecoveryBands`); its `band` builds c, z and u on any range of
rows from them, each tile that meets the range cut to it.  Every value is the
one a single whole-grid pass gives, bit for bit, however the rows are cut:
the formulas are pointwise in the cell centre, and a plateau is the
formula's own value there.  Its `state`, which `build_recovery` returns,
builds all rows as one band, into arrays the fields take without a copy, as
a `fields._HandOver`, since `recover` dumps them.  `recover` and a sweep
row take their energy from the recovery as a slab source
(`RecoveryBands.slabs`), which proves the energy's plateau slabs first: the
same bounds, taken on the box of a slab's haloed rows across all columns,
with the geometry's `u_plateau` for u, put most slabs of a row on one
plateau of c, z and u, bit for bit, and such a slab is never built or read:
its key is the bytes of its c and z, since the energy reads only u's
differences, +0.0 there.
A sweep row builds the other slabs' rows in bands of at most one row of
tiles, each starting at the first row a slab needs and ending with its run
of unproved slabs, and a band is dropped once the pass has left it, so a
sweep row holds about one band of c, z and u, never a cells-sized array;
`recover`, which has built its state, reads them from its fields.  Besides
its arrays, a build holds a few numbers per tile and tile-sized
temporaries, under 3 MiB at 2^14 cells whatever the grid size.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._quad import cumulative_simpson, simpson
from .energy import DiffuseState
from .fields import _BLOCK, Grid, ScalarField, VectorField, _HandOver
from .potentials import PotentialSet


class WidthConditionError(ValueError):
    """The c-transition does not fit inside the damaged tube."""


class ResolutionError(ValueError):
    """A transition profile is thinner than two grid cells."""


@dataclass(frozen=True)
class ProfileParams:
    """Which well to traverse, its regularization floor, and the length scale."""
    f: Callable[[np.ndarray], np.ndarray]
    lam: float
    scale: float

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lambda must lie strictly in (0, 1)")
        if self.scale <= 0.0:
            raise ValueError("profile scale must be positive")


@dataclass(frozen=True)
class OptimalProfile:
    """Tabulated zeta with monotone piecewise-linear interpolation."""
    params: ProfileParams
    s_nodes: np.ndarray
    zeta_nodes: np.ndarray

    @property
    def width(self) -> float:
        return float(self.zeta_nodes[-1])

    def zeta(self, s) -> np.ndarray | float:
        s = np.asarray(s, dtype=float)
        if np.any(s < 0.0) or np.any(s > 1.0):
            raise ValueError("zeta argument outside [0, 1]")
        out = np.interp(s, self.s_nodes, self.zeta_nodes)
        return float(out) if out.ndim == 0 else out

    def g(self, r) -> np.ndarray | float:
        """Monotone inverse of zeta, clamped: 0 below 0, 1 above the width."""
        r = np.asarray(r, dtype=float)
        out = np.where(r <= 0.0, 0.0, 1.0)
        band = ~((r <= 0.0) | (r >= self.width))  # interpolate only here (NaN too)
        rb = r[band]
        idx = np.searchsorted(self.zeta_nodes, rb, side="right")
        idx = np.clip(idx, 1, len(self.zeta_nodes) - 1)
        z0, z1 = self.zeta_nodes[idx - 1], self.zeta_nodes[idx]
        s0, s1 = self.s_nodes[idx - 1], self.s_nodes[idx]
        out[band] = np.clip(s0 + (rb - z0) / (z1 - z0) * (s1 - s0), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out


def build_profile(pp: ProfileParams) -> OptimalProfile:
    s, zeta_vals = cumulative_simpson(
        lambda t: pp.scale / np.sqrt(pp.lam + np.maximum(pp.f(t), 0.0)),
        0.0, 1.0)
    if not np.all(np.diff(zeta_vals) > 0.0):
        raise ValueError("zeta tabulation is not strictly increasing")
    width_cap = pp.scale / np.sqrt(pp.lam)
    if zeta_vals[-1] > width_cap * (1.0 + 1e-12):
        raise ValueError("profile width exceeds scale/sqrt(lambda)")
    return OptimalProfile(pp, s, zeta_vals)


def profile_energy_1d(pp: ProfileParams) -> float:
    """Energy int_0^{zeta(1)} (f(g)/scale + scale g'^2) dr of one transition.

    Using g' = sqrt(lambda + f(g))/scale, the integrand in the s-variable is
    (2 f + lambda)/sqrt(lambda + f); the value is at most
    int_0^1 2 sqrt(f) ds + 2 sqrt(lambda).
    """
    return simpson(
        lambda s: (2.0 * np.maximum(pp.f(s), 0.0) + pp.lam)
        / np.sqrt(pp.lam + np.maximum(pp.f(s), 0.0)),
        0.0, 1.0)


def smoothstep(t: np.ndarray) -> np.ndarray:
    """Cubic 3t^2 - 2t^3 clamped to [0, 1]; slope bounded by 3/2."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def width_violation(geometry, eps: float, delta: float, lam: float) -> Optional[str]:
    """Why the width condition eps/sqrt(lam) <= lam*delta fails, or None.

    The condition binds only when the configuration has both a phase boundary
    and a crack; it is tested with a relative slack of 1e-12.
    """
    if not (geometry.has_phase() and geometry.has_crack()):
        return None
    if eps / np.sqrt(lam) > lam * delta * (1.0 + 1e-12):
        return (f"eps/sqrt(lambda) = {eps / np.sqrt(lam):.3e} exceeds "
                f"lambda*delta = {lam * delta:.3e}")
    return None


def _transition(f: Callable[[np.ndarray], np.ndarray], lam: float, scale: float,
                hmax: float, label: str) -> OptimalProfile:
    """Profile of one transition; ResolutionError when it is thinner than 2 cells."""
    prof = build_profile(ProfileParams(f, lam, scale))
    if prof.width < 2.0 * hmax:
        raise ResolutionError(
            f"{label}-transition width {prof.width:.3e} needs spacing < "
            f"{prof.width / 2:.3e}; refine the grid")
    return prof


def _side(dim: int) -> int:
    """The side of a recovery tile: `_BLOCK` cells in 1D, isqrt(`_BLOCK`) in 2D."""
    return _BLOCK if dim == 1 else math.isqrt(_BLOCK)


def _tiles(cells: tuple[int, ...]) -> list[tuple[slice, ...]]:
    """The grid's square tiles of at most `_BLOCK` cells, as index slices in
    row-major order, `_side` cells a side; a tile at the far end of an axis
    whose count the side does not divide is cut short."""
    side = _side(len(cells))
    return list(itertools.product(*[[slice(s, min(s + side, n)) for s in range(0, n, side)]
                                    for n in cells]))


class RecoveryBands:
    """The diffuse embedding of a sharp configuration on a grid, built on
    demand.  Construction makes the decisions once: the checks, the
    profiles, the tiles and which of them the bounds put on a plateau; it
    raises what `build_recovery` documents.  `band` builds c, z and u on any
    range of rows from them, `state` builds the whole grid as a
    `DiffuseState`, and `slabs` makes the recovery a slab source of
    `energy.diffuse_energy`.

    `slabs(halos)` first proves, where it can, that the haloed rows of a
    slab hold one value of c, of z and of u, bit for bit, without building
    them (`_prove`), and yields for such a slab its key, the raw bytes of
    its c and z.  The other
    slabs' rows are built in bands of at most `_side` rows (128 in 2D,
    `_BLOCK` cells in 1D).  A band starts where the last one stopped, or at
    the slab's first row when the rows between were never needed, and stops
    at the end of the run of unproved slabs that the slab starts, so the
    rows of a proved slab that no other slab reads as its halo are never
    built.  Before a band is built, the rest of the last one that the slab
    still needs is copied and the band dropped, so a sweep row holds at most
    one band of c, z and u and slab-sized copies, never a cells-sized array.
    Once `state` has built the whole grid, `slabs` reads the unproved rows
    from its fields and builds none.  Each built cell is built once and
    holds the bits of `state`, since the formulas are pointwise in the cell
    centre and a plateau is the formula's own value."""

    def __init__(self, geometry, eps: float, delta: float, lam: float, grid: Grid,
                 P: PotentialSet, *, enforce_width: bool):
        if grid.dim != geometry.dim:
            raise ValueError("grid and geometry dimensions differ")
        DiffuseState.check_lengths(eps, delta)
        reason = width_violation(geometry, eps, delta, lam) if enforce_width else None
        if reason is not None:
            raise WidthConditionError(reason)

        hmax = max(grid.spacing)
        self.prof_w = _transition(P.w, lam, eps, hmax, "c") if geometry.has_phase() else None
        self.prof_v = _transition(P.v, lam, delta, hmax, "z") if geometry.has_crack() else None
        self.geometry, self.grid, self.eps, self.delta = geometry, grid, eps, delta
        self.tube = lam * delta
        self.centers = [grid.centers(a) for a in range(grid.dim)]
        self.tiles = _tiles(grid.cells)
        # the rows of a band, one row of tiles, and its count of tiles
        self.side = _side(grid.dim)
        self.row_tiles = len(self.tiles) // -(-grid.cells[0] // self.side)
        self.c_one, self.c_band, self.z_band = self._bounds(
            np.array([[x[s.start] for x, s in zip(self.centers, t)] for t in self.tiles]),
            np.array([[x[s.stop - 1] for x, s in zip(self.centers, t)] for t in self.tiles]))
        self._whole = None  # c, z and u of the whole grid, once `state` has built them

    def _bounds(self, first: np.ndarray, last: np.ndarray):
        """Which boxes of cell centres [first, last] ((k, d)) lie on the c = 1
        plateau, which in the c-transition (the others take c = 0), and
        which in the z-transition (the others take z = 1 and u = u_sharp):
        each box's distances, less `tol_geom`, bound those of every cell
        centre in it."""
        geometry, none = self.geometry, np.zeros(len(first), dtype=bool)
        c_one = c_band = z_band = none
        if self.prof_w is not None:
            gap = geometry.phase_boundary_box_distance(first, last) - geometry.tol_geom
            # a box that no edge reaches lies wholly in A or wholly outside
            c_one = (gap > 0.0) & (geometry.phase_distance(*(0.5 * (first + last)).T) == 0.0)
            c_band = ~c_one & (gap < self.prof_w.width)
        if self.prof_v is not None:
            z_band = (geometry.crack_box_distance(first, last) - geometry.tol_geom
                      - self.tube < self.prof_v.width)
        return c_one, c_band, z_band

    def _prove(self, halos: list[slice]) -> list[Optional[bytes]]:
        """For each range of rows, the raw bytes of its one value of c and
        of z, in that order, where the bounds and the geometry's `u_plateau`
        prove that all its rows hold them with one finite value of u; else
        None.  The rows are taken as one box of cell centres across all
        columns: the tiles' bounds (`_bounds`) put the box on a plateau of
        c (1 or 0) and of z = 1, where u is u_sharp with no smoothstep
        factor, and `u_plateau` proves u_sharp constant there.  The key
        holds no u: the energy reads only u's differences, +0.0 on a
        plateau."""
        x, rest = self.centers[0], self.centers[1:]
        first = np.array([[x[h.start]] + [a[0] for a in rest] for h in halos])
        last = np.array([[x[h.stop - 1]] + [a[-1] for a in rest] for h in halos])
        c_one, c_band, z_band = self._bounds(first, last)
        proved = self.geometry.u_plateau(first, last) & ~c_band & ~z_band
        return [np.array([float(one), 1.0]).tobytes() if flat else None
                for one, flat in zip(c_one, proved)]

    def slabs(self, halos: list[slice]):
        """For each range of rows in `halos`, its proved key (`_prove`), or
        c, z and u on its rows: views of a band when they lie in one, else
        one copy of their parts.  The ranges come in increasing order, as
        `energy._slabs` cuts them: each starts and stops no earlier than the
        one before.  So a band stops at the stop of the last unproved range
        of its run, and rows before a slab's first are dropped as it is
        reached."""
        keys = self._prove(halos)
        # (first row, (c, z, u)) of the built rows still needed, and the
        # rows built so far
        held, built = [], 0
        if self._whole is not None:
            held, built = [(0, self._whole)], self.grid.cells[0]
        for k, (r, key) in enumerate(zip(halos, keys)):
            if key is not None:
                yield key
                continue
            held = [(start, arrays) for start, arrays in held if start + len(arrays[0]) > r.start]
            if r.stop > built:
                held = [(start, arrays) if start >= r.start else
                        (r.start, tuple(a[r.start - start:].copy() for a in arrays))
                        for start, arrays in held]
                stop = r.stop
                for later, proved in zip(halos[k + 1:], keys[k + 1:]):
                    if proved is not None:
                        break
                    stop = later.stop
                built = max(built, r.start)
                while built < r.stop:
                    band = slice(built, min(built + self.side, stop))
                    held.append((band.start, self.band(band)))
                    built = band.stop
            parts = [tuple(a[max(r.start - start, 0):r.stop - start] for a in arrays)
                     for start, arrays in held if start < r.stop]
            yield parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))
            parts = None  # dropped before the next band is built

    def band(self, rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """c, z and u on the rows of the slice `rows`, new arrays: each tile
        that meets them, cut to them, takes its plateau or its formulas."""
        cells = (rows.stop - rows.start,) + self.grid.cells[1:]
        c = np.zeros(cells)  # the c = 0 plateau, and c without a phase
        z = np.ones(cells)  # the z = 1 plateau, and z without a crack
        u = np.empty(cells + (self.grid.dim,))
        geometry, prof_w, prof_v, tube = self.geometry, self.prof_w, self.prof_v, self.tube
        for k in range(rows.start // self.side * self.row_tiles,
                       -(-rows.stop // self.side) * self.row_tiles):
            tile = self.tiles[k]
            part = (slice(max(tile[0].start, rows.start), min(tile[0].stop, rows.stop)),) + tile[1:]
            out = (slice(part[0].start - rows.start, part[0].stop - rows.start),) + tile[1:]
            axes = np.meshgrid(*[x[s] for x, s in zip(self.centers, part)], indexing="ij",
                               sparse=True)
            if self.c_one[k]:
                c[out] = 1.0
            elif self.c_band[k]:
                c[out] = prof_w.g(prof_w.width - geometry.phase_distance(*axes))
            u[out] = geometry.u_values(*axes)
            if self.z_band[k]:
                crack_dist = geometry.crack_distance(*axes)
                z[out] = prof_v.g(crack_dist - tube)
                u[out] *= smoothstep(crack_dist / tube)[..., None]
        return c, z, u


    def state(self) -> DiffuseState:
        """The whole grid as one `band` of all its rows, in arrays the
        fields take without a copy (`fields._HandOver`); their frozen views
        are kept, so that a later `slabs` reads its rows from them."""
        grid = self.grid
        c, z, u = self.band(slice(0, grid.cells[0]))
        state = DiffuseState(c=ScalarField(grid, _HandOver(c)), u=VectorField(grid, _HandOver(u)),
                             z=ScalarField(grid, _HandOver(z)), eps=self.eps, delta=self.delta)
        self._whole = state.c.values, state.z.values, state.u.values
        return state


def build_recovery(geometry, eps: float, delta: float, lam: float, grid: Grid,
                   P: PotentialSet, *, enforce_width: bool) -> DiffuseState:
    """Sample the diffuse embedding of a sharp configuration on a grid.

    With enforce_width, raises WidthConditionError with the reason
    `width_violation` gives when the configuration has both a phase boundary
    and a crack but eps/sqrt(lam) > lam*delta (the c-transition then leaks
    out of the damaged tube); without it, builds anyway, e.g. for energy
    sweeps in the asymptotic regime.  The keyword has no default here: a
    sweep's, and so the CLI's, is `harness.SweepPlan.enforce_width`.  Raises
    ResolutionError when a needed transition is thinner than two cells, and
    ValueError unless 0 < eps < inf and 0 < delta < inf.  The state is
    `RecoveryBands.state`.
    """
    return RecoveryBands(geometry, eps, delta, lam, grid, P,
                         enforce_width=enforce_width).state()
