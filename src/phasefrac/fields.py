"""Uniform cell-centered grids on axis-aligned boxes and discrete operators.

Discrete gradient: centered differences in the interior, one-sided at the two
boundary cells of each axis; exact on affine fields. The adjoint (transpose)
operators are provided so energies differentiated against nodal values close
exactly under the discrete inner product. Integration is the midpoint rule.

The gradient and the strain are tuples of contiguous cells-shaped planes.
`gradient` returns one plane per axis, (D_0 f,) in 1D and (D_0 f, D_1 f) in
2D, never a cells + (d,) array, and `gradient_adjoint` takes such a tuple,
so |grad f|^2 is a sum of plane products.  A symmetric strain is (xx,) in 1D
and (xx, yy, xy) in 2D, never a cells + (d, d) array.  The Frobenius product
of two such tensors counts the xy plane twice, so the adjoint of
`sym_gradient` pairs that plane with weight 2.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Axis-aligned box discretized into uniform cells; fields live at centers."""
    origin: tuple[float, ...]
    extent: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        if len(self.origin) != len(self.extent) or len(self.origin) != len(self.cells):
            raise ValueError("origin, extent, cells must have equal length")
        if self.dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if any(n < 2 for n in self.cells):
            raise ValueError("need at least 2 cells per axis")
        if not all(0.0 < e < np.inf for e in self.extent):
            raise ValueError(f"extent must be positive and finite, got {self.extent}")
        if not np.all(np.isfinite(self.origin)):
            raise ValueError(f"origin must be finite, got {self.origin}")

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / n for e, n in zip(self.extent, self.cells))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return self.origin[axis] + h * (np.arange(self.cells[axis]) + 0.5)

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays, each shaped like a scalar field."""
        axes = [self.centers(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))


@dataclass(frozen=True)
class _Field:
    """Values on the cells of a grid, `rank` trailing axes of length dim.  The
    one validation point: values are copied, checked and frozen on construction.
    A read-only array that owns its data is not copied: the caller hands it
    over, and turning its writes back on would change the field, past the
    checks."""
    grid: Grid
    values: np.ndarray
    rank: ClassVar[int] = 0

    def __post_init__(self):
        # copy so freezing never touches the caller's array; an array that owns
        # its data and is read-only already is frozen, and is taken as it is
        v = self.values
        frozen = isinstance(v, np.ndarray) and v.flags.owndata and not v.flags.writeable
        arr = np.array(v, dtype=float, order="C", copy=None if frozen else True)
        shape = self.grid.cells + (self.grid.dim,) * self.rank
        if arr.shape != shape:
            raise ValueError(f"field shape {arr.shape} does not match grid {shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("field contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def full(cls, grid: Grid, value):
        """Constant field; `value` broadcasts to the per-cell shape."""
        cell = (grid.dim,) * cls.rank
        return cls(grid, np.broadcast_to(np.asarray(value, dtype=float), grid.cells + cell))


class ScalarField(_Field):
    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        return cls(grid, np.asarray(fn(*grid.meshgrid()), dtype=float))


class VectorField(_Field):
    rank = 1  # values shape cells + (d,)

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "VectorField":
        comps = fn(*grid.meshgrid())
        return cls(grid, np.stack([np.asarray(c, dtype=float) for c in comps], axis=-1))


class SymTensorField(_Field):
    """Symmetric (d, d) values per cell.  Nothing in the package builds one:
    strains are planes (see `sym_gradient`).  It stays only because the
    benchmark's tracer names it; ROADMAP item 10 deletes it."""
    rank = 2  # values shape cells + (d, d), symmetric per cell


def _diff(v: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centered interior / one-sided boundary difference along one axis."""
    pre = (slice(None),) * axis  # index prefix selecting the axes before `axis`
    out = np.empty_like(v)
    out[pre + (0,)] = (v[pre + (1,)] - v[pre + (0,)]) / h
    out[pre + (-1,)] = (v[pre + (-1,)] - v[pre + (-2,)]) / h
    inner = out[pre + (slice(1, -1),)]  # formed in place: no cells-sized temporary
    np.subtract(v[pre + (slice(2, None),)], v[pre + (slice(None, -2),)], out=inner)
    inner /= 2.0 * h
    return out


def _diff_t(w: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Transpose of _diff under the plain (unweighted) euclidean inner product.

    With g = w / (2h), and w / h in the two boundary rows (the one-sided
    rows of _diff), out = (-g_0 - g_1, g_0 - g_2, ..., g_{n-3} - g_{n-1},
    g_{n-2} + g_{n-1}) along the axis, for every n >= 2."""
    pre = (slice(None),) * axis
    g = w / (2.0 * h)
    g[pre + (0,)] = w[pre + (0,)] / h
    g[pre + (-1,)] = w[pre + (-1,)] / h
    out = np.empty_like(w)
    np.subtract(g[pre + (slice(None, -2),)], g[pre + (slice(2, None),)],
                out=out[pre + (slice(1, -1),)])
    out[pre + (0,)] = -g[pre + (0,)] - g[pre + (1,)]
    out[pre + (-1,)] = g[pre + (-2,)] + g[pre + (-1,)]
    return out


# The four operators run on plain arrays and the spacing tuple h; a caller
# holding a field passes `f.values, f.grid.spacing`.

def gradient(f: np.ndarray, h: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """Discrete gradient of a scalar array f (shape cells) as cells-shaped
    planes, one per axis: (D_0 f,) in 1D, (D_0 f, D_1 f) in 2D."""
    return tuple(_diff(f, a, ha) for a, ha in enumerate(h))


def gradient_adjoint(v: tuple[np.ndarray, ...], h: tuple[float, ...]) -> np.ndarray:
    """Adjoint of `gradient`: sum over the planes of sum(gradient(f, h)[a] * v[a])
    = sum(f * gradient_adjoint(v, h)) exactly, for every f of shape cells and
    every tuple v of one cells-shaped plane per axis."""
    out = np.zeros(v[0].shape)
    for a, ha in enumerate(h):
        out += _diff_t(v[a], a, ha)
    return out


def sym_gradient(u: np.ndarray, h: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """Symmetric part of the discrete Jacobian of u (shape cells + (d,)) as
    cells-shaped planes: (xx,) in 1D, (xx, yy, xy) in 2D, with
    xy = (D_1 u_0 + D_0 u_1) / 2; vanishes on rigid motions."""
    xx = _diff(u[..., 0], 0, h[0])
    if len(h) == 1:
        return (xx,)
    return (xx, _diff(u[..., 1], 1, h[1]),
            0.5 * (_diff(u[..., 0], 1, h[1]) + _diff(u[..., 1], 0, h[0])))


def sym_gradient_adjoint(s: tuple[np.ndarray, ...], h: tuple[float, ...]) -> np.ndarray:
    """Adjoint of `sym_gradient` under the Frobenius product, which counts the
    xy plane twice: with e = sym_gradient(u, h), sum(e_xx s_xx + e_yy s_yy
    + 2 e_xy s_xy) = sum(u * sym_gradient_adjoint(s, h)) exactly.  Returns
    shape cells + (d,)."""
    if len(h) == 1:
        return _diff_t(s[0], 0, h[0])[..., None]
    xx, yy, xy = s
    return np.stack((_diff_t(xx, 0, h[0]) + _diff_t(xy, 1, h[1]),
                     _diff_t(xy, 0, h[0]) + _diff_t(yy, 1, h[1])), axis=-1)


def sym_planes(m, dim: int, name: str) -> tuple:
    """The planes of a symmetric matrix `m` in the order of `sym_gradient`:
    (m_00,) in 1D, (m_00, m_11, m_01) in 2D.  A shape other than (dim, dim)
    raises ValueError naming both shapes.  Called only where a matrix enters
    (an `ElasticModel`'s e0, an affine displacement's gradient); past that
    point strains are planes."""
    m = np.asarray(m, dtype=float)
    if m.shape != (dim, dim):
        raise ValueError(f"{name} has shape {m.shape}, but a {dim}D grid needs "
                         f"{(dim, dim)}")
    return (m[0, 0],) if dim == 1 else (m[0, 0], m[1, 1], m[0, 1])


def integrate(f: ScalarField) -> float:
    """Midpoint rule: cell volume times the sum over cells in row-major layout."""
    return float(f.grid.cell_volume * np.sum(f.values))


@dataclass(frozen=True)
class SliceSamples:
    """Samples of a field along a line x = y + t*xi clipped to the open box."""
    t: np.ndarray
    values: np.ndarray
    hit: bool


def _clip_line_to_box(grid: Grid, y: np.ndarray, xi: np.ndarray) -> tuple[float, float] | None:
    t0, t1 = -np.inf, np.inf
    for a in range(grid.dim):
        lo = grid.origin[a]
        hi = grid.origin[a] + grid.extent[a]
        if abs(xi[a]) < 1e-15:
            if not (lo < y[a] < hi):
                return None
            continue
        ta = (lo - y[a]) / xi[a]
        tb = (hi - y[a]) / xi[a]
        t0 = max(t0, min(ta, tb))
        t1 = min(t1, max(ta, tb))
    if not (t0 < t1):
        return None
    return float(t0), float(t1)


def sample_at(field, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of a Scalar/Vector field at arbitrary points.

    Points within the half-cell margin of the boundary are clamped to the
    nearest cell center (first-order accurate near the boundary and at kinks).
    `points` has shape (m, d); scalar fields return (m,), vector fields (m, d).
    """
    g = field.grid
    vals = field.values
    idx = []
    frac = []
    for a in range(g.dim):
        h = g.spacing[a]
        x = (points[:, a] - g.origin[a]) / h - 0.5
        x = np.clip(x, 0.0, g.cells[a] - 1.0)
        i0 = np.minimum(np.floor(x).astype(int), g.cells[a] - 2)
        idx.append(i0)
        frac.append(x - i0)
    if g.dim == 1:
        i = idx[0]
        t = frac[0]
        t = t if vals.ndim == 1 else t[:, None]
        return (1 - t) * vals[i] + t * vals[i + 1]
    i, j = idx
    s, t = frac
    if vals.ndim > 2:  # vector: broadcast weights over components
        s = s[:, None]
        t = t[:, None]
    return ((1 - s) * (1 - t) * vals[i, j] + s * (1 - t) * vals[i + 1, j]
            + (1 - s) * t * vals[i, j + 1] + s * t * vals[i + 1, j + 1])


def slice_extract(field, xi, y, samples: int) -> SliceSamples:
    """Sample a field along the line t -> y + t*xi restricted to the domain.

    Vector fields are projected onto xi, i.e. the returned values are
    <u(y + t*xi), xi>.  xi must be a unit vector to 1e-12.  A line missing the
    domain yields an empty, flagged result.
    """
    g = field.grid
    xi = np.asarray(xi, dtype=float)
    y = np.asarray(y, dtype=float)
    if xi.shape != (g.dim,) or y.shape != (g.dim,):
        raise ValueError("xi and y must have the grid dimension")
    if abs(np.linalg.norm(xi) - 1.0) > 1e-12:
        raise ValueError("xi must be a unit vector")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    span = _clip_line_to_box(g, y, xi)
    if span is None:
        empty = np.empty((0,))
        return SliceSamples(empty, empty, hit=False)
    t0, t1 = span
    dt = (t1 - t0) / samples
    t = t0 + dt * (np.arange(samples) + 0.5)
    pts = y[None, :] + t[:, None] * xi[None, :]
    vals = sample_at(field, pts)
    if vals.ndim == 2:
        vals = vals @ xi
    return SliceSamples(t, vals, hit=True)


def _write_atomic(path, pieces) -> None:
    """Write the text `pieces` to `path` through `path.partial` and a rename, so
    readers never see a half-written file.  `pieces` is an iterable of strings
    (a list of one for a single text; a bare str would be written a character
    at a time).  A failed write removes `path.partial`, re-raises and leaves
    `path` as it was."""
    partial = f"{path}.partial"
    fh = open(partial, "w")
    try:
        with fh:
            fh.writelines(pieces)
    except BaseException:
        os.remove(partial)
        raise
    os.replace(partial, path)


_CHUNK = 1 << 13  # values formatted by one `%` operation, or parsed by one numpy call


def write_field(f: ScalarField, path) -> None:
    """Plain-text dump: header lines dim, cells, origin, extent, then the
    row-major values, each as `%.17g` on its own line, ending in a newline.
    `%.17g` round-trips every float64, so `read_field` returns the same bits.
    The values are formatted and written in chunks, never as one text."""
    g = f.grid

    def pieces():
        yield (f"dim {g.dim}\n"
               + "cells " + " ".join(str(n) for n in g.cells) + "\n"
               + "origin " + " ".join(f"{x:.17g}" for x in g.origin) + "\n"
               + "extent " + " ".join(f"{x:.17g}" for x in g.extent) + "\n")
        flat = f.values.reshape(-1)
        for k in range(0, flat.size, _CHUNK):
            part = flat[k:k + _CHUNK].tolist()
            yield ("%.17g\n" * len(part)) % tuple(part)

    _write_atomic(path, pieces())


def read_field(path) -> ScalarField:
    """Inverse of `write_field`, bit for bit.  Every fault names `path`, and a
    fault of one line also its 1-based number and text.  The values are parsed
    in chunks of `_CHUNK` lines straight into the field's array, never held
    as one text."""
    with open(path) as fh:
        lines = [fh.readline() for _ in range(4)]
        if "" in lines:
            raise ValueError(f"{path}: {lines.index('')} lines, but the header alone has 4")
        lines = [line.rstrip("\n") for line in lines]
        header = []
        for k, key in enumerate(("dim", "cells", "origin", "extent")):
            name, *rest = lines[k].split() or [""]
            try:
                if name != key:
                    raise ValueError(f"expected {key!r} first")
                header.append(tuple((int if k < 2 else float)(x) for x in rest))
                if k == 1 and header[0] != (len(rest),):
                    raise ValueError(f"{len(rest)} cell count(s), but line 1 reads {lines[0]!r}")
            except ValueError as exc:
                raise ValueError(f"{path}: header line {k + 1} {lines[k]!r}: {exc}") from None
        _, cells, origin, extent = header
        try:
            grid = Grid(origin, extent, cells)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        n = math.prod(cells)
        # n value lines take n bytes at least; a larger n is a count fault
        values = np.empty(cells if n <= os.fstat(fh.fileno()).st_size else 0)
        flat = values.reshape(-1)
        count, fault = 0, None
        while chunk := list(itertools.islice(fh, _CHUNK)):
            if fault is None and count + len(chunk) <= flat.size:
                try:
                    flat[count:count + len(chunk)] = np.array(chunk, dtype=float)
                except ValueError as bulk:
                    fault = _first_bad_line(chunk, count + 5) or str(bulk)
            count += len(chunk)
    if count != n:
        raise ValueError(f"{path}: {count} values, but the header declares {n} cells")
    if fault is not None:
        raise ValueError(f"{path}: {fault}")
    values.setflags(write=False)
    try:
        return ScalarField(grid, values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _first_bad_line(chunk: list[str], first: int) -> str | None:
    """Name the first line of `chunk` (numbered from `first`) that float()
    rejects; numpy parses each string the same way."""
    for k, line in enumerate(chunk, start=first):
        text = line.rstrip("\n")
        try:
            float(text)
        except ValueError as exc:
            return f"line {k} {text!r}: {exc}"
    return None
