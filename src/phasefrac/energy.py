"""Diffuse energy of a (c, u, z) triplet and its exact discrete gradients.

The energy is the midpoint-rule evaluation of

    E = int phi_delta(z) (W(c)/eps + eps |grad c|^2)
      + int (psi(z) + eta(delta)) C(e(u) - c e0)
      + int (V(z)/delta + delta |grad z|^2)

with C the isotropic quadratic form C(xi) = lambda tr(xi)^2 + 2 mu |xi|^2 and
psi the stiffness degradation (default psi(z) = z^2, eta = delta^2, which is
the plain (z^2 + delta^2) weight).  Gradients are derivatives of the discrete
energy with respect to nodal values (discretize-then-differentiate), so the
solver's descent property holds exactly; they are validated against central
finite differences in the test suite.

`evaluate` is the one pass for the energy and the gradients.
`evaluate_block` is that pass at one block, which also returns the energy of
the state with that block replaced; such a trial recomputes only the terms
the block moves, so an Armijo search costs one pass per step.
`diffuse_energy` is the energy alone, bit for bit `evaluate`'s, in one
pass over slabs of `fields._BLOCK` cells (whole rows, each read with one
halo row on each side) from a slab source: a state's arrays, or a recovery
that proves its plateau slabs and builds the others band by band as the
pass reaches them (`recovery.RecoveryBands`, what `recover` and a sweep row
use).  The pass hands the source all its slabs' rows at once, and takes,
slab by slab, either the rows, which it reads once and forms three
densities from, or a proved plateau, the raw bytes of its c and z; it
holds no cells-sized array where `evaluate` holds about fifteen.  On a
plateau slab every difference is +0.0, whatever u's one value, so each
density is one number, formed once per plateau from c and z on a block of
2 cells a side, and a flat piece over the slab.  That rests on each
density being a pointwise function of the cell values and the difference
planes, so the potentials and the degradation must act elementwise, as all
of the package's do.

Every integral is the cell volume times a sum over the grid's slabs
(`_slab_rows`): `np.sum` of each slab's cells, the partial sums added left
to right.  The whole-array pass's is `_integral`, a single `np.sum` on a
grid of one slab; the slab pass's three are `_integrals`, which take each
slab's pieces as they come and sum a flat one once per value and shape.
Both passes sum the same values slab by slab in the same order, so they
agree bit for bit on any numpy, whatever order its `np.sum` adds in.

Strains, e0 and stresses are tuples of strain planes, (xx,) in 1D and
(xx, yy, xy) in 2D (see `fields.sym_gradient`).  In |xi|^2 and in the
c-gradient's dC(xi) : e0 the xy plane counts twice, summed in the row-major
order of the (d, d) matrices, xx, xy, yx, yy.  `ElasticModel` takes e0 as a
symmetric matrix, freezes a copy and converts it to planes once; an e0 of
another dimension than the grid raises ValueError.  grad c and grad z are
planes too, one per axis (`fields.gradient`), and |grad c|^2 is their sum of
squares in axis order.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .fields import (_BLOCK, Grid, ScalarField, VectorField, gradient, gradient_adjoint,
                     sym_gradient, sym_gradient_adjoint, sym_planes)
from .potentials import PotentialSet


def _psi_quadratic(z):
    return np.asarray(z) ** 2


def _dpsi_quadratic(z):
    return 2.0 * np.asarray(z)


def _psi_linear(z):
    return np.asarray(z) * 1.0


def _dpsi_linear(z):
    return np.ones_like(np.asarray(z, dtype=float))


def _eta_delta_squared(delta: float) -> float:
    return delta * delta


def _eta_delta_cubed(delta: float) -> float:
    return delta ** 3


# by name: the degradation psi with its derivative, and the rule delta -> eta
DEGRADATIONS = {"quadratic": (_psi_quadratic, _dpsi_quadratic),
                "linear": (_psi_linear, _dpsi_linear)}
ETA_RULES = {"delta_squared": _eta_delta_squared, "delta_cubed": _eta_delta_cubed}


def _trace(xi: tuple) -> np.ndarray:
    return xi[0] if len(xi) == 1 else xi[0] + xi[1]


def _frobenius(a: tuple, b: tuple) -> np.ndarray:
    """a : b per cell for two symmetric tensors held as planes; the xy plane
    counts twice, and the sum runs in the row-major order of the (d, d)
    matrices, xx, xy, yx, yy."""
    if len(a) == 1:
        return a[0] * b[0]
    xy = a[2] * b[2]
    return a[0] * b[0] + xy + xy + a[1] * b[1]


@dataclass(frozen=True)
class ElasticModel:
    """Isotropic elasticity with lattice-misfit strain and damage degradation.

    The degradation psi with its derivative, and the rule delta -> eta, are
    chosen by name, keys of `DEGRADATIONS` and `ETA_RULES`, so psi cannot be
    set without its derivative; `psi`, `dpsi` and `eta` are resolved from the
    names once, at construction, and an unknown name raises ValueError.
    Models compare by e0's planes, a tuple, where a 2x2 array would refuse
    the comparison, so two models with the same settings compare equal."""
    lame_lambda: float = 0.0
    lame_mu: float = 0.5
    e0: np.ndarray = field(default_factory=lambda: np.zeros((1, 1)), compare=False)
    degradation: str = "quadratic"
    eta_rule: str = "delta_squared"
    psi: Callable = field(init=False, repr=False, compare=False)
    dpsi: Callable = field(init=False, repr=False, compare=False)
    eta: Callable[[float], float] = field(init=False, repr=False, compare=False)
    _e0_planes: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # a view of a frozen copy, as `fields._Field` stores its values: the
        # caller's array cannot change e0, and no one can make it writable
        e0 = np.array(self.e0, dtype=float)
        e0.setflags(write=False)
        object.__setattr__(self, "e0", e0.view())
        if not (0.0 < self.lame_mu < np.inf and 0.0 <= self.lame_lambda < np.inf):
            raise ValueError(f"need 0 < mu < inf and 0 <= lambda < inf, got mu "
                             f"{self.lame_mu}, lambda {self.lame_lambda}")
        if e0.shape not in ((1, 1), (2, 2)):
            raise ValueError(f"e0 must be a 1x1 or 2x2 matrix, got shape {e0.shape}")
        if not np.all(np.isfinite(e0)):
            raise ValueError(f"e0 must be finite, got {e0.tolist()}")
        if not np.allclose(e0, e0.T, rtol=0.0, atol=1e-14):
            raise ValueError(f"e0 must be symmetric, got {e0.tolist()}")
        object.__setattr__(self, "_e0_planes", sym_planes(e0, e0.shape[0], "e0"))
        for name, table in (("degradation", DEGRADATIONS), ("eta_rule", ETA_RULES)):
            if getattr(self, name) not in table:
                raise ValueError(f"unknown {name} {getattr(self, name)!r} ({'|'.join(table)})")
        object.__setattr__(self, "psi", DEGRADATIONS[self.degradation][0])
        object.__setattr__(self, "dpsi", DEGRADATIONS[self.degradation][1])
        object.__setattr__(self, "eta", ETA_RULES[self.eta_rule])

    def form(self, xi: tuple[np.ndarray, ...]) -> np.ndarray:
        """Quadratic form C(xi) per cell; xi is a tuple of strain planes in the
        order of `sym_gradient`, (xx,) or (xx, yy, xy)."""
        tr = _trace(xi)
        return self.lame_lambda * tr * tr + 2.0 * self.lame_mu * _frobenius(xi, xi)

    def dform(self, xi: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        """Derivative of the form, dC(xi) = 2 lambda tr(xi) I + 4 mu xi, as
        planes like xi."""
        t = 2.0 * self.lame_lambda * _trace(xi)
        diag = tuple(t + 4.0 * self.lame_mu * p for p in xi[:2])
        return diag + tuple(4.0 * self.lame_mu * p for p in xi[2:])

    def e0_planes(self, dim: int) -> tuple:
        """The misfit strain e0 as planes for a `dim`-dimensional grid, derived
        once at construction; an e0 of another size raises ValueError."""
        if self.e0.shape != (dim, dim):
            raise ValueError(f"e0 has shape {self.e0.shape}, but a {dim}D grid needs "
                             f"{(dim, dim)}")
        return self._e0_planes


@dataclass(frozen=True)
class DiffuseState:
    """The triplet (c, u, z) with its regularization lengths (eps, delta).

    z is stored as given; energy evaluation clamps degradation arguments to
    [0, 1] and counts the clamped cells, the solver keeps z in the box by
    projection.
    """
    c: ScalarField
    u: VectorField
    z: ScalarField
    eps: float
    delta: float

    def __post_init__(self):
        self.check_lengths(self.eps, self.delta)
        if self.c.grid != self.u.grid or self.c.grid != self.z.grid:
            raise ValueError("c, u, z must share one grid")

    @staticmethod
    def check_lengths(eps: float, delta: float) -> None:
        """Raise ValueError naming the values unless 0 < eps < inf and
        0 < delta < inf; NaN fails too."""
        if not (0.0 < eps < np.inf and 0.0 < delta < np.inf):
            raise ValueError(f"need 0 < eps < inf and 0 < delta < inf, got eps {eps}, "
                             f"delta {delta}")

    @property
    def grid(self) -> Grid:
        return self.c.grid

    def slabs(self, halos: list[slice]) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """c, z and u on each range of rows in `halos`, as views: the slab
        source of `diffuse_energy`, which proves no plateau."""
        return ((self.c.values[r], self.z.values[r], self.u.values[r]) for r in halos)

    def replace(self, **kw) -> "DiffuseState":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Component values plus evaluation metadata (clamp audit, tube bound)."""
    e_phase: float
    e_elastic: float
    e_crack: float
    clamped_cells: int = 0
    excluded_bound: float = 0.0

    def __post_init__(self):
        for name in ("e_phase", "e_elastic", "e_crack"):
            if not 0.0 <= getattr(self, name) < np.inf:  # nan fails too
                raise ValueError(f"{name} must be finite and nonnegative, got "
                                 f"{getattr(self, name)}")

    @property
    def e_total(self) -> float:
        return self.e_phase + self.e_elastic + self.e_crack


class _Flat(NamedTuple):
    """A flat piece of a density (`_integrals`): one value, a numpy float,
    in every cell of an array of `shape`."""
    value: np.float64
    shape: tuple


def _integral(density: np.ndarray, grid: Grid, label: str) -> float:
    """The midpoint rule of one whole density array, summed over its slabs'
    rows (`_slab_rows`) as `_integrals` sums them.  A density of at most
    `_BLOCK` cells is one slab, so its integral is the cell volume times
    `np.sum` of the array, checked as `_checked_sum` does."""
    if density.size <= _BLOCK:
        return float(grid.cell_volume * _checked_sum(density, 0, grid.cells, label))
    return _integrals(((density[rows],) for rows in _slab_rows(grid)), grid, (label,))[0]


def _checked_sum(values: np.ndarray, lo: int, shape: tuple, label: str):
    """The sum of `values`, the row-major cells from lo on of a density over
    `shape`, as `np.sum` gives it.  A sum is finite only if every term is, so
    the values are scanned only when it is not: the first non-finite cell
    raises ValueError naming the term `label` and that cell, and a finite
    density whose sum overflows returns inf, which `EnergyBreakdown`
    refuses."""
    total = values.sum()
    if not math.isfinite(total):
        bad = ~np.isfinite(values)
        if bad.any():
            idx = np.unravel_index(lo + int(np.argmax(bad)), shape)
            raise ValueError(f"non-finite {label} density at cell "
                             f"{tuple(int(i) for i in idx)}")
    return total


def _integrals(slabs: Iterable[tuple], grid: Grid, labels: tuple[str, ...]) -> list[float]:
    """The midpoint rule of several densities formed together.  `slabs`
    yields, in row-major order, one piece per label for each slab: a formed
    array, or a `_Flat` one.  Each integral is the cell volume times the
    `_checked_sum`s of its pieces, added left to right from the first, so
    one slab gives `np.sum` itself, a -0.0 included.  A flat piece is
    summed as `np.full` of its value and shape, once per value's bytes (0.0
    and -0.0 apart) and shape.  Each slab's pieces are dropped before the
    next slab is formed.

    A non-finite density raises `_checked_sum`'s ValueError for the first
    term, in the order of `labels`, that has one: a term that fails ends the
    terms after it, the terms before it are summed on, and once the first
    term has failed no further slab is taken."""
    totals, flat, fault = [None] * len(labels), {}, None
    live, lo = len(labels), 0
    for pieces in slabs:
        for k, piece in enumerate(pieces[:live]):
            try:
                if not isinstance(piece, _Flat):
                    part = _checked_sum(piece, lo, grid.cells, labels[k])
                elif (key := (piece.value.tobytes(), piece.shape)) in flat:
                    part = flat[key]
                else:
                    part = flat[key] = _checked_sum(np.full(piece.shape, piece.value), lo,
                                                    grid.cells, labels[k])
            except ValueError as exc:
                fault, live = exc, k
                break
            totals[k] = part if totals[k] is None else totals[k] + part
        lo += math.prod(pieces[0].shape)
        # dropped before the next slab is formed
        pieces = piece = None
        if not live:
            break
    if fault is not None:
        try:
            raise fault
        finally:  # no cycle through this frame keeps the pass alive
            fault = None
    return [float(grid.cell_volume * total) for total in totals]


# The terms of the energy, each written once: the pass (`_evaluate`), the
# trials of `evaluate_block` and the slabs of `diffuse_energy` call the same
# density functions, so every one of them gives the pass's energy bit for bit.

def _clamp(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """z clamped to [0, 1], and the mask of the cells the clamp moves."""
    return np.clip(z, 0.0, 1.0), (z < 0.0) | (z > 1.0)


def _phase_weight(zc: np.ndarray, s: DiffuseState, P: PotentialSet) -> np.ndarray:
    """phi(z) + C_delta, z clamped to [0, 1]."""
    return P.phi(zc) + P.c_delta(s.delta)


def _elastic_weight(zc: np.ndarray, s: DiffuseState, M: ElasticModel) -> np.ndarray:
    """psi(z) + eta(delta), z clamped to [0, 1]."""
    return M.psi(zc) + M.eta(s.delta)


def _sq_norm(g: tuple) -> np.ndarray:
    """|g|^2 per cell from the planes of `gradient`, summed in axis order."""
    return g[0] * g[0] if len(g) == 1 else g[0] * g[0] + g[1] * g[1]


def _phase_raw(c: np.ndarray, gc: tuple, s: DiffuseState, P: PotentialSet) -> np.ndarray:
    """W(c)/eps + eps |grad c|^2 per cell, from c and grad c as planes."""
    return P.w(c) / s.eps + s.eps * _sq_norm(gc)


def _crack_density(zc: np.ndarray, gz: tuple, s: DiffuseState, P: PotentialSet) -> np.ndarray:
    """V(z)/delta + delta |grad z|^2 per cell, from the clamped z and grad z."""
    return P.v(zc) / s.delta + s.delta * _sq_norm(gz)


def _misfit(strain: tuple, c: np.ndarray, e0: tuple) -> tuple:
    """The elastic strain e(u) - c e0 as planes."""
    return tuple(p - c * e for p, e in zip(strain, e0))


def _z_terms(z: np.ndarray, s: DiffuseState, P: PotentialSet, M: ElasticModel,
             phase_raw: np.ndarray, form: np.ndarray):
    """The energy of `s` with its z replaced by `z`, from the two arrays z does
    not move, the interfacial raw density and the form.  z moves the clamp,
    both weights and the crack density; they are returned for the gradient:
    (energy, zc, outside, (phase weight, elastic weight), grad z)."""
    zc, outside = _clamp(z)
    phase_weight, elastic_weight = _phase_weight(zc, s, P), _elastic_weight(zc, s, M)
    gz = gradient(z, s.grid.spacing)
    energy = EnergyBreakdown(_integral(phase_weight * phase_raw, s.grid, "interfacial"),
                             _integral(elastic_weight * form, s.grid, "elastic"),
                             _integral(_crack_density(zc, gz, s, P), s.grid, "crack"),
                             int(np.count_nonzero(outside)))
    return energy, zc, outside, (phase_weight, elastic_weight), gz


def _stress_divergence(grid: Grid, M: ElasticModel, weight: np.ndarray,
                       xi: tuple[np.ndarray, ...]) -> np.ndarray:
    """vol * e*^T[weight dC(xi)], linear in the strain planes xi: dE/du at the
    misfit xi = e(u) - c e0, the u-step's operator at e(u) and its right side
    at c e0."""
    return grid.cell_volume * sym_gradient_adjoint(
        tuple(weight * p for p in M.dform(xi)), grid.spacing)


def evaluate(s: DiffuseState, P: PotentialSet, M: ElasticModel,
             blocks: str = "") -> tuple[EnergyBreakdown, dict[str, np.ndarray]]:
    """The energy plus the nodal gradients of the named blocks of "cuz", in
    one pass: `blocks="cz"` returns {"c": dE/dc, "z": dE/dz} as plain arrays
    shaped like the block's values.  A gradient is the derivative of the
    discrete energy with respect to nodal values, not an L2 representative.
    The clamp, grad c, grad z and the misfit are formed once."""
    return _evaluate(s, P, M, blocks)[:2]


def _evaluate(s: DiffuseState, P: PotentialSet, M: ElasticModel, blocks: str):
    """`evaluate`, plus the arrays a trial reuses: the two weights, the
    interfacial raw density, the form, e0 and the strain e(u)."""
    h, vol, c = s.grid.spacing, s.grid.cell_volume, s.c.values
    e0, strain = M.e0_planes(s.grid.dim), sym_gradient(s.u.values, h)
    xi = _misfit(strain, c, e0)
    gc = gradient(c, h)
    phase_raw, form = _phase_raw(c, gc, s, P), M.form(xi)
    energy, zc, outside, (phase_weight, elastic_weight), gz = _z_terms(
        s.z.values, s, P, M, phase_raw, form)
    grads = {}
    if "c" in blocks:
        out = phase_weight * P.dw(c) / s.eps
        out += 2.0 * s.eps * gradient_adjoint(tuple(phase_weight * p for p in gc), h)
        out -= elastic_weight * _frobenius(M.dform(xi), e0)
        grads["c"] = vol * out
    if "u" in blocks:
        grads["u"] = _stress_divergence(s.grid, M, elastic_weight, xi)
    if "z" in blocks:
        # chain rule of the clamp: zero derivative strictly outside the box,
        # the inside value on the faces (defaults have zero slope there anyway)
        mask = np.where(outside, 0.0, 1.0)
        out = mask * P.dphi(zc) * phase_raw
        out += mask * M.dpsi(zc) * form
        out += mask * P.dv(zc) / s.delta
        out += 2.0 * s.delta * gradient_adjoint(gz, h)
        grads["z"] = vol * out
    return energy, grads, (phase_weight, elastic_weight, phase_raw, form, e0, strain)


def evaluate_block(s: DiffuseState, P: PotentialSet, M: ElasticModel, block: str
                   ) -> tuple[EnergyBreakdown, np.ndarray, Callable]:
    """One pass at `block` ("c", "z" or "u"): the energy of `s`, dE/d(block)
    as `evaluate` gives it, and `trial`, which maps new values of the block
    (a plain array) to the energy of `s` with that block replaced, bit for bit
    `diffuse_energy` of that state.  A trial recomputes only what the block
    moves and reuses the pass's other arrays: for z the clamp, the weights
    and the crack density; for c the interfacial raw density, the misfit and
    the form; for u the strain, the misfit and the form."""
    energy, grads, (phase_weight, elastic_weight, phase_raw, form, e0, strain) = _evaluate(
        s, P, M, block)
    if block == "z":
        def trial(z: np.ndarray) -> EnergyBreakdown:
            return _z_terms(z, s, P, M, phase_raw, form)[0]
    elif block == "c":
        def trial(c: np.ndarray) -> EnergyBreakdown:
            raw = _phase_raw(c, gradient(c, s.grid.spacing), s, P)
            form = M.form(_misfit(strain, c, e0))
            return EnergyBreakdown(_integral(phase_weight * raw, s.grid, "interfacial"),
                                   _integral(elastic_weight * form, s.grid, "elastic"),
                                   energy.e_crack, energy.clamped_cells)
    else:
        trial = _elastic_trial(s, M, elastic_weight, e0, energy)
    return energy, grads[block], trial


def _elastic_trial(s: DiffuseState, M: ElasticModel, weight: np.ndarray, e0: tuple,
                   energy: EnergyBreakdown) -> Callable:
    """The trial of `evaluate_block` for u, from the energy of `s`, its
    elastic weight and e0 as planes: it needs no pass, so the u-step, which
    knows all three, builds it directly."""
    h, c = s.grid.spacing, s.c.values

    def trial(u: np.ndarray) -> EnergyBreakdown:
        form = M.form(_misfit(sym_gradient(u, h), c, e0))
        return EnergyBreakdown(energy.e_phase, _integral(weight * form, s.grid, "elastic"),
                               energy.e_crack, energy.clamped_cells)
    return trial


def _haloed(r0: int, r1: int, rows: int) -> tuple[slice, slice]:
    """Rows r0:r1 with one halo row on each side inside the grid, and r0:r1
    within those."""
    lo = max(r0 - 1, 0)
    return slice(lo, min(r1 + 1, rows)), slice(r0 - lo, r1 - lo)


def _slab_rows(grid: Grid) -> list[slice]:
    """The rows of each slab of a density over `grid`, in order: runs of
    `max(1, _BLOCK // row cells)` rows, the last one cut short."""
    rows = grid.cells[0]
    step = max(1, _BLOCK // (math.prod(grid.cells) // rows))
    return [slice(r0, min(r0 + step, rows)) for r0 in range(0, rows, step)]


def _slabs(grid: Grid) -> list[tuple[slice, slice]]:
    """The slabs of `_slab_rows` as `diffuse_energy`'s pass reads them: each
    one's haloed rows, and its rows within them."""
    return [_haloed(r.start, r.stop, grid.cells[0]) for r in _slab_rows(grid)]


def diffuse_energy(s, P: PotentialSet, M: ElasticModel) -> EnergyBreakdown:
    """The energy alone, bit for bit `evaluate(s, P, M)[0]`, clamp count
    included, in one pass over the slabs of `_slabs`.  `s` is a slab source:
    a `DiffuseState`, or anything else with its `grid`, `eps` and `delta`
    and a method `slabs(halos)`, handed the haloed rows of every slab at
    once, as slices in order, that yields for each slab, in that order,
    either c, z and u on its rows, or the raw bytes of one cell's c and z
    when it proves that all its rows hold those values, bit for bit, with
    one finite value of u (a plateau; `recovery.RecoveryBands` proves a
    recovery's plateaus from its bounds and builds the other rows band by
    band).  The pass never tests rows for a plateau: a state's slabs are all
    formed.

    Each slab's rows are read once, with one halo row on each side inside
    the grid: a difference of the haloed rows is the whole grid's difference
    on the slab's rows, bit for bit, since centered differences read the
    same operands and one-sided ones fall only on the grid's own edge rows.
    Its three densities are formed together and handed to `_integrals`,
    which sums each slab's pieces as they come and drops them, so the pass
    holds no cells-sized array, only slab-sized temporaries and what the
    source holds.  A plateau slab is flat: the densities are pointwise
    functions of the cell values and the difference planes, and every
    difference there is x - x, +0.0, whatever the value of u, so each
    density is one number over the slab, a `_Flat` piece.  The three
    numbers are formed once per key, from its c and z (`plateau_densities`),
    and `_integrals` sums a flat piece once per value and shape."""
    grid, h = s.grid, s.grid.spacing
    e0 = M.e0_planes(grid.dim)
    shared, clamped = {}, 0  # `plateau_densities` of each key, clamped cells

    def inner_diff(op, a, inner):
        """`op` (gradient or sym_gradient) of the haloed rows a, on `inner`."""
        return tuple(p[inner] for p in op(a, h))

    # each weight is formed after its raw density, and the elastic density,
    # with the most temporaries, before the other two, so that no two sets of
    # temporaries overlap
    def elastic(c, u, zc, inner):
        form = M.form(_misfit(inner_diff(sym_gradient, u, inner), c[inner], e0))
        return _elastic_weight(zc, s, M) * form

    def interfacial(c, zc, inner):
        raw = _phase_raw(c[inner], inner_diff(gradient, c, inner), s, P)
        return _phase_weight(zc, s, P) * raw

    def densities(c, z, u, inner):
        """The three densities on rows `inner` of the haloed rows c, z, u."""
        zc = _clamp(z[inner])[0]
        elastic_density = elastic(c, u, zc, inner)
        return (interfacial(c, zc, inner), elastic_density,
                _crack_density(zc, inner_diff(gradient, z, inner), s, P))

    def plateau_densities(key):
        """The three densities of a plateau whose c and z are the raw bytes
        `key`, as numbers, and whether the clamp moves its z.  They are
        formed on a block of 2 cells a side with u = 0: every difference on
        a plateau is +0.0 whatever u's one value, so every cell of the
        plateau holds these."""
        c, z = (np.full((2,) * grid.dim, value) for value in np.frombuffer(key))
        u = np.zeros(c.shape + (grid.dim,))
        formed = densities(c, z, u, slice(None))
        return tuple(d.flat[0] for d in formed), bool(_clamp(z)[1].flat[0])

    def slab(inner):
        """The densities of the slab whose rows are `inner` of its haloed
        rows, as pieces, from the source's next answer; the slab's rows are
        dropped on return, before the next slab's are read."""
        nonlocal clamped
        got = next(source)
        if not isinstance(got, bytes):
            c, z, u = got
            clamped += int(np.count_nonzero(_clamp(z[inner])[1]))
            return densities(c, z, u, inner)
        if got not in shared:
            shared[got] = plateau_densities(got)
        values, moved = shared[got]
        shape = (inner.stop - inner.start,) + grid.cells[1:]
        clamped += math.prod(shape) * moved
        return tuple(_Flat(value, shape) for value in values)

    cuts = _slabs(grid)
    source = s.slabs([halo for halo, _ in cuts])
    terms = _integrals((slab(inner) for _, inner in cuts), grid,
                       ("interfacial", "elastic", "crack"))
    return EnergyBreakdown(*terms, clamped)


def mass(c: ScalarField) -> float:
    """Mean concentration over the domain."""
    return _mass(c.grid, c.values)


def _mass(grid: Grid, values: np.ndarray) -> float:
    return float(grid.cell_volume * np.sum(values)) / float(np.prod(grid.extent))


def project_mass(c: ScalarField, mu0: float) -> ScalarField:
    """Shift c by a constant so its mean equals mu0 exactly."""
    return ScalarField(c.grid, _project_mass(c.grid, c.values, mu0))


def _project_mass(grid: Grid, values: np.ndarray, mu0: float) -> np.ndarray:
    return values + (mu0 - _mass(grid, values))
