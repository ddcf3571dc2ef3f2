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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fields import (Grid, ScalarField, VectorField, gradient, gradient_adjoint,
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
    """Isotropic elasticity with lattice-misfit strain and damage degradation."""
    lame_lambda: float = 0.0
    lame_mu: float = 0.5
    e0: np.ndarray = field(default_factory=lambda: np.zeros((1, 1)))
    psi: Callable = _psi_quadratic
    dpsi: Callable = _dpsi_quadratic
    eta_rule: Callable[[float], float] = _eta_delta_squared
    _e0_planes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a frozen copy, so the caller's array cannot change e0 or its planes
        e0 = np.array(self.e0, dtype=float)
        e0.setflags(write=False)
        object.__setattr__(self, "e0", e0)
        if not (0.0 < self.lame_mu < np.inf and 0.0 <= self.lame_lambda < np.inf):
            raise ValueError(f"need 0 < mu < inf and 0 <= lambda < inf, got mu "
                             f"{self.lame_mu}, lambda {self.lame_lambda}")
        if e0.shape not in ((1, 1), (2, 2)):
            raise ValueError(f"e0 must be a 1x1 or 2x2 matrix, got shape {e0.shape}")
        if not np.allclose(e0, e0.T, atol=1e-14):
            raise ValueError("e0 must be symmetric")
        object.__setattr__(self, "_e0_planes", sym_planes(e0, e0.shape[0], "e0"))
        if abs(float(self.psi(1.0)) - 1.0) > 1e-12 or abs(float(self.psi(0.0))) > 1e-12:
            raise ValueError("degradation must satisfy psi(0) = 0, psi(1) = 1")

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

    def eta(self, delta: float) -> float:
        val = float(self.eta_rule(delta))
        if val <= 0:
            raise ValueError("eta(delta) must be positive")
        return val


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
        if self.eps <= 0 or self.delta <= 0:
            raise ValueError("eps and delta must be positive")
        if self.c.grid != self.u.grid or self.c.grid != self.z.grid:
            raise ValueError("c, u, z must share one grid")

    @property
    def grid(self) -> Grid:
        return self.c.grid

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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def e_total(self) -> float:
        return self.e_phase + self.e_elastic + self.e_crack


def _raise_nonfinite(density: np.ndarray, label: str) -> None:
    if not np.all(np.isfinite(density)):
        idx = np.unravel_index(int(np.argmax(~np.isfinite(density))), density.shape)
        raise ValueError(f"non-finite {label} density at cell {tuple(int(i) for i in idx)}")


def _integral(density: np.ndarray, label: str, vol: float) -> float:
    _raise_nonfinite(density, label)
    return float(vol * density.sum())


# The terms of the energy, each written once: the pass (`_evaluate`) and the
# trials of `evaluate_block` call the same functions, so a trial energy is the
# pass's energy of the replaced state bit for bit.

def _elastic_weight(zc: np.ndarray, s: DiffuseState, M: ElasticModel) -> np.ndarray:
    """psi(z) + eta(delta), z clamped to [0, 1]."""
    return M.psi(zc) + M.eta(s.delta)


def _sq_norm(g: tuple) -> np.ndarray:
    """|g|^2 per cell from the planes of `gradient`, summed in axis order."""
    return g[0] * g[0] if len(g) == 1 else g[0] * g[0] + g[1] * g[1]


def _phase_raw(c: np.ndarray, s: DiffuseState, P: PotentialSet):
    """W(c)/eps + eps |grad c|^2 per cell, and grad c as planes."""
    gc = gradient(c, s.grid.spacing)
    return P.w(c) / s.eps + s.eps * _sq_norm(gc), gc


def _misfit(strain: tuple, c: np.ndarray, e0: tuple) -> tuple:
    """The elastic strain e(u) - c e0 as planes."""
    return tuple(p - c * e for p, e in zip(strain, e0))


def _interfacial(weight: np.ndarray, raw: np.ndarray, vol: float) -> float:
    return _integral(weight * raw, "interfacial", vol)


def _elastic(weight: np.ndarray, form: np.ndarray, vol: float) -> float:
    return _integral(weight * form, "elastic", vol)


def _z_terms(z: np.ndarray, s: DiffuseState, P: PotentialSet, M: ElasticModel,
             phase_raw: np.ndarray, form: np.ndarray):
    """The energy of `s` with its z replaced by `z`, from the two arrays z does
    not move, the interfacial raw density and the form.  z moves the clamp,
    both weights and the crack density; they are returned for the gradient:
    (energy, zc, outside, (phase weight, elastic weight), grad z)."""
    vol = s.grid.cell_volume
    zc = np.clip(z, 0.0, 1.0)
    outside = (z < 0.0) | (z > 1.0)
    phase_weight, elastic_weight = P.phi(zc) + P.c_delta(s.delta), _elastic_weight(zc, s, M)
    gz = gradient(z, s.grid.spacing)
    crack = P.v(zc) / s.delta + s.delta * _sq_norm(gz)
    energy = EnergyBreakdown(_interfacial(phase_weight, phase_raw, vol),
                             _elastic(elastic_weight, form, vol),
                             _integral(crack, "crack", vol), int(np.count_nonzero(outside)))
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


def _evaluate(s: DiffuseState, P: PotentialSet, M: ElasticModel, blocks: str, strain=None):
    """`evaluate`, plus the arrays a trial reuses: the two weights, the
    interfacial raw density, the form and e0.  `strain` is e(u) when the
    caller holds it."""
    h, vol, c = s.grid.spacing, s.grid.cell_volume, s.c.values
    e0 = M.e0_planes(s.grid.dim)
    xi = _misfit(sym_gradient(s.u.values, h) if strain is None else strain, c, e0)
    phase_raw, gc = _phase_raw(c, s, P)
    form = M.form(xi)
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
    return energy, grads, (phase_weight, elastic_weight, phase_raw, form, e0)


def evaluate_block(s: DiffuseState, P: PotentialSet, M: ElasticModel, block: str
                   ) -> tuple[EnergyBreakdown, np.ndarray, Callable]:
    """One pass at `block` ("c", "z" or "u"): the energy of `s`, dE/d(block)
    as `evaluate` gives it, and `trial`, which maps new values of the block
    (a plain array) to the energy of `s` with that block replaced, bit for bit
    `diffuse_energy` of that state.  A trial recomputes only what the block
    moves and reuses the pass's other arrays: for z the clamp, the weights
    and the crack density; for c the interfacial raw density, the misfit and
    the form; for u the strain, the misfit and the form."""
    strain = sym_gradient(s.u.values, s.grid.spacing) if block == "c" else None
    energy, grads, (phase_weight, elastic_weight, phase_raw, form, e0) = _evaluate(
        s, P, M, block, strain)
    vol = s.grid.cell_volume
    if block == "z":
        def trial(z: np.ndarray) -> EnergyBreakdown:
            return _z_terms(z, s, P, M, phase_raw, form)[0]
    elif block == "c":
        def trial(c: np.ndarray) -> EnergyBreakdown:
            return EnergyBreakdown(_interfacial(phase_weight, _phase_raw(c, s, P)[0], vol),
                                   _elastic(elastic_weight, M.form(_misfit(strain, c, e0)), vol),
                                   energy.e_crack, energy.clamped_cells)
    else:
        trial = _elastic_trial(s, M, elastic_weight, e0, energy)
    return energy, grads[block], trial


def _elastic_trial(s: DiffuseState, M: ElasticModel, weight: np.ndarray, e0: tuple,
                   energy: EnergyBreakdown) -> Callable:
    """The trial of `evaluate_block` for u, from the energy of `s`, its
    elastic weight and e0 as planes: it needs no pass, so the u-step, which
    knows all three, builds it directly."""
    h, vol, c = s.grid.spacing, s.grid.cell_volume, s.c.values

    def trial(u: np.ndarray) -> EnergyBreakdown:
        form = M.form(_misfit(sym_gradient(u, h), c, e0))
        return EnergyBreakdown(energy.e_phase, _elastic(weight, form, vol), energy.e_crack,
                               energy.clamped_cells)
    return trial


def diffuse_energy(s: DiffuseState, P: PotentialSet, M: ElasticModel) -> EnergyBreakdown:
    return evaluate(s, P, M)[0]


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
