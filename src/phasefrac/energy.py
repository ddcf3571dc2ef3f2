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

Strains, e0 and stresses are tuples of strain planes, (xx,) in 1D and
(xx, yy, xy) in 2D (see `fields.sym_gradient`).  In |xi|^2 and in the
c-gradient's dC(xi) : e0 the xy plane counts twice, summed in the row-major
order of the (d, d) matrices, xx, xy, yx, yy.  An e0 of another dimension
than the grid raises ValueError.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fields import (Grid, ScalarField, VectorField, gradient, gradient_adjoint,
                     integrate, sym_gradient, sym_gradient_adjoint, sym_planes)
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

    def __post_init__(self):
        object.__setattr__(self, "e0", np.asarray(self.e0, dtype=float))
        if self.lame_mu <= 0 or self.lame_lambda < 0:
            raise ValueError("need mu > 0 and lambda >= 0")
        if self.e0.ndim != 2 or self.e0.shape[0] != self.e0.shape[1]:
            raise ValueError("e0 must be a square matrix")
        if not np.allclose(self.e0, self.e0.T, atol=1e-14):
            raise ValueError("e0 must be symmetric")
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
        """The misfit strain e0 as planes for a `dim`-dimensional grid; an e0
        of another size raises ValueError."""
        return sym_planes(self.e0, dim, "e0")

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
    grid = s.grid
    h, vol = grid.spacing, grid.cell_volume
    c, z = s.c.values, s.z.values
    outside = (z < 0.0) | (z > 1.0)
    zc = np.clip(z, 0.0, 1.0)
    phase_weight = P.phi(zc) + P.c_delta(s.delta)
    elastic_weight = M.psi(zc) + M.eta(s.delta)
    gc = gradient(c, h)
    gz = gradient(z, h)
    e0 = M.e0_planes(grid.dim)
    xi = tuple(p - c * e for p, e in zip(sym_gradient(s.u.values, h), e0))
    phase_raw = P.w(c) / s.eps + s.eps * np.sum(gc * gc, axis=-1)
    form = M.form(xi)
    energy = EnergyBreakdown(
        _integral(phase_weight * phase_raw, "interfacial", vol),
        _integral(elastic_weight * form, "elastic", vol),
        _integral(P.v(zc) / s.delta + s.delta * np.sum(gz * gz, axis=-1), "crack", vol),
        int(np.count_nonzero(outside)))
    grads = {}
    if "c" in blocks:
        out = phase_weight * P.dw(c) / s.eps
        out += 2.0 * s.eps * gradient_adjoint(phase_weight[..., None] * gc, h)
        out -= elastic_weight * _frobenius(M.dform(xi), e0)
        grads["c"] = vol * out
    if "u" in blocks:
        grads["u"] = _stress_divergence(grid, M, elastic_weight, xi)
    if "z" in blocks:
        # chain rule of the clamp: zero derivative strictly outside the box,
        # the inside value on the faces (defaults have zero slope there anyway)
        mask = np.where(outside, 0.0, 1.0)
        out = mask * P.dphi(zc) * phase_raw
        out += mask * M.dpsi(zc) * form
        out += mask * P.dv(zc) / s.delta
        out += 2.0 * s.delta * gradient_adjoint(gz, h)
        grads["z"] = vol * out
    return energy, grads


def diffuse_energy(s: DiffuseState, P: PotentialSet, M: ElasticModel) -> EnergyBreakdown:
    return evaluate(s, P, M)[0]


def mass(c: ScalarField) -> float:
    """Mean concentration over the domain."""
    vol = float(np.prod(c.grid.extent))
    return integrate(c) / vol


def project_mass(c: ScalarField, mu0: float) -> ScalarField:
    """Shift c by a constant so its mean equals mu0 exactly."""
    return ScalarField(c.grid, c.values + (mu0 - mass(c)))
