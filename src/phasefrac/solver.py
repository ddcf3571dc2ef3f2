"""Alternating minimization of the diffuse energy over the blocks u, z, c.

The u-step minimizes the quadratic elastic term.  In 1D it is an exact
closed-form O(n) solve that keeps the mean of the current displacement.  In
2D it is preconditioned conjugate gradient seeded at the current
displacement, so the rigid-motion nullspace needs no deflation.  The
preconditioner is the fast diagonalization of Lynch, Rice & Thomas (1964):
the block-diagonal, constant-weight part of the operator, inverted in the
eigenbasis of the 1D difference operator of each axis.  CG stops when the
unpreconditioned residual falls to `cg_tol` of its start or after
`cg_max_iters` iterations (both act only in 2D); a step that hits the cap is
inexact and its block is flagged `cg_max_iters`.  The z- and c-steps take one
Armijo-accepted (projected) gradient step per sweep.  The z-step moves along
the L2 gradient, projected on the box [0, 1].  The c-step moves along the
H^1_eps gradient S_eps(g / vol), S_eps = (I + eps^2 L_N)^-1 with L_N the
Neumann Laplacian of the cell grid: at the wells of the default W the Hessian
of W/eps + eps|grad c|^2 is (2/eps)(I + eps^2 D^T D), so the weight eps^2,
with no knob, takes out the h^2/eps stiffness of a plain L2 step and the
sweep count no longer grows with the grid (criterion 07's problem: 102
sweeps at 512 cells and 98 at 2048, against 1863 and 20783 for the L2 step).
No block raises the energy by more than `DESCENT_RTOL` relative; no claim of
global minimization is made, the energy is nonconvex, and which minimum a
run reaches depends on the step.  On a 2D problem with e0 = 0 (32^2, mass
0.5, eps = 1/16) the H^1_eps step converges to a corner droplet, about 1.23x
the straight interface's sigma (phi(1) + C_delta), while the L2 step, not
converged after 3000 sweeps, sits near the straight interface.  `alternate`
ends with the final state's stationarity `residual`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from ._philox import uniforms
from .energy import (DiffuseState, ElasticModel, EnergyBreakdown, _elastic_trial,
                     _elastic_weight, _project_mass, _stress_divergence, diffuse_energy,
                     evaluate, evaluate_block, project_mass)
from .fields import Grid, ScalarField, VectorField, _diff, sym_gradient
from .potentials import PotentialSet

# the Armijo search of the z- and c-steps: first trial step, backtracking
# factor, sufficient-decrease constant and cap on the backtracks
_STEP0 = 1.0
_BACKTRACK_FACTOR = 0.5
_ARMIJO_C = 0.25
_MAX_BACKTRACKS = 60
# the largest relative energy rise any block may make: the u-step rejects a
# larger one, the Armijo steps accept only a decrease
DESCENT_RTOL = 1e-13
# the amplitude of the jitter that `default_state` adds to its flat start
_JITTER = 1e-3


@dataclass(frozen=True)
class SolverPlan:
    max_outer: int = 200
    tol_rel_energy: float = 1e-8
    cg_tol: float = 1e-10
    cg_max_iters: int = 1000
    mass_constraint: Optional[float] = None

    def __post_init__(self):
        for name in ("max_outer", "cg_max_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be >= 1, got {getattr(self, name)}")
        for name in ("tol_rel_energy", "cg_tol"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name}: must be positive and finite, got {getattr(self, name)}")
        if self.mass_constraint is not None and not 0.0 <= self.mass_constraint <= 1.0:
            raise ValueError("mass constraint must lie in [0, 1]")


@dataclass(frozen=True)
class BlockResult:
    block: str
    accepted: bool
    flag: str = ""
    iters: int = 0
    step: float = 0.0
    energy: Optional[EnergyBreakdown] = None


@dataclass(frozen=True)
class Trajectory:
    energies: tuple[EnergyBreakdown, ...]
    reason: str
    flags: tuple[tuple[str, ...], ...] = field(default_factory=tuple)
    u_iters: tuple[int, ...] = ()  # CG iterations of each sweep's u-step
    # the stationarity residual of the final state, by block: see `residual`
    residual: dict[str, float] = field(default_factory=dict)

    @property
    def totals(self) -> np.ndarray:
        return np.array([e.e_total for e in self.energies])


def default_state(grid: Grid, eps: float, delta: float, c0: float = 0.5,
                  seed: int = 0) -> DiffuseState:
    """Jittered flat start: c = c0 + `_JITTER` * low-frequency noise, z = 1, u = 0.

    The noise is a sum of the four lowest cosine modes per axis, mode m
    weighted by a Philox-seeded draw in [-1, 1] over m^2; low modes break the
    symmetric saddle of the double well without seeding a fine-scale
    interface pattern.  Each cosine mode has exactly zero mean under the
    midpoint rule.  The amplitude `_JITTER` = 1e-3 is a module constant.
    The draws equal numpy's `Generator(Philox(seed)).uniform(-1, 1)` bit for
    bit, without loading numpy's random package (see `_philox`).
    """
    draws = uniforms(seed)
    jitter = np.zeros(grid.cells)
    mesh = grid.meshgrid()
    for axis in range(grid.dim):
        xhat = (mesh[axis] - grid.origin[axis]) / grid.extent[axis]
        for m in range(1, 5):
            weight = -1.0 + 2.0 * next(draws)  # Generator.uniform(-1.0, 1.0)
            jitter += weight / (m * m) * np.cos(m * np.pi * xhat)
    c = ScalarField(grid, c0 + _JITTER * jitter)
    return DiffuseState(c=c, u=VectorField.full(grid, np.zeros(grid.dim)),
                        z=ScalarField.full(grid, 1.0), eps=eps, delta=delta)


def _cg(apply_a, apply_p, b: np.ndarray, x0: np.ndarray, tol: float,
        max_iters: int) -> tuple[np.ndarray, int, bool]:
    """Preconditioned CG from x0; stops on the unpreconditioned residual,
    |r| <= tol |r0|, so `tol` means the same whatever `apply_p` is."""
    x = x0.copy()
    r = b - apply_a(x)
    res0 = float(np.sqrt(np.sum(r * r)))
    if res0 == 0.0:
        return x, 0, True
    p = apply_p(r)
    rz = float(np.sum(r * p))
    for k in range(1, max_iters + 1):
        ap = apply_a(p)
        pap = float(np.sum(p * ap))
        if pap <= 0.0:  # nullspace direction reached; current x already minimizes there
            return x, k, True
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if np.sqrt(np.sum(r * r)) <= tol * res0:
            return x, k, True
        z = apply_p(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, max_iters, False


@lru_cache(maxsize=4)
def _axis_basis(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (ascending) of B^T B, B the 1D difference of `_diff` on n
    cells of width h; the first pair is the constant (null) mode."""
    b = _diff(np.eye(n), 0, h)
    lam, q = np.linalg.eigh(b.T @ b)
    lam.setflags(write=False)
    q.setflags(write=False)
    return lam, q


@lru_cache(maxsize=4)
def _h1_symbol(cells: tuple[int, ...], spacing: tuple[float, ...],
               eps: float) -> np.ndarray:
    """1 / (1 + eps^2 lam) on the `rfftn` frequencies of a field evenly
    extended to twice its cells on every axis, lam = sum_a 4 sin^2(pi m_a /
    2 n_a) / h_a^2 the eigenvalues of the Neumann Laplacian L_N (3-point per
    axis, ghost cell equal to the boundary cell), which the type-II DCT
    diagonalizes."""
    lam = np.zeros(())
    for a, (n, h) in enumerate(zip(cells, spacing)):
        m = np.arange(n + 1 if a == len(cells) - 1 else 2 * n)
        lam = lam[..., None] + (2.0 * np.sin(np.pi * m / (2 * n)) / h) ** 2
    out = 1.0 / (1.0 + eps * eps * lam)
    out.setflags(write=False)
    return out


def _h1_smooth(x: np.ndarray, spacing: tuple[float, ...], eps: float) -> np.ndarray:
    """S_eps x = (I + eps^2 L_N)^-1 x, applied as a DCT-II: the periodic
    Laplacian of the even extension is L_N on each copy, so the real FFT of
    the extension diagonalizes it.  S_eps is symmetric positive definite and
    maps a constant to itself, so a zero-mean x stays zero-mean up to rounding.
    O(N log N), with no eigenbasis built."""
    ext = x
    for a in range(x.ndim):
        ext = np.concatenate((ext, np.flip(ext, a)), axis=a)
    axes = tuple(range(x.ndim))
    out = np.fft.irfftn(np.fft.rfftn(ext, axes=axes) * _h1_symbol(x.shape, spacing, eps),
                        ext.shape, axes=axes)
    return out[tuple(slice(n) for n in x.shape)]


def _fast_diag_preconditioner(grid: Grid, M: ElasticModel, weight: np.ndarray):
    """Inverse of the u-step operator with the weight replaced by its mean and
    the coupling between the two components dropped: for component a it is
    vol w (2 lambda + 4 mu) D_a^T D_a + vol w 2 mu D_b^T D_b, diagonal in the
    per-axis eigenbases.  The constant mode, in its nullspace, maps to 0."""
    (lam0, q0), (lam1, q1) = (_axis_basis(n, h) for n, h in zip(grid.cells, grid.spacing))
    scale = grid.cell_volume * float(weight.mean())
    normal = scale * (2.0 * M.lame_lambda + 4.0 * M.lame_mu)
    shear = scale * 2.0 * M.lame_mu
    inverse = []
    for sym in (normal * lam0[:, None] + shear * lam1[None, :],
                shear * lam0[:, None] + normal * lam1[None, :]):
        sym[0, 0] = np.inf
        inverse.append(1.0 / sym)

    def apply(r: np.ndarray) -> np.ndarray:
        out = np.empty_like(r)
        for a in range(2):
            out[..., a] = q0 @ ((q0.T @ r[..., a] @ q1) * inverse[a]) @ q1.T
        return out
    return apply


def _solve_u_1d(u: np.ndarray, weight: np.ndarray, f: np.ndarray,
                h: float) -> np.ndarray:
    """Exact minimizer of sum w (Du - f)^2, D the centered difference with
    one-sided ends, with the mean of `u` (the constant nullspace mode) kept.

    D has rank n - 1 and left null vector k = (1, -2, 2, ..., +-1), so the
    reachable strain is g = f - alpha k/w with <k, g> = 0; Du = g is then
    integrated on the even and the odd sublattice by two cumulative sums.
    """
    n = f.size
    k = np.where(np.arange(n) % 2 == 0, 2.0, -2.0)
    k[0] *= 0.5
    k[-1] *= 0.5
    kw = k / weight
    g = f - (np.dot(k, f) / np.dot(k, kw)) * kw
    out = np.zeros(n)
    out[2::2] = 2.0 * h * np.cumsum(g[1:-1:2])
    out[1] = h * g[0]
    out[3::2] = out[1] + 2.0 * h * np.cumsum(g[2:-1:2])
    out += u.mean() - out.mean()
    return out[:, None]


def minimize_u(s: DiffuseState, P: PotentialSet, M: ElasticModel, plan: SolverPlan,
               before: Optional[EnergyBreakdown] = None
               ) -> tuple[DiffuseState, BlockResult]:
    """Block minimization in u.  1D: the exact closed-form solve, `iters` 0.
    2D: matrix-free CG on dE/du = 0, preconditioned by fast
    diagonalization, to `cg_tol` of the starting residual, capped at
    `cg_max_iters` iterations (flagged `cg_max_iters` when it hits the cap);
    the two settings act only in 2D.  A step that raises the energy by more
    than `DESCENT_RTOL` relative is rejected (flag `energy_rose`).  `before`
    is the energy of `s` when the caller knows it; it is evaluated here
    otherwise."""
    grid = s.grid
    weight = _elastic_weight(np.clip(s.z.values, 0.0, 1.0), s, M)
    e0 = M.e0_planes(grid.dim)
    if before is None:
        before = diffuse_energy(s, P, M)
    if grid.dim == 1:
        unew = _solve_u_1d(s.u.values[:, 0], weight, s.c.values * e0[0], grid.spacing[0])
        iters, converged = 0, True
    else:
        b = _stress_divergence(grid, M, weight, tuple(s.c.values * e for e in e0))
        unew, iters, converged = _cg(
            lambda u: _stress_divergence(grid, M, weight, sym_gradient(u, grid.spacing)),
            _fast_diag_preconditioner(grid, M, weight),
            b, s.u.values, plan.cg_tol, plan.cg_max_iters)
    after = _elastic_trial(s, M, weight, e0, before)(unew)
    if after.e_total > before.e_total * (1.0 + DESCENT_RTOL) + 1e-300:
        # inexact solve raised the energy: keep the old displacement
        return s, BlockResult("u", False, flag="energy_rose", iters=iters, energy=before)
    flag = "" if converged else "cg_max_iters"
    return (s.replace(u=VectorField(grid, unew)),
            BlockResult("u", True, flag=flag, iters=iters, energy=after))


def _mass_free(g: np.ndarray, plan: SolverPlan) -> np.ndarray:
    """dE/dc less the part that the mass constraint forbids: g minus its
    mean, and exactly 0 when g is one value, where g - g.mean() would leave
    the rounding of the mean, a step of an ulp's size.  g itself when there
    is no constraint."""
    if plan.mass_constraint is None:
        return g
    return np.zeros_like(g) if np.all(g == g.flat[0]) else g - g.mean()


def _armijo_step(s: DiffuseState, P: PotentialSet, M: ElasticModel, plan: SolverPlan,
                 block: str, start_step: float) -> tuple[DiffuseState, BlockResult]:
    """One pass at the block gives the energy, the gradient and the trial
    energies.  Each trial is projected, z on the box [0, 1] and c on the mass
    constraint, before its energy is taken, and the trial that passes the
    Armijo test is returned as measured; a field is built only for it.  The
    z-test charges the projected move, (vol / t) |trial - z|^2; the c-test
    charges t <g, d> along the H^1_eps direction d."""
    grid = s.grid
    vol = grid.cell_volume
    before, g, energy_of = evaluate_block(s, P, M, block)
    base = getattr(s, block).values
    if block == "c":
        g = _mass_free(g, plan)
        if not g.any():
            return s, BlockResult(block, True, flag="stationary", energy=before)
        direction = _h1_smooth(g / vol, grid.spacing, s.eps)
        slope = float(np.sum(g * direction))
    else:
        direction = g / vol
    scale = max(1.0, float(np.abs(base).max()))
    t = start_step
    for k in range(_MAX_BACKTRACKS):
        trial = base - t * direction
        if block == "z":
            trial = np.clip(trial, 0.0, 1.0)
        if float(np.abs(trial - base).max()) < 1e-16 * scale:
            return s, BlockResult(block, True, flag="stationary", iters=k, energy=before)
        if block == "c" and plan.mass_constraint is not None:
            # projected after the stationarity test: on a state that holds
            # the mass, the projection alone can move a value by an ulp, and
            # no backtrack would undo that
            trial = _project_mass(grid, trial, plan.mass_constraint)
        after = energy_of(trial)
        if block == "c":
            decrease = _ARMIJO_C * t * slope
        else:
            delta = trial - base
            decrease = _ARMIJO_C * (vol / t) * float(np.sum(delta * delta))
        if after.e_total <= before.e_total - decrease:
            return (s.replace(**{block: ScalarField(grid, trial)}),
                    BlockResult(block, True, iters=k, step=t, energy=after))
        t *= _BACKTRACK_FACTOR
    return s, BlockResult(block, False, flag="no_step", iters=_MAX_BACKTRACKS,
                          energy=before)


def minimize_z(s: DiffuseState, P: PotentialSet, M: ElasticModel, plan: SolverPlan,
               start_step: float = _STEP0) -> tuple[DiffuseState, BlockResult]:
    """One projected-gradient Armijo step for z on the box [0, 1]^cells."""
    return _armijo_step(s, P, M, plan, "z", start_step)


def minimize_c(s: DiffuseState, P: PotentialSet, M: ElasticModel, plan: SolverPlan,
               start_step: float = _STEP0) -> tuple[DiffuseState, BlockResult]:
    """One Armijo step for c along the H^1_eps gradient d = S_eps(g / vol),
    S_eps = (I + eps^2 L_N)^-1 (`_h1_smooth`), g the nodal gradient made
    zero-mean under a mass constraint; a trial at step t is accepted when
    E(trial) <= E - `_ARMIJO_C` t <g, d>, and each trial is projected on the
    mass constraint.  S_eps keeps constants, so d stays zero-mean up to
    rounding.  The weight eps^2 of L_N is the well Hessian's own, so the step
    needs no knob."""
    return _armijo_step(s, P, M, plan, "c", start_step)


def residual(s: DiffuseState, P: PotentialSet, M: ElasticModel,
             plan: SolverPlan) -> dict[str, float]:
    """The stationarity residual of `s`, from one `evaluate(..., "cuz")` pass:
    for each block the L2 norm, sqrt(sum g^2 / vol), of the part of its nodal
    gradient g that a step could still move: for c `_mass_free`, as the
    c-step takes it, for z the part that points into the box [0, 1] (a cell
    at 0 keeps only g < 0, a cell at 1 only g > 0), and for u all of g.  Each
    part is exactly 0.0 at c uniform, z = 1, u = 0 with e0 = 0."""
    vol = s.grid.cell_volume
    grads = evaluate(s, P, M, "cuz")[1]
    gc, gz, z = _mass_free(grads["c"], plan), grads["z"], s.z.values
    gz = np.where(z <= 0.0, np.minimum(gz, 0.0), np.where(z >= 1.0, np.maximum(gz, 0.0), gz))
    return {block: float(np.sqrt(np.sum(g * g) / vol))
            for block, g in (("c", gc), ("z", gz), ("u", grads["u"]))}


def alternate(s0: DiffuseState, P: PotentialSet, M: ElasticModel,
              plan: SolverPlan) -> tuple[DiffuseState, Trajectory]:
    """Sweep (u, z, c) blocks until the relative energy decrease stalls.

    The trajectory records the breakdown after every sweep (index 0 is the
    start state) and the final state's `residual`; identical plan and seed
    reproduce it bit for bit.
    """
    s = s0
    if plan.mass_constraint is not None:
        s = s.replace(c=project_mass(s.c, plan.mass_constraint))
    energies = [diffuse_energy(s, P, M)]
    flags: list[tuple[str, ...]] = []
    u_iters: list[int] = []
    reason = "max_outer"
    step_z = _STEP0
    step_c = _STEP0
    for _ in range(plan.max_outer):
        s, ru = minimize_u(s, P, M, plan, before=energies[-1])
        s, rz = minimize_z(s, P, M, plan, start_step=step_z)
        if rz.step > 0:
            step_z = min(rz.step / _BACKTRACK_FACTOR, _STEP0)
        s, rc = minimize_c(s, P, M, plan, start_step=step_c)
        if rc.step > 0:
            step_c = min(rc.step / _BACKTRACK_FACTOR, _STEP0)
        energies.append(rc.energy)
        u_iters.append(ru.iters)
        flags.append(tuple(f"{r.block}:{r.flag}" for r in (ru, rz, rc) if r.flag))
        prev, cur = energies[-2].e_total, energies[-1].e_total
        if prev - cur < plan.tol_rel_energy * max(abs(prev), 1e-300):
            reason = "converged"
            break
    return s, Trajectory(tuple(energies), reason, tuple(flags), tuple(u_iters),
                         residual(s, P, M, plan))
