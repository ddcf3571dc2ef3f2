"""Config-file driven command line: check | sweep | minimize | recover | sharp.

The config is line-oriented `key = value` under `[section]` headers
(INI syntax).  `_SCHEMA` is the one place that lists every section and key
and the default an omitted key takes.  Every run writes a manifest
(canonical config echo with those defaults filled in, versions, seed) into
the output directory so it can be reproduced bit for bit with the same
package version.  Exit codes: 0 success, 1 invariant failure, 2 config
error, including a section the command needs but the config lacks.
"""
from __future__ import annotations

import argparse
import configparser
import ctypes
import itertools
import os
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .energy import (DEGRADATIONS, ETA_RULES, DiffuseState, ElasticModel,
                     diffuse_energy)
from .fields import Grid, ScalarField, _write_atomic, write_field
from .harness import SweepPlan, gamma_sweep, resolve_delta_rule
from .potentials import (PotentialSet, check_admissibility, fracture_density,
                         make_default_potentials, surface_density)
from .recovery import build_recovery, width_violation
from .sharp import (GeometryError, Polygon, SegmentSet, SharpGeometry1D,
                    SharpGeometry2D, affine_displacement,
                    piecewise_rigid_displacement, sharp_energy, zero_displacement)
from .solver import DESCENT_RTOL, SolverPlan, alternate, default_state


class ConfigError(ValueError):
    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid config:\n" + "\n".join(f"  - {v}" for v in violations))


# section -> key -> default text, or None for a key without a default.  The
# manifest echoes these texts byte for byte, so they are not derived from the
# library's dataclass defaults (repr(1e-8) is '1e-08').  The [geometry] keys
# depend on dim; _build_geometry fills them in and the manifest omits them.
_SCHEMA = {
    "run": {"seed": "0", "out": "out", "quiet": "false"},
    "potentials": {"w_scale": "1", "v_scale": "1", "c_delta_scale": "1",
                   "quadrature_nodes": "4096", "coercivity": "4", "m_samples": "10001"},
    "elastic": {"lame_lambda": "0", "lame_mu": "0.5", "e0": "0", "theta": "0",
                "eta_rule": "delta_squared", "psi": "quadratic"},
    "geometry": dict.fromkeys((
        "dim", "domain", "origin", "extent", "cells", "phase_points",
        "crack_points", "c_pieces", "u_slopes", "u_offsets", "polygon",
        "segments", "u_spec", "affine_matrix", "affine_offset", "rigid_point",
        "rigid_dir", "rigid_plus", "rigid_minus", "rigid_omega_plus",
        "rigid_omega_minus")),
    "solver": {"max_outer": "200", "tol_rel_energy": "1e-8", "cg_tol": "1e-10",
               "cg_max_iters": "1000", "mass": None, "eps": "0.0078125",
               "delta": "auto", "jitter_amplitude": "1e-3"},
    "sweep": {"eps_schedule": None, "delta_rule": "two_thirds", "delta_scale": "1",
              "lambda": "1e-4", "cells": None, "enforce_width": "false"},
}


@dataclass
class RunConfig:
    sections: dict
    seed: int
    out_dir: str
    quiet: bool
    potentials: PotentialSet
    elastic: ElasticModel
    geometry: object
    sweep_plan: Optional[SweepPlan]
    solver_plan: SolverPlan
    solver_eps: float
    solver_delta: float
    solver_cells: tuple[int, ...]
    solver_grid: Grid
    jitter_amplitude: float
    m_samples: int


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _numbers(*counts: int, per: str = ""):
    """Converter to a list of floats whose length is one of `counts`."""
    def conv(text: str) -> list[float]:
        vals = _floats(text)
        if len(vals) not in counts:
            need = " or ".join(str(n) for n in counts)
            raise ValueError(f"got {len(vals)} numbers, expected {need}{per}")
        return vals
    return conv


def _polygon(text: str) -> Optional[Polygon]:
    return None if text.lower() in ("", "none") else Polygon(_floats(text))


def _segments(text: str) -> SegmentSet:
    """Segments as `x0 y0 x1 y1` chunks separated by `;`."""
    chunks = [] if text.lower() in ("", "none") else text.split(";")
    return SegmentSet([_numbers(4)(chunk) for chunk in chunks])


def _bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1", "on"):
        return True
    if text.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < np.inf:
        raise ValueError(f"must be positive and finite, got {text}")
    return value


def _finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"must be finite, got {text}")
    return value


def _at_least(low: int):
    """Converter to an integer >= low."""
    def conv(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value
    return conv


_seed = _at_least(0)  # a Philox seed
_samples = _at_least(2)  # `check_admissibility` needs two samples or more


def _one_of(table: dict):
    """Converter from a name to its entry in `table`."""
    def conv(text: str):
        if text not in table:
            raise ValueError(f"unknown {text!r} ({'|'.join(table)})")
        return table[text]
    return conv


def parse_config(path: str) -> RunConfig:
    """Parse and validate; collects every violation instead of stopping at one.
    A file that cannot be opened or is not UTF-8 text is a violation too."""
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # a decode error has no strerror
        raise ConfigError([f"config file {path}: {reason}"]) from exc
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"]) from exc

    violations: list[str] = []
    sections = {name: {k: v for k, v in keys.items() if v is not None}
                for name, keys in _SCHEMA.items()}
    for name in cp.sections():
        if name not in _SCHEMA:
            violations.append(f"unknown section [{name}]")
            continue
        for key, value in cp.items(name):
            if key in _SCHEMA[name]:
                sections[name][key] = value.strip()
            else:
                violations.append(f"unknown key {key!r} in [{name}]")

    def take(name: str, key: str, conv):
        """conv of the value, None if unset.  A value conv rejects is a
        violation; parsing goes on with the default, so that every fault is
        listed, or with None where the default is unset or does not convert."""
        raw = sections[name].get(key)
        if raw is None:
            return None
        try:
            return conv(raw)
        except ValueError as exc:
            violations.append(f"[{name}] {key}: {exc}")
        default = _SCHEMA[name][key]
        try:
            return None if default is None else conv(default)
        except ValueError:
            return None

    def grid(name: str, geom, cells: tuple[int, ...]) -> Optional[Grid]:
        try:
            return geom.grid(cells)
        except ValueError as exc:
            violations.append(f"[{name}] cells: {exc}")
            return None

    seed = take("run", "seed", _seed)
    quiet = take("run", "quiet", _bool)

    theta = take("elastic", "theta", float)
    if not 0.0 <= theta <= 1.0:
        violations.append(f"[elastic] theta must lie in [0, 1], got {theta}")
        theta = 0.0

    try:
        potentials = make_default_potentials(
            theta=theta,
            w_scale=take("potentials", "w_scale", _finite),
            v_scale=take("potentials", "v_scale", _finite),
            c_delta_scale=take("potentials", "c_delta_scale", _finite),
            quadrature_nodes=take("potentials", "quadrature_nodes", int),
            coercivity=take("potentials", "coercivity", _positive))
    except ValueError as exc:
        violations.append(f"[potentials] {exc}")
        potentials = None
    m_samples = take("potentials", "m_samples", _samples)

    geometry, geo_violations = _build_geometry(sections["geometry"])
    violations.extend(geo_violations)
    # no [geometry] is 1D; a faulty one leaves dim open, so e0 gets the laxer 2D count
    dim = geometry.dim if geometry is not None else 2 if geo_violations else 1

    elastic, el_violations = _build_elastic(take, dim)
    violations.extend(el_violations)

    geo_cells = take("geometry", "cells", _ints)
    solver_cells = (1024,) if geo_cells is None else tuple(geo_cells)
    solver_grid = grid("geometry", geometry or SharpGeometry1D((0.0, 1.0)), solver_cells)

    sweep_plan = None
    raw_sched = sections["sweep"].get("eps_schedule")
    if raw_sched and geometry is None:
        violations.append("[sweep] requires a [geometry] section")
    elif raw_sched:
        # [sweep] cells, else the [geometry] cells, whose grid is checked above
        own_cells = "cells" in sections["sweep"]
        cells = take("sweep", "cells", _ints) if own_cells else geo_cells
        # taken before eps_schedule converts, so that their faults are listed too
        options = dict(delta_rule=sections["sweep"]["delta_rule"],
                       delta_scale=take("sweep", "delta_scale", float),
                       lam=take("sweep", "lambda", float),
                       cells=SweepPlan.cells if cells is None else tuple(cells),
                       enforce_width=take("sweep", "enforce_width", _bool))
        try:
            sweep_plan = SweepPlan(geometry, tuple(_floats(raw_sched)), **options)
        except ValueError as exc:
            violations.append(f"[sweep] {exc}")
        if sweep_plan is not None and own_cells:
            grid("sweep", geometry, sweep_plan.cells)
    if sweep_plan is not None and sweep_plan.enforce_width:
        for eps, delta in zip(sweep_plan.eps_schedule, sweep_plan.deltas()):
            reason = width_violation(geometry, eps, delta, sweep_plan.lam)
            if reason is not None:
                violations.append(f"[sweep] width condition fails at eps={eps:g}: {reason}")

    try:
        solver_plan = SolverPlan(
            max_outer=take("solver", "max_outer", int),
            tol_rel_energy=take("solver", "tol_rel_energy", _positive),
            cg_tol=take("solver", "cg_tol", _positive),
            cg_max_iters=take("solver", "cg_max_iters", int),
            mass_constraint=take("solver", "mass", float))
    except ValueError as exc:
        violations.append(f"[solver] {exc}")
        solver_plan = None
    solver_eps = take("solver", "eps", _positive)
    solver_delta = resolve_delta_rule("two_thirds")(solver_eps) \
        if sections["solver"]["delta"] == "auto" else take("solver", "delta", _positive)
    jitter_amplitude = take("solver", "jitter_amplitude", _finite)

    if violations:
        raise ConfigError(violations)
    return RunConfig(sections=sections, seed=seed, out_dir=sections["run"]["out"],
                     quiet=quiet, potentials=potentials, elastic=elastic,
                     geometry=geometry, sweep_plan=sweep_plan, solver_plan=solver_plan,
                     solver_eps=solver_eps, solver_delta=solver_delta,
                     solver_cells=solver_cells, solver_grid=solver_grid,
                     jitter_amplitude=jitter_amplitude, m_samples=m_samples)


def _build_elastic(take, dim: int) -> tuple[Optional[ElasticModel], list[str]]:
    violations: list[str] = []
    # 1D: the misfit strain; 2D: isotropic, or a11 a12 a22
    e0_vals = take("elastic", "e0", _numbers(1) if dim == 1 else _numbers(1, 3))
    if dim == 1:
        e0 = np.array([[e0_vals[0]]])
    elif len(e0_vals) == 1:
        e0 = e0_vals[0] * np.eye(2)
    else:
        a, b, c = e0_vals
        e0 = np.array([[a, b], [b, c]])
    psi, dpsi = take("elastic", "psi", _one_of(DEGRADATIONS))
    try:
        model = ElasticModel(lame_lambda=take("elastic", "lame_lambda", _finite),
                             lame_mu=take("elastic", "lame_mu", _positive),
                             e0=e0, psi=psi, dpsi=dpsi,
                             eta_rule=take("elastic", "eta_rule", _one_of(ETA_RULES)))
    except ValueError as exc:
        violations.append(f"[elastic] {exc}")
        model = None
    return model, violations


def _build_geometry(sec: dict) -> tuple[object, list[str]]:
    if "dim" not in sec:
        return None, []

    def get(key: str, default: str, conv=_floats):
        """conv of the key's text, else of `default`; a fault names the key."""
        try:
            return conv(sec.get(key, default))
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc

    pair = _numbers(2)
    u_specs = {
        "zero": lambda: zero_displacement(2),
        "affine": lambda: affine_displacement(
            np.array(get("affine_matrix", "0 0 0 0", _numbers(4))).reshape(2, 2),
            np.array(get("affine_offset", "0 0", pair))),
        "piecewise_rigid": lambda: piecewise_rigid_displacement(
            get("rigid_point", "0 0", pair), get("rigid_dir", "0 1", pair),
            get("rigid_plus", "0 0", pair), get("rigid_minus", "0 0", pair),
            get("rigid_omega_plus", "0", float), get("rigid_omega_minus", "0", float))}
    try:
        dim = get("dim", "", int)
        if dim == 1:
            dom = get("domain", "0 1", pair)
            offsets = get("u_offsets", "")
            slopes = get("u_slopes", "",
                         _numbers(len(offsets), per=" (one per u_offsets value)"))
            geom = SharpGeometry1D(tuple(dom), phase_points=tuple(get("phase_points", "")),
                                   crack_points=tuple(get("crack_points", "")),
                                   c_pieces=tuple(get("c_pieces", "", _ints)),
                                   u_pieces=tuple(zip(slopes, offsets)))
        elif dim == 2:
            geom = SharpGeometry2D(tuple(get("origin", "0 0", pair)),
                                   tuple(get("extent", "1 1", pair)),
                                   polygon=get("polygon", "none", _polygon),
                                   segments=get("segments", "", _segments),
                                   u_spec=get("u_spec", "zero", _one_of(u_specs))())
        else:
            raise GeometryError(f"dim must be 1 or 2, got {dim}")
    except ValueError as exc:
        return None, [f"[geometry] {exc}"]
    return geom, []


def emit_config(cfg: RunConfig) -> str:
    """Canonical INI echo of the effective configuration."""
    lines = []
    for name in _SCHEMA:
        body = cfg.sections[name]
        if not body:
            continue
        lines.append(f"[{name}]")
        for key in sorted(body):
            lines.append(f"{key} = {body[key]}")
        lines.append("")
    return "\n".join(lines)


def _write_manifest(cfg: RunConfig, command: str) -> None:
    _write_atomic(os.path.join(cfg.out_dir, "manifest.txt"),
                  [f"command = {command}\n"
                   f"phasefrac = {__version__}\n"
                   f"numpy = {np.__version__}\n"
                   f"python = {sys.version.split()[0]}\n"
                   f"seed = {cfg.seed}\n\n" + emit_config(cfg)])


def _emit(cfg: RunConfig, *msg) -> None:
    if not cfg.quiet:
        print(*msg)


def _write_state(state: DiffuseState, out_dir: str) -> None:
    """Write c.field, z.field and u<a>.field for each component a of u."""
    u_parts = ((f"u{a}", ScalarField(state.grid, state.u.values[..., a]))
               for a in range(state.grid.dim))
    for name, fld in itertools.chain([("c", state.c), ("z", state.z)], u_parts):
        write_field(fld, os.path.join(out_dir, f"{name}.field"))
        del fld  # free this u component before the next one is built


def _cmd_check(cfg: RunConfig) -> int:
    report = check_admissibility(cfg.potentials, cfg.m_samples)
    _emit(cfg, report.summary())
    _emit(cfg, f"alpha_surf = {surface_density(cfg.potentials):.12g}")
    _emit(cfg, f"alpha_frac = {fracture_density(cfg.potentials):.12g}")
    _write_atomic(os.path.join(cfg.out_dir, "admissibility.txt"), [report.summary() + "\n"])
    return 0 if report.passed else 1


def _cmd_sharp(cfg: RunConfig) -> int:
    if cfg.geometry is None:
        print("sharp: no [geometry] section configured", file=sys.stderr)
        return 2
    b = sharp_energy(cfg.geometry, cfg.potentials, cfg.elastic)
    _emit(cfg, f"e_phase   = {b.e_phase:.12g}")
    _emit(cfg, f"e_elastic = {b.e_elastic:.12g}")
    _emit(cfg, f"e_crack   = {b.e_crack:.12g}")
    _emit(cfg, f"e_total   = {b.e_total:.12g}")
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    if cfg.sweep_plan is None:
        print("sweep: no [sweep] section with eps_schedule", file=sys.stderr)
        return 2
    table = gamma_sweep(cfg.sweep_plan, cfg.potentials, cfg.elastic)
    _write_atomic(os.path.join(cfg.out_dir, "sweep.csv"), [table.to_csv()])
    bad = [r for r in table.rows if r.status != "ok"]
    last = table.rows[-1]
    _emit(cfg, f"sweep: {len(table.rows)} rows, e_sharp = {table.e_sharp:.12g}, "
               f"final rel_err = {last.rel_err:.4g}, failures = {len(bad)}")
    return 1 if bad else 0


def _cmd_recover(cfg: RunConfig) -> int:
    if cfg.sweep_plan is None:  # a [sweep] plan implies a [geometry]
        print("recover: needs [geometry] and [sweep] (takes the final row's widths)",
              file=sys.stderr)
        return 2
    plan = cfg.sweep_plan
    eps = plan.eps_schedule[-1]
    delta = plan.deltas()[-1]
    state = build_recovery(cfg.geometry, eps, delta, plan.lam, plan.grid(),
                           cfg.potentials, enforce_width=plan.enforce_width)
    b = diffuse_energy(state, cfg.potentials, cfg.elastic)
    _write_state(state, cfg.out_dir)
    _emit(cfg, f"recover: eps={eps:g} delta={delta:g} e_total={b.e_total:.12g}")
    return 0


def _cmd_minimize(cfg: RunConfig) -> int:
    grid = cfg.solver_grid
    plan = cfg.solver_plan
    c0 = plan.mass_constraint if plan.mass_constraint is not None else 0.5
    s0 = default_state(grid, cfg.solver_eps, cfg.solver_delta, c0=c0,
                       seed=cfg.seed, amplitude=cfg.jitter_amplitude)
    s, traj = alternate(s0, cfg.potentials, cfg.elastic, plan)
    lines = ["sweep,e_phase,e_elastic,e_crack,e_total"]
    for k, e in enumerate(traj.energies):
        lines.append(f"{k},{e.e_phase:.17g},{e.e_elastic:.17g},"
                     f"{e.e_crack:.17g},{e.e_total:.17g}")
    _write_atomic(os.path.join(cfg.out_dir, "trajectory.csv"), ["\n".join(lines) + "\n"])
    _write_state(s, cfg.out_dir)
    counts = Counter(f for sweep in traj.flags for f in sweep)
    histogram = " ".join(f"{f}={n}" for f, n in sorted(counts.items())) or "none"
    _emit(cfg, f"minimize: {len(traj.energies) - 1} sweeps ({traj.reason}), "
               f"e_total = {traj.energies[-1].e_total:.12g}, "
               f"u_iters={sum(traj.u_iters)}, flags: {histogram}")
    monotone = np.all(np.diff(traj.totals) <= DESCENT_RTOL * np.abs(traj.totals[:-1]))
    return 0 if monotone else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="phasefrac",
        description="diffuse phase-separation/fracture energies: admissibility "
                    "checks, sharp-limit sweeps, recovery states, minimization")
    parser.add_argument("command",
                        choices=["check", "sweep", "minimize", "recover", "sharp"])
    parser.add_argument("--config", required=True, help="path to the INI config")
    parser.add_argument("--out", help="output directory (overrides [run] out)")
    parser.add_argument("--seed", help="seed override, an integer >= 0")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.out:
        cfg.out_dir = args.out
        cfg.sections["run"]["out"] = args.out
    if args.seed is not None:
        try:
            cfg.seed = _seed(args.seed)
        except ValueError as exc:
            print(f"--seed: {exc}", file=sys.stderr)
            return 2
        cfg.sections["run"]["seed"] = str(cfg.seed)
    if args.quiet:
        cfg.quiet = True

    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:  # a file at the path, or at one of its parents
        print(f"output directory {cfg.out_dir}: {exc.strerror}", file=sys.stderr)
        return 2
    _write_manifest(cfg, args.command)
    if sys.platform.startswith("linux"):
        # fix glibc's mmap threshold at its largest value, so every array under
        # 32 MiB comes from the heap: by default it rises with each larger block
        # freed, and which arrays got mapped, and so the peak RSS, followed the
        # heap layout (identical 1024^2 sweeps: 228-256 MB, by --out alone)
        ctypes.CDLL(None).mallopt(-3, 32 << 20)  # -3: M_MMAP_THRESHOLD, malloc.h
    handler = {"check": _cmd_check, "sharp": _cmd_sharp, "sweep": _cmd_sweep,
               "recover": _cmd_recover, "minimize": _cmd_minimize}[args.command]
    try:
        return handler(cfg)
    except (ValueError, ArithmeticError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
