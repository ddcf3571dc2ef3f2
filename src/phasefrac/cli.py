"""Config-file driven command line: check | sweep | minimize | recover | sharp.

The config is line-oriented `key = value` under `[section]` headers
(INI syntax).  `_SCHEMA` is the one place that lists every section and key,
with the default text an omitted key takes, `[geometry]` included, and the
converter of the key's text.  `parse_config` converts every key once,
whether or not the command reads it; the flags `--out`, `--seed` and
`--quiet` are `[run]` texts, applied before that, so a faulty flag is named
like the key it sets (`[run] seed: must be >= 0, got -3`).  A key that
nothing in its configuration reads is a fault too: a `[geometry]` key of the
other dim or of another u_spec (`_DIM_READS`, `_U_SPECS`), or a `[sweep]` key
without `eps_schedule` that does not hold its default text (the echo writes
those back).  `[sweep] cells` falls back to `[geometry] cells`
where the config sets it, else to `SweepPlan.cells`.  Every run writes a
manifest (canonical config echo with the `_SCHEMA` defaults filled in,
except in `[geometry]`, which lists only the keys the config sets; versions;
seed) into the output directory so it can be reproduced bit for bit with the
same package version.  Exit codes: 0 success, 1 invariant failure, 2 config
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
from .recovery import RecoveryBands, width_violation
from .sharp import (Polygon, SegmentSet, SharpGeometry1D, SharpGeometry2D,
                    affine_displacement, piecewise_rigid_displacement, sharp_energy,
                    zero_displacement)
from .solver import DESCENT_RTOL, SolverPlan, alternate, default_state


class ConfigError(ValueError):
    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid config:\n" + "\n".join(f"  - {v}" for v in violations))


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


def _floats(text: str) -> list[float]:
    return [_finite(tok) for tok in text.replace(",", " ").split()]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _numbers(*counts: int):
    """Converter to a list of floats whose length is one of `counts`."""
    def conv(text: str) -> list[float]:
        vals = _floats(text)
        if len(vals) not in counts:
            need = " or ".join(str(n) for n in counts)
            raise ValueError(f"got {len(vals)} numbers, expected {need}")
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


def _within(conv, low, high=np.inf):
    """Converter by `conv` to a value in [low, high]."""
    def check(text: str):
        value = conv(text)
        if not low <= value <= high:
            raise ValueError(f"must be >= {low}, got {value}" if high == np.inf
                             else f"must lie in [{low}, {high}], got {value}")
        return value
    return check


def _delta(text: str) -> Optional[float]:
    """None for `auto`, the two-thirds rule of eps; else a positive width."""
    return None if text == "auto" else _positive(text)


def _one_of(table: dict):
    """Converter that passes a name through if it is a key of `table`."""
    def conv(text: str):
        if text not in table:
            raise ValueError(f"unknown {text!r} ({'|'.join(table)})")
        return text
    return conv


# the [geometry] keys each dim reads, besides dim and cells, which every run reads
_DIM_READS = {1: ("domain", "phase_points", "crack_points", "c_pieces", "u_slopes",
                  "u_offsets"),
              2: ("origin", "extent", "polygon", "segments", "u_spec")}
# each 2D u_spec: the [geometry] keys it reads, and its displacement of their values
_U_SPECS = {"zero": ((), zero_displacement),
            "affine": (("affine_matrix", "affine_offset"), affine_displacement),
            "piecewise_rigid": (("rigid_point", "rigid_dir", "rigid_plus", "rigid_minus",
                                 "rigid_omega_plus", "rigid_omega_minus"),
                                piecewise_rigid_displacement)}
_pair = _numbers(2)
# section -> key -> (default text, or None for a key without a default; the
# converter of the key's text).  The manifest echoes these texts byte for
# byte, so a number's is not derived from the library's dataclass defaults
# (repr(1e-8) is '1e-08'); `enforce_width` reads `SweepPlan`'s, whose text is
# exact, so the plan owns the one default.
_SCHEMA = {
    "run": {"seed": ("0", _within(int, 0)), "out": ("out", str), "quiet": ("false", _bool)},
    "potentials": {"w_scale": ("1", _finite), "v_scale": ("1", _finite),
                   "c_delta_scale": ("1", _positive), "coercivity": ("4", _positive)},
    "elastic": {"lame_lambda": ("0", _finite), "lame_mu": ("0.5", _positive),
                # 1D: the misfit strain; 2D: isotropic, or a11 a12 a22
                "e0": ("0", _numbers(1, 3)), "theta": ("0", _within(float, 0, 1)),
                "eta_rule": ("delta_squared", _one_of(ETA_RULES)),
                "psi": ("quadratic", _one_of(DEGRADATIONS))},
    "geometry": {
        "dim": (None, _within(int, 1, 2)), "cells": ("1024", _ints), "domain": ("0 1", _pair),
        "phase_points": ("", _floats), "crack_points": ("", _floats),
        "c_pieces": ("", _ints), "u_slopes": ("", _floats), "u_offsets": ("", _floats),
        "origin": ("0 0", _pair), "extent": ("1 1", _pair), "polygon": ("none", _polygon),
        "segments": ("", _segments), "u_spec": ("zero", _one_of(_U_SPECS)),
        "affine_matrix": ("0 0 0 0", lambda text: np.reshape(_numbers(4)(text), (2, 2))),
        "affine_offset": ("0 0", _pair), "rigid_point": ("0 0", _pair),
        "rigid_dir": ("0 1", _pair), "rigid_plus": ("0 0", _pair),
        "rigid_minus": ("0 0", _pair), "rigid_omega_plus": ("0", _finite),
        "rigid_omega_minus": ("0", _finite)},
    "solver": {"max_outer": ("200", int), "tol_rel_energy": ("1e-8", _positive),
               "cg_tol": ("1e-10", _positive), "cg_max_iters": ("1000", int),
               "mass": (None, float), "eps": ("0.0078125", _positive),
               "delta": ("auto", _delta)},
    "sweep": {"eps_schedule": (None, _floats), "delta_rule": ("two_thirds", str),
              "delta_scale": ("1", float), "lambda": ("1e-4", float),
              "cells": (None, _ints),
              "enforce_width": (str(SweepPlan.enforce_width).lower(), _bool)},
}
# the converted defaults: the value of an omitted key, and of a faulty or stray one
_DEFAULTS = {name: {key: None if text is None else conv(text)
                    for key, (text, conv) in keys.items()}
             for name, keys in _SCHEMA.items()}


def parse_config(path: str, overrides: Optional[dict] = None) -> RunConfig:
    """Parse and validate; collects every violation instead of stopping at one.
    `overrides` maps [run] keys to texts that replace the config's (the
    command-line flags).  A file that cannot be opened or is not UTF-8 text
    is a violation too."""
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
    given: dict = {name: {} for name in _SCHEMA}  # the texts the config sets
    for name in cp.sections():
        if name not in _SCHEMA:
            violations.append(f"unknown section [{name}]")
            continue
        for key, value in cp.items(name):
            if key in _SCHEMA[name]:
                given[name][key] = value.strip()
            else:
                violations.append(f"unknown key {key!r} in [{name}]")
    given["run"].update(overrides or {})

    # every key converts once; a faulty one is listed and takes its default's
    # value, so that the later checks still run
    values = {name: dict(defaults) for name, defaults in _DEFAULTS.items()}
    faulty = set()
    for name, texts in given.items():
        for key, text in texts.items():
            try:
                values[name][key] = _SCHEMA[name][key][1](text)
            except ValueError as exc:
                violations.append(f"[{name}] {key}: {exc}")
                faulty.add((name, key))
    run, pot, el, g, sol, sw = values.values()
    geo = given["geometry"]

    # a key that nothing in its configuration reads is a fault; the [geometry]
    # keys are judged only where dim and u_spec convert
    strays = []
    if not faulty & {("geometry", "dim"), ("geometry", "u_spec")}:
        reads = {"dim", "cells", *_DIM_READS.get(g["dim"], ()),
                 *(_U_SPECS[g["u_spec"]][0] if g["dim"] == 2 else ())}
        setting = f"dim = {geo['dim']}" if "dim" in geo else "no dim"
        if g["dim"] == 2:
            setting += f", u_spec = {geo.get('u_spec', _SCHEMA['geometry']['u_spec'][0])}"
        strays += [("geometry", key, f"with {setting}") for key in sorted(geo.keys() - reads)]
    scheduled = bool(given["sweep"].get("eps_schedule"))
    if not scheduled:  # a default text is allowed: the manifest echoes [sweep] in full
        strays += [("sweep", key, "without eps_schedule")
                   for key, text in sorted(given["sweep"].items())
                   if key != "eps_schedule" and text != _SCHEMA["sweep"][key][0]]
    for name, key, setting in strays:
        violations.append(f"[{name}] {key}: not read {setting}")
        values[name][key] = _DEFAULTS[name][key]

    def attempt(label: str, build):
        """build(), or None with its fault listed after `label`."""
        try:
            return build()
        except ValueError as exc:
            violations.append(f"{label} {exc}")
            return None

    potentials = attempt("[potentials]", lambda: make_default_potentials(theta=el["theta"], **pot))

    # no [geometry] is 1D; a faulty dim leaves it open, so e0 gets the laxer 2D count
    dim = g["dim"] or (2 if "dim" in geo else 1)
    e0 = el["e0"]
    if dim == 1 and len(e0) == 3:
        violations.append("[elastic] e0: got 3 numbers, expected 1")
        e0 = e0[:1]
    elastic = attempt("[elastic]", lambda: ElasticModel(
        lame_lambda=el["lame_lambda"], lame_mu=el["lame_mu"],
        e0=np.array([e0[:2], e0[1:]]) if len(e0) == 3 else e0[0] * np.eye(dim),
        degradation=el["psi"], eta_rule=el["eta_rule"]))

    # a faulty [geometry] key leaves the geometry unbuilt, and its grid unchecked
    built = "dim" in geo and not any(name == "geometry" for name, _ in faulty)
    geometry = attempt("[geometry]", lambda: _build_geometry(g)) if built else None
    solver_cells = tuple(g["cells"])
    base = geometry if "dim" in geo else SharpGeometry1D(tuple(g["domain"]))
    solver_grid = None if base is None else \
        attempt("[geometry] cells:", lambda: base.grid(solver_cells))

    if scheduled and "dim" not in geo:
        violations.append("[sweep] requires a [geometry] section")
    # the plan is checked without a geometry too, so that its faults are listed;
    # one whose geometry is missing or unbuilt goes with a violation
    own_cells = "cells" in given["sweep"]
    cells = sw["cells"] if own_cells else g["cells"] if "cells" in geo else None
    sweep_plan = attempt("[sweep]", lambda: SweepPlan(
        geometry, tuple(sw["eps_schedule"]), delta_rule=sw["delta_rule"],
        delta_scale=sw["delta_scale"], lam=sw["lambda"],
        cells=SweepPlan.cells if cells is None else tuple(cells),
        enforce_width=sw["enforce_width"])) if sw["eps_schedule"] else None
    # a width whose eta_delta underflows to 0 would drop the elastic floor
    # where z = 0, and one whose eta_delta overflows makes every elastic
    # density inf; each width is judged where it enters, under the chosen rule
    eta_rule = f"[elastic] eta_rule = {el['eta_rule']}"

    def eta_fault(delta: float) -> Optional[str]:
        """Why eta(delta) is not in (0, inf) under the chosen rule, or None."""
        try:
            eta = ETA_RULES[el["eta_rule"]](delta)
        except OverflowError:  # a float's ** raises where * gives inf
            eta = np.inf
        if not 0.0 < eta < np.inf:
            return f"{delta:g} makes eta_delta {'overflow' if eta > 0.0 else 0} under {eta_rule}"
        return None
    if sweep_plan is not None:
        faults = ((eps, eta_fault(delta)) for eps, delta in zip(sweep_plan.eps_schedule,
                                                                 sweep_plan.deltas()))
        violations += [f"[sweep] delta at eps={eps:g}: {fault}" for eps, fault in faults if fault]
    if sweep_plan is not None and geometry is not None:
        if own_cells:
            attempt("[sweep] cells:", sweep_plan.grid)
        for eps, delta in zip(sweep_plan.eps_schedule, sweep_plan.deltas()):
            reason = width_violation(geometry, eps, delta, sweep_plan.lam) \
                if sweep_plan.enforce_width else None
            if reason is not None:
                violations.append(f"[sweep] width condition fails at eps={eps:g}: {reason}")

    solver_plan = attempt("[solver]", lambda: SolverPlan(
        max_outer=sol["max_outer"], tol_rel_energy=sol["tol_rel_energy"],
        cg_tol=sol["cg_tol"], cg_max_iters=sol["cg_max_iters"], mass_constraint=sol["mass"]))
    solver_delta = resolve_delta_rule("two_thirds")(sol["eps"]) \
        if sol["delta"] is None else sol["delta"]
    fault = eta_fault(solver_delta)
    if fault is not None:
        violations.append(f"[solver] delta: {fault}")

    if violations:
        raise ConfigError(violations)
    sections = {name: dict(texts) if name == "geometry" else
                {**{k: d for k, (d, _) in _SCHEMA[name].items() if d is not None}, **texts}
                for name, texts in given.items()}
    return RunConfig(sections=sections, seed=run["seed"], out_dir=run["out"],
                     quiet=run["quiet"], potentials=potentials, elastic=elastic,
                     geometry=geometry, sweep_plan=sweep_plan, solver_plan=solver_plan,
                     solver_eps=sol["eps"], solver_delta=solver_delta,
                     solver_cells=solver_cells, solver_grid=solver_grid)


def _build_geometry(g: dict):
    """The sharp geometry of the converted [geometry] values."""
    if g["dim"] == 1:
        slopes, offsets = g["u_slopes"], g["u_offsets"]
        if len(slopes) != len(offsets):
            raise ValueError(f"u_slopes: got {len(slopes)} numbers, expected "
                             f"{len(offsets)} (one per u_offsets value)")
        return SharpGeometry1D(tuple(g["domain"]), phase_points=tuple(g["phase_points"]),
                               crack_points=tuple(g["crack_points"]),
                               c_pieces=tuple(g["c_pieces"]),
                               u_pieces=tuple(zip(slopes, offsets)))
    keys, displacement = _U_SPECS[g["u_spec"]]
    return SharpGeometry2D(tuple(g["origin"]), tuple(g["extent"]), polygon=g["polygon"],
                           segments=g["segments"],
                           u_spec=displacement(*(g[key] for key in keys)))


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
    report = check_admissibility(cfg.potentials)
    _emit(cfg, report.summary())
    # written before the densities, which an inadmissible potential can leave
    # unformed; the report's surface_le_fracture check fails then too
    _write_atomic(os.path.join(cfg.out_dir, "admissibility.txt"), [report.summary() + "\n"])
    for name, density in (("alpha_surf", surface_density), ("alpha_frac", fracture_density)):
        try:
            _emit(cfg, f"{name} = {density(cfg.potentials):.12g}")
        except ValueError as exc:
            _emit(cfg, f"{name} cannot be formed: {exc}")
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
    for r in bad:
        print(f"sweep: eps={r.eps:g}: {r.status.removeprefix('error:')}: {r.message}",
              file=sys.stderr)
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
    bands = RecoveryBands(cfg.geometry, eps, delta, plan.lam, plan.grid(), cfg.potentials,
                          enforce_width=plan.enforce_width)
    state = bands.state()
    # the energy proves the plateau slabs and reads the others from the state
    b = diffuse_energy(bands, cfg.potentials, cfg.elastic)
    _write_state(state, cfg.out_dir)
    _emit(cfg, f"recover: eps={eps:g} delta={delta:g} e_total={b.e_total:.12g}")
    return 0


def _cmd_minimize(cfg: RunConfig) -> int:
    grid = cfg.solver_grid
    plan = cfg.solver_plan
    c0 = plan.mass_constraint if plan.mass_constraint is not None else 0.5
    s0 = default_state(grid, cfg.solver_eps, cfg.solver_delta, c0=c0, seed=cfg.seed)
    s, traj = alternate(s0, cfg.potentials, cfg.elastic, plan)
    lines = ["sweep,e_phase,e_elastic,e_crack,e_total"]
    for k, e in enumerate(traj.energies):
        lines.append(f"{k},{e.e_phase:.17g},{e.e_elastic:.17g},"
                     f"{e.e_crack:.17g},{e.e_total:.17g}")
    _write_atomic(os.path.join(cfg.out_dir, "trajectory.csv"), ["\n".join(lines) + "\n"])
    _write_state(s, cfg.out_dir)
    counts = Counter(f for sweep in traj.flags for f in sweep)
    histogram = " ".join(f"{f}={n}" for f, n in sorted(counts.items())) or "none"
    residual = " ".join(f"{b}={r:.3g}" for b, r in traj.residual.items())
    _emit(cfg, f"minimize: {len(traj.energies) - 1} sweeps ({traj.reason}), "
               f"e_total = {traj.energies[-1].e_total:.12g}, residual {residual}, "
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

    flags = {"out": args.out, "seed": args.seed, "quiet": "true" if args.quiet else None}
    try:
        cfg = parse_config(args.config, {k: v for k, v in flags.items() if v is not None})
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2

    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:  # a file at the path, or at one of its parents
        print(f"output directory {cfg.out_dir}: {exc.strerror}", file=sys.stderr)
        return 2
    if sys.platform.startswith("linux"):
        # fix glibc's mmap threshold at its largest value, so every array under
        # 32 MiB comes from the heap: by default it rises with each larger block
        # freed, and which arrays got mapped, and so the peak RSS, followed the
        # heap layout (identical 1024^2 sweeps: 228-256 MB, by --out alone).
        # Fixing it also pins the trim threshold at 128 KiB, so the heap's top
        # went back to the system at almost every free and the next array
        # faulted its pages in again (145k page faults in a 1024^2 sweep, 9k at
        # 64 MiB, same peak RSS); 64 MiB is twice the mmap threshold, the pair
        # glibc's own rule would set.
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 32 << 20)  # -3: M_MMAP_THRESHOLD, malloc.h
        libc.mallopt(-1, 64 << 20)  # -1: M_TRIM_THRESHOLD
    handler = {"check": _cmd_check, "sharp": _cmd_sharp, "sweep": _cmd_sweep,
               "recover": _cmd_recover, "minimize": _cmd_minimize}[args.command]
    try:
        _write_manifest(cfg, args.command)
        return handler(cfg)
    except (ValueError, ArithmeticError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output that cannot be written, or a full disk, which names none
        print(f"{args.command}: {exc.filename2 or exc.filename or cfg.out_dir}: {exc.strerror}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
