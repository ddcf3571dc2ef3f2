"""Tracing from the outside: wrap the public functions of every phasefrac module.

Block-level calls become spans (name, start, end, parent) kept in memory.
The hot kernels -- the difference operators and field construction, called
hundreds of thousands of times by the solver -- are aggregated into a call
count and a total time instead.  Modules bind names at import (`solver`
imports `diffuse_energy`, `harness` imports `build_recovery`, ...), so every
binding site of a wrapped function is replaced, not only the defining module.
The wrappers return what the wrapped function returns, so no number changes;
the benchmark checks that by comparing output files byte for byte.
"""
from __future__ import annotations

import functools
import inspect
import os
import statistics
from time import perf_counter

import phasefrac
from phasefrac import cli, energy, fields, harness, potentials, recovery, sharp, solver

LAYERS = {"cli": cli, "potentials": potentials, "fields": fields, "energy": energy,
          "solver": solver, "sharp": sharp, "recovery": recovery, "harness": harness}
# aggregated into counters: every call of these is cheap and frequent
KERNELS = ("fields.gradient", "fields.gradient_adjoint", "fields.sym_gradient",
           "fields.sym_gradient_adjoint", "fields.integrate", "fields.field_init")
FIELD_CLASSES = ("ScalarField", "VectorField", "SymTensorField")
GEOMETRY_METHODS = ("phase_distance", "crack_distance", "u_values")
IO_FUNCTIONS = {"fields.write_field": 1, "fields.read_field": 0}  # index of the path arg


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, time covered by children, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.kernels: dict[str, list] = {}   # name -> [calls, total seconds]
        self._kernel_depth = 0

    def span(self, name: str, fn):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                rec[1], rec[2] = t0, t1
                if parent >= 0:
                    self.spans[parent][4] += t1 - t0
            if info is not None:
                rec[5] = info(args, out)
            return out
        return wrapped

    def kernel(self, name: str, fn):
        stat = self.kernels.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._kernel_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._kernel_depth -= 1
                stat[0] += 1
                stat[1] += dt
                # nested kernels are already inside the outer kernel's time
                if not self._kernel_depth and self._stack:
                    self.spans[self._stack[-1]][4] += dt
        return wrapped


def _block_info(args, out):
    r = out[1]
    return {"block": r.block, "accepted": r.accepted, "flag": r.flag,
            "iters": r.iters, "step": r.step}


def _path_bytes(index):
    return lambda args, out: {"bytes": os.path.getsize(args[index])}


_INFO = {"solver.minimize_u": _block_info, "solver.minimize_z": _block_info,
         "solver.minimize_c": _block_info,
         "harness.gamma_sweep": lambda args, out: {"rows": len(out.rows)}}
_INFO.update({name: _path_bytes(i) for name, i in IO_FUNCTIONS.items()})


def install() -> Tracer:
    """Wrap every public function of phasefrac's layers at every binding site."""
    tracer = Tracer()
    wrapped = {}   # id(original) -> wrapper
    for layer, mod in LAYERS.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            make = tracer.kernel if name in KERNELS else tracer.span
            wrapped[id(obj)] = make(name, obj)
    for mod in list(LAYERS.values()) + [phasefrac]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
    # construction of the frozen field types (copy + finiteness scan)
    for cls_name in FIELD_CLASSES:
        cls = getattr(fields, cls_name)
        cls.__post_init__ = tracer.kernel("fields.field_init", cls.__post_init__)
    for cls in (sharp.SharpGeometry1D, sharp.SharpGeometry2D):
        for meth in GEOMETRY_METHODS:
            setattr(cls, meth, tracer.span(f"sharp.{meth}", getattr(cls, meth)))
    return tracer


def _q(values, q):
    """Quantile q in [0, 1] by linear interpolation; 0 for no samples."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced op, keyed by metric name."""
    spans = tracer.spans
    by_name: dict[str, list] = {}
    for rec in spans:
        by_name.setdefault(rec[0], []).append(rec)

    def recs(name):
        return by_name.get(name, [])

    def total(name):
        return sum(r[2] - r[1] for r in recs(name))

    def self_time(name):
        return sum(r[2] - r[1] - r[4] for r in recs(name))

    def kcalls(name):
        return tracer.kernels.get(name, [0, 0.0])[0]

    def ktime(name):
        return tracer.kernels.get(name, [0, 0.0])[1]

    m = {}
    # solver
    u_blocks = [r[5] for r in recs("solver.minimize_u")]
    sweeps = len(u_blocks)
    zc = [r[5] for r in recs("solver.minimize_z") + recs("solver.minimize_c")]
    zc_idx = {i for i, r in enumerate(spans)
              if r[0] in ("solver.minimize_z", "solver.minimize_c")}
    trials = sum(1 for r in recs("energy.diffuse_energy") if r[3] in zc_idx)
    accepted = sum(1 for b in zc if b["accepted"] and b["step"] > 0)
    sweep_ms = [1e3 * (c[2] - u[1])
                for u, c in zip(recs("solver.minimize_u"), recs("solver.minimize_c"))]
    cg = sum(b["iters"] for b in u_blocks)
    m.update({
        "solver.minimize_u.s": total("solver.minimize_u"),
        "solver.minimize_u.self_s": self_time("solver.minimize_u"),
        "solver.cg_iters": cg,
        "solver.cg_iters_per_sweep": cg / sweeps if sweeps else 0.0,
        "solver.u_converged_ratio": (sum(1 for b in u_blocks if b["accepted"] and not b["flag"])
                                     / sweeps if sweeps else 0.0),
        "solver.u_rejected": sum(1 for b in u_blocks if not b["accepted"]),
        "solver.sweeps": sweeps,
        "solver.sweep.p50_ms": _q(sweep_ms, 0.5),
        "solver.sweep.p99_ms": _q(sweep_ms, 0.99),
        "solver.minimize_z.s": total("solver.minimize_z"),
        "solver.minimize_c.s": total("solver.minimize_c"),
        "solver.armijo_trials": trials,
        "solver.armijo_accept_ratio": accepted / trials if trials else 0.0,
        "solver.default_state.s": total("solver.default_state"),
    })
    # energy
    de = recs("energy.diffuse_energy")
    m.update({
        "energy.diffuse_energy.calls": len(de),
        "energy.diffuse_energy.s": total("energy.diffuse_energy"),
        "energy.diffuse_energy.p50_ms": 1e3 * _q([r[2] - r[1] for r in de], 0.5),
        "energy.diffuse_energy.calls_per_sweep": len(de) / sweeps if sweeps else 0.0,
        "energy.grad_c.s": total("energy.grad_c"),
        "energy.grad_u.s": total("energy.grad_u"),
        "energy.grad_z.s": total("energy.grad_z"),
        "energy.project_mass.calls": len(recs("energy.project_mass")),
    })
    # fields
    for k in ("sym_gradient", "sym_gradient_adjoint", "field_init", "gradient"):
        m[f"fields.{k}.calls"] = kcalls(f"fields.{k}")
        m[f"fields.{k}.s"] = ktime(f"fields.{k}")
    m["fields.gradient_adjoint.s"] = ktime("fields.gradient_adjoint")
    for io in ("write_field", "read_field"):
        secs = total(f"fields.{io}")
        mb = sum(r[5]["bytes"] for r in recs(f"fields.{io}")) / 1e6
        m[f"fields.{io}.s"] = secs
        m[f"fields.{io}.mb_per_s"] = mb / secs if secs > 0 else 0.0
        if io == "write_field":
            m["fields.write_field.mb"] = mb
    # recovery and sharp
    m.update({
        "recovery.build_recovery.calls": len(recs("recovery.build_recovery")),
        "recovery.build_recovery.s": total("recovery.build_recovery"),
        "recovery.build_recovery.self_s": self_time("recovery.build_recovery"),
        "recovery.build_profile.calls": len(recs("recovery.build_profile")),
        "recovery.build_profile.s": total("recovery.build_profile"),
    })
    for k in ("phase_distance", "crack_distance", "u_values", "sharp_energy"):
        m[f"sharp.{k}.s"] = total(f"sharp.{k}")
    # harness: a row is one build_recovery plus its diffuse_energy
    rows, row_s = 0, []
    for i, g in enumerate(spans):
        if g[0] != "harness.gamma_sweep":
            continue
        rows += g[5]["rows"]
        kids = [r for r in spans if r[3] == i and r[0] in
                ("recovery.build_recovery", "energy.diffuse_energy")]
        starts = [r[1] for r in kids if r[0] == "recovery.build_recovery"]
        ends = [r[2] for r in kids if r[0] == "energy.diffuse_energy"]
        row_s += [e - s for s, e in zip(starts, ends)]
    m.update({
        "harness.gamma_sweep.s": total("harness.gamma_sweep"),
        "harness.gamma_sweep.self_s": self_time("harness.gamma_sweep"),
        "harness.rows": rows,
        "harness.row.p50_s": _q(row_s, 0.5),
    })
    # cli and set-up inside main
    m.update({
        "cli.parse_config.s": total("cli.parse_config"),
        "cli.main.self_s": self_time("cli.main"),
        "potentials.make_default_potentials.s": total("potentials.make_default_potentials"),
    })
    return m


def median_metrics(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
