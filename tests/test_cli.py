import ctypes
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

from phasefrac import cli
from phasefrac.cli import ConfigError, emit_config, main, parse_config
from phasefrac.energy import ElasticModel
from phasefrac.harness import SweepPlan, resolve_delta_rule
from phasefrac.potentials import check_admissibility, make_default_potentials
from phasefrac.recovery import width_violation
from phasefrac.solver import DESCENT_RTOL, SolverPlan, default_state

MINIMAL_1D = """
[run]
seed = 7
out = {out}

[elastic]
e0 = 0

[geometry]
dim = 1
domain = 0 1
crack_points = 0.5
c_pieces = 0 0
u_slopes = 0 0
u_offsets = 0 0.1
cells = 2048

[sweep]
eps_schedule = 0.03125 0.015625
delta_rule = two_thirds
lambda = 1e-4
cells = 4096
"""


def run_atomic(monkeypatch, out_dir, argv):
    """Run main and check that every file it leaves in out_dir arrived by a
    rename from its `.partial` twin, and that no `.partial` file is left."""
    renamed = []
    real_replace = os.replace

    def replace(src, dst):
        renamed.append((str(src), str(dst)))
        real_replace(src, dst)
    monkeypatch.setattr(os, "replace", replace)
    code = main(argv)
    monkeypatch.undo()
    assert not list(out_dir.glob("*.partial"))
    written = sorted(str(p) for p in out_dir.iterdir())
    assert sorted(dst for _, dst in renamed) == written
    assert all(src == dst + ".partial" for src, dst in renamed)
    return code


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text.format(out=tmp_path / "out"))
    return str(path)


def test_parse_minimal_fills_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, MINIMAL_1D))
    assert cfg.seed == 7
    assert cfg.geometry.dim == 1
    assert cfg.sweep_plan is not None
    assert cfg.sweep_plan.lam == pytest.approx(1e-4)
    assert cfg.solver_plan.max_outer == 200  # default filled


def test_cli_defaults_match_library_defaults(tmp_path):
    text = "[geometry]\ndim = 1\n\n[sweep]\neps_schedule = 0.03125 0.015625\n"
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.solver_plan == SolverPlan()
    plan = SweepPlan(cfg.geometry, cfg.sweep_plan.eps_schedule)
    for name in ("delta_rule", "delta_scale", "lam", "enforce_width", "cells"):
        assert getattr(cfg.sweep_plan, name) == getattr(plan, name), name
    model = ElasticModel()
    for name in ("lame_lambda", "lame_mu", "psi", "dpsi", "eta_rule"):
        assert getattr(cfg.elastic, name) == getattr(model, name), name
    pots = make_default_potentials()
    for name in ("theta", "quadrature_nodes", "coercivity"):
        assert getattr(cfg.potentials, name) == getattr(pots, name), name
    amplitude = inspect.signature(default_state).parameters["amplitude"].default
    assert cfg.jitter_amplitude == amplitude
    samples = inspect.signature(check_admissibility).parameters["m_samples"].default
    assert cfg.m_samples == samples


def test_unknown_key_is_named(tmp_path):
    bad = MINIMAL_1D + "\n[potentials]\nwscale = 2\n"
    with pytest.raises(ConfigError, match="wscale"):
        parse_config(write_config(tmp_path, bad))


@pytest.mark.parametrize("section,key,value", [
    ("potentials", "name", "default"), ("solver", "step0", "1.0"),
    ("solver", "backtrack_factor", "0.5"), ("solver", "armijo_c", "0.25"),
    ("sweep", "out_csv", "manifest.txt")])
def test_removed_key_exits_2_and_names_it(tmp_path, capsys, section, key, value):
    header = f"[{section}]\n"
    text = MINIMAL_1D.replace(header, header + f"{key} = {value}\n") \
        if header in MINIMAL_1D else MINIMAL_1D + f"\n{header}{key} = {value}\n"
    assert main(["check", "--config", write_config(tmp_path, text)]) == 2
    assert f"unknown key {key!r} in [{section}]" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path):
    bad = MINIMAL_1D + "\n[misc]\nx = 1\n"
    with pytest.raises(ConfigError, match="misc"):
        parse_config(write_config(tmp_path, bad))


def test_bad_delta_rule_cites_schedule(tmp_path):
    bad = MINIMAL_1D.replace("delta_rule = two_thirds", "delta_rule = eps_squared")
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config(write_config(tmp_path, bad))


def test_theta_range_rejected(tmp_path):
    bad = MINIMAL_1D + "\ntheta = 1.5\n"  # appended to [sweep]: unknown key
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, bad))
    bad2 = MINIMAL_1D.replace("[geometry]", "[elastic]\ntheta = 1.5\n\n[geometry]")
    with pytest.raises(ConfigError, match="theta"):
        parse_config(write_config(tmp_path, bad2))


def test_violations_are_aggregated(tmp_path):
    bad = MINIMAL_1D.replace("delta_rule = two_thirds", "delta_rule = nope")
    bad = bad.replace("[elastic]\ne0 = 0", "[elastic]\ne0 = 0\ntheta = 7")
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, bad))
    assert len(err.value.violations) >= 2


def test_roundtrip_emit_parse(tmp_path):
    path = write_config(tmp_path, MINIMAL_1D)
    cfg = parse_config(path)
    echoed = tmp_path / "echo.ini"
    echoed.write_text(emit_config(cfg))
    cfg2 = parse_config(str(echoed))
    assert cfg2.sections == cfg.sections


def test_width_condition_checked_when_enforced(tmp_path):
    text = MINIMAL_1D.replace("crack_points = 0.5\nc_pieces = 0 0",
                              "crack_points = 0.5\nphase_points = 0.5\nc_pieces = 0 1")
    text = text.replace("[sweep]", "[sweep]\nenforce_width = true")
    with pytest.raises(ConfigError, match="width condition"):
        parse_config(write_config(tmp_path, text))


def test_width_condition_allows_library_slack(tmp_path):
    # eps/sqrt(lambda) exceeds lambda*delta by 5e-13, inside the 1e-12
    # relative slack that build_recovery allows: the CLI must allow it too
    eps, lam = 0.03125, 0.25
    scale = float(eps / np.sqrt(lam) / (lam * (1 + 5e-13)) / eps ** (2 / 3))
    text = MINIMAL_1D.replace("crack_points = 0.5\nc_pieces = 0 0",
                              "crack_points = 0.5\nphase_points = 0.5\nc_pieces = 0 1")
    text = text.replace("eps_schedule = 0.03125 0.015625", f"eps_schedule = {eps!r}")
    text = text.replace("delta_rule = two_thirds\nlambda = 1e-4",
                        f"delta_rule = scaled_two_thirds\ndelta_scale = {scale!r}\n"
                        f"lambda = {lam!r}\nenforce_width = true")
    plan = parse_config(write_config(tmp_path, text)).sweep_plan
    assert plan.enforce_width and plan.eps_schedule == (eps,)
    delta = plan.deltas()[0]
    assert 1e-13 < eps / np.sqrt(lam) / (lam * delta) - 1 < 1e-12
    assert width_violation(plan.geometry, eps, delta, lam) is None


def test_check_command(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, MINIMAL_1D)
    assert run_atomic(monkeypatch, tmp_path / "out", ["check", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "alpha_surf = 0.333333333333" in out
    assert "alpha_frac = 2" in out
    assert os.path.exists(tmp_path / "out" / "manifest.txt")


def test_check_command_failing_potentials(tmp_path, capsys):
    text = MINIMAL_1D + "\n[potentials]\nv_scale = 0.01\n"
    assert main(["check", "--config", write_config(tmp_path, text)]) == 1


def test_sharp_command(tmp_path, capsys):
    assert main(["sharp", "--config", write_config(tmp_path, MINIMAL_1D)]) == 0
    out = capsys.readouterr().out
    assert "e_total   = 2" in out


def test_sweep_command_writes_csv(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL_1D)
    assert main(["sweep", "--config", path]) == 0
    csv_path = tmp_path / "out" / "sweep.csv"
    assert csv_path.exists()
    assert not (tmp_path / "out" / "sweep.csv.partial").exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("eps,delta,")
    assert len(lines) == 3


def test_sweep_delta_scale_scales_sqrt(tmp_path):
    text = MINIMAL_1D.replace("delta_rule = two_thirds",
                              "delta_rule = sqrt\ndelta_scale = 5")
    assert main(["sweep", "--config", write_config(tmp_path, text), "--quiet"]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == [5.0 * 0.03125 ** 0.5,
                                                      5.0 * 0.015625 ** 0.5]


@pytest.mark.parametrize("command,text,section", [
    ("sharp", "[run]\nout = {out}\n", "[geometry]"),
    ("sweep", MINIMAL_1D.split("[sweep]")[0], "[sweep]"),
    ("recover", "[run]\nout = {out}\n", "[sweep]")], ids=["sharp", "sweep", "recover"])
def test_missing_section_exits_2_and_names_it(tmp_path, capsys, command, text, section):
    assert main([command, "--config", write_config(tmp_path, text)]) == 2
    assert section in capsys.readouterr().err


def test_recover_command_dumps_fields(tmp_path, monkeypatch):
    path = write_config(tmp_path, MINIMAL_1D)
    assert run_atomic(monkeypatch, tmp_path / "out", ["recover", "--config", path]) == 0
    for name in ("c.field", "z.field", "u0.field"):
        assert (tmp_path / "out" / name).exists()
    from phasefrac.fields import read_field
    z = read_field(tmp_path / "out" / "z.field")
    assert z.values.min() >= 0.0 and z.values.max() <= 1.0


HEAP_BYTES_AFTER_MAIN = """
import ctypes, sys
import numpy as np
from phasefrac.cli import main

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Mallinfo2
assert main(["check", "--config", sys.argv[1], "--quiet"]) == 0
mapped = mallinfo2().hblkhd
block = np.ones(3 << 20)
print(block.nbytes, mallinfo2().hblkhd - mapped)
"""


def test_main_serves_large_arrays_from_the_heap(tmp_path):
    # in a fresh process glibc would map a 24 MiB array; after main pins the
    # threshold it comes from the heap, so the peak RSS of a run no longer
    # depends on which earlier frees moved the threshold
    if not sys.platform.startswith("linux"):
        pytest.skip("glibc's allocator only")
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("needs glibc >= 2.33 for mallinfo2")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", HEAP_BYTES_AFTER_MAIN, write_config(tmp_path, MINIMAL_1D)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    nbytes, mapped = map(int, proc.stdout.split())
    assert mapped < nbytes


def test_minimize_command(tmp_path, capsys, monkeypatch):
    text = MINIMAL_1D.replace("cells = 2048", "cells = 256")
    text += "\n[solver]\nmax_outer = 10\nmass = 0.5\neps = 0.05\ndelta = 0.1\n"
    path = write_config(tmp_path, text)
    assert run_atomic(monkeypatch, tmp_path / "out", ["minimize", "--config", path]) == 0
    traj = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "sweep,e_phase,e_elastic,e_crack,e_total"
    totals = [float(line.split(",")[-1]) for line in traj[1:]]
    assert all(b <= a * (1 + DESCENT_RTOL) for a, b in zip(totals, totals[1:]))
    assert (tmp_path / "out" / "c.field").exists()
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert summary.startswith("minimize: ")
    head, tail = summary.split("flags: ", 1)
    flags = tail.split()
    assert flags == ["none"] or all(f.count("=") == 1 for f in flags)
    assert not [f for f in flags if f.startswith("u:")]
    assert head.endswith(", u_iters=0, ")  # the 1D u-step is exact, no CG


def test_seed_override_changes_manifest(tmp_path):
    path = write_config(tmp_path, MINIMAL_1D)
    main(["check", "--config", path, "--seed", "99"])
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "seed = 99" in manifest


def test_manifest_reproduces_run(tmp_path):
    # the manifest's config echo drives an identical sweep
    path = write_config(tmp_path, MINIMAL_1D)
    assert main(["sweep", "--config", path, "--quiet"]) == 0
    first = (tmp_path / "out" / "sweep.csv").read_text()
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    echo = manifest.split("\n\n", 1)[1]
    redo = tmp_path / "redo.ini"
    redo.write_text(echo.replace(str(tmp_path / "out"), str(tmp_path / "out2")))
    assert main(["sweep", "--config", str(redo), "--quiet"]) == 0
    assert (tmp_path / "out2" / "sweep.csv").read_text() == first


def test_config_error_exit_code(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path / "missing.ini")]) == 2


def test_config_naming_a_directory_exits_2_and_names_it(tmp_path, capsys):
    # configparser's read() skips a file it cannot open, so this ran on defaults
    (tmp_path / "conf.d").mkdir()
    path = str(tmp_path / "conf.d")
    assert main(["check", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"config file {path}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_not_utf8_exits_2_and_names_it(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_bytes(MINIMAL_1D.format(out=tmp_path / "out").encode() + b"; caf\xe9\n")
    assert main(["check", "--config", str(path)]) == 2
    assert f"config file {path}: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_out_naming_a_file_exits_2_and_names_it(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    path = write_config(tmp_path, MINIMAL_1D)
    assert main(["check", "--config", path, "--out", str(taken)]) == 2
    assert f"output directory {taken}: " in capsys.readouterr().err
    assert taken.read_text() == "keep\n"


def test_auto_delta_is_the_two_thirds_rule_bitwise(tmp_path):
    for eps in ("0.0078125", "0.05", "0.3", "1e-5"):
        text = MINIMAL_1D + f"\n[solver]\neps = {eps}\n"
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.sections["solver"]["delta"] == "auto"
        want = np.float64(resolve_delta_rule("two_thirds")(float(eps)))
        assert np.float64(cfg.solver_delta).view(np.uint64) == want.view(np.uint64)
        assert cfg.solver_delta == float(eps) ** (2.0 / 3.0)


# keys read only in a 1D geometry; the others are tried on a 2D one
ONE_D_KEYS = ("domain", "u_slopes", "e0")


def config_with(section, key, value):
    """A valid 1D or 2D config with one value replaced."""
    geometry = {"dim": 1, "cells": 8, "crack_points": 0.5, "u_slopes": "0 0",
                "u_offsets": "0 0.1"} if key in ONE_D_KEYS else \
        {"dim": 2, "cells": 8, "segments": "0.5 0.25 0.5 0.75", "u_spec": "piecewise_rigid"}
    sections = {"run": {"out": "{out}"}, "potentials": {}, "elastic": {},
                "geometry": geometry,
                "solver": {"max_outer": 2}, "sweep": {"eps_schedule": "0.25 0.125", "cells": 8}}
    sections[section][key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                   for name, body in sections.items())


@pytest.mark.parametrize("command", ["minimize", "sweep"])
@pytest.mark.parametrize("section,key,value", [
    ("geometry", "cells", "abc"), ("geometry", "cells", "1"),
    ("geometry", "cells", "0"), ("geometry", "cells", "8 8 8"),
    ("sweep", "cells", "abc"), ("sweep", "cells", "1"),
    ("sweep", "cells", "0"), ("sweep", "cells", "8 8 8"),
    ("solver", "delta", "nope"), ("solver", "delta", "-1"),
    ("solver", "eps", "-0.01"), ("solver", "eps", "0"),
    ("solver", "jitter_amplitude", "x"), ("solver", "jitter_amplitude", "nan"),
    ("solver", "jitter_amplitude", "inf"), ("solver", "cg_max_iters", "-1"),
    ("solver", "max_outer", "-3"), ("potentials", "m_samples", "x"),
    ("potentials", "m_samples", "1"), ("potentials", "m_samples", "0"),
    ("potentials", "m_samples", "-5"), ("elastic", "theta", "x"),
    ("geometry", "segments", "0.5 0.25 0.5 0.75 0.5"),
    ("geometry", "segments", "0.5 0.25 0.5"),
    ("geometry", "origin", "0 0 7"), ("geometry", "rigid_dir", "0 1 5"),
    ("geometry", "rigid_point", "0.5 0.5 0.5"), ("geometry", "domain", "0 1 5"),
    ("geometry", "u_slopes", "0 0 0"), ("elastic", "e0", "1 2 3")])
def test_malformed_value_exits_2_and_names_key(tmp_path, capsys, command,
                                               section, key, value):
    text = config_with(section, key, value)
    assert main([command, "--config", write_config(tmp_path, text)]) == 2
    assert f"[{section}] {key}: " in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("geometry", "extent", "nan nan"), ("sweep", "eps_schedule", "nan"),
    ("sweep", "delta_scale", "nan")])
def test_nonfinite_value_exits_2(tmp_path, capsys, section, key, value):
    text = config_with(section, key, value)
    assert main(["sweep", "--config", write_config(tmp_path, text)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("solver", "cg_tol", "nan"), ("solver", "tol_rel_energy", "nan"),
    ("potentials", "coercivity", "nan"), ("elastic", "lame_mu", "nan"),
    ("elastic", "lame_mu", "inf"), ("elastic", "lame_lambda", "nan"),
    ("potentials", "w_scale", "nan"), ("potentials", "c_delta_scale", "nan"),
    ("potentials", "v_scale", "inf")])
def test_nonfinite_setting_exits_2_and_names_key(tmp_path, capsys, section, key, value):
    # each of these used to run: to the CG cap, forever, or to a non-finite
    # density raised as exit 1
    text = config_with(section, key, value)
    assert main(["minimize", "--config", write_config(tmp_path, text)]) == 2
    assert f"[{section}] {key}: must be " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "minimize"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    path = write_config(tmp_path, config_with("run", "seed", "-1"))
    assert main([command, "--config", path]) == 2
    assert "[run] seed: must be >= 0, got -1" in capsys.readouterr().err
    path = write_config(tmp_path, config_with("run", "seed", "3"))
    assert main([command, "--config", path, "--seed", "-3"]) == 2
    assert "--seed: must be >= 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_infinite_1d_domain_blames_domain(tmp_path, capsys):
    text = config_with("geometry", "domain", "0 inf")
    assert main(["check", "--config", write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert "[geometry] domain " in err and "cells" not in err


def test_invalid_geometry_exit_code(tmp_path, capsys):
    text = MINIMAL_1D.replace("crack_points = 0.5", "crack_points = 2.5")
    assert main(["sharp", "--config", write_config(tmp_path, text)]) == 2


def test_2d_config_parses(tmp_path):
    text = """
[run]
seed = 1
out = {out}

[elastic]
e0 = 0

[geometry]
dim = 2
origin = 0 0
extent = 1 1
polygon = 0.5 0  1 0  1 1  0.5 1
segments = 0.5 0.25 0.5 0.75
u_spec = piecewise_rigid
rigid_point = 0.5 0.5
rigid_dir = 0 1
rigid_plus = 0.002 0
rigid_minus = -0.002 0

[sweep]
eps_schedule = 0.0625 0.03125
delta_rule = scaled_two_thirds
delta_scale = 0.18
lambda = 1e-4
cells = 256 256
"""
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.geometry.dim == 2
    assert cfg.geometry.polygon is not None
    assert len(cfg.geometry.segments) == 1
    b = __import__("phasefrac.sharp", fromlist=["sharp_energy"]).sharp_energy(
        cfg.geometry, cfg.potentials, cfg.elastic)
    assert b.e_total == pytest.approx(7 / 6, abs=1e-10)


def test_sweep_command_empty_geometry(tmp_path):
    text = MINIMAL_1D.replace("crack_points = 0.5\nc_pieces = 0 0\nu_slopes = 0 0\nu_offsets = 0 0.1",
                              "c_pieces = 0\nu_slopes = 0\nu_offsets = 0")
    path = write_config(tmp_path, text)
    assert main(["sweep", "--config", path, "--quiet"]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    for row in rows:
        cols = row.split(",")
        assert float(cols[5]) == 0.0 and float(cols[6]) == 0.0


def test_inline_comments_stripped(tmp_path):
    text = MINIMAL_1D.replace("lambda = 1e-4", "lambda = 1e-4   ; profile floor")
    cfg = parse_config(write_config(tmp_path, text))
    assert cfg.sweep_plan.lam == pytest.approx(1e-4)
