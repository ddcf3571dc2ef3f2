import ctypes
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from phasefrac import cli
from phasefrac.cli import ConfigError, emit_config, main, parse_config
from phasefrac.energy import ElasticModel
from phasefrac.harness import SweepPlan, resolve_delta_rule
from phasefrac.potentials import make_default_potentials
from phasefrac.recovery import width_violation
from phasefrac.solver import DESCENT_RTOL, SolverPlan

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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
    # the plan owns the width flag's default; the schema's text is read from it
    assert cli._SCHEMA["sweep"]["enforce_width"][0] == str(SweepPlan.enforce_width).lower()
    assert cfg.elastic == ElasticModel()
    pots = make_default_potentials()
    for name in ("theta", "coercivity"):
        assert getattr(cfg.potentials, name) == getattr(pots, name), name


def test_unknown_key_is_named(tmp_path):
    bad = MINIMAL_1D + "\n[potentials]\nwscale = 2\n"
    with pytest.raises(ConfigError, match="wscale"):
        parse_config(write_config(tmp_path, bad))


@pytest.mark.parametrize("section,key,value", [
    ("potentials", "name", "default"), ("solver", "step0", "1.0"),
    ("solver", "backtrack_factor", "0.5"), ("solver", "armijo_c", "0.25"),
    ("sweep", "out_csv", "manifest.txt"), ("potentials", "quadrature_nodes", "4096"),
    ("potentials", "m_samples", "10001"), ("solver", "jitter_amplitude", "1e-3")])
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


@pytest.mark.parametrize("setting,alpha,reason", [
    ("w_scale = -1", "alpha_surf", "surface density must be positive"),
    ("v_scale = 0", "alpha_frac", "fracture density must be positive")])
def test_check_names_an_alpha_that_cannot_be_formed(tmp_path, capsys, setting, alpha, reason):
    # the report is written, and the other alpha printed, before exit 1
    text = MINIMAL_1D + f"\n[potentials]\n{setting}\n"
    assert main(["check", "--config", write_config(tmp_path, text)]) == 1
    out, err = capsys.readouterr()
    assert f"{alpha} cannot be formed: {reason}\n" in out and err == ""
    other = {"alpha_surf": "alpha_frac", "alpha_frac": "alpha_surf"}[alpha]
    assert re.search(f"^{other} = \\S+$", out, re.M)
    report = (tmp_path / "out" / "admissibility.txt").read_text()
    assert report.startswith("admissibility at ") and "FAIL" in report
    assert report in out


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


def test_a_failed_sweep_row_says_why_on_stderr(tmp_path, capsys):
    # 64 cells cannot resolve eps = 1e-4: the row fails, and the CSV keeps
    # only its status
    text = """[geometry]
dim = 1
crack_points = 0.5

[sweep]
eps_schedule = 0.1 0.0001
cells = 64
"""
    assert main(["sweep", "--config", write_config(tmp_path, text), "--out",
                 str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert re.fullmatch(r"sweep: eps=0\.0001: ResolutionError: z-transition width \S+ needs "
                        r"spacing < \S+; refine the grid\n", err), err
    assert "failures = 1" in out
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert rows[0].endswith(",ok") and rows[1].endswith(",nan,error:ResolutionError")


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
    assert re.search(r", residual c=\S+ z=\S+ u=\S+, u_iters=", head)


def test_seed_override_changes_manifest(tmp_path):
    path = write_config(tmp_path, MINIMAL_1D)
    main(["check", "--config", path, "--seed", "99"])
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "seed = 99" in manifest


def test_quiet_flag_is_echoed_so_the_rerun_stays_quiet(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL_1D)
    assert main(["check", "--config", path, "--quiet"]) == 0
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "\nquiet = true\n" in manifest
    redo = tmp_path / "redo.ini"
    redo.write_text(manifest.split("\n\n", 1)[1])
    capsys.readouterr()
    assert main(["check", "--config", str(redo)]) == 0
    assert capsys.readouterr().out == ""


def test_readme_names_every_config_key():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        words = set(re.findall(r"\w+", fh.read()))
    keys = {key for keys in cli._SCHEMA.values() for key in keys}
    assert sorted(keys - words) == []


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


@pytest.mark.parametrize("rule,delta,underflows", [
    ("delta_squared", "1e-170", True), ("delta_squared", "1e-110", False),
    ("delta_cubed", "1e-110", True), ("delta_cubed", "1e-100", False)])
def test_a_delta_whose_eta_underflows_exits_2_and_names_key_and_rule(tmp_path, capsys, rule,
                                                                     delta, underflows):
    # delta = 1e-170 ran `minimize` to exit 0 with eta_delta = 0
    text = MINIMAL_1D.replace("e0 = 0", f"e0 = 0\neta_rule = {rule}") \
        + f"\n[solver]\nmax_outer = 2\ndelta = {delta}\n"
    path = write_config(tmp_path, text)
    if not underflows:
        assert parse_config(path).elastic.eta(float(delta)) > 0.0
        return
    assert main(["minimize", "--config", path]) == 2
    assert capsys.readouterr().err.splitlines()[1:] == [
        f"  - [solver] delta: {float(delta):g} makes eta_delta 0 under "
        f"[elastic] eta_rule = {rule}"]


def test_an_auto_delta_and_sweep_rows_whose_eta_underflows_exit_2(tmp_path, capsys):
    # the two-thirds rule: eps = 1e-300 gives delta = 1e-200, and the sweep's
    # eps = 1e-160 and 1e-170 give 2.2e-107 (cubed 1e-320, subnormal but > 0)
    # and 4.6e-114 (cubed 0)
    text = MINIMAL_1D.replace("e0 = 0", "e0 = 0\neta_rule = delta_cubed").replace(
        "eps_schedule = 0.03125 0.015625", "eps_schedule = 1e-160 1e-170") \
        + "\n[solver]\neps = 1e-300\n"
    assert main(["sweep", "--config", write_config(tmp_path, text)]) == 2
    assert capsys.readouterr().err.splitlines()[1:] == [
        "  - [sweep] delta at eps=1e-170: 4.64159e-114 makes eta_delta 0 under "
        "[elastic] eta_rule = delta_cubed",
        "  - [solver] delta: 1e-200 makes eta_delta 0 under [elastic] eta_rule = delta_cubed"]


@pytest.mark.parametrize("rule", ["delta_squared", "delta_cubed"])
@pytest.mark.parametrize("section", ["sweep", "solver"])
def test_a_delta_whose_eta_overflows_exits_2_and_names_key_and_rule(tmp_path, capsys, rule,
                                                                    section):
    # delta ** 3 raised OverflowError out of parse_config, and delta * delta
    # gave eta_delta = inf, whose run failed on a non-finite elastic density
    delta = 1e200 if rule == "delta_squared" else 1e120
    text = MINIMAL_1D.replace("e0 = 0", f"e0 = 0\neta_rule = {rule}")
    if section == "sweep":
        text = text.replace("lambda = 1e-4", f"lambda = 1e-4\ndelta_scale = {delta}")
        command, deltas = "sweep", [delta * eps ** (2.0 / 3.0) for eps in (0.03125, 0.015625)]
        keys = [f"[sweep] delta at eps={eps:g}" for eps in (0.03125, 0.015625)]
    else:
        text += f"\n[solver]\nmax_outer = 2\ndelta = {delta}\n"
        command, deltas, keys = "minimize", [delta], ["[solver] delta"]
    assert main([command, "--config", write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[1:] == [
        f"  - {key}: {d:g} makes eta_delta overflow under [elastic] eta_rule = {rule}"
        for key, d in zip(keys, deltas)]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["manifest.txt", "sweep.csv"])
def test_an_output_path_that_cannot_be_written_exits_2_and_names_it(tmp_path, capsys, name):
    # a directory at an output's path refused the rename, left the
    # `.partial` file behind and ended in a traceback
    taken = tmp_path / "out" / name
    taken.mkdir(parents=True)
    assert main(["sweep", "--config", write_config(tmp_path, MINIMAL_1D)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"sweep: {taken}: Is a directory\n"
    assert taken.is_dir() and not list((tmp_path / "out").glob("*.partial"))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_disk_exits_2_and_names_the_output_directory(tmp_path, capsys):
    # a write to /dev/full fails with ENOSPC, an error that names no file
    out = tmp_path / "out"
    out.mkdir()
    (out / "sweep.csv.partial").symlink_to("/dev/full")
    assert main(["sweep", "--config", write_config(tmp_path, MINIMAL_1D)]) == 2
    assert capsys.readouterr().err == f"sweep: {out}: No space left on device\n"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.txt"]


# keys read only in a 1D geometry; the others are tried on a 2D one
ONE_D_KEYS = ("domain", "u_slopes", "u_offsets", "e0")


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
    ("solver", "cg_max_iters", "-1"), ("solver", "max_outer", "-3"),
    ("elastic", "theta", "x"),
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


# the geometry keys each gave a nan sharp energy with exit 0, or passed parsing
# and made `recover` exit 1 naming no key
NONFINITE_GEOMETRY = [("geometry", "u_slopes", "nan nan"), ("geometry", "u_offsets", "0 nan"),
                      ("geometry", "polygon", "0.5 0  1 0  1 nan  0.5 1"),
                      ("geometry", "affine_matrix", "0 inf 0 0"),
                      ("geometry", "rigid_plus", "inf 0"),
                      ("geometry", "rigid_omega_plus", "nan"),
                      ("geometry", "rigid_omega_minus", "-inf"), ("elastic", "e0", "nan")]


@pytest.mark.parametrize("section,key,value", [
    ("geometry", "extent", "nan nan"), ("sweep", "eps_schedule", "nan"),
    ("sweep", "delta_scale", "nan")] + NONFINITE_GEOMETRY)
def test_nonfinite_value_exits_2(tmp_path, capsys, section, key, value):
    text = config_with(section, key, value)
    if key.startswith("affine"):
        text = text.replace("u_spec = piecewise_rigid", "u_spec = affine")
    assert main(["sweep", "--config", write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    assert "finite" in err
    if (section, key, value) in NONFINITE_GEOMETRY:
        bad = next(tok for tok in value.split() if tok.lstrip("-") in ("nan", "inf"))
        assert err.splitlines()[1:] == [f"  - [{section}] {key}: must be finite, got {bad}"]


def test_a_polygon_outside_the_box_exits_2(tmp_path, capsys):
    # the box cuts this polygon to its right half, but the sharp energy
    # charged its whole area, and the sweep compared with that
    text = config_with("geometry", "polygon", "0.5 -0.5 1.5 -0.5 1.5 1.5 0.5 1.5")
    for command in ("sharp", "sweep"):
        assert main([command, "--config", write_config(tmp_path, text)]) == 2
        assert capsys.readouterr().err.splitlines()[1:] == [
            "  - [geometry] polygon must lie in the closed domain"]
    inside = config_with("geometry", "polygon", "0.5 0 1 0 1 1 0.5 1")
    assert main(["sharp", "--config", write_config(tmp_path, inside)]) == 0


@pytest.mark.parametrize("section,given", [("geometry", "2048"), ("sweep", "4096")])
@pytest.mark.parametrize("dim,cells,need", [(1, "64 128", "1"), (2, "16 16 16", "1 or 2")])
def test_cell_counts_of_the_wrong_length_exit_2_and_name_them(tmp_path, capsys, section,
                                                              given, dim, cells, need):
    # 1D `cells = 64 128` ran on 64 cells; 2D `16 16 16` blamed origin and extent
    text = MINIMAL_1D.replace(f"cells = {given}", f"cells = {cells}") if dim == 1 \
        else config_with(section, "cells", cells)
    assert main(["minimize", "--config", write_config(tmp_path, text)]) == 2
    counts = tuple(int(n) for n in cells.split())
    assert capsys.readouterr().err.splitlines()[1:] == [
        f"  - [{section}] cells: got {len(counts)} counts {counts}, expected {need}"]


@pytest.mark.parametrize("section,key,value", [
    ("solver", "cg_tol", "nan"), ("solver", "tol_rel_energy", "nan"),
    ("potentials", "coercivity", "nan"), ("elastic", "lame_mu", "nan"),
    ("elastic", "lame_mu", "inf"), ("elastic", "lame_lambda", "nan"),
    ("potentials", "w_scale", "nan"), ("potentials", "c_delta_scale", "nan"),
    ("potentials", "v_scale", "inf"), ("potentials", "c_delta_scale", "0"),
    ("potentials", "c_delta_scale", "-1")])
def test_nonfinite_setting_exits_2_and_names_key(tmp_path, capsys, section, key, value):
    # each of these used to run: to the CG cap, forever, or to a non-finite
    # density or a C_delta <= 0 raised as exit 1
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
    # a flag is a [run] text, so its fault reads like the config key's
    assert "[run] seed: must be >= 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_infinite_1d_domain_blames_domain(tmp_path, capsys):
    text = config_with("geometry", "domain", "0 inf")
    assert main(["check", "--config", write_config(tmp_path, text)]) == 2
    # the list converter refuses inf, before the geometry or its grid is built
    assert capsys.readouterr().err == \
        "invalid config:\n  - [geometry] domain: must be finite, got inf\n"


def test_invalid_geometry_exit_code(tmp_path, capsys):
    text = MINIMAL_1D.replace("crack_points = 0.5", "crack_points = 2.5")
    assert main(["sharp", "--config", write_config(tmp_path, text)]) == 2


def test_a_point_listed_twice_exits_2_and_names_it(tmp_path, capsys):
    text = MINIMAL_1D.replace("crack_points = 0.5\nc_pieces = 0 0",
                              "phase_points = 0.5 0.5\nc_pieces = 0 1")
    text = text.replace("u_offsets = 0 0.1", "u_offsets = 0 0")
    assert main(["sharp", "--config", write_config(tmp_path, text)]) == 2
    assert "[geometry] phase points 0.5 and 0.5 coincide within the tolerance 1e-09" \
        in capsys.readouterr().err


def test_a_segment_listed_twice_exits_2_and_names_it(tmp_path, capsys):
    text = "[geometry]\ndim = 2\nsegments = 0.5 0 0.5 1; 0.5 0 0.5 1\n"
    assert main(["sharp", "--config", write_config(tmp_path, text)]) == 2
    assert "[geometry] crack segments 1 and 2 overlap along a length of 1\n" \
        in capsys.readouterr().err


@pytest.mark.parametrize("section,key,names", [
    ("elastic", "psi", "quadratic|linear"), ("elastic", "eta_rule", "delta_squared|delta_cubed"),
    ("geometry", "u_spec", "zero|affine|piecewise_rigid")])
def test_an_unknown_name_exits_2_and_names_the_key_and_its_choices(tmp_path, capsys, section,
                                                                   key, names):
    text = config_with(section, key, "nope")
    assert main(["sweep", "--config", write_config(tmp_path, text)]) == 2
    assert f"  - [{section}] {key}: unknown 'nope' ({names})\n" in capsys.readouterr().err


@pytest.mark.parametrize("pieces,fault", [("0 0 0", "need 2 pieces, got 3 c / 2 u"),
                                          ("0 2", "c pieces must be 0 or 1"),
                                          ("0 1", "c jumps at non-phase point 0.5")])
def test_faulty_1d_c_pieces_exit_2_and_name_the_fault(tmp_path, capsys, pieces, fault):
    text = MINIMAL_1D.replace("c_pieces = 0 0", f"c_pieces = {pieces}")
    assert main(["sharp", "--config", write_config(tmp_path, text)]) == 2
    assert capsys.readouterr().err == f"invalid config:\n  - [geometry] {fault}\n"


@pytest.mark.parametrize("key,value,fault", [
    ("polygon", "0.5 0  1 0", "polygon: polygon needs at least 3 vertices"),
    ("rigid_dir", "0 0", "line direction must be nonzero")])
def test_a_degenerate_2d_geometry_exits_2_and_names_it(tmp_path, capsys, key, value, fault):
    text = config_with("geometry", key, value)
    assert main(["sharp", "--config", write_config(tmp_path, text)]) == 2
    assert capsys.readouterr().err == f"invalid config:\n  - [geometry] {fault}\n"


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


@pytest.mark.parametrize("text,strays", [
    ("[geometry]\ndim = 1\ncrack_points = 0.5\nu_slopes = 0 0\nu_offsets = 0 0.1\n"
     "polygon = 0.5 0 1 0 1 1 0.5 1\norigin = 0 0\nrigid_point = 0.5 0.5\n",
     ["[geometry] origin: ", "[geometry] polygon: ", "[geometry] rigid_point: "]),
    ("[geometry]\ndim = 2\nu_spec = zero\ndomain = 0 1\nphase_points = 0.5\n"
     "affine_matrix = 1 0 0 1\nrigid_plus = 0.1 0\n",
     ["[geometry] affine_matrix: ", "[geometry] domain: ", "[geometry] phase_points: ",
      "[geometry] rigid_plus: "]),
    ("[sweep]\ndelta_rule = bogus\nlambda = 5\ncells = -3\nenforce_width = maybe\n",
     ["[sweep] cells: ", "[sweep] delta_rule: ", "[sweep] enforce_width: ",
      "[sweep] lambda: "])], ids=["dim1", "dim2_zero", "sweep_without_schedule"])
def test_key_that_nothing_reads_exits_2_and_names_it(tmp_path, capsys, text, strays):
    assert main(["check", "--config", write_config(tmp_path, text)]) == 2
    err = capsys.readouterr().err
    named = [line.split("- ", 1)[1] for line in err.splitlines() if ": not read " in line]
    assert [line[:len(prefix)] for line, prefix in zip(named, strays)] == strays
    assert len(named) == len(strays)
    assert not (tmp_path / "out").exists()


def test_every_key_the_configuration_reads_is_accepted(tmp_path):
    # each dim and each u_spec with all the keys it reads
    rigid = "rigid_point = 0.5 0.5\nrigid_dir = 0 1\nrigid_plus = 0 0\nrigid_minus = 0 0\n" \
            "rigid_omega_plus = 0\nrigid_omega_minus = 0\n"
    for body in ("dim = 1\ndomain = 0 1\nphase_points = 0.5\ncrack_points = 0.5\n"
                 "c_pieces = 0 1\nu_slopes = 0 0\nu_offsets = 0 0\ncells = 8\n",
                 "dim = 2\norigin = 0 0\nextent = 1 1\npolygon = none\nsegments = none\n"
                 "u_spec = zero\ncells = 8\n",
                 "dim = 2\nu_spec = affine\naffine_matrix = 0 0 0 0\naffine_offset = 0 0\n",
                 "dim = 2\nu_spec = piecewise_rigid\n" + rigid):
        parse_config(write_config(tmp_path, "[geometry]\n" + body))


def test_schedule_without_geometry_lists_the_sweep_faults_too(tmp_path):
    text = "[sweep]\neps_schedule = 0.25 0.125\nlambda = 5\nenforce_width = maybe\n"
    with pytest.raises(ConfigError) as err:
        parse_config(write_config(tmp_path, text))
    assert sorted(err.value.violations) == [
        "[sweep] enforce_width: not a boolean: 'maybe'", "[sweep] lambda must lie in (0, 1)",
        "[sweep] requires a [geometry] section"]


def test_every_default_text_converts_with_its_converter():
    # a default that did not convert would leave a faulty key without a value
    for name, keys in cli._SCHEMA.items():
        for key, (text, conv) in keys.items():
            if text is not None:
                conv(text)
    assert sum(map(len, cli._SCHEMA.values())) == 47


def test_echo_lists_only_the_geometry_keys_set_and_parses_back(tmp_path):
    cfg = parse_config(write_config(tmp_path, "[geometry]\ndim = 2\n"))
    assert cfg.sections["geometry"] == {"dim": "2"}
    assert cfg.solver_cells == (1024,) and cfg.sweep_plan is None
    echoed = tmp_path / "echo.ini"
    echoed.write_text(emit_config(cfg))
    assert parse_config(str(echoed)).sections == cfg.sections


def test_flags_are_run_texts_echoed_as_given(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL_1D)
    out = tmp_path / "flagged"
    assert main(["check", "--config", path, "--seed", "042", "--out", str(out),
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    manifest = (out / "manifest.txt").read_text()
    assert "seed = 42\n" in manifest  # the converted seed in the header
    run = manifest.split("[run]\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert run == [f"out = {out}", "quiet = true", "seed = 042"]


# a sweep whose last width cannot be resolved on 8 cells
FAILING_ROW_1D = """[geometry]
dim = 1
crack_points = 0.5
u_slopes = 0 0
u_offsets = 0 0.1
cells = 8

[sweep]
eps_schedule = 0.25 0.001
cells = 8
"""


def test_sweep_writes_a_failed_row_and_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, FAILING_ROW_1D)
    assert main(["sweep", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert "failures = 1" in capsys.readouterr().out
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[-1] == "0.001,0.010000000000000002,nan,nan,nan,nan,2,nan,error:ResolutionError"


def test_handler_error_exits_1_and_names_the_command(tmp_path, capsys):
    path = write_config(tmp_path, FAILING_ROW_1D)
    assert main(["recover", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("recover: z-transition width 5.298e-02 needs "
                                       "spacing < 2.649e-02; refine the grid\n")
    assert sorted(os.listdir(tmp_path / "out")) == ["manifest.txt"]
