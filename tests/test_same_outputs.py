"""The output comparison in tools/ on a smoke-size workload, against this tree."""
import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "same_outputs", os.path.join(ROOT, "tools", "same_outputs.py"))
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS, make_config  # noqa: E402


def test_same_tree_gives_no_differences():
    assert same_outputs.compare(ROOT, "minimize", make_config("minimize_2d", 0, smoke=True)) == []


@pytest.mark.parametrize("name", ["sweep_2d", "recover_2d"])
def test_sweep_and_recover_on_the_smoke_workloads(name, tmp_path):
    # the smoke sweep_2d grid (256^2) spans several recovery blocks
    workload, text = WORKLOADS[name], make_config(name, 0, smoke=True)
    config = tmp_path / "run.ini"
    config.write_text(text)
    mine = same_outputs.run_cli(ROOT, workload.command, str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    assert all(mine[output] for output in workload.outputs)
    assert same_outputs.compare(ROOT, workload.command, text) == []


def test_sharp_on_a_workload_config(tmp_path):
    text = make_config("sweep_2d", 0, smoke=True)
    config = tmp_path / "run.ini"
    config.write_text(text)
    mine = same_outputs.run_cli(ROOT, "sharp", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and b"e_total   = " in mine["stdout"]
    assert same_outputs.compare(ROOT, "sharp", text) == []


def test_sharp_on_the_affine_config_has_every_term(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(same_outputs.AFFINE_SHARP)
    mine = same_outputs.run_cli(ROOT, "sharp", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and mine["stderr"] == b""
    terms = dict(map(str.strip, line.split("=")) for line in mine["stdout"].decode().splitlines())
    assert all(float(terms[name]) > 0.0 for name in ("e_phase", "e_elastic", "e_crack"))
    # the manifest echoes the three-value e0 and the affine displacement
    assert b"e0 = 0.8 0.1 -0.2\n" in mine["manifest.txt"]
    assert b"u_spec = affine\n" in mine["manifest.txt"]
    assert same_outputs.compare(ROOT, "sharp", same_outputs.AFFINE_SHARP) == []


def test_an_altered_or_missing_output_is_named(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(make_config("minimize_2d", 0, smoke=True))
    mine = same_outputs.run_cli(ROOT, "minimize", str(config), str(tmp_path / "out"))
    assert mine["exit code"] == b"0" and "trajectory.csv" in mine
    assert not (tmp_path / "out").exists()
    other = dict(mine)
    lines = other["c.field"].splitlines(keepends=True)
    lines[6] = b"0.25\n"
    other["c.field"] = b"".join(lines)
    assert same_outputs.differences(mine, other) == [
        f"c.field: line 7 differs ({len(lines)} lines here, {len(lines)} there)"]
    del other["c.field"]
    other["extra.csv"] = b""
    assert same_outputs.differences(mine, other) == [
        "c.field: only in this tree", "extra.csv: only in the other tree"]
