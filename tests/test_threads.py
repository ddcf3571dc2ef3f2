"""OpenBLAS threads of a process that loads numpy through phasefrac."""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import make_config  # noqa: E402

# OpenBLAS reads the first of these that is set
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_COUNT_THREADS = ("import os, phasefrac; "
                  "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")


def _run(args, openblas_threads):
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
                    reason="reads /proc/self/task; OpenBLAS starts no more threads than CPUs")
@pytest.mark.parametrize("value,threads", [(None, "1"), ("2", "2")])
def test_import_runs_one_openblas_thread_unless_the_caller_sets_a_count(value, threads):
    count, kept = _run(["-c", _COUNT_THREADS], value).split()
    assert count == threads and kept == threads


def test_minimize_2d_outputs_do_not_depend_on_the_thread_count(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(make_config("minimize_2d", 0))
    out = tmp_path / "out"
    runs = []
    for value in (None, "2"):
        stdout = _run(["-m", "phasefrac.cli", "minimize", "--config", str(config),
                       "--out", str(out)], value)
        runs.append((stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    assert "trajectory.csv" in runs[0][1] and "u1.field" in runs[0][1]
    assert runs[0] == runs[1]
