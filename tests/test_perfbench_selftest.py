"""The benchmark's own self-test, so a refactor that breaks a gate or the
tracer fails here.  It writes only under the ignored `.perfbench_runs/`."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


# a 16^2 2D minimize with misfit, 2 sweeps, under the tracer; prints the call
# counts of the difference-operator kernels
KERNEL_COUNTS = """
import sys
import numpy as np
import tracer
t = tracer.install()
from phasefrac import solver
from phasefrac.energy import ElasticModel
from phasefrac.fields import Grid
from phasefrac.potentials import make_default_potentials
s0 = solver.default_state(Grid((0.0, 0.0), (1.0, 1.0), (16, 16)), 0.1, 0.2)
solver.alternate(s0, make_default_potentials(), ElasticModel(e0=0.05 * np.eye(2)),
                 solver.SolverPlan(max_outer=2))
print(*(t.kernels.get(f"fields.{k}", [0])[0] for k in sys.argv[1:]))
"""


def test_tracer_counts_the_difference_operators():
    # a subprocess, so the tracer's rebinding of phasefrac's functions stays there
    names = ("gradient", "sym_gradient", "sym_gradient_adjoint")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", KERNEL_COUNTS, *names], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    counts = dict(zip(names, map(int, proc.stdout.split())))
    assert all(n > 0 for n in counts.values()), counts
