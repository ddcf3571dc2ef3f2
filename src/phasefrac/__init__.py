"""Desk-scale laboratory for coupled phase-separation / fracture energies.

Diffuse functionals with a damage-degraded interfacial weight, their
sharp-interface limits on explicit configurations, near-optimal transition
profiles, an alternating-minimization solver, and a sweep harness that
compares the two energy levels quantitatively.
"""
import os

# One OpenBLAS thread unless the caller set a count: the package's matrices
# are small, and the default pool costs more at import and in a small `eigh`
# than it saves.  Set before the submodules import numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .energy import DiffuseState, ElasticModel, EnergyBreakdown, diffuse_energy
from .fields import Grid, ScalarField, VectorField
from .harness import SweepPlan, gamma_sweep
from .potentials import (AdmissibilityReport, PotentialSet, check_admissibility,
                         fracture_density, make_default_potentials, surface_density)
from .recovery import OptimalProfile, ProfileParams, build_recovery
from .sharp import (Polygon, SegmentSet, SharpGeometry1D, SharpGeometry2D,
                    sharp_energy)
from .solver import SolverPlan, Trajectory, alternate, default_state

__all__ = [
    "AdmissibilityReport", "DiffuseState", "ElasticModel", "EnergyBreakdown",
    "Grid", "OptimalProfile", "Polygon", "PotentialSet", "ProfileParams",
    "ScalarField", "SegmentSet", "SharpGeometry1D", "SharpGeometry2D",
    "SolverPlan", "SweepPlan", "Trajectory", "VectorField",
    "alternate", "build_recovery", "check_admissibility", "default_state",
    "diffuse_energy", "fracture_density", "gamma_sweep",
    "make_default_potentials", "sharp_energy", "surface_density",
]
