import numpy as np
import pytest

from phasefrac.energy import DiffuseState, ElasticModel
from phasefrac.fields import Grid, ScalarField, VectorField
from phasefrac.potentials import make_default_potentials


@pytest.fixture(scope="session")
def P():
    return make_default_potentials()


@pytest.fixture()
def elastic_1d():
    return ElasticModel(e0=np.array([[1.0]]))


@pytest.fixture()
def elastic_1d_free():
    return ElasticModel(e0=np.zeros((1, 1)))


@pytest.fixture()
def elastic_2d_free():
    return ElasticModel(e0=np.zeros((2, 2)))


def random_state(grid: Grid, seed: int, eps: float = 0.07, delta: float = 0.11) -> DiffuseState:
    """Random admissible state with z strictly inside (0, 1)."""
    rng = np.random.Generator(np.random.Philox(seed))
    d = grid.dim
    return DiffuseState(
        c=ScalarField(grid, rng.uniform(-0.3, 1.3, grid.cells)),
        u=VectorField(grid, rng.normal(0.0, 0.5, grid.cells + (d,))),
        z=ScalarField(grid, rng.uniform(0.05, 0.95, grid.cells)),
        eps=eps, delta=delta)


def flat_key(c: np.ndarray, z: np.ndarray, u: np.ndarray, dim: int):
    """The reference of a plateau: the raw bytes of one cell's c and z when
    the rows c, z and u each hold one value in every cell, bit for bit (0.0
    and -0.0 apart), as `RecoveryBands` proves them; None otherwise."""
    for a, per_cell in ((c, 1), (z, 1), (u, dim)):
        bits = a.reshape(-1).view(np.uint64)
        if not np.array_equal(bits[per_cell:], bits[:-per_cell]):
            return None
    return c.reshape(-1)[:1].tobytes() + z.reshape(-1)[:1].tobytes()


class FlatSlabs:
    """A state as a slab source of `diffuse_energy` that yields `flat_key` for
    each slab whose rows hold one value each, and the rows of the others, so
    a state's plateau slabs take the pass's `_Flat` pieces."""

    def __init__(self, s: DiffuseState):
        self.s, self.grid, self.eps, self.delta = s, s.grid, s.eps, s.delta

    def slabs(self, halos):
        for rows in self.s.slabs(halos):
            key = flat_key(*rows, self.grid.dim)
            yield rows if key is None else key
