"""Session-scoped meshes shared across the FEM-facing test modules."""

import pytest

from steklov_tubes.acceptance import TORUS_CENTERS
from steklov_tubes.fem import Annulus, Disk, mesh_planar, mesh_torus_minus_disks


@pytest.fixture(scope="session")
def disk_mesh():
    return mesh_planar(Disk(1.0), 0.05)


@pytest.fixture(scope="session")
def annulus_mesh():
    return mesh_planar(Annulus(0.5, 1.0), 0.05)


@pytest.fixture(scope="session")
def torus_mesh():
    return mesh_torus_minus_disks(1.0, TORUS_CENTERS, 0.05, 0.01)
