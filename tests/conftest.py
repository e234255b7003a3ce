import numpy as np
import pytest

from penflow import DomainSpec, build_spaces, extract_submesh, generate_mesh
from penflow.presets import sec31_penalized


@pytest.fixture(scope="session")
def unit_square_mesh():
    return generate_mesh(DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.25))


@pytest.fixture(scope="session")
def square_disk_conforming():
    """Unit square with one centered disk hole, body-fitted, plus submesh."""
    spec = DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.1,
                      obstacles=(("disk", (0.5, 0.5), 0.2),))
    full = generate_mesh(spec, conform_to_obstacles=True)
    fluid = extract_submesh(full, "Fluid")
    return full, fluid


@pytest.fixture(scope="session")
def flow_cell_coarse():
    """The benchmark flow-cell mesh at desk resolution (~2000 triangles)."""
    return generate_mesh(sec31_penalized().domain_spec,
                         conform_to_obstacles=False)


@pytest.fixture(scope="session")
def flow_cell_coarse_layout(flow_cell_coarse):
    return build_spaces(flow_cell_coarse)


@pytest.fixture(scope="session")
def tiny_layout():
    """A mesh small enough for dense finite-difference sweeps."""
    mesh = generate_mesh(DomainSpec(outer=(0.0, 0.0, 1.0, 1.0), h_mesh=0.34))
    return build_spaces(mesh)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)
