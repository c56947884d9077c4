import os

# One BLAS thread, as the benchmark runs: the mirror blocks (order about
# n/8) are solved faster on one thread than on two. Set before numpy loads
# the library; a value already in the environment is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from masscale import fem
from masscale.linalg import MatrixPair, generalized_eig

# Filled by tests/test_acceptance.py: criterion -> (description, verdict,
# wall time in seconds); printed as one line per criterion.
ACCEPTANCE = {}


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE):
        desc, ok, seconds = ACCEPTANCE[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} [{verdict}] {seconds:7.2f} s  {desc}")

BENCH_E = 207e9
BENCH_NU = 0.3
BENCH_RHO = 7800.0

# Benchmark plate: 200 x 20 x 2 mm discretized with 40 x 5 x 4 nodes.
PLATE_COUNTS = (40, 5, 4)
PLATE_EXTENTS = (0.2, 0.02, 0.002)


@pytest.fixture(scope="session")
def material():
    return fem.Material(BENCH_E, BENCH_NU, BENCH_RHO)


@pytest.fixture(scope="session")
def thin_element(material):
    """Single thin 1 x 1 x 1e-3 m hex element."""
    mesh = fem.build_structured_mesh((2, 2, 2), (1.0, 1.0, 1e-3))
    blocks = fem.element_blocks(mesh, material)
    return mesh, blocks


@pytest.fixture(scope="session")
def small_system(material):
    """Small free-free mesh (4 x 3 x 3 nodes, 108 dofs) for mesh-level tests."""
    mesh = fem.build_structured_mesh((4, 3, 3), (0.04, 0.02, 0.01))
    blocks = fem.element_blocks(mesh, material)
    k = fem.assemble(blocks, "stiffness", mesh.dof_count)
    m = fem.assemble(blocks, "lumped", mesh.dof_count)
    return mesh, blocks, MatrixPair(k, m)


@pytest.fixture(scope="session")
def plate_system(material):
    """Benchmark plate mesh with assembled stiffness and lumped mass."""
    mesh = fem.build_structured_mesh(PLATE_COUNTS, PLATE_EXTENTS)
    blocks = fem.element_blocks(mesh, material)
    k = fem.assemble(blocks, "stiffness", mesh.dof_count)
    m = fem.assemble(blocks, "lumped", mesh.dof_count)
    return mesh, blocks, MatrixPair(k, m)


@pytest.fixture(scope="session")
def plate_eig(plate_system):
    """Full B-orthonormal decomposition of the unscaled plate pair."""
    _, _, pair = plate_system
    return generalized_eig(pair)


def random_spd(order, rng, scale=1.0):
    g = rng.standard_normal((order, order))
    return scale * (g @ g.T + order * np.eye(order))


def random_spsd(order, rng, rank=None):
    rank = rank or order
    g = rng.standard_normal((order, rank))
    return g @ g.T


# The scalings of the kinds_small benchmark workload, as config documents,
# and the file labels their outputs carry.
KIND_DOCS = {
    "none": ({"kind": "none"}, "none"),
    "cms": ({"kind": "cms", "alpha": 4.0}, "cms_alpha4"),
    "uniform_lft": ({"kind": "uniform_lft", "mu": 2.0}, "uniform_lft_mu2"),
    "stiffness_proportional_lft": (
        {"kind": "stiffness_proportional_lft", "mu": 2e-14},
        "stiffness_proportional_lft_mu2e-14",
    ),
    "polynomial_sms": ({"kind": "polynomial_sms", "c": 1.5e-28}, "polynomial_sms_c1.5e-28"),
    "global_deflation": ({"kind": "global_deflation", "rank": 10}, "global_deflation_rank10"),
    "local_deflation_s1": (
        {"kind": "local_deflation_s1", "rank": 3, "alpha": 4.0},
        "local_deflation_s1_alpha4_rank3",
    ),
    "local_deflation_s2": ({"kind": "local_deflation_s2", "rank": 2}, "local_deflation_s2_rank2"),
    "olovsson": ({"kind": "olovsson", "beta": 10.0}, "olovsson_beta10"),
    "hoffmann": ({"kind": "hoffmann", "beta": 10.0}, "hoffmann_beta10"),
    "eig_stabilization": (
        {"kind": "eig_stabilization", "rank": 3, "epsilon": 1e-6},
        "eig_stabilization_rank3_epsilon1e-06",
    ),
}
