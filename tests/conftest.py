import os
from pathlib import Path

import numpy as np
import pytest

import qddsim as q

ROOT = Path(__file__).resolve().parents[1]

# The fixed random configuration all seeded tests run against, and the
# independent second draw used by the robustness checks.
PRIMARY_SEED = 42
SECONDARY_SEED = 271828


@pytest.fixture(scope="session")
def aniso3():
    c = q.random_couplings(PRIMARY_SEED, 3, q.SymmetryClass.ANISOTROPIC)
    return c, q.build_hamiltonian(c)


@pytest.fixture(scope="session")
def iso3():
    c = q.random_couplings(PRIMARY_SEED, 3, q.SymmetryClass.ISOTROPIC)
    return c, q.build_hamiltonian(c)


@pytest.fixture(scope="session")
def aniso2():
    c = q.random_couplings(PRIMARY_SEED, 2, q.SymmetryClass.ANISOTROPIC)
    return c, q.build_hamiltonian(c)


@pytest.fixture(scope="session")
def aniso1():
    c = q.random_couplings(PRIMARY_SEED, 1, q.SymmetryClass.ANISOTROPIC)
    return c, q.build_hamiltonian(c)


@pytest.fixture(scope="session")
def chain3():
    c = q.random_couplings(PRIMARY_SEED, 3, q.SymmetryClass.ANISOTROPIC, q.Topology.CHAIN)
    return c, q.build_hamiltonian(c)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (x + x.conj().T) / 2


def subprocess_env() -> dict[str, str]:
    """The environment with the source tree first on PYTHONPATH, for child processes."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
