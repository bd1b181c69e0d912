import os

# one BLAS thread, as bench/run.py gives its children; set before numpy
# loads, since OpenBLAS reads it once.  The large-t Galerkin tests run several
# times slower on two threads of a 2-core host
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

from hitchinlab.algebra import HERMITIAN_BASIS, TracelessMatrix
from hitchinlab.painleve import solve_connection
from hitchinlab.fiducial import build_family


def tridiagonal_dense(op):
    """A of the RadialOperator ``op`` as a dense symmetric matrix, from its
    tridiagonal upper band ``op.band``."""
    off = op.band[0, 1:]
    return np.diag(op.band[1]) + np.diag(off, 1) + np.diag(off, -1)


def random_hermitian(rng):
    """A Hermitian trace-free matrix c1 (i tau_1) + c2 (i tau_2) + c3 (i tau_3)
    with standard normal coefficients."""
    return TracelessMatrix.from_matrix(
        sum(c * b for c, b in zip(rng.standard_normal(3), HERMITIAN_BASIS)))


@pytest.fixture(scope="session")
def profile():
    return solve_connection()


@pytest.fixture(scope="session")
def families(profile):
    return {t: build_family(t, profile) for t in (1.0, 2.0, 4.0, 8.0, 16.0)}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
