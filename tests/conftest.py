import os

# one BLAS thread, as bench/run.py gives its children; set before numpy
# loads, since OpenBLAS reads it once.  The large-t Galerkin tests run several
# times slower on two threads of a 2-core host
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

from hitchinlab.painleve import solve_connection
from hitchinlab.fiducial import build_family


def tridiagonal_dense(op):
    """A of the RadialOperator ``op`` as a dense symmetric matrix, from its
    tridiagonal upper band ``op.band``."""
    off = op.band[0, 1:]
    return np.diag(op.band[1]) + np.diag(off, 1) + np.diag(off, -1)


@pytest.fixture(scope="session")
def profile():
    return solve_connection()


@pytest.fixture(scope="session")
def families(profile):
    return {t: build_family(t, profile) for t in (1.0, 2.0, 4.0, 8.0, 16.0)}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
