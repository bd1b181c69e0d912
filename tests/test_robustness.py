"""Property sweeps over the documented domain of the entry points: a call
either raises ValueError on an input outside that domain, or returns a
finite result of the documented shape.

Each sweep runs a fixed, seeded set of examples, so the suite stays
reproducible and fast.
"""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from hitchinlab import linearized as lin
from hitchinlab import painleve
from hitchinlab.errors import NumericalError
from hitchinlab.painleve import RHO_TAIL, SERIES_CUT

SRC = str(Path(__file__).resolve().parents[1] / "src")

SWEEP = settings(max_examples=60, deadline=None, database=None)

# grid sizes: integers, the smallest below MIN_GRID, and non-integral floats
GRID_SIZES = st.one_of(
    st.integers(min_value=1, max_value=400),
    st.floats(min_value=0.5, max_value=400.0).filter(lambda n: not n.is_integer()),
)


@seed(20261020)
@SWEEP
@given(n=GRID_SIZES, r_min=st.floats(min_value=1e-10, max_value=0.5),
       ell=st.integers(min_value=0, max_value=40))
def test_scalar_operator_raises_or_has_a_positive_spectrum(n, r_min, ell):
    valid = float(n).is_integer() and n >= lin.MIN_GRID
    try:
        grid = lin.RadialGrid(n, r_min)
        op = lin.assemble_scalar(ell, n=n, r_min=r_min)
    except ValueError:
        assert not valid
        return
    assert valid
    assert len(grid.r) == n and 0.0 < grid.r[0] < grid.r[-1] < 1.0
    assert op.band.shape[1] == n
    lam = lin.smallest_eigenvalue(op)
    assert math.isfinite(lam) and lam > 0.0


def _tridiagonal(op):
    """(A x, ||A||_inf) for the tridiagonal band of ``op``, as functions of x
    and as a number."""
    d, e = op.band[1], op.band[0, 1:]

    def times(x):
        y = d * x
        y[:-1] += e * x[1:]
        y[1:] += e * x[:-1]
        return y

    return times, float((np.abs(d) + np.append(np.abs(e), 0.0) + np.append(0.0, np.abs(e))).max())


@seed(20261020)
@SWEEP
@given(n=st.integers(min_value=lin.MIN_GRID, max_value=4096),
       r_min=st.floats(min_value=1e-8, max_value=0.5), ell=st.integers(min_value=0, max_value=64),
       neumann=st.booleans(), scale=st.one_of(st.just(0.0), st.floats(min_value=1e-2, max_value=1e6)),
       power=st.floats(min_value=-2.0, max_value=2.0), data=st.data())
def test_tridiagonal_solve_is_backward_stable(n, r_min, ell, neumann, scale, power, data):
    # the LDL^T solve of a scalar operator with a nonnegative potential has a
    # normwise relative residual of a few n eps; a NaN in the potential and a
    # shift above lambda_min are refused, and the shifted operator has no
    # smallest eigenvalue.  At ell = 0 a Neumann end needs a
    # potential, or the constant is a kernel
    assume(scale > 0.0 or ell > 0 or not neumann)

    def potential(r):
        return scale * r ** power

    op = lin.assemble_scalar(ell, n=n, r_min=r_min, potential=potential, neumann_outer=neumann)
    times, norm = _tridiagonal(op)
    b = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).standard_normal(
        len(op.weights))
    x = op.solve(b)
    eps = np.finfo(float).eps
    assert np.abs(times(x) - b).max() <= 100 * n * eps * norm * np.abs(x).max()
    lam = lin.smallest_eigenvalue(op)
    shifted = op.band.copy()
    shifted[-1] -= (lam + 1e-3 * (1.0 + abs(lam))) * op.weights
    with pytest.raises(NumericalError, match="not positive definite"):
        lin._band_solver(shifted)
    with pytest.raises(NumericalError, match="not positive definite"):
        lin.smallest_eigenvalue(dataclasses.replace(op, band=shifted))
    where = data.draw(st.integers(0, len(op.weights) - 1))
    nan = lin.assemble_scalar(ell, n=n, r_min=r_min, neumann_outer=neumann,
                              potential=lambda r: np.where(r == r[where], np.nan, potential(r)))
    with pytest.raises(NumericalError, match="not positive definite"):
        nan.solve


# positive finite rho, weighted toward both seams of the evaluator
SEAMS = [SERIES_CUT, RHO_TAIL]
POSITIVE_RHO = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(min_value=0.5 * SERIES_CUT, max_value=2.0 * SERIES_CUT),
    st.floats(min_value=0.5 * RHO_TAIL, max_value=2.0 * RHO_TAIL),
    st.sampled_from(SEAMS + [float(np.nextafter(x, d)) for x in SEAMS for d in (0.0, np.inf)]),
)


@seed(20261020)
@SWEEP
@given(rho=st.lists(POSITIVE_RHO, min_size=1, max_size=30), data=st.data())
def test_evaluator_is_finite_and_pointwise(profile, rho, data):
    rho = rho + rho[: data.draw(st.integers(0, len(rho)))]  # duplicates
    out = np.array(painleve.psi_log_derivatives(profile, rho))
    assert out.shape == (3, len(rho)) and np.isfinite(out).all()
    perm = np.array(data.draw(st.permutations(range(len(rho)))), dtype=int)
    moved = np.array(painleve.psi_log_derivatives(profile, np.array(rho)[perm]))
    assert np.array_equal(moved, out[:, perm])


@seed(20261020)
@SWEEP
@given(rho=st.lists(POSITIVE_RHO, max_size=10), bad=st.one_of(
    st.floats(max_value=0.0), st.sampled_from([np.nan, np.inf, -np.inf])), data=st.data())
def test_evaluator_rejects_rho_outside_its_domain(profile, rho, bad, data):
    rho.insert(data.draw(st.integers(0, len(rho))), bad)
    with pytest.raises(ValueError, match="finite and positive"):
        painleve.psi_log_derivatives(profile, rho)


def _reports(cwd: Path, threads: int, argv: list) -> dict:
    """Every file that ``hitchinlab argv`` writes, by name, run in a fresh
    process in ``cwd`` with ``threads`` BLAS threads, under the same
    relative --out."""
    cwd.mkdir()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
           **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                           str(threads))}
    done = subprocess.run([sys.executable, "-m", "hitchinlab.cli", *argv, "--out", "run"],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return {path.name: path.read_bytes() for path in sorted((cwd / "run").iterdir())}


@pytest.mark.parametrize("argv", [
    # t = 1000 takes n = 96 functions per component, so its coupled blocks
    # have 192 rows: past BLOCK_ROWS, where dpotrf and dtrtri would round
    # differently with the thread count
    ["spectrum", "--t", "1000", "--lmax", "8"],
    # t = 500's probe at 2n = 192 factors 384-row blocks, past the 192 rows
    # up to which dsyevr rounds alike at every thread count
    ["spectrum", "--t", "500", "--lmax", "8"],
    # the profile solve runs dense gesv and BLAS products
    ["solve-psi"],
    ["glue", "--t", "2", "--t", "4", "--t", "6", "--t", "8"],
], ids=["spectrum-t1000", "spectrum-t500", "solve-psi", "glue"])
def test_reports_are_independent_of_blas_threads(tmp_path, argv):
    assert _reports(tmp_path / "one", 1, argv) == _reports(tmp_path / "two", 2, argv)
