"""Numerical laboratory for the model-disk analysis of the rescaled
self-duality equations: profile solve, fiducial family, gauge orbits,
linearized spectra, cutoff gluing with Newton correction, and the twisted
deformation count."""

from .errors import NumericalError
from .algebra import (
    TracelessMatrix,
    commutator,
    m_phi_apply,
    m_phi_matrix,
    m_phi_kernel_dim,
    normal_form_at_zero,
)
from .special import bessel_k0, bessel_k1
from .painleve import (
    PsiProfile,
    series_coefficients,
    solve_connection,
    export_profile_csv,
)
from .fiducial import (
    FiducialFamily,
    DiskPair,
    build_family,
    fitted_log_offset,
    make_disk_pair,
    limiting_pair,
    verify_f_bounds,
    phi_sup_bound,
    convergence_rate,
)
from .gauge import (
    MatrixGauge,
    diagonal_gauge,
    stabilizer_gauge,
    apply_complex_gauge,
    verify_orbit_finite_t,
    verify_orbit_limiting,
    stabilizer_normalize,
)
from .linearized import (
    RadialGrid,
    RadialOperator,
    SpectralReport,
    assemble_scalar,
    smallest_eigenvalue,
    green_norms,
    indicial_roots,
    restricted_indicial_roots,
    conic_poisson_solve,
)
from .gluing import (
    CutoffProfile,
    GluedState,
    build_glued,
    approx_error_sweep,
    newton_correct,
    corrected_solution_check,
    growth_norm_check,
)
from .topology import (
    TwistedSurfaceComplex,
    build_complex,
    twisted_cohomology_dims,
    torus_dimension,
)

__version__ = "0.1.0"
