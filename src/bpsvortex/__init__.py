"""Multi-vortex solutions of non-Abelian BPS vortex equations.

Solves the reduced self-dual vortex system (two coupled elliptic equations
with exponential nonlinearities) for arbitrarily prescribed zero sets, on the
full plane and on doubly periodic domains, by two independent methods:
damped Newton minimization of a strictly convex energy and fixed-point
continuation.  Diagnostics verify existence thresholds, integral
constraints, flux quantization, pointwise bounds and exponential decay.
"""

__version__ = "0.1.0"

from .backgrounds import (Background, PhysicalParams, ThresholdReport,
                          VortexConfig, build_background,
                          build_background_plane, build_background_torus,
                          check_existence)
from .config import RunConfig, parse_config, validate_config
from .diagnostics import (BoundReport, DiagnosticsReport, PhysicalFields,
                          build_diagnostics, decay_fit, flux_report,
                          pde_residual, pointwise_bounds, radial_profile,
                          reconstruct_physical, uniqueness_probe,
                          verify_lagrange_multipliers)
from .energy import EnergyBreakdown, EnergyModel
from .errors import (AnnulusTooThin, BpsVortexError, NonZeroMeanRhs, Overflow,
                     ParseError, PointOutsideDomain, ThresholdViolated,
                     ValidationError)
from .fixedpoint import (ContinuationSchedule, apply_T, continuation_solve,
                         zero_mean_pair)
from .grids import PlaneGrid, SpectralWorkspace, TorusGrid, random_smooth_field
from .newton import Solution, SolverSettings, minimize, solve
from .runner import dump_fields, emit_plot_data, run
