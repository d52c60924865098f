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
                          VortexConfig, build_background, check_existence)
from .config import RunConfig, parse_config, validate_config
from .diagnostics import (DiagnosticsReport, PhysicalFields, build_diagnostics,
                          decay_fit, radial_profile, reconstruct_physical)
from .energy import EnergyBreakdown, EnergyModel
from .errors import (AnnulusTooThin, BpsVortexError, NonZeroMeanRhs, Overflow,
                     ParseError, PointOutsideDomain, SingularHessian,
                     ThresholdViolated, UnresolvedCore, ValidationError)
from .fixedpoint import apply_T, continuation_solve
from .grids import PlaneGrid, TorusGrid
from .newton import Solution, SolverSettings, minimize, solve
from .runner import dump_fields, emit_plot_data, run
