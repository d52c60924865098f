"""Exception taxonomy shared across the package."""


class BpsVortexError(Exception):
    """Base class for all package-specific errors."""


class NonZeroMeanRhs(BpsVortexError):
    """Right-hand side handed to the zero-mean Poisson solver has a nonzero cell average."""


class PointOutsideDomain(BpsVortexError):
    """A prescribed vortex point lies outside the computational domain."""


class UnresolvedCore(BpsVortexError):
    """Vortex cores fall between the nodes: their source density is zero on every node."""


class Overflow(BpsVortexError):
    """An exponent argument exceeded the overflow guard (signals a divergent iterate)."""


class SingularHessian(BpsVortexError):
    """The Hessian's constant-coefficient block has no finite inverse (a mean mass underflowed)."""


class ThresholdViolated(BpsVortexError):
    """The doubly periodic existence threshold fails; no solution exists."""

    def __init__(self, report, message=None):
        self.report = report
        super().__init__(message or f"existence threshold violated (margin={report.margin:.6g})")


class AnnulusTooThin(BpsVortexError):
    """The decay-fit annulus contains too few radial bins for a meaningful fit."""


class ParseError(BpsVortexError):
    """Configuration text could not be parsed."""


class ValidationError(BpsVortexError):
    """Configuration parsed but violates the schema; carries all field-level problems."""

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.problems)
        super().__init__(f"invalid configuration: {lines}")
