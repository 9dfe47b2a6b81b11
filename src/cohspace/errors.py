"""Exception types shared across the package.

Everything that represents a *domain* failure (bad point, kernel not PSD,
state escaping a span, step-size trouble, ...) derives from DomainError so
the CLI can map it to exit code 1 with a structured message.  Genuine
configuration problems (unparseable JSON, unknown kind) are ConfigError and
map to exit code 2.  ``check_sample_times`` checks every time grid.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for mathematically meaningful failures."""

    code = "domain-error"

    def payload(self) -> dict:
        return {"error": self.code, "message": str(self)}


class ConfigError(Exception):
    """Malformed configuration / unknown names; CLI exit code 2."""


def check_sample_times(t0: float, t1: float, t_eval) -> list[float] | None:
    """Require t1 > t0 and sample times strictly increasing inside [t0, t1]
    (1e-12 slack at the ends); return the samples as floats (None stays None)."""
    if not t1 > t0:
        raise ConfigError("time span needs t1 > t0")
    if t_eval is None:
        return None
    times = [float(x) for x in t_eval]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("t_eval must be strictly increasing")
    if times and (times[0] < t0 - 1e-12 or times[-1] > t1 + 1e-12):
        raise ConfigError("t_eval must lie within [t0, t1]")
    return times


class InvalidPointError(DomainError):
    code = "invalid-point"


class CoherenceViolationError(DomainError):
    """Kernel failed a positivity requirement (Gram not PSD, bad distance radicand)."""

    code = "coherence-violation"

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class NumericalError(DomainError):
    code = "numerical-error"


class SpanEscapeError(DomainError):
    """An image point left the span of the basis; enrich the basis."""

    code = "span-escape"

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class OutOfSpanError(DomainError):
    code = "out-of-span"


class StepSizeError(DomainError):
    code = "step-size"


class StiffnessError(StepSizeError):
    code = "stiffness"


class DegenerateMetricError(DomainError):
    code = "degenerate-metric"

    def __init__(self, message: str, null_directions=None):
        super().__init__(message)
        self.null_directions = null_directions


class IntegratorFailure(DomainError):
    code = "integrator-failure"


class TruncationError(DomainError):
    code = "truncation"


class ClosureError(DomainError):
    """Observable span is not closed under the Hamiltonian action."""

    code = "closure"

    def __init__(self, message: str, escape=None):
        super().__init__(message)
        self.escape = escape


class StatePositivityError(DomainError):
    code = "state-positivity"


class PreconditionError(DomainError):
    code = "precondition"


class ModelDegeneracyError(DomainError):
    code = "model-degeneracy"


class AlgebraAxiomError(DomainError):
    code = "algebra-axioms"
