"""Shared exception types.

Every numerically meaningful failure mode gets its own class so callers (and
the CLI exit-code mapping) can distinguish bad input from numerical
breakdown.
"""


class SSMError(Exception):
    """Base class for all toolkit errors."""


class InputError(SSMError):
    """Malformed or inconsistent user input (CLI exit code 2)."""


class NumericalError(SSMError):
    """Numerical failure inside an otherwise valid computation (exit 3)."""


# --- spectrum ---------------------------------------------------------------

class NotHyperbolic(InputError):
    """An eigenvalue sits on the critical set (Re = 0 for flows, |.| = 1
    for maps) within tolerance."""


class DefectiveMatrix(InputError):
    """Eigenvector matrix condition number beyond the semisimplicity
    threshold; Jordan chains are out of scope."""


class NonInvariantSplit(InputError):
    """The (S, U) subspace pair handed to the pseudo-unstable test is not
    invariant under the linear map."""


# --- dictionary -------------------------------------------------------------

class WrongShape(InputError):
    """An input of the wrong shape: a spectral partition whose (p, q, r, s)
    the requested dictionary family cannot take, or an array (samples,
    coefficients, an initial condition, sample times) of another shape than
    the one it is read in."""


class DomainError(InputError):
    """Evaluation requested outside the domain of a fractional term."""


# --- fit --------------------------------------------------------------------

class RankDeficient(NumericalError):
    """Design matrix condition number too large for a ridge-free solve."""


class BadFitSettings(InputError):
    """Fit settings that define no meaningful model: a negative or
    non-finite ridge or a dictionary without terms."""


class NonFiniteData(InputError):
    """NaN or infinite values in trajectory or matrix data, a design matrix
    or fit targets."""


class InsufficientData(InputError):
    """Fewer samples than dictionary columns."""


class LengthMismatch(InputError):
    """Trajectories of unequal length compared sample-wise."""


class StepTooCoarse(InputError):
    """Finite-difference derivative error bound exceeds the fit residual."""


class Diverged(NumericalError):
    """Model iteration / integration blew up (state norm > 1e6)."""


# --- dynamics ---------------------------------------------------------------

class StepUnderflow(NumericalError):
    """Adaptive integrator step size collapsed below machine resolution."""


class NonFinite(NumericalError):
    """NaN or infinity encountered during integration."""


class EvaluationBudget(NumericalError):
    """An integration needed more right-hand-side evaluations than
    dynamics.MAX_RHS_EVALS, as a stiff system does."""


class NoConvergence(NumericalError):
    """Newton iteration failed to meet tolerance within max iterations."""


class NotPeriodic(InputError):
    """Point handed to the monodromy computation is not a fixed point of the
    time-T map within tolerance."""


class UnknownTestbed(InputError):
    """Testbed name not recognized."""


class BadParams(InputError):
    """Testbed parameters outside their admissible ranges."""


class OutOfDomain(InputError):
    """Argument outside the principal Lambert branch (z < -1/e) or the
    heteroclinic evaluation range."""


# --- normalform -------------------------------------------------------------

class SmallDivisor(NumericalError):
    """Homological-equation denominator below threshold (resonance within
    tolerance)."""


class OutOfRadius(InputError):
    """Pullback grid point outside the transform's configured validity
    radius."""
