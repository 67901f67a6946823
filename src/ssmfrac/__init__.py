"""Numerical toolkit for fractional and mixed-mode invariant-manifold
reduced-order models.

Subpackages
-----------
spectrum
    Eigenvalue partitioning, nonresonance, smoothness class, rate-gap test.
dictionary
    Fractional-power term libraries and linear invariant graph families.
fit
    Least-squares graph / reduced-dynamics identification and baselines.
dynamics
    ODE integration, Poincare maps, Floquet analysis, testbed systems.
normalform
    Linearizing transforms, graph pullback, extended 2D normal forms.
examples
    The paper's worked examples, run end to end.
jsonio
    The JSON writer and reader behind every saved and loaded file.
cli
    Batch command-line front end.
"""

__version__ = "0.1.0"

from . import dictionary, dynamics, fit, normalform, spectrum  # noqa: F401
from .trajectory import Trajectory  # noqa: F401
