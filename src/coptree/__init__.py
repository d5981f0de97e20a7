"""Rank-based dependence structure estimation via empirical copulas.

The package turns a numeric table into per-column ranks, estimates the
copula of any variable pair on a lattice, scores pairwise dependence with
Spearman's rho or lattice mutual information, and assembles the maximum
spanning dependence tree over all variables.

Each library module declares its public names in its own ``__all__``;
the package re-exports exactly those.
"""

from . import algebra, dataset, empirical, measures, structure
from .algebra import *  # noqa: F403
from .dataset import *  # noqa: F403
from .empirical import *  # noqa: F403
from .measures import *  # noqa: F403
from .structure import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *algebra.__all__, *dataset.__all__, *empirical.__all__,
    *measures.__all__, *structure.__all__, "__version__",
]
