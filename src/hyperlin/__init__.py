"""Exact certificates for linear-dependence structure in hypergraphs.

The library detects dependent vertex and hyperedge sets, units and their
contraction, equal partitions, and covering projections, certifying each
with exact rational coefficient vectors; it then cross-validates those
structures against matrix spectra, random-walk behavior, and centrality
measures.
"""

from .errors import *  # noqa: F401,F403
from .hypergraph import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .structures import *  # noqa: F401,F403
from .spectra import *  # noqa: F401,F403
from .randwalk import *  # noqa: F401,F403
from .centrality import *  # noqa: F401,F403
from . import centrality, errors, fixtures, hypergraph, linalg, randwalk, spectra, structures

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, hypergraph, linalg, structures, spectra, randwalk, centrality)
    for name in module.__all__
] + ["fixtures", "__version__"]
