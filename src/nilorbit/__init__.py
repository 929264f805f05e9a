"""nilorbit: exact periodic-point classification for affine endomorphisms of
tori, flat manifolds and 2-step nilmanifolds.

Everything is exact: orbits are walked on integer numerators of finite
grids, and the structure decisions run over Q (plus one optional real
quadratic irrationality), so verdicts are decisions, not approximations.
"""

from . import exactmath, infraflat, nilclass2, torus
from .orbits import Classification, OrbitResult

__all__ = [
    "Classification",
    "OrbitResult",
    "exactmath",
    "infraflat",
    "nilclass2",
    "torus",
]

__version__ = "0.1.0"
