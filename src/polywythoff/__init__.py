"""polywythoff: alternating semiregular abstract polytopes, exactly.

Builds polytopes from tail-triangle groups by the coset-based Wythoff
construction, verifies the polytope and C-group axioms, classifies regular
vs 2-orbit, and manufactures input groups via amalgamated free products and
mod-p reduction of crystallographic Coxeter groups.
"""

__version__ = "0.1.0"

from .elements import KindMismatch, MatModP, Perm, parse_matmodp, parse_perm
from .groups import CapExceeded, FiniteGroup, closure, element_order

__all__ = [
    "KindMismatch",
    "MatModP",
    "Perm",
    "parse_matmodp",
    "parse_perm",
    "CapExceeded",
    "FiniteGroup",
    "closure",
    "element_order",
    "__version__",
]
