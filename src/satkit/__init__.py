"""satkit: exact combinatorics of affine Grassmannians.

Schubert-cell geometry, the spherical Hecke algebra and Satake transform,
Lusztig q-analogs with an explicit filtration oracle, a brute-force
finite-field lattice oracle, and certified Verlinde dimensions.
"""

from .errors import (DomainError, EmptyFiber, EmptyIntersection,
                     IntegralityFailure, InternalInconsistency,
                     NonPolynomialCount, SatkitError, ShapeError,
                     SingularMatrix, TooLarge, UnsupportedType, WindowError)
from .polynomials import Laurent, QPoly
from .root_datum import (Dominance, RootDatum, dominant_coweights_in_box,
                         make_root_datum)

__version__ = "0.1.0"

__all__ = [
    "Dominance", "DomainError", "EmptyFiber", "EmptyIntersection",
    "IntegralityFailure", "InternalInconsistency", "Laurent",
    "NonPolynomialCount", "QPoly", "RootDatum", "SatkitError", "ShapeError",
    "SingularMatrix", "TooLarge", "UnsupportedType", "WindowError",
    "dominant_coweights_in_box", "make_root_datum", "__version__",
]
