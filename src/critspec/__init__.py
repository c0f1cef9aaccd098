"""Critical points of complex spectra.

Given a finite list of complex numbers, this package computes the
critical points of its polynomial, checks the standard necessary
conditions for those critical points to be the spectrum of a
nonnegative matrix, and builds explicit certificate matrices through
companion, d-companion, circulant, and Hadamard-similarity routes.  A
seeded randomized harness stress-tests the whole pipeline.
"""

from .errors import *
from .spectra import *
from .polynomial import *
from .moments import *
from .realizers import *
from .differentiator import *
from .harness import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [
    name
    for module in (errors, spectra, polynomial, moments, realizers, differentiator, harness)
    for name in module.__all__
] + ["__version__"]
