"""gf2sigma: arithmetic in GF(2)[x] centered on the sum-of-divisors function.

The package provides exact polynomial arithmetic over GF(2), deterministic
factorization, the multiplicative sum-of-divisors function sigma, a verified
catalog of the special irreducibles and known perfect polynomials, the
bounded search routines behind the classification of perfect polynomials
whose odd prime factors form that catalog, and a command-line interface.
It re-exports the `__all__` of each library module unchanged.
"""

# The modules are bound under private names: the star imports rebind `sigma`
# to the function of that name.
from . import catalog as _catalog, factorizer as _factorizer, gf2poly as _gf2poly, search as _search, sigma as _sigma
from .gf2poly import *  # noqa: F403
from .factorizer import *  # noqa: F403
from .sigma import *  # noqa: F403
from .catalog import *  # noqa: F403
from .search import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *_gf2poly.__all__, *_factorizer.__all__, *_sigma.__all__, *_catalog.__all__, *_search.__all__, "__version__",
]
