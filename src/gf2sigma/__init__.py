"""gf2sigma: arithmetic in GF(2)[x] centered on the sum-of-divisors function.

The package provides exact polynomial arithmetic over GF(2), deterministic
factorization, the multiplicative sum-of-divisors function sigma, a verified
catalog of the special irreducibles and known perfect polynomials, the
bounded search routines behind the classification of perfect polynomials
whose odd prime factors form that catalog, and a command-line interface.
"""

from .gf2poly import ONE, ParseError, Poly, X, ZERO, gcd, parse, parse_expr
from .factorizer import Factorization, factor, irreducibles, is_irreducible, is_squarefree, omega, rad
from .sigma import (
    SigmaValue,
    check_geometric_split,
    is_indecomposable_perfect,
    is_perfect,
    sigma,
    sigma_prime_power,
)
from .catalog import (
    AdmissibilityReport,
    Catalog,
    CatalogEntry,
    CatalogError,
    build_catalog,
    check_admissible,
    one_plus_product,
    is_mersenne_prime,
)
from .search import (
    ExponentTuple,
    SearchError,
    SearchReport,
    SigmaTableRow,
    compute_sigma_exponents,
    exhaustive_scan,
    pipeline_finalize,
    pipeline_step1,
    pipeline_step2,
    pipeline_step3,
    run_pipeline,
    sigma_mersenne_table,
    sigma_s_table,
    sigma_x2h_table,
)

__version__ = "0.1.0"

__all__ = [
    "ONE",
    "ParseError",
    "Poly",
    "X",
    "ZERO",
    "gcd",
    "parse",
    "parse_expr",
    "Factorization",
    "factor",
    "irreducibles",
    "is_irreducible",
    "is_squarefree",
    "omega",
    "rad",
    "SigmaValue",
    "check_geometric_split",
    "is_indecomposable_perfect",
    "is_perfect",
    "sigma",
    "sigma_prime_power",
    "AdmissibilityReport",
    "Catalog",
    "CatalogEntry",
    "CatalogError",
    "build_catalog",
    "check_admissible",
    "one_plus_product",
    "is_mersenne_prime",
    "ExponentTuple",
    "SearchError",
    "SearchReport",
    "SigmaTableRow",
    "compute_sigma_exponents",
    "exhaustive_scan",
    "pipeline_finalize",
    "pipeline_step1",
    "pipeline_step2",
    "pipeline_step3",
    "run_pipeline",
    "sigma_mersenne_table",
    "sigma_s_table",
    "sigma_x2h_table",
    "__version__",
]
