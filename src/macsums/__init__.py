"""macsums: exact q-series arithmetic for MacMahon-type generalized divisor
sums, with an identity catalog and a congruence scanner."""

from .series import Series, geometric_pow
from .qcombo import stirling1_unsigned
from .divisors import eisenstein, sigma, sigma_series, theta_moment
from .macmahon import (
    coefficient_table,
    m_single_sum,
    mo_andrews_rose,
    strict_multisum,
    weak_multisum,
)

__version__ = "0.1.0"

__all__ = [
    "Series",
    "coefficient_table",
    "eisenstein",
    "geometric_pow",
    "m_single_sum",
    "mo_andrews_rose",
    "sigma",
    "sigma_series",
    "stirling1_unsigned",
    "strict_multisum",
    "theta_moment",
    "weak_multisum",
    "__version__",
]
