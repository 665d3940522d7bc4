"""Carmichael number enumeration, verification and statistics toolkit."""

__version__ = "0.1.0"

from .catalog import Catalog, read_catalog, write_catalog
from .enumerator import enumerate_carmichael, max_factor_count
from .extremal import RecordSet, scan_records, smallest_with_factors
from .korselt import CarmichaelEntry, fermat_scan, korselt_failure
from .primes import Factorization, factorize, is_prime, prime_sieve

__all__ = [
    "__version__",
    "Catalog",
    "CarmichaelEntry",
    "Factorization",
    "RecordSet",
    "enumerate_carmichael",
    "factorize",
    "fermat_scan",
    "is_prime",
    "korselt_failure",
    "max_factor_count",
    "prime_sieve",
    "read_catalog",
    "scan_records",
    "smallest_with_factors",
    "write_catalog",
]
