import pytest

from carmichael.catalog import Catalog
from carmichael.extremal import scan_records, smallest_with_factors
from carmichael.korselt import CarmichaelEntry, oracle_enumerate

SMALLEST = {
    3: (561, (3, 11, 17)),
    4: (41041, (7, 11, 13, 41)),
    5: (825265, (5, 7, 17, 19, 73)),
    6: (321197185, (5, 19, 23, 29, 37, 137)),
    7: (5394826801, (7, 13, 17, 23, 31, 67, 73)),
}


@pytest.mark.parametrize("d", sorted(SMALLEST))
def test_smallest_with_factors_small_d(d):
    entry = smallest_with_factors(d)
    assert (entry.value, entry.factors) == SMALLEST[d]
    assert len(entry.factors) == d


# Found through the interior descent's consecutive-prime bound and the
# leaf batch's empty-class cut; 12 is the last below 2**64.
SMALLEST_VALUE = {
    8: 232250619601,
    9: 9746347772161,
    10: 1436697831295441,
    11: 60977817398996785,
    12: 7156857700403137441,
}


@pytest.mark.parametrize("d", sorted(SMALLEST_VALUE))
def test_smallest_with_8_to_12_factors(d):
    entry = smallest_with_factors(d)
    assert entry.value == SMALLEST_VALUE[d]
    assert len(entry.factors) == d


@pytest.mark.parametrize("worker_count", [1, 2])
def test_smallest_with_13_factors_lies_above_2_64(worker_count):
    # Found by the batched leaf layer above 2**62 (bounds near 2**71); on
    # two workers every doubled bound forks a pool with d_min = 13 tables.
    entry = smallest_with_factors(13, worker_count=worker_count)
    assert entry.value == 1791562810662585767521
    assert entry.factors == (11, 13, 17, 19, 31, 37, 43, 71, 73, 97, 109, 113, 127)


def test_smallest_rejects_out_of_range():
    with pytest.raises(ValueError):
        smallest_with_factors(2)
    with pytest.raises(ValueError):
        smallest_with_factors(21)


def test_scan_records_small_catalog():
    cat = Catalog(oracle_enumerate(10**4), {"limit": "10000"})
    rec = scan_records(cat)
    # the seven entries are 561, 1105, 1729, 2465, 2821, 6601, 8911
    assert rec.largest_prime_factor == (67, CarmichaelEntry(8911, (7, 19, 67)))
    # least factors are 3,5,7,5,7,7,7; the tie at 7 resolves to 1729
    assert rec.largest_least_prime_factor == (
        7,
        CarmichaelEntry(1729, (7, 13, 19)),
    )


def test_scan_records_single_entry():
    cat = Catalog([CarmichaelEntry(561, (3, 11, 17))], {})
    rec = scan_records(cat)
    assert rec.largest_prime_factor[0] == 17
    assert rec.largest_least_prime_factor[0] == 3


def test_scan_records_monotone_under_prefix():
    full = Catalog(oracle_enumerate(10**5), {})
    prefix = Catalog(full.entries[:10], {})
    r_full, r_pre = scan_records(full), scan_records(prefix)
    assert r_pre.largest_prime_factor[0] <= r_full.largest_prime_factor[0]
    assert (
        r_pre.largest_least_prime_factor[0]
        <= r_full.largest_least_prime_factor[0]
    )


def test_scan_records_empty_catalog():
    with pytest.raises(ValueError):
        scan_records(Catalog([], {}))

