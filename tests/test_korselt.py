import pytest

from carmichael.cli import main
from carmichael.korselt import (
    ALL_BASES,
    CarmichaelEntry,
    fermat_scan,
    korselt_failure,
    oracle_enumerate,
)
from carmichael.primes import factorize

FIRST_SEVEN = [561, 1105, 1729, 2465, 2821, 6601, 8911]


def test_korselt_check_561():
    assert korselt_failure(561, factorize(561)) is None


def test_korselt_check_square():
    assert korselt_failure(9, factorize(9)) is not None


def test_korselt_check_two_factors():
    assert korselt_failure(15, factorize(15)) is not None


def test_korselt_check_rejects_mismatched_factorization():
    with pytest.raises(ValueError):
        korselt_failure(561, factorize(560))


def test_korselt_failure_clauses():
    assert korselt_failure(561, factorize(561)) is None
    assert korselt_failure(9, factorize(9)) == "not square-free"
    assert korselt_failure(15, factorize(15)) == "fewer than 3 prime factors"
    assert korselt_failure(7, factorize(7)) == "prime"
    assert korselt_failure(231, factorize(231)) == "7 - 1 does not divide n - 1"


def verdicts(numbers, capsys):
    """n -> True when `carmichael verify` calls it carmichael."""
    main(["verify", *map(str, numbers)])
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(numbers)
    return {int(line.split()[0]): line.split()[1] == "carmichael"
            for line in out}


def test_is_carmichael_small_values(capsys):
    assert main(["verify", "561", "1105", "1729", "1730", "2", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "561 carmichael",
        "1105 carmichael",
        "1729 carmichael",
        "1730 not-carmichael (even)",
        "2 not-carmichael (even)",
        "1 not-carmichael (smaller than 2)",
    ]


def test_korselt_implies_odd():
    # Provable from the criterion; assert over the oracle's output.
    for e in oracle_enumerate(10**5):
        assert e.value % 2 == 1


def test_fermat_scan_exact_small():
    assert fermat_scan(561, ALL_BASES)
    assert not fermat_scan(15, ALL_BASES)  # 2**14 mod 15 = 4
    assert fermat_scan(41041, 64)


def test_fermat_scan_rejects_even():
    with pytest.raises(ValueError):
        fermat_scan(10, 4)


def test_fermat_scan_is_deterministic():
    assert fermat_scan(10**9 + 7, 64) == fermat_scan(10**9 + 7, 64)


def test_oracle_first_seven():
    entries = oracle_enumerate(10**4)
    assert [e.value for e in entries] == FIRST_SEVEN
    assert entries[0].factors == (3, 11, 17)


def test_oracle_empty_below_561():
    assert oracle_enumerate(500) == []
    assert oracle_enumerate(561) == []  # strict less-than
    assert [e.value for e in oracle_enumerate(562)] == [561]


def test_oracle_count_to_one_million():
    assert len(oracle_enumerate(10**6)) == 43


def test_oracle_rejects_absurd_limit():
    with pytest.raises(ValueError):
        oracle_enumerate(10**9)


def test_oracle_entries_validate():
    for e in oracle_enumerate(10**5):
        e.validate()
        assert fermat_scan(e.value, 64)


def test_is_carmichael_agrees_with_oracle_to_100k(capsys):
    members = {e.value for e in oracle_enumerate(10**5)}
    assert all(verdicts(sorted(members), capsys).values())
    # spot-check non-members densely below 10**4
    numbers = range(2, 10**4)
    assert verdicts(numbers, capsys) == {n: n in members for n in numbers}


def test_entry_validate_catches_corruption():
    with pytest.raises(ValueError):
        CarmichaelEntry(561, (3, 11, 18)).validate()  # 18 not prime
    with pytest.raises(ValueError):
        CarmichaelEntry(561, (3, 17, 11)).validate()  # not ascending
    with pytest.raises(ValueError):
        CarmichaelEntry(562, (3, 11, 17)).validate()  # wrong product
    with pytest.raises(ValueError):
        CarmichaelEntry(561, (11, 17)).validate()  # too few factors
