import hashlib
import random

import pytest

from carmichael.catalog import Catalog
from carmichael.cli import main
from carmichael.korselt import PAPER_COUNTS, oracle_enumerate
from carmichael.stats import (
    build_report,
    count_table,
    default_checkpoints,
    growth_ratios,
    k_of,
    power_exponents,
    prime_tables,
    residue_table,
    write_report,
)



def catalog_1e6():
    return Catalog(oracle_enumerate(10**6), {"limit": "1000000"})


def test_default_checkpoints():
    assert default_checkpoints(10**6) == [10**3, 10**4, 10**5, 10**6]
    cps = default_checkpoints(10**12)
    assert 25 * 10**9 in cps
    assert cps == sorted(cps)


def test_count_table_small():
    counts, by_d = count_table(catalog_1e6(), [10**3, 10**4, 10**5, 10**6])
    assert counts == {10**3: 1, 10**4: 7, 10**5: 16, 10**6: 43}
    assert by_d[(3, 10**5)] == 12
    assert by_d[(4, 10**5)] == 4
    assert by_d[(5, 10**6)] == 1


def test_count_table_strict_boundary():
    cat = Catalog(oracle_enumerate(10**4), {"limit": "10000"})
    counts, _ = count_table(cat, [561, 562])
    assert counts[561] == 0
    assert counts[562] == 1


def test_count_table_checkpoint_above_bound():
    with pytest.raises(ValueError, match="10000000"):
        count_table(catalog_1e6(), [10**7])


@pytest.mark.parametrize(
    "n, expected",
    [(3, 2.93319), (6, 1.97946), (16, 1.86406)],
)
def test_k_of_pinned_values(n, expected):
    assert abs(k_of(10**n, PAPER_COUNTS[n]) - expected) <= 5e-6


def test_k_of_domain():
    with pytest.raises(ValueError):
        k_of(100, 1)
    with pytest.raises(ValueError):
        k_of(10**6, 0)


def test_k_of_monotone_in_count():
    assert k_of(10**6, 43) < k_of(10**6, 42)


def test_growth_ratios_telescope():
    ratios = growth_ratios(PAPER_COUNTS)
    assert ratios[4] == pytest.approx(7.000, abs=1e-9)
    value = PAPER_COUNTS[3]
    for n in range(4, 17):
        value *= ratios[n]
    assert value == pytest.approx(PAPER_COUNTS[16])


def test_power_exponents_values():
    exps = power_exponents(PAPER_COUNTS)
    assert abs(exps[4] - 0.21127) <= 5e-6
    assert abs(exps[12] - 0.32633) <= 5e-6


def test_residue_mod2_all_odd():
    table = residue_table(catalog_1e6(), 2, [10**6])
    assert table[(0, 10**6)] == 0
    assert table[(1, 10**6)] == 43


def test_residue_table_against_direct_count():
    cat = catalog_1e6()
    for m in (5, 7, 12):
        table = residue_table(cat, m, [10**5, 10**6])
        for x in (10**5, 10**6):
            direct = [0] * m
            for e in cat.entries:
                if e.value < x:
                    direct[e.value % m] += 1
            assert [table[(cls, x)] for cls in range(m)] == direct
    # Checkpoints that are catalog values test the strict bound.
    rng = random.Random(8)
    values = cat.values()
    primes = [3, 5, 7, 11, 13, 17, 19, 29, 31, 37, 41, 43, 61, 73, 97]
    for _ in range(20):
        picks = rng.sample(values, 4) + [rng.randrange(561, 10**6) for _ in range(3)]
        cps = sorted(set(picks + [10**6]))
        counts, by_d = count_table(cat, cps)
        residues = residue_table(cat, 9, cps)
        div, least = prime_tables(cat, primes, cps)
        for x in cps:
            below = [e for e in cat.entries if e.value < x]
            assert counts[x] == len(below)
            sizes = [len(e.factors) for e in below]
            assert {d: c for (d, y), c in by_d.items() if y == x} == {
                d: sizes.count(d) for d in set(sizes)
            }
            for cls in range(9):
                assert residues[(cls, x)] == sum(e.value % 9 == cls for e in below)
            for p in primes:
                assert div[(p, x)] == sum(p in e.factors for e in below)
                assert least[(p, x)] == sum(e.factors[0] == p for e in below)


def test_prime_tables_small():
    cat = catalog_1e6()
    primes = [3, 5, 7, 11]
    div, least = prime_tables(cat, primes, [10**4])
    # entries below 1e4: 561, 1105, 1729, 2465, 2821, 6601, 8911
    assert div[(3, 10**4)] == 1
    assert div[(5, 10**4)] == 2
    assert div[(7, 10**4)] == 4
    assert least[(7, 10**4)] == 4
    assert least[(11, 10**4)] == 0


def test_report_consistency_and_order_independence(tmp_path):
    cat = catalog_1e6()
    report = build_report(cat)
    report.check_consistency()

    shuffled_entries = cat.entries[:]
    random.Random(3).shuffle(shuffled_entries)
    shuffled = Catalog(sorted(shuffled_entries, key=lambda e: e.value),
                       {"limit": "1000000"})
    report2 = build_report(shuffled)
    assert report2.counts == report.counts
    assert report2.residues == report.residues
    assert report2.prime_divisor_counts == report.prime_divisor_counts


@pytest.mark.parametrize("provenance, refusal", [
    # Without d headers a catalog covers 3..max_factor_count(limit) = 3..6,
    ({"limit": "1000000"}, None),
    ({"limit": "1000000", "d_min": "4"}, "d = 4..6 prime factors, not 3..6"),
    # and without a limit either, every factor count.
    ({}, None),
    # The refusal names the open ranges: no "None", and no upper end of 3.
    ({"d_min": "4"}, "d = 4.. prime factors, not 3..: its counts"),
])
def test_the_factor_counts_a_catalog_covers_default_from_its_limit(
        provenance, refusal):
    cat = Catalog(oracle_enumerate(10**6), provenance)
    if refusal is None:
        assert build_report(cat, [10**5]).counts == {10**5: 16}
    else:
        with pytest.raises(ValueError, match=refusal):
            build_report(cat, [10**5])


def three_factor_catalog(provenance):
    """The 23 Carmichael numbers below 10**6 with three prime factors."""
    entries = [e for e in oracle_enumerate(10**6) if len(e.factors) == 3]
    assert len(entries) == 23
    return Catalog(entries, provenance)


@pytest.mark.parametrize("cps, whole", [([10**6], False), ([10**4], False),
                                        ([10**3], True)])
def test_without_a_limit_d_max_is_judged_at_the_largest_checkpoint(cps, whole):
    # Below 10**6 a Carmichael number has up to 6 prime factors, and below
    # 10**4 up to 4, so a catalog of d = 3 alone would give C(10**6) = 23
    # against 43; below 10**3 every one has 3, so its count is whole.
    cat = three_factor_catalog({"d_max": "3"})
    if whole:
        assert build_report(cat, cps).counts == {10**3: 1}
    else:
        with pytest.raises(ValueError, match="d = 3..3 prime factors, not "
                                             "3..: its counts would be short"):
            build_report(cat, cps)
    # Without checkpoints they are the decades up to the largest entry,
    # 997633, below which there are up to 5 prime factors.
    with pytest.raises(ValueError, match="d = 3..3 prime factors"):
        build_report(cat)


def test_write_report_files(tmp_path):
    report = build_report(catalog_1e6())
    written = write_report(report, tmp_path)
    names = {p.name for p in written}
    assert "counts.csv" in names and "counts.txt" in names
    assert "residues_mod5.csv" in names
    assert "k_values.csv" in names
    counts = (tmp_path / "counts.csv").read_text().splitlines()
    assert counts[0] == "checkpoint,count"
    assert counts[-1] == "1000000,43"
    k_lines = (tmp_path / "k_values.csv").read_text().splitlines()
    assert k_lines[1] == "1000,2.93319"  # round-half-even at 5 decimals


def test_write_report_is_deterministic(tmp_path):
    report = build_report(catalog_1e6())
    a, b = tmp_path / "a", tmp_path / "b"
    write_report(report, a)
    write_report(report, b)
    for pa in sorted(a.iterdir()):
        assert pa.read_bytes() == (b / pa.name).read_bytes()


# sha256 of every file `stats` writes for the oracle catalog of 10^6, as
# written before the count tables were built from one cumulative tally.
PINNED_SHA256 = """
db82fceb258bbd47dc6c0a0d685925a96301747b9afb91e375adfd7eea3ec2c1  default/counts.csv
6100b70fc918c1f960afd29444e5cfe2f81b9e283adb423ae82ff861006b811b  default/counts.txt
b55a73ea5beaf4bd1a2c8a2b9e2de8c1872d97266182d447cda494b6027e9bb6  default/counts_by_d.csv
b9bf4863fad5a4f28a5cf0cc75441d9e5704e05e7c449c492ed54f59892aaa33  default/counts_by_d.txt
29ed8734a61b47bf64a4d890d5474ae51f9e61896c920d2b90c4025fd1a1eff2  default/growth_ratios.csv
5b926d984460826074db26d0f7fc30426eb4c6682aa9b33fc5c3bc3264a966f9  default/growth_ratios.txt
443d217b515311f1edc0b4c9ddff373adfa9994ddce8a8f79943edef9b8dccfd  default/k_values.csv
543afe95950649517b01590842c4007229f93d5d665b0dadb8b9bf9354b9ef14  default/k_values.txt
bd16662ba0366c7c7379bba71fa63198540afc2587689e93ece23de6fb29ad36  default/least_prime_counts.csv
382614b39d896c995c9a08ebe4c3de71c3286a256d5b3117606bbfa4264fb057  default/least_prime_counts.txt
59d69569e82d8dc0472d1fe9f4fe0889815be20f95ce95aece731dea84a51f84  default/power_exponents.csv
e443e3fcee179580bcd1f5f12ab09edb50fff35136fa0590029b73c01be77813  default/power_exponents.txt
cc1d272295d78d7a39c93c56d1e010d594f7811cc11a9ae9193e35ab7ac96b47  default/prime_divisor_counts.csv
86184c5cdfbeed2d0d9393ed0174409caa24548c55ba4be2e5a0899a7010b301  default/prime_divisor_counts.txt
4a0f2bffcc981af2aa4c6634647f3e8156db1e854d970afb9a11ab74a1d95e35  default/records.csv
4990e5416e1ac74680ee9635bfbffe89a125d08b4132296d804137d90562db69  default/records.txt
59d826b5c6384c8f6f4dbdeacbdd2af05a089f9e4b1fc61829bd45d51ec0f4be  default/residues_mod11.csv
ff7f2c9f2dcb4c94a1e9e54ab439ec489a791da6af78ef791ea10a042ccc80c8  default/residues_mod11.txt
5540b370923267a0d73dde4d8f687c56a28fc97153aa4a4f64e04de3ee3e0ea6  default/residues_mod12.csv
9ee2e7e1e93030572763d44171c6711a3dc0a0858bc754d99f7670f5695e0aa5  default/residues_mod12.txt
c7fd3abdb4b4fb20defae4a9517847dd26c6d759097f6ea9ce692c3535b4ef87  default/residues_mod5.csv
eb6f83d484890b444598d02918d2b4328b2d929a2177921fcf84fac44a7aaf69  default/residues_mod5.txt
6c58be65c453639647cd58842bfa49dacec8775fc4e78dcba8330f4722d39cab  default/residues_mod7.csv
fb0914f9fc344b97b31f38004daf332772acd0482acf2a3381c172febd61901f  default/residues_mod7.txt
9a485d7b62fbc321f6b0b26aa9ebb20d6074b1bdf343dd3345200233ff12adba  mod/counts.csv
230397863b1c17fb1fbaf0a77d1253125c2bedb07987de13e5fc145970cd0dc8  mod/counts.txt
4b80c29f474e294f5f6dd058826a1069108ca0fd5c9689f3b494741b103af720  mod/counts_by_d.csv
85a1a77823d17bc78a31e088a4893d9ed4d44afdecf3165dc7a228646bbd05fa  mod/counts_by_d.txt
e2bf8c84b29716c0297096a0f3cd1f2f635ececefb182cc605ff90a433bf8e1a  mod/growth_ratios.csv
88ec269e5158fb89d7089b54c5350a3b4cbd625a63b79bfb5df3e379a67ab736  mod/growth_ratios.txt
858ac243a238a38f126cb19982b0a8e74f9dcf79f114655cdde45fb92f39451e  mod/k_values.csv
c399663825e7bc2a5758d9972c9f1684b4c39d13357352df530c6f76589a624a  mod/k_values.txt
7fbc4f2fd3ae0eb75bf8fd6ddaf0e33e5400f4e5a673d77ed72a8589d4348b34  mod/least_prime_counts.csv
a8309cde40b6a13480da1783bf00afd0530806b9221f97f69aa1e0982a2a008c  mod/least_prime_counts.txt
7f20234dfef67c9c8ebb24455563518d7fdb98ac3be33627c23e429b03f9041a  mod/power_exponents.csv
abbec5cf99892bd66bd47d7f30b2b95ba9403d401fa7c2e4015f2939f8e3423a  mod/power_exponents.txt
be56265c6b489e684f286aae5c79a55a8db186bb09b3557b6e8bb2a6d6a9632f  mod/prime_divisor_counts.csv
a2459ad369c0619634728268ba978b23f45df925506dc8a9f74fde176f9b1d76  mod/prime_divisor_counts.txt
4a0f2bffcc981af2aa4c6634647f3e8156db1e854d970afb9a11ab74a1d95e35  mod/records.csv
4990e5416e1ac74680ee9635bfbffe89a125d08b4132296d804137d90562db69  mod/records.txt
07200bccb7889eb8a14bdb965663d46134fa5b581ca6fab9af360faf0d61bcfc  mod/residues_mod3.csv
772e6493af94e83d6ecd7e261302a194863cbc77557f5802757195c2fcfd2c90  mod/residues_mod3.txt
1bc44b4eb28337bf681b1d6096de8b9fd1271e44debac22bd1d64ec96f28054e  mod/residues_mod4.csv
d667f36da5fa81ad004e08ef2c9ca9e6a0430100dba8faf6a660eaa30854df68  mod/residues_mod4.txt
846b920114c605a3bd32be7ce855576a14ba77ac7e892dc583a9e35bd4440bf0  mod/residues_mod8.csv
53c0d57783067035bfa9cff4afe9869dffe4ae8e853bd1860b0f864dfb6d23be  mod/residues_mod8.txt
6d10a7481ff6c623813c9dbb6c36e340f5504b39efef8fe50a6a1db006f69515  mod/residues_mod9.csv
ace84bf607f6dfc02cb87a2cc8ac1f7d65e3ccb949190eb5d4d91cb5b2978d9a  mod/residues_mod9.txt
e6f34fc7b3a84cd2aa56358aab279e5f5d872ee6391fe90e6a6fa27a7843d039  subset/counts_by_d.csv
ba24f8de02237cc60ef8c647f74926dc318130d7afe31ef77e6931dcc2747d6b  subset/counts_by_d.txt
8f65b4fa9d5299c184c4cdd1fdb75da0df027752a2837a87cb0f2f17a78af066  subset/least_prime_counts.csv
b12afa2c42dde22edcf54386b722367a60cf80bc1adbc5df1cef3af3d353c0ca  subset/least_prime_counts.txt
4a0f2bffcc981af2aa4c6634647f3e8156db1e854d970afb9a11ab74a1d95e35  subset/records.csv
4990e5416e1ac74680ee9635bfbffe89a125d08b4132296d804137d90562db69  subset/records.txt
"""

PINNED_RUNS = {
    "default": [],
    "mod": ["--mod", "3,4,8,9", "--primes-up-to", "200",
            "--checkpoints", "1e3,5e4,1e5,1e6"],
    "subset": ["--tables", "counts-by-d,least-primes,records",
               "--checkpoints", "561,562,1e4,1e5,1e6"],
}


def test_stats_files_are_pinned_byte_for_byte(tmp_path, capsys):
    cat_path = tmp_path / "cat.txt"
    assert main(["oracle", "--limit", "1e6", "--out", str(cat_path)]) == 0
    got = {}
    for run, extra in PINNED_RUNS.items():
        out_dir = tmp_path / run
        args = ["stats", "--input", str(cat_path), "--out-dir", str(out_dir)]
        assert main(args + extra) == 0
        for path in out_dir.iterdir():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            got[f"{run}/{path.name}"] = digest
    capsys.readouterr()
    expected = dict(
        reversed(line.split()) for line in PINNED_SHA256.split("\n") if line
    )
    assert got == expected
