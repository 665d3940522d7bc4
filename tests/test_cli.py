import math
import subprocess
import sys

import pytest

from carmichael import cli, enumerator, primes, stats
from carmichael.catalog import read_catalog, write_catalog
from carmichael.cli import exact_int, main
from carmichael.korselt import CarmichaelEntry


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "carmichael.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_exact_int_forms():
    assert exact_int("561") == 561
    assert exact_int("1e12") == 10**12
    assert exact_int("2.5e10") == 25 * 10**9
    with pytest.raises(Exception):
        exact_int("1.5")
    with pytest.raises(Exception):
        exact_int("ten")


def test_verify_carmichael(capsys):
    assert main(["verify", "561"]) == 0
    assert capsys.readouterr().out == "561 carmichael\n"


def test_verify_non_carmichael(capsys):
    assert main(["verify", "341"]) == 1  # 11 * 31 passes base 2
    out = capsys.readouterr().out
    assert out.startswith("341 not-carmichael (fewer than 3 prime factors")
    assert "11·31" in out


def test_verify_mixed_exit_code(capsys):
    assert main(["verify", "561", "1105", "1729"]) == 0
    assert main(["verify", "561", "563"]) == 1


def test_verify_rejects_by_fermat_witness_without_factoring(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(cli, "factorize", refuse)
    n = 10000000000000000051 * 30000000000000000041  # two 20-digit primes
    assert main(["verify", str(n)]) == 1
    assert capsys.readouterr().out == f"{n} not-carmichael (Fermat witness 2)\n"


def test_verify_rejects_even_numbers_without_factoring(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(cli, "factorize", refuse)
    n = 2 * (10**15 + 37) * (3 * 10**16 + 29)
    assert main(["verify", "562", str(n)]) == 1
    assert capsys.readouterr().out == (
        f"562 not-carmichael (even)\n{n} not-carmichael (even)\n"
    )


def test_verify_reports_a_number_rho_cannot_split_within_its_budget(
        monkeypatch, capsys):
    # A Chernick number (6k + 1)(12k + 1)(18k + 1), k = 1000051: it passes
    # base 2 and its least factor is far above trial division's.
    n = 6000307 * 12000613 * 18000919
    assert main(["verify", str(n)]) == 0
    assert capsys.readouterr().out == f"{n} carmichael\n"
    monkeypatch.setattr(primes, "_RHO_STEPS", 64)
    assert main(["verify", "561", str(n)]) == 1
    assert capsys.readouterr().out == (
        f"561 carmichael\n"
        f"{n} unresolved (no factor of {n} within 64 rho steps)\n")


def test_verify_from_file(tmp_path, capsys):
    path = tmp_path / "nums.txt"
    path.write_text("561\n41041\n")
    assert main(["verify", "--file", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["561 carmichael", "41041 carmichael"]


def test_verify_names_the_line_of_a_file_that_is_not_a_number(tmp_path,
                                                              capsys):
    path = tmp_path / "nums.txt"
    path.write_text("561\nabc\n")
    assert main(["verify", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"carmichael verify: {path}:2: not a number: 'abc'\n")


@pytest.mark.parametrize("args", [
    ["verify", "inf"],
    ["verify", "--", "-inf"],
    ["verify", "sNaN"],
    ["verify", "1e1000000"],
    ["verify", "1e10000000"],
    ["enumerate", "--limit", "inf", "--out", "x"],
    ["stats", "--input", "x", "--out-dir", "t", "--checkpoints", "1e3,inf"],
    ["stats", "--input", "x", "--out-dir", "t", "--mod", "inf"],
])
def test_non_finite_and_huge_numbers_are_usage_errors(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not a finite number" in err or " digits: " in err


@pytest.mark.parametrize("option", ["--checkpoints", "--mod"])
@pytest.mark.parametrize("text", ["", ","])
def test_an_empty_list_is_a_usage_error(tmp_path, capsys, option, text):
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--input", "x", "--out-dir", str(tmp_path / "t"),
              "--tables", "residues", option, text])
    assert exc.value.code == 2
    assert f"argument {option}: no numbers in {text!r}" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_verify_file_rejects_infinity(tmp_path, capsys):
    path = tmp_path / "nums.txt"
    path.write_text("561\ninf\n")
    assert main(["verify", "--file", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"carmichael verify: {path}:2: not a finite number: 'inf'\n")


def test_usage_error_exit_code():
    code, _, err = run_cli("enumerate", "--limit", "notanumber", "--out", "x")
    assert code == 2
    code, _, _ = run_cli("nonsense")
    assert code == 2


def test_an_engine_fault_is_a_runtime_error(monkeypatch, tmp_path):
    # A wrong catalog is not a usage error (exit 2): the fault escapes
    # `main`, so the process exits 1, as for a crashing search task.
    class_values = enumerator._class_values

    def shifted(*args):
        start, count = class_values(*args)
        return start + 2, count

    monkeypatch.setattr(enumerator, "_class_values", shifted)
    out = tmp_path / "c.txt"
    with pytest.raises(RuntimeError, match="63895231"):
        main(["enumerate", "--limit", "1e8", "--jobs", "1", "--out", str(out)])
    assert not out.exists()


def test_oracle_count(capsys):
    assert main(["oracle", "--limit", "1e4"]) == 0
    assert capsys.readouterr().out == "count=7\n"


def test_enumerate_equals_oracle_byte_for_byte(tmp_path, capsys):
    enum_path = tmp_path / "enum.txt"
    oracle_path = tmp_path / "oracle.txt"
    assert main(["enumerate", "--limit", "1e5", "--out", str(enum_path)]) == 0
    assert capsys.readouterr().out == "count=16 limit=100000\n"
    assert main(["oracle", "--limit", "1e5", "--out", str(oracle_path)]) == 0
    assert enum_path.read_bytes() == oracle_path.read_bytes()


def test_enumerate_rerun_identical(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["enumerate", "--limit", "1e5", "--out", str(a)])
    main(["enumerate", "--limit", "1e5", "--out", str(b), "--jobs", "4"])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_smallest_record_format(capsys):
    assert main(["smallest", "--factors", "4"]) == 0
    assert capsys.readouterr().out == "41041 7 11 13 41\n"


def test_smallest_bpsw_note_goes_to_stderr(monkeypatch, capsys):
    # d = 13 is above 2**64, but every printed factor is proven prime.
    code, out, err = run_cli("smallest", "--factors", "13")
    assert code == 0
    assert out == "1791562810662585767521 11 13 17 19 31 37 43 71 73 97 109 113 127\n"
    assert err == ""
    # So is 2**64 - 59, the largest prime below 2**64; the note names each
    # printed factor at or above 2**64, which rests on BPSW alone.
    for factors, named in [((3, 5, 2**64 - 59), None),
                           ((3, 5, 2**64 + 13), f"{2**64 + 13} are"),
                           ((3, 2**64, 2**64 + 13), f"{2**64}, {2**64 + 13} are")]:
        entry = CarmichaelEntry(math.prod(factors), factors)
        monkeypatch.setattr(cli, "smallest_with_factors",
                            lambda *args, **kw: entry)
        assert main(["smallest", "--factors", "3"]) == 0
        out, err = capsys.readouterr()
        assert out == f"{entry}\n"
        if named:
            assert "BPSW" in err and named in err
        else:
            assert err == ""


def test_stats_outputs(tmp_path, capsys):
    cat_path = tmp_path / "cat.txt"
    out_dir = tmp_path / "tables"
    main(["enumerate", "--limit", "1e6", "--out", str(cat_path)])
    capsys.readouterr()
    assert (
        main(
            [
                "stats",
                "--input", str(cat_path),
                "--out-dir", str(out_dir),
                "--checkpoints", "1e3,1e4,1e5,1e6",
            ]
        )
        == 0
    )
    capsys.readouterr()
    counts = (out_dir / "counts.csv").read_text().splitlines()
    assert counts == [
        "checkpoint,count",
        "1000,1",
        "10000,7",
        "100000,16",
        "1000000,43",
    ]
    assert (out_dir / "residues_mod12.csv").exists()
    assert (out_dir / "prime_divisor_counts.csv").exists()
    assert (out_dir / "records.csv").exists()


def test_stats_table_subset(tmp_path, capsys):
    cat_path = tmp_path / "cat.txt"
    out_dir = tmp_path / "tables"
    main(["enumerate", "--limit", "1e4", "--out", str(cat_path)])
    capsys.readouterr()
    assert (
        main(
            [
                "stats",
                "--input", str(cat_path),
                "--out-dir", str(out_dir),
                "--checkpoints", "1e3,1e4",
                "--tables", "counts,records",
            ]
        )
        == 0
    )
    capsys.readouterr()
    names = {p.name for p in out_dir.iterdir()}
    assert names == {"counts.csv", "counts.txt", "records.csv", "records.txt"}


@pytest.mark.parametrize("tables, built", [
    ("counts", set()),
    ("counts,residues", {"residue_table"}),
    ("prime-divisors", {"prime_sieve"}),
    ("least-primes,records", {"prime_sieve"}),
])
def test_stats_builds_only_the_tables_asked_for(tmp_path, capsys, monkeypatch,
                                                tables, built):
    cat_path = tmp_path / "cat.txt"
    main(["enumerate", "--limit", "1e4", "--out", str(cat_path)])
    called = set()
    for name in ("residue_table", "prime_sieve"):
        real = getattr(stats, name)

        def spy(*args, name=name, real=real):
            called.add(name)
            assert name in built, f"{name} ran for --tables {tables}"
            return real(*args)

        monkeypatch.setattr(stats, name, spy)
    args = ["stats", "--input", str(cat_path), "--out-dir", str(tmp_path / "t"),
            "--tables", tables, "--checkpoints", "1e3,1e4"]
    if not built:
        # Far too large to build; a spy fails first if either is used.
        args += ["--mod", "1000000000", "--primes-up-to", "100000000000"]
    assert main(args) == 0
    assert called == built


def test_stats_refuses_a_residue_table_above_its_bound(tmp_path, capsys,
                                                      monkeypatch):
    cat_path = tmp_path / "cat.txt"
    main(["oracle", "--limit", "1e6", "--out", str(cat_path)])
    capsys.readouterr()
    cat, cps = read_catalog(cat_path), [10**3, 10**4, 10**5, 10**6]
    # 400000 classes at the 4 default checkpoints: 1600000 cells > 2**20.
    args = ["stats", "--input", str(cat_path), "--out-dir", str(tmp_path / "t"),
            "--tables", "residues", "--mod", "400000"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "modulo 400000" in err and str(stats.RESIDUE_CELLS) in err
    assert not (tmp_path / "t").exists()
    # The bound is inclusive.
    monkeypatch.setattr(stats, "RESIDUE_CELLS", 40)
    assert sum(stats.residue_table(cat, 10, cps).values()) == 1 + 7 + 16 + 43
    with pytest.raises(ValueError, match="modulo 11 at 4 checkpoints has 44"):
        stats.residue_table(cat, 11, cps)


@pytest.mark.parametrize("cap, checkpoints, sieved", [
    # pi(2**24) - 1 = 1077870 odd primes: more rows than cells allowed.
    (2**24, "1e3", False),
    (2**32, "1e3", False),
    # 564162 odd primes below 2**23 at 2 checkpoints: 1128324 cells.
    (2**23, "1e3,1e4", True),
])
def test_stats_refuses_prime_tables_above_their_bound(tmp_path, capsys,
                                                      monkeypatch, cap,
                                                      checkpoints, sieved):
    cat_path = tmp_path / "cat.txt"
    main(["enumerate", "--limit", "1e4", "--out", str(cat_path)])
    capsys.readouterr()
    calls = []
    sieve = stats.prime_sieve
    monkeypatch.setattr(stats, "prime_sieve",
                        lambda n: calls.append(n) or sieve(n))
    args = ["stats", "--input", str(cat_path), "--out-dir", str(tmp_path / "t"),
            "--tables", "least-primes", "--checkpoints", checkpoints,
            "--primes-up-to", str(cap)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert str(stats.RESIDUE_CELLS) in err
    assert calls == ([cap] if sieved else [])
    assert not (tmp_path / "t").exists()


def test_enumerate_refuses_a_sieve_above_its_bound(tmp_path, capsys,
                                                   monkeypatch):
    # 10**20 would sieve to 2**33: tens of GiB of Python ints.
    def sieve(n):
        raise AssertionError(f"prime_sieve({n}) ran")

    monkeypatch.setattr(enumerator, "prime_sieve", sieve)
    out = tmp_path / "c.txt"
    assert main(["enumerate", "--limit", "1e20", "--out", str(out)]) == 2
    assert f"below {10**20} " in capsys.readouterr().err
    assert not out.exists()


def test_enumerate_refuses_a_missing_directory_before_the_search(
        tmp_path, capsys, monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("enumerate_carmichael ran")

    monkeypatch.setattr(cli, "enumerate_carmichael", search)
    missing = tmp_path / "missing"
    args = ["enumerate", "--limit", "1e10", "--out", str(missing / "c.txt")]
    assert main(args) == 1
    assert f"no directory {missing} " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_enumerate_refuses_an_existing_directory_before_the_search(
        tmp_path, capsys, monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("enumerate_carmichael ran")

    monkeypatch.setattr(cli, "enumerate_carmichael", search)
    (tmp_path / "kept.txt").write_text("kept\n")
    args = ["enumerate", "--limit", "1e10", "--out", str(tmp_path)]
    assert main(args) == 1
    assert f"{tmp_path} is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]
    assert (tmp_path / "kept.txt").read_text() == "kept\n"


@pytest.mark.parametrize("command", [
    ["enumerate", "--limit", "1e6"], ["smallest", "--factors", "13"]])
def test_no_workers_is_a_usage_error_before_any_table(tmp_path, capsys,
                                                      monkeypatch, command):
    def build(*args):
        raise AssertionError("a search table was built")

    monkeypatch.setattr(enumerator, "_build_tables", build)
    out = tmp_path / "j.txt"
    args = command + ["--jobs", "0"]
    if command[0] == "enumerate":
        args += ["--out", str(out)]
    assert main(args) == 2
    assert "worker count must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_stats_unknown_table_usage_error(tmp_path, capsys):
    cat_path = tmp_path / "cat.txt"
    main(["enumerate", "--limit", "1e4", "--out", str(cat_path)])
    capsys.readouterr()
    assert (
        main(
            [
                "stats",
                "--input", str(cat_path),
                "--out-dir", str(tmp_path / "t"),
                "--tables", "bogus",
            ]
        )
        == 2
    )


def test_stats_checkpoint_beyond_catalog_bound(tmp_path, capsys):
    cat_path = tmp_path / "cat.txt"
    main(["enumerate", "--limit", "1e4", "--out", str(cat_path)])
    capsys.readouterr()
    code = main(
        [
            "stats",
            "--input", str(cat_path),
            "--out-dir", str(tmp_path / "t"),
            "--checkpoints", "1e3,1e6",
        ]
    )
    assert code == 2


def test_stats_below_the_first_default_checkpoint(tmp_path, capsys):
    cat_path = tmp_path / "cat.txt"
    main(["enumerate", "--limit", "900", "--out", str(cat_path)])
    capsys.readouterr()
    args = ["stats", "--input", str(cat_path), "--out-dir", str(tmp_path / "t")]
    assert main(args) == 2
    assert "no checkpoints" in capsys.readouterr().err
    assert main(args + ["--checkpoints", "700"]) == 0
    assert (tmp_path / "t" / "counts.csv").read_text() == "checkpoint,count\n700,1\n"


def test_stats_takes_decade_checkpoints_that_are_not_consecutive(tmp_path, capsys):
    cat_path, out_dir = tmp_path / "cat.txt", tmp_path / "t"
    main(["oracle", "--limit", "1e5", "--out", str(cat_path)])
    capsys.readouterr()
    args = ["stats", "--input", str(cat_path), "--out-dir", str(out_dir),
            "--checkpoints", "1e3,1e5"]
    assert main(args) == 0
    capsys.readouterr()
    assert (out_dir / "growth_ratios.csv").read_text() == "n,ratio\n"
    assert (out_dir / "power_exponents.csv").read_text() == (
        "n,exponent\n3,0.00000\n5,0.24082\n")


def test_stats_rejects_a_truncated_catalog(tmp_path, capsys):
    cat_path, cut = tmp_path / "cat.txt", tmp_path / "cut.txt"
    main(["enumerate", "--limit", "1e6", "--out", str(cat_path)])
    capsys.readouterr()
    cut.write_bytes(cat_path.read_bytes()[:400])
    code = main(["stats", "--input", str(cut), "--out-dir", str(tmp_path / "t")])
    assert code == 2
    assert "header count 43 but 20 records" in capsys.readouterr().err


@pytest.mark.parametrize("restrict", [["--min-factors", "4"], ["--max-factors", "4"]])
def test_stats_refuses_a_catalog_restricted_by_factor_count(tmp_path, capsys, restrict):
    cat_path = tmp_path / "cat.txt"
    main(["enumerate", "--limit", "1e6", "--out", str(cat_path), *restrict])
    capsys.readouterr()
    code = main(["stats", "--input", str(cat_path), "--out-dir", str(tmp_path / "t")])
    assert code == 2
    held = "4..6" if restrict[0] == "--min-factors" else "3..4"
    assert f"d = {held} prime factors, not 3..6" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_stats_refuses_a_catalog_with_d_max_and_no_limit(tmp_path, capsys):
    # Without a limit, d_max = 3 is judged against max_factor_count(10**6)
    # = 6 at the largest checkpoint: C(10**6) would read 23, not 43.
    cat_path = tmp_path / "cat.txt"
    main(["enumerate", "--limit", "1e6", "--max-factors", "3",
          "--out", str(cat_path)])
    capsys.readouterr()
    text = "".join(line for line in cat_path.read_text().splitlines(True)
                   if not line.startswith("# limit:"))
    cat_path.write_text(text)
    code = main(["stats", "--input", str(cat_path), "--checkpoints", "1000000",
                 "--out-dir", str(tmp_path / "t")])
    assert code == 2
    assert "d = 3..3 prime factors, not 3..:" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_stats_rejects_a_record_at_or_above_the_limit(tmp_path, capsys):
    cat_path = tmp_path / "cat.txt"
    main(["oracle", "--limit", "1e4", "--out", str(cat_path)])
    capsys.readouterr()
    text = cat_path.read_text().replace("count: 7", "count: 8")
    cat_path.write_text(text + "10585 5 29 73\n")  # the next Carmichael number
    code = main(["stats", "--input", str(cat_path), "--out-dir", str(tmp_path / "t")])
    assert code == 2
    assert "10585 is not below the header limit 10000" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()
