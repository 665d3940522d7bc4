import gzip

import pytest

from carmichael import catalog
from carmichael.catalog import (
    Catalog,
    CatalogFormatError,
    read_catalog,
    write_catalog,
)
from carmichael.cli import main
from carmichael.korselt import CarmichaelEntry, oracle_enumerate


def small_catalog(limit=10**4):
    return Catalog(oracle_enumerate(limit), {"limit": str(limit), "mode": "oracle"})


def test_record_format(tmp_path):
    path = tmp_path / "cat.txt"
    write_catalog(small_catalog(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# carmichael catalog"
    assert "561 3 11 17" in lines
    assert lines[-1] == "8911 7 19 67"
    assert not any(line != line.rstrip() for line in lines)


def test_roundtrip_identity(tmp_path):
    path = tmp_path / "cat.txt"
    cat = small_catalog()
    write_catalog(cat, path)
    back = read_catalog(path, validate=True)
    assert back.entries == cat.entries
    assert back.provenance["limit"] == "10000"
    assert back.limit == 10000


def test_write_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_catalog(small_catalog(), a)
    write_catalog(small_catalog(), b)
    assert a.read_bytes() == b.read_bytes()


def test_empty_catalog_is_header_only(tmp_path):
    path = tmp_path / "empty.txt"
    write_catalog(Catalog([], {"limit": "500"}), path)
    content = path.read_text()
    assert all(line.startswith("#") for line in content.splitlines())
    assert len(read_catalog(path)) == 0


def test_gzip_roundtrip(tmp_path):
    path = tmp_path / "cat.txt.gz"
    cat = small_catalog()
    write_catalog(cat, path)
    with gzip.open(path, "rt") as fh:
        assert "561 3 11 17" in fh.read()
    assert read_catalog(path, validate=True).entries == cat.entries


def test_gzip_writes_are_deterministic(tmp_path):
    a, b = tmp_path / "a.txt.gz", tmp_path / "b.txt.gz"
    write_catalog(small_catalog(), a)
    write_catalog(small_catalog(), b)
    assert a.read_bytes() == b.read_bytes()


def test_validation_catches_bad_prime(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# limit: 1000\n561 3 11 18\n")
    read_catalog(path, validate=False)  # parses
    with pytest.raises(CatalogFormatError, match="line 2.*18"):
        read_catalog(path, validate=True)


def test_unsorted_input_is_a_format_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1105 5 13 17\n561 3 11 17\n")
    with pytest.raises(CatalogFormatError, match="ascending"):
        read_catalog(path)


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("561 3 11 17\nnot a number\n")
    with pytest.raises(CatalogFormatError, match="line 2"):
        read_catalog(path)


def test_a_record_at_or_above_the_limit_is_rejected(tmp_path):
    path = tmp_path / "cat.txt"
    cat = small_catalog(8911)
    cat.entries.append(CarmichaelEntry(8911, (7, 19, 67)))
    write_catalog(cat, path)
    with pytest.raises(CatalogFormatError, match="8911 is not below the header"):
        read_catalog(path)
    cat.provenance["limit"] = "8912"
    write_catalog(cat, path)
    assert read_catalog(path).entries == cat.entries


@pytest.mark.parametrize("header", ["limit: 1e6", "limit: abc", "limit: -5",
                                    "d_min: three", "d_max:"])
def test_a_number_header_that_is_not_decimal_digits_is_rejected(tmp_path,
                                                                capsys,
                                                                header):
    path = tmp_path / "cat.txt"
    path.write_text(f"# carmichael catalog\n# {header}\n561 3 11 17\n")
    key, _, value = header.partition(":")
    message = f"line 2: header {key}: {value.strip()!r} is not a whole number"
    with pytest.raises(CatalogFormatError, match=message):
        read_catalog(path)
    assert main(["stats", "--input", str(path),
                 "--out-dir", str(tmp_path / "t")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_count_header_mismatch_is_rejected(tmp_path):
    path = tmp_path / "cat.txt"
    cat = small_catalog()
    cat.provenance["count"] = str(len(cat))
    write_catalog(cat, path)
    assert len(read_catalog(path)) == len(cat)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-2]))
    with pytest.raises(CatalogFormatError, match="header count 7 but 5 records"):
        read_catalog(path)
    # Cut inside the last record: the count still matches, the line end is gone.
    path.write_text("".join(lines)[:-4])
    with pytest.raises(CatalogFormatError, match="no line end"):
        read_catalog(path)


def test_truncated_gzip_is_rejected(tmp_path):
    path = tmp_path / "cat.txt.gz"
    write_catalog(small_catalog(10**5), path)
    path.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(CatalogFormatError, match="ends early"):
        read_catalog(path)


@pytest.mark.parametrize("name", ["cat.txt", "cat.txt.gz"])
def test_a_failed_write_leaves_the_old_file(monkeypatch, tmp_path, name):
    path = tmp_path / name
    write_catalog(small_catalog(), path)
    before = path.read_bytes()
    record_lines = catalog._record_lines

    def fail_partway(cat):
        lines = record_lines(cat)
        yield next(lines)
        yield next(lines)
        raise OSError("disk full")

    monkeypatch.setattr(catalog, "_record_lines", fail_partway)
    with pytest.raises(OSError, match="disk full"):
        write_catalog(small_catalog(10**5), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]
