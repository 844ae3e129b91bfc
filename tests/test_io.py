"""File formats and catalog serialization."""

from __future__ import annotations

import json
import os
import stat
from functools import cache

import pytest

from symhex.classify import classify, inequivalent_reps
from symhex.codes import HzCode
from symhex.errors import ParseError
from symhex.gf import LinearCode
from symhex.io import (
    MAX_LENGTH,
    _matrix_rows,
    catalog_dict,
    catalog_text,
    format_hzcode,
    format_matrix,
    format_matrix_list,
    parse_hzcode,
    parse_matrix,
    parse_matrix_list,
    write_catalog,
    write_text_atomic,
)
from symhex.ring import RingId
from symhex.symplectic import SymplecticSpace, isotropic_subspaces

H23, H32 = RingId.H23, RingId.H32


def test_matrix_round_trip():
    for code in (
        LinearCode(2, [[1, 1, 0], [0, 0, 1]]),
        LinearCode(3, [[1, 0, 2], [0, 1, 1]]),
        LinearCode.zero(2, 4),
        LinearCode.full(3, 3),
    ):
        assert parse_matrix(format_matrix(code)) == code


def test_matrix_format_shape():
    text = format_matrix(LinearCode(3, [[1, 0, 2]]))
    assert text == "3 3 1\n102\n\n"


def test_matrix_list_round_trip():
    codes = [LinearCode(2, [[1, 1]]), LinearCode.zero(2, 2), LinearCode.full(2, 2)]
    assert parse_matrix_list(format_matrix_list(codes)) == codes


def test_hzcode_round_trip():
    code = HzCode(H23, LinearCode(2, [[1, 1]]), LinearCode(3, [[1, 2]]))
    text = format_hzcode(code)
    assert text.startswith("H23 2\n")
    assert parse_hzcode(text) == code


def test_parse_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_matrix("2 2\n11\n")  # short header
    with pytest.raises(ParseError):
        parse_matrix("2 2 1\n12\n")  # entry outside F2
    with pytest.raises(ParseError):
        parse_matrix("2 2 1\n111\n")  # row too long
    with pytest.raises(ParseError):
        parse_matrix("2 2 2\n11\n11\n")  # dependent rows contradict k
    with pytest.raises(ParseError):
        parse_matrix("4 2 1\n11\n")  # bad field
    with pytest.raises(ParseError):
        parse_hzcode("H24 2\n2 2 0\n\n3 2 0\n\n")
    with pytest.raises(ParseError):
        parse_hzcode("H23 2\n3 2 0\n\n2 2 0\n\n")  # blocks in wrong order
    with pytest.raises(ParseError):
        parse_hzcode("H23 4\n2 2 0\n\n3 2 0\n\n")  # header length mismatch
    with pytest.raises(ParseError):
        parse_hzcode("H23 3\n2 3 1\n111\n\n3 3 1\n111\n\n")  # odd length


@pytest.mark.parametrize("n", [MAX_LENGTH + 2, 4_000_000_000, 10**20])
def test_header_lengths_above_the_cap_are_parse_errors(n):
    with pytest.raises(ParseError, match=str(MAX_LENGTH)):
        parse_matrix(f"2 {n} 0\n\n")
    with pytest.raises(ParseError, match=str(MAX_LENGTH)):
        parse_hzcode(f"H32 {n}\n2 {n} 0\n\n3 {n} 0\n\n")


def test_header_length_at_the_cap_parses():
    assert parse_matrix(f"3 {MAX_LENGTH} 0\n\n") == LinearCode.zero(3, MAX_LENGTH)
    code = parse_hzcode(f"H23 {MAX_LENGTH}\n2 {MAX_LENGTH} 0\n\n3 {MAX_LENGTH} 0\n\n")
    assert code.n == MAX_LENGTH


def test_parse_tolerates_leading_blank_lines():
    assert parse_matrix("\n\n2 2 1\n11\n") == LinearCode(2, [[1, 1]])


def test_atomic_write(tmp_path):
    path = tmp_path / "out.txt"
    write_text_atomic(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    write_text_atomic(str(path), "replaced\n")
    assert path.read_text() == "replaced\n"
    assert list(tmp_path.iterdir()) == [path]  # no temp droppings


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_atomic_write_follows_the_umask(tmp_path, umask):
    # a new and a replaced file both get the mode open(path, "w") gives a new file
    old = os.umask(umask)
    try:
        ref = tmp_path / "ref.txt"
        ref.write_text("ref\n")
        new = tmp_path / "new.txt"
        write_text_atomic(str(new), "new\n")
        replaced = tmp_path / "replaced.txt"
        replaced.write_text("old\n")
        replaced.chmod(0o640)
        write_text_atomic(str(replaced), "replaced\n")
    finally:
        os.umask(old)
    modes = [stat.S_IMODE(path.stat().st_mode) for path in (ref, new, replaced)]
    assert modes == [0o666 & ~umask] * 3
    assert replaced.read_text() == "replaced\n"
    assert len(list(tmp_path.iterdir())) == 3  # no temp droppings


def _small_catalog():
    la = [LinearCode(2, [[1, 0]]), LinearCode(2, [[1, 1]])]
    lb = [LinearCode(3, [[1, 0]]), LinearCode(3, [[1, 1]]), LinearCode(3, [[1, 2]])]
    records = classify(H23, la, lb, "SO")
    return catalog_dict(H23, 2, "SO", records, la, lb), records


def test_catalog_shape():
    cat, records = _small_catalog()
    assert set(cat) == {"meta", "records", "summary"}
    assert cat["meta"]["ring"] == "H23"
    assert cat["meta"]["target"] == "SO"
    assert cat["meta"]["ca_count"] == 2 and cat["meta"]["cb_count"] == 3
    assert len(cat["meta"]["ca_list_sha256"]) == 64
    assert len(cat["records"]) == len(records) == cat["summary"]["total"] == 7
    rec = cat["records"][0]
    assert set(rec) == {"ring", "n", "ca", "cb", "sigma", "ca_gen", "cb_gen", "flags", "size"}
    assert rec["sigma"] == [1, 2]
    assert rec["ca_gen"] == ["10"]


def test_catalog_summary_matches_flag_tallies():
    cat, records = _small_catalog()
    for key in ("so", "sd", "qsd", "nice", "lcd"):
        assert cat["summary"][key] == sum(1 for r in cat["records"] if r["flags"][key])


def test_catalog_bytes_deterministic(tmp_path):
    cat1, _ = _small_catalog()
    cat2, _ = _small_catalog()
    assert catalog_text(cat1) == catalog_text(cat2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_catalog(str(p1), cat1)
    write_catalog(str(p2), cat2)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == cat1


def test_catalog_is_valid_json_with_sorted_keys():
    cat, _ = _small_catalog()
    text = catalog_text(cat)
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)


def _oracle(cat: dict) -> str:
    return json.dumps(cat, indent=2, sort_keys=True) + "\n"


@cache
def _isotropic(p: int, n: int) -> list[LinearCode]:
    space = SymplecticSpace.for_length(p, n)
    return [c for k in range(space.m + 1) for c in isotropic_subspaces(space, k)]


@pytest.mark.parametrize("n", [2, 4])
def test_catalog_text_is_json_dumps_on_the_criterion_8_catalogs(n):
    la, lb = inequivalent_reps(_isotropic(2, n)), inequivalent_reps(_isotropic(3, n))
    lists = {
        "SO": (la, lb),
        "QSD": (la, lb),
        "SD": (la + [LinearCode.full(2, n)], lb + [LinearCode.full(3, n)]),
    }
    for ring in (H23, H32):
        for target, (xla, xlb) in lists.items():
            cat = catalog_dict(ring, n, target, classify(ring, xla, xlb, target), xla, xlb)
            assert catalog_text(cat) == _oracle(cat), (n, ring, target)


def test_catalog_text_is_json_dumps_without_records_and_with_empty_generators():
    cat, records = _small_catalog()
    assert catalog_text(cat) == _oracle(cat)
    empty = catalog_dict(H23, 2, "SO", [], [LinearCode.zero(2, 2)], [LinearCode.zero(3, 2)])
    assert empty["records"] == [] and '"records": []' in catalog_text(empty)
    assert catalog_text(empty) == _oracle(empty)
    # the zero code has no generator rows, on either side
    zero = classify(H23, [LinearCode.zero(2, 2)], [LinearCode.zero(3, 2)], "SO")
    cat = catalog_dict(H23, 2, "SO", zero + records, [LinearCode.zero(2, 2)], [LinearCode.zero(3, 2)])
    assert cat["records"][0]["ca_gen"] == cat["records"][0]["cb_gen"] == []
    assert catalog_text(cat) == _oracle(cat)


def test_catalog_text_rejects_keys_outside_the_schema():
    def mutated(edit):
        cat = json.loads(catalog_text(_small_catalog()[0]))
        edit(cat)
        return cat

    edits = [
        lambda c: c.update(extra=1),
        lambda c: c.pop("summary"),
        lambda c: c["records"][0].update(extra=1),
        lambda c: c["records"][1].pop("sigma"),
        lambda c: c["records"][0]["flags"].update(extra=True),
        lambda c: c["records"][2]["flags"].pop("lcd"),
    ]
    for edit in edits:
        with pytest.raises(ValueError, match="catalog schema"):
            catalog_text(mutated(edit))


def test_catalog_rows_share_no_list_between_records():
    cat, _ = _small_catalog()
    first, second = cat["records"][:2]
    assert first["ca_gen"] == second["ca_gen"] and first["ca_gen"] is not second["ca_gen"]


def test_matrix_rows_match_the_per_entry_rendering():
    codes = [c for n in (2, 4) for p in (2, 3) for c in _isotropic(p, n) + [LinearCode.full(p, n)]]
    for code in codes:
        assert _matrix_rows(code) == ["".join(str(int(x)) for x in row) for row in code.gen]
