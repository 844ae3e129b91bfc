"""File formats and catalog serialization."""

from __future__ import annotations

import json
import os
import stat
from functools import cache

import pytest

from symhex.classify import classify, inequivalent_reps
from symhex.codes import HzCode, flags
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
    with pytest.raises(ParseError, match="trailing content after matrix"):
        parse_matrix("2 2 1\n11\n\n2 2 0\n\n")
    with pytest.raises(ParseError, match="trailing content after code blocks"):
        parse_hzcode("H23 2\n2 2 0\n\n3 2 0\n\n2 2 0\n\n")
    with pytest.raises(ParseError, match="unexpected end of input"):
        parse_hzcode("H23 2\n2 2 0\n\n")  # no ternary block


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


def test_a_failed_atomic_write_names_the_target_and_leaves_no_temp_file(tmp_path):
    # the error names the file asked for, not the .tmp-... file beside it
    missing = tmp_path / "missing" / "out.txt"
    with pytest.raises(FileNotFoundError) as info:
        write_text_atomic(str(missing), "x\n")
    assert (info.value.filename, info.value.filename2) == (str(missing), None)
    assert str(info.value) == f"[Errno 2] No such file or directory: {str(missing)!r}"
    folder = tmp_path / "folder"
    folder.mkdir()
    with pytest.raises(IsADirectoryError) as info:
        write_text_atomic(str(folder), "x\n")
    assert (info.value.filename, info.value.filename2) == (str(folder), None)
    assert list(tmp_path.iterdir()) == [folder] and list(folder.iterdir()) == []


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


SMALL_LA = [LinearCode(2, [[1, 0]]), LinearCode(2, [[1, 1]])]
SMALL_LB = [LinearCode(3, [[1, 0]]), LinearCode(3, [[1, 1]]), LinearCode(3, [[1, 2]])]


def _small_args():
    """catalog_text's arguments for the seven H23 SO classes at length 2."""
    return H23, 2, "SO", classify(H23, SMALL_LA, SMALL_LB, "SO"), SMALL_LA, SMALL_LB


def _small_catalog():
    args = _small_args()
    return catalog_dict(*args), args[3]


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
    args1, args2 = _small_args(), _small_args()
    assert catalog_text(*args1) == catalog_text(*args2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_catalog(str(p1), *args1)
    write_catalog(str(p2), *args2)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == catalog_dict(*args1)


def test_catalog_is_valid_json_with_sorted_keys():
    text = catalog_text(*_small_args())
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)


def _oracle(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@cache
def _isotropic(p: int, n: int) -> list[LinearCode]:
    space = SymplecticSpace.for_length(p, n)
    return [c for k in range(space.m + 1) for c in isotropic_subspaces(space, k)]


def _criterion_8_catalogs(n: int):
    """(ring, target, records, la, lb) of each criterion-8 catalog at length n."""
    la, lb = inequivalent_reps(_isotropic(2, n)), inequivalent_reps(_isotropic(3, n))
    lists = {
        "SO": (la, lb),
        "QSD": (la, lb),
        "SD": (la + [LinearCode.full(2, n)], lb + [LinearCode.full(3, n)]),
    }
    for ring in (H23, H32):
        for target, (xla, xlb) in lists.items():
            yield ring, target, classify(ring, xla, xlb, target), xla, xlb


@pytest.mark.parametrize("n", [2, 4])
def test_catalog_text_is_json_dumps_on_the_criterion_8_catalogs(n):
    for ring, target, records, la, lb in _criterion_8_catalogs(n):
        text = catalog_text(ring, n, target, records, la, lb)
        assert text == _oracle(text), (n, ring, target)


@pytest.mark.parametrize("n", [2, 4])
def test_catalog_records_hold_the_values_of_their_records(n):
    # the oracle above checks layout only: a writer that put each record's
    # flags under the wrong keys would pass it
    def rows(code: LinearCode) -> list[str]:
        return ["".join(str(int(x)) for x in row) for row in code.gen]

    for ring, target, records, la, lb in _criterion_8_catalogs(n):
        cat = json.loads(catalog_text(ring, n, target, records, la, lb))
        assert len(cat["records"]) == len(records)
        tally = dict.fromkeys(("so", "sd", "qsd", "nice", "lcd"), 0)
        for got, rec in zip(cat["records"], records):
            fl = flags(rec.code)
            assert got == {
                "ca": rec.ca_index,
                "cb": rec.cb_index,
                "ca_gen": rows(rec.code.ca),
                "cb_gen": rows(rec.code.cb),
                "sigma": [i + 1 for i in rec.sigma],
                "size": rec.code.size,
                "ring": str(ring),
                "n": n,
                "flags": fl,
            }, (ring, target, rec)
            for key, value in fl.items():
                tally[key] += value
        assert cat["summary"] == {"total": len(records), **tally}, (ring, target)


def test_catalog_text_is_json_dumps_without_records_and_with_empty_generators():
    text = catalog_text(*_small_args())
    assert text == _oracle(text)
    empty = catalog_text(H23, 2, "SO", [], [LinearCode.zero(2, 2)], [LinearCode.zero(3, 2)])
    assert json.loads(empty)["records"] == [] and '"records": []' in empty
    assert empty == _oracle(empty)
    # the zero code has no generator rows, on either side; it leads both lists
    la, lb = [LinearCode.zero(2, 2), *SMALL_LA], [LinearCode.zero(3, 2), *SMALL_LB]
    args = H23, 2, "SO", classify(H23, la, lb, "SO"), la, lb
    cat = catalog_dict(*args)
    assert cat["records"][0]["ca_gen"] == cat["records"][0]["cb_gen"] == []
    text = catalog_text(*args)
    assert text == _oracle(text)


def test_catalog_rows_share_no_list_between_records():
    cat, _ = _small_catalog()
    first, second = cat["records"][:2]
    assert first["ca_gen"] == second["ca_gen"] and first["ca_gen"] is not second["ca_gen"]
    # both realize pair (0, 0): equal flags, each record its own dict
    assert first["flags"] == second["flags"] and first["flags"] is not second["flags"]


def test_matrix_rows_match_the_per_entry_rendering():
    codes = [c for n in (2, 4) for p in (2, 3) for c in _isotropic(p, n) + [LinearCode.full(p, n)]]
    for code in codes:
        assert _matrix_rows(code) == ["".join(str(int(x)) for x in row) for row in code.gen]
