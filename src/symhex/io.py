"""Plain-text matrix formats, code files, and JSON catalogs.

A generator matrix is serialized as a header line ``p n k`` followed by k
rows of bare digits and a terminating blank line.  A ring code file is a
``ring n`` header followed by the binary block then the ternary block.  A
list file is just consecutive matrix blocks.  A header length above
gf.MAX_LENGTH, the longest LinearCode, is a ParseError, so a file cannot
ask for a matrix (or an n x n Gram matrix) too large to allocate.

Catalogs are JSON with sorted keys and no volatile fields, so the same
inputs always produce byte-identical output; catalog_text writes the
fixed catalog schema directly, byte for byte what json.dumps(indent=2,
sort_keys=True) writes.  Files are written to a temporary name and
renamed into place.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Iterable

from . import __version__
from .classify import ClassificationRecord
from .codes import HzCode
from .errors import ParseError, SymhexError
from .gf import MAX_LENGTH, LinearCode
from .ring import RingId


def _matrix_rows(code: LinearCode) -> list[str]:
    return ["".join(map(str, row)) for row in code.gen.tolist()]


def format_matrix(code: LinearCode) -> str:
    return "\n".join([f"{code.p} {code.n} {code.k}", *_matrix_rows(code), ""]) + "\n"


def format_matrix_list(codes: Iterable[LinearCode]) -> str:
    return "".join(format_matrix(c) for c in codes)


def format_hzcode(code: HzCode) -> str:
    return (
        f"{code.ring} {code.n}\n"
        + format_matrix(code.ca)
        + format_matrix(code.cb)
    )


class _Lines:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def eof(self) -> bool:
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        return self.pos >= len(self.lines)

    def next_nonblank(self) -> str:
        if self.eof():
            raise ParseError("unexpected end of input")
        line = self.lines[self.pos].strip()
        self.pos += 1
        return line

    def next_raw(self) -> str:
        if self.pos >= len(self.lines):
            return ""
        line = self.lines[self.pos].strip()
        self.pos += 1
        return line


def _parse_matrix(src: _Lines) -> LinearCode:
    header = src.next_nonblank().split()
    if len(header) != 3:
        raise ParseError(f"matrix header must be 'p n k', got {header}")
    try:
        p, n, k = (int(t) for t in header)
    except ValueError as exc:
        raise ParseError(f"bad matrix header {header}") from exc
    if p not in (2, 3):
        raise ParseError(f"p must be 2 or 3, got {p}")
    if not 0 <= k <= n <= MAX_LENGTH:
        raise ParseError(f"bad dimensions n={n}, k={k} (need 0 <= k <= n <= {MAX_LENGTH})")
    rows = []
    for _ in range(k):
        line = src.next_raw()
        if not line:
            raise ParseError(f"expected {k} matrix rows, got {len(rows)}")
        if len(line) != n or any(ch not in "012" for ch in line):
            raise ParseError(f"bad matrix row {line!r} for n={n}")
        row = [int(ch) for ch in line]
        if any(x >= p for x in row):
            raise ParseError(f"row {line!r} has entries outside F{p}")
        rows.append(row)
    tail = src.next_raw()
    if tail:
        raise ParseError(f"expected blank line after matrix, got {tail!r}")
    code = LinearCode(p, rows, n=n)
    if code.k != k:
        raise ParseError(f"rows are dependent: header says k={k}, rank is {code.k}")
    return code


def parse_matrix(text: str) -> LinearCode:
    src = _Lines(text)
    code = _parse_matrix(src)
    if not src.eof():
        raise ParseError("trailing content after matrix")
    return code


def parse_matrix_list(text: str) -> list[LinearCode]:
    src = _Lines(text)
    out = []
    while not src.eof():
        out.append(_parse_matrix(src))
    return out


def parse_hzcode(text: str) -> HzCode:
    src = _Lines(text)
    header = src.next_nonblank().split()
    if len(header) != 2:
        raise ParseError(f"code header must be 'ring n', got {header}")
    try:
        ring = RingId(header[0])
    except ValueError as exc:
        raise ParseError(f"unknown ring {header[0]!r}") from exc
    try:
        n = int(header[1])
    except ValueError as exc:
        raise ParseError(f"bad length {header[1]!r}") from exc
    ca = _parse_matrix(src)
    cb = _parse_matrix(src)
    if not src.eof():
        raise ParseError("trailing content after code blocks")
    if ca.n != n or cb.n != n:
        raise ParseError(f"component lengths {ca.n}, {cb.n} do not match header n={n}")
    try:
        return HzCode(ring, ca, cb)
    except SymhexError as exc:
        # blocks in the wrong order, or a zero or odd length
        raise ParseError(str(exc)) from exc


def read_text(path: str) -> str:
    """The file's text; a byte outside ASCII is a ParseError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise ParseError(f"{path}: byte {bad:#04x} at offset {exc.start} is not ASCII") from exc


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see halves."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    # 0o666 less the umask, the mode open(path, "w") gives; os.replace keeps the temp file's mode
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def catalog_dict(
    ring: RingId,
    n: int,
    target: str,
    records: list[ClassificationRecord],
    la: list[LinearCode],
    lb: list[LinearCode],
) -> dict:
    """The catalog as a plain dict; digests are over canonical list texts.

    Each distinct component code's rows are rendered once per call (codes
    hash by their RREF); every record gets its own copy of the list.
    """
    rows = cache(_matrix_rows)
    recs = []
    for rec in records:
        recs.append(
            {
                "ring": str(rec.ring),
                "n": rec.n,
                "ca": rec.ca_index,
                "cb": rec.cb_index,
                "sigma": [i + 1 for i in rec.sigma.images],
                "ca_gen": list(rows(rec.code.ca)),
                "cb_gen": list(rows(rec.code.cb)),
                "flags": rec.flags,
                "size": rec.size,
            }
        )
    summary = {"total": len(records)}
    for key in ("so", "sd", "qsd", "nice", "lcd"):
        summary[key] = sum(1 for rec in records if rec.flags[key])
    return {
        "meta": {
            "tool": "symhex",
            "version": __version__,
            "ring": str(ring),
            "n": n,
            "target": target,
            "ca_list_sha256": _digest(format_matrix_list(la)),
            "cb_list_sha256": _digest(format_matrix_list(lb)),
            "ca_count": len(la),
            "cb_count": len(lb),
        },
        "records": recs,
        "summary": summary,
    }


_CATALOG_KEYS = {"meta", "records", "summary"}
_RECORD_KEYS = {"ca", "ca_gen", "cb", "cb_gen", "flags", "n", "ring", "sigma", "size"}
_FLAG_KEYS = {"lcd", "nice", "qsd", "sd", "so"}

# one record as json.dumps(indent=2, sort_keys=True) lays it out inside "records"
_RECORD = """\
    {
      "ca": %s,
      "ca_gen": %s,
      "cb": %s,
      "cb_gen": %s,
      "flags": {
        "lcd": %s,
        "nice": %s,
        "qsd": %s,
        "sd": %s,
        "so": %s
      },
      "n": %s,
      "ring": %s,
      "sigma": %s,
      "size": %s
    }"""

_BOOL = {True: "true", False: "false"}


def _list_text(items) -> str:
    """Encoded list items as a field of a record; [] when there are none."""
    body = ",\n        ".join(items)
    return "[\n        " + body + "\n      ]" if body else "[]"


def _check_keys(what: str, d: dict, keys: set) -> None:
    if d.keys() != keys:
        raise ValueError(f"{what} has keys {sorted(d)}, the catalog schema has {sorted(keys)}")


def _record_text(rec: dict) -> str:
    _check_keys("record", rec, _RECORD_KEYS)
    fl = rec["flags"]
    _check_keys("record flags", fl, _FLAG_KEYS)
    return _RECORD % (
        int.__repr__(rec["ca"]),
        _list_text(map(encode_basestring_ascii, rec["ca_gen"])),
        int.__repr__(rec["cb"]),
        _list_text(map(encode_basestring_ascii, rec["cb_gen"])),
        _BOOL[fl["lcd"]],
        _BOOL[fl["nice"]],
        _BOOL[fl["qsd"]],
        _BOOL[fl["sd"]],
        _BOOL[fl["so"]],
        int.__repr__(rec["n"]),
        encode_basestring_ascii(rec["ring"]),
        _list_text(map(int.__repr__, rec["sigma"])),
        int.__repr__(rec["size"]),
    )


def catalog_text(catalog: dict) -> str:
    """The catalog's bytes: json.dumps(catalog, indent=2, sort_keys=True) plus a newline.

    Records are written from the fixed schema catalog_dict builds, since
    json's indenting encoder runs in pure Python; meta and summary still go
    through json.dumps.  A dict whose keys are not the schema's raises
    ValueError instead of losing or inventing a field; values must have the
    types catalog_dict gives them (ints, strs, bool flags).
    """
    _check_keys("catalog", catalog, _CATALOG_KEYS)
    meta, summary = (
        json.dumps(catalog[key], indent=2, sort_keys=True).replace("\n", "\n  ")
        for key in ("meta", "summary")
    )
    records = catalog["records"]
    body = ",\n".join(map(_record_text, records))
    records_text = "[\n" + body + "\n  ]" if records else "[]"
    return f'{{\n  "meta": {meta},\n  "records": {records_text},\n  "summary": {summary}\n}}\n'


def write_catalog(path: str, catalog: dict) -> None:
    write_text_atomic(path, catalog_text(catalog))
