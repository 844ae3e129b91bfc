"""Plain-text matrix formats, code files, and JSON catalogs.

A generator matrix is serialized as a header line ``p n k`` followed by k
rows of bare digits and a terminating blank line.  A ring code file is a
``ring n`` header followed by the binary block then the ternary block.  A
list file is just consecutive matrix blocks.  A header length above
gf.MAX_LENGTH, the longest LinearCode, is a ParseError, so a file cannot
ask for a matrix (or an n x n Gram matrix) too large to allocate.

Catalogs are JSON with sorted keys and no volatile fields, so the same
inputs always produce byte-identical output.  catalog_text renders one
straight from the classification records, byte for byte what
json.dumps(indent=2, sort_keys=True) writes; catalog_dict is that text
parsed.  Files are written to a temporary name and renamed into place.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Iterable

from . import __version__
from .classify import ClassificationRecord
from .codes import HzCode, flags, split
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


def check_out_dir(path: str) -> None:
    """Raise what writing path would: ENOENT when its directory is missing, EISDIR when it is one."""
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see halves.

    An OSError names path, the file asked for, not the temp file beside it.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    try:
        # 0o666 less the umask, the mode open(path, "w") gives; os.replace keeps that mode
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# one record as json.dumps(indent=2, sort_keys=True) lays it out inside "records"
_RECORD = """\
    {
      "ca": %d,
      "ca_gen": %s,
      "cb": %d,
      "cb_gen": %s,
      "flags": {
        "lcd": %s,
        "nice": %s,
        "qsd": %s,
        "sd": %s,
        "so": %s
      },
      "n": %d,
      "ring": %s,
      "sigma": %s,
      "size": %d
    }"""

def _list_text(items) -> str:
    """Encoded list items as a field of a record; [] when there are none."""
    body = ",\n        ".join(items)
    return "[\n        " + body + "\n      ]" if body else "[]"


def catalog_text(
    ring: RingId,
    n: int,
    target: str,
    records: list[ClassificationRecord],
    la: list[LinearCode],
    lb: list[LinearCode],
) -> str:
    """The catalog's bytes, as json.dumps(indent=2, sort_keys=True) lays it out, plus a newline.

    Records are filled into their template straight from each record's
    indices, sigma and code, since json's indenting encoder runs in pure
    Python; meta and summary still go through json.dumps, and list digests
    are over canonical list texts.  Each distinct component code's rows are
    rendered once per call (codes hash by their RREF), and flags are
    computed once per governing component and free dimension, on the first
    record with them: the predicates read the free component only through
    its dimension, which sigma keeps.
    """
    rows = cache(lambda code: _list_text(map(encode_basestring_ascii, _matrix_rows(code))))
    sigma_text = cache(lambda images: _list_text([str(i + 1) for i in images]))
    flag_texts: dict[tuple[LinearCode, int], tuple[dict[str, bool], list[str]]] = {}

    def record_flags(code: HzCode) -> tuple[dict[str, bool], list[str]]:
        governing, free = split(code)
        if (key := (governing, free.k)) not in flag_texts:
            fl = flags(code)
            flag_texts[key] = fl, [json.dumps(fl[name]) for name in sorted(fl)]
        return flag_texts[key]

    ring_text = encode_basestring_ascii(str(ring))
    summary = {"total": len(records), "so": 0, "sd": 0, "qsd": 0, "nice": 0, "lcd": 0}
    body = []
    for rec in records:
        fl, fl_text = record_flags(rec.code)
        for key, value in fl.items():
            summary[key] += value
        code = rec.code
        body.append(
            _RECORD
            % (
                rec.ca_index,
                rows(code.ca),
                rec.cb_index,
                rows(code.cb),
                *fl_text,
                n,
                ring_text,
                sigma_text(rec.sigma),
                code.size,
            )
        )
    meta = {
        "tool": "symhex",
        "version": __version__,
        "ring": str(ring),
        "n": n,
        "target": target,
        "ca_list_sha256": _digest(format_matrix_list(la)),
        "cb_list_sha256": _digest(format_matrix_list(lb)),
        "ca_count": len(la),
        "cb_count": len(lb),
    }
    meta_text, summary_text = (
        json.dumps(part, indent=2, sort_keys=True).replace("\n", "\n  ")
        for part in (meta, summary)
    )
    records_text = "[\n" + ",\n".join(body) + "\n  ]" if body else "[]"
    return f'{{\n  "meta": {meta_text},\n  "records": {records_text},\n  "summary": {summary_text}\n}}\n'


def catalog_dict(ring, n, target, records, la, lb) -> dict:
    """catalog_text's catalog parsed: a plain dict, each record with its own lists and flags."""
    return json.loads(catalog_text(ring, n, target, records, la, lb))


def write_catalog(path: str, ring, n, target, records, la, lb) -> None:
    """Write catalog_text's catalog to path, atomically."""
    write_text_atomic(path, catalog_text(ring, n, target, records, la, lb))
