"""Command line front end.

Subcommands: check, dual, classify, count-isotropic, aut.  Exit codes:
0 on success, 2 on unusable input, 3 when a verification or oracle
comparison fails.  Every failure is raised and main alone maps it to its
exit code and one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import __version__, io
from .classify import TARGETS, check_verify_budget, classify, verify_classification, verify_lists
from .codes import dual, dual_bruteforce, flags, is_euclidean_self_orthogonal, word_set
from .errors import ParseError, SymhexError, VerificationFailed
from .perms import automorphism_group
from .ring import RingId
from .symplectic import SymplecticSpace, count_isotropic, isotropic_subspaces


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


def _flags_line(fl: dict) -> str:
    return (
        f"SO={_yesno(fl['so'])} QSD={_yesno(fl['qsd'])} SD={_yesno(fl['sd'])} "
        f"nice={_yesno(fl['nice'])} LCD={_yesno(fl['lcd'])}"
    )


def cmd_check(args) -> None:
    code = io.parse_hzcode(io.read_text(args.file))
    print(f"ring: {code.ring}")
    print(f"n: {code.n}  (m = {code.m})")
    print(f"dims: ca k={code.ca.k}, cb k={code.cb.k}")
    print(f"size: {code.size}")
    print(_flags_line(flags(code)))
    if args.euclidean:
        print(f"euclidean_SO={_yesno(is_euclidean_self_orthogonal(code))}")


def cmd_dual(args) -> None:
    code = io.parse_hzcode(io.read_text(args.file))
    if args.out:  # before the work, not after it
        io.check_out_dir(args.out)
    d = dual(code)
    text = io.format_hzcode(d)
    # compare first, so a budget error or a mismatch leaves nothing on stdout or disk
    if args.brute:
        oracle = dual_bruteforce(code)
        if (words := word_set(d)) != oracle:
            raise VerificationFailed(
                f"oracle: the dual has {len(words)} words, the word-level oracle {len(oracle)}"
            )
    if not args.out:
        sys.stdout.write(text)
    if args.brute:
        print(f"oracle: match ({len(oracle)} words)")
    if args.out:
        io.write_text_atomic(args.out, text)
        print(f"wrote {args.out}")


def cmd_classify(args) -> None:
    ring = RingId(args.ring)
    la = io.parse_matrix_list(io.read_text(args.ca_list))
    lb = io.parse_matrix_list(io.read_text(args.cb_list))
    if any(c.n != args.n for c in la + lb):
        raise ParseError(f"list entries must all have length n={args.n}")
    if args.out:  # before the work, not after it
        io.check_out_dir(args.out)
    if args.verify:
        check_verify_budget(la, lb)
    records = classify(ring, la, lb, args.target)
    if not args.verify:  # verify_classification checks the lists itself
        verify_lists(la, lb)
    counts: dict[tuple[int, int], int] = {}
    for rec in records:
        counts[(rec.ca_index, rec.cb_index)] = counts.get((rec.ca_index, rec.cb_index), 0) + 1
    for (i, j), c in sorted(counts.items()):
        print(f"ca={i} cb={j}: {c}")
    print(f"total: {len(records)}")
    # verify first, so a failed verification leaves no catalog behind
    if args.verify:
        verify_classification(records, ring, la, lb, args.target)
        print("verification: ok")
    if args.out:
        io.write_catalog(args.out, ring, args.n, args.target, records, la, lb)
        print(f"wrote {args.out}")


def cmd_count_isotropic(args) -> None:
    value = count_isotropic(args.p, args.m, args.k)
    print(f"count({args.p}, {args.m}, {args.k}) = {value}")
    if args.enumerate:
        found = isotropic_subspaces(SymplecticSpace(args.p, args.m), args.k)
        if len(found) != value:
            raise VerificationFailed(
                f"enumerate: count({args.p}, {args.m}, {args.k}) = {value}, enumerated {len(found)}"
            )
        print(f"enumerated: {len(found)} (matches)")
        for code in found:
            for row in io._matrix_rows(code):
                print(row)
            print()


def cmd_aut(args) -> None:
    code = io.parse_matrix(io.read_text(args.file))
    if args.p is not None and code.p != args.p:
        raise ParseError(f"file says p={code.p}, flag says p={args.p}")
    group = automorphism_group(code)
    print(f"|Aut| = {group.order}")
    print("generators: " + (" ".join(g.cycle_string() for g in group.generators) or "e"))
    print(f"elements: {group.order}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symhex",
        description="symplectic codes over the order-six rings H23 and H32",
    )
    parser.add_argument("--version", action="version", version=f"symhex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="report dimensions, size, and duality flags")
    p.add_argument("file", help="ring code file")
    p.add_argument("--euclidean", action="store_true", help="also test the Euclidean form")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dual", help="write the symplectic dual of a code file")
    p.add_argument("file", help="ring code file")
    p.add_argument("-o", "--out", help="output path (default stdout)")
    p.add_argument("--brute", action="store_true", help="cross-check against the word-level oracle")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("classify", help="classify component pairs up to permutation")
    p.add_argument("--ring", required=True, choices=[r.value for r in RingId])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--target", default="SO", choices=list(TARGETS))
    p.add_argument("--ca-list", required=True, help="file of binary generator matrices")
    p.add_argument("--cb-list", required=True, help="file of ternary generator matrices")
    p.add_argument("--out", help="write a JSON catalog here")
    p.add_argument("--verify", action="store_true", help="run the full verification sweep")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("count-isotropic", help="count totally isotropic subspaces")
    p.add_argument("p", type=int, choices=[2, 3])
    p.add_argument("m", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--enumerate", action="store_true", help="enumerate and cross-check")
    p.set_defaults(func=cmd_count_isotropic)

    p = sub.add_parser("aut", help="automorphism group of one generator matrix")
    p.add_argument("file", help="matrix file")
    p.add_argument("--p", type=int, choices=[2, 3], help="cross-check the header field")
    p.set_defaults(func=cmd_aut)

    return parser


# main's parser, built once per process: building one costs about a
# millisecond, and parse_args returns a fresh namespace without changing it
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except (SymhexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, VerificationFailed) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
