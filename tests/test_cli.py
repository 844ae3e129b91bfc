"""End-to-end runs of the command line, in process."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import symhex
from symhex import cli, codes, io
from symhex.classify import classify, inequivalent_reps, verify_classification
from symhex.codes import HzCode, build, dual, is_self_orthogonal
from symhex.errors import ParseError
from symhex.gf import MAX_LENGTH, LinearCode
from symhex.ring import RingId
from symhex.symplectic import SymplecticSpace, isotropic_subspaces

R2_FILE = "H23 2\n2 2 1\n11\n\n3 2 1\n11\n\n"
EX4_FILE = "H23 4\n2 4 2\n1000\n0100\n\n3 4 2\n1000\n0100\n\n"
CA_LIST = "2 2 1\n10\n\n2 2 1\n11\n\n"
CB_LIST = "3 2 1\n10\n\n3 2 1\n11\n\n3 2 1\n12\n\n"
# La entries <10> and <01> are equivalent under (1 2), so --verify must refuse the lists
EQUIVALENT_CA_LIST = "2 2 1\n10\n\n2 2 1\n01\n\n"
LISTS_FAILURE = "error: lists: La entries 0 and 1 are equivalent under (1 2)\n"

# symhex.classify is the function; the module is reached through import_module
classify_module = import_module("symhex.classify")


@pytest.fixture
def r2_path(tmp_path):
    p = tmp_path / "r2.code"
    p.write_text(R2_FILE)
    return str(p)


def test_check(r2_path, capsys):
    assert cli.main(["check", r2_path]) == 0
    out = capsys.readouterr().out
    assert "ring: H23" in out
    assert "size: 6" in out
    assert "SO=yes QSD=yes SD=no nice=no LCD=no" in out
    assert "euclidean" not in out


def test_check_euclidean(tmp_path, capsys):
    p = tmp_path / "c.code"
    p.write_text(EX4_FILE)
    assert cli.main(["check", str(p), "--euclidean"]) == 0
    out = capsys.readouterr().out
    assert "SO=yes QSD=yes" in out
    assert "euclidean_SO=no" in out


def test_check_rejects_odd_length(tmp_path, capsys):
    p = tmp_path / "odd.code"
    p.write_text("H23 3\n2 3 1\n111\n\n3 3 1\n111\n\n")
    assert cli.main(["check", str(p)]) == 2
    assert "error" in capsys.readouterr().err


def test_check_rejects_missing_file(capsys):
    assert cli.main(["check", "/nonexistent/x.code"]) == 2


@pytest.mark.parametrize("command", ["check", "dual", "aut", "classify"])
def test_non_ascii_file_exits_2(r2_path, tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xc3\xa9")
    with pytest.raises(ParseError):
        io.read_text(str(bad))
    argv = [command, str(bad)]
    if command == "classify":
        argv = [command, "--ring", "H23", "--n", "2", "--ca-list", str(bad), "--cb-list", r2_path]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "0xc3" in err


def test_dual_stdout_and_brute(r2_path, capsys):
    assert cli.main(["dual", r2_path, "--brute"]) == 0
    out = capsys.readouterr().out
    assert "3 2 2" in out  # ternary side blown up to the full space
    assert "oracle: match (18 words)" in out


def _raise(*args, **kwargs):
    raise AssertionError("per-word objects built")


def test_dual_brute_compares_word_codes(tmp_path, capsys, monkeypatch):
    # H23 with a zero binary side: the dual is all 6^6 words
    code = build(RingId.H23, LinearCode.zero(2, 6), LinearCode(3, [[1, 1, 1, 0, 0, 0]]))
    p = tmp_path / "z6.code"
    p.write_text(io.format_hzcode(code))
    # both sides are WordSets, compared by their arrays: no HzWord is built
    monkeypatch.setattr(codes, "HzWord", _raise)
    assert cli.main(["dual", str(p), "--brute"]) == 0
    assert capsys.readouterr().out == io.format_hzcode(dual(code)) + "oracle: match (46656 words)\n"


def test_dual_brute_reports_a_mismatch(r2_path, tmp_path, capsys, monkeypatch):
    wrong = io.parse_hzcode(R2_FILE)  # the code itself, not its dual
    monkeypatch.setattr(cli, "dual", lambda code: wrong)
    # the code has 6 words, its dual 18
    counts = "error: oracle: the dual has 6 words, the word-level oracle 18\n"
    assert cli.main(["dual", r2_path, "--brute"]) == 3
    assert capsys.readouterr() == ("", counts)  # the rejected dual is never printed
    out_path = tmp_path / "dual.code"
    assert cli.main(["dual", r2_path, "--brute", "--out", str(out_path)]) == 3
    assert capsys.readouterr() == ("", counts)
    assert not out_path.exists()


def test_dual_brute_out_writes_only_after_a_match(r2_path, tmp_path, capsys):
    out_path = tmp_path / "dual.code"
    assert cli.main(["dual", r2_path, "--brute", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == f"oracle: match (18 words)\nwrote {out_path}\n"
    assert out_path.read_text() == io.format_hzcode(dual(io.parse_hzcode(R2_FILE)))
    # at n = 12 the oracle's 6^n candidate words are past the byte budget: exit 2 and no file
    code = build(RingId.H23, LinearCode(2, [[1] * 12]), LinearCode(3, [[1] * 12]))
    p = tmp_path / "c12.code"
    p.write_text(io.format_hzcode(code))
    out12 = tmp_path / "dual12.code"
    assert cli.main(["dual", str(p), "--brute", "--out", str(out12)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "budget" in err
    assert not out12.exists()


def test_dual_writes_file(r2_path, tmp_path, capsys):
    out_path = tmp_path / "dual.code"
    assert cli.main(["dual", r2_path, "-o", str(out_path)]) == 0
    from symhex.io import parse_hzcode

    d = parse_hzcode(out_path.read_text())
    assert d.cb.is_full()
    assert d.ca.gen.tolist() == [[1, 1]]


def test_an_out_path_in_a_missing_directory_is_named_in_the_error(r2_path, tmp_path, capsys):
    out = tmp_path / "missing" / "x"
    assert cli.main(["dual", r2_path, "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: {str(out)!r}\n")
    assert cli.main(_classify_argv(tmp_path) + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ca.list", "cb.list", "r2.code"]


def test_classify_refuses_a_missing_out_directory_before_classifying(tmp_path, capsys, monkeypatch):
    out = tmp_path / "missing" / "x.json"
    monkeypatch.setattr(cli, "classify", _raise)
    assert cli.main(_classify_argv(tmp_path) + ["--out", str(out), "--verify"]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: {str(out)!r}\n")


def test_classify_end_to_end(tmp_path, capsys):
    ca = tmp_path / "ca.list"
    cb = tmp_path / "cb.list"
    out = tmp_path / "catalog.json"
    ca.write_text(CA_LIST)
    cb.write_text(CB_LIST)
    args = [
        "classify", "--ring", "H23", "--n", "2", "--target", "SO",
        "--ca-list", str(ca), "--cb-list", str(cb),
        "--out", str(out), "--verify",
    ]
    assert cli.main(args) == 0
    text = capsys.readouterr().out
    assert "ca=0 cb=0: 2" in text
    assert "total: 7" in text
    assert "verification: ok" in text
    cat = json.loads(out.read_text())
    assert cat["summary"]["total"] == 7
    # byte-for-byte reproducible
    out2 = tmp_path / "catalog2.json"
    assert cli.main(args[:-3] + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == out2.read_bytes()


def test_classify_rejects_wrong_length(tmp_path, capsys):
    ca = tmp_path / "ca.list"
    cb = tmp_path / "cb.list"
    ca.write_text(CA_LIST)
    cb.write_text(CB_LIST)
    assert cli.main([
        "classify", "--ring", "H23", "--n", "4",
        "--ca-list", str(ca), "--cb-list", str(cb),
    ]) == 2


def test_classify_verification_failure_exits_3(tmp_path, capsys):
    ca = tmp_path / "ca.list"
    cb = tmp_path / "cb.list"
    ca.write_text(EQUIVALENT_CA_LIST)
    cb.write_text(CB_LIST)
    assert cli.main([
        "classify", "--ring", "H23", "--n", "2",
        "--ca-list", str(ca), "--cb-list", str(cb), "--verify",
    ]) == 3
    assert capsys.readouterr().err == LISTS_FAILURE


def test_classify_failed_verification_writes_no_catalog(tmp_path, capsys):
    ca = tmp_path / "ca.list"
    cb = tmp_path / "cb.list"
    out = tmp_path / "catalog.json"
    ca.write_text(EQUIVALENT_CA_LIST)
    cb.write_text(CB_LIST)
    assert cli.main([
        "classify", "--ring", "H23", "--n", "2",
        "--ca-list", str(ca), "--cb-list", str(cb), "--out", str(out), "--verify",
    ]) == 3
    assert not out.exists()
    captured = capsys.readouterr()
    assert "wrote" not in captured.out
    assert captured.err == LISTS_FAILURE


@pytest.mark.parametrize("out", [False, True])
def test_classify_without_verify_rejects_equivalent_list_entries(tmp_path, capsys, out):
    ca = tmp_path / "ca.list"
    cb = tmp_path / "cb.list"
    catalog = tmp_path / "catalog.json"
    ca.write_text(EQUIVALENT_CA_LIST)
    cb.write_text(CB_LIST)
    argv = ["classify", "--ring", "H23", "--n", "2", "--ca-list", str(ca), "--cb-list", str(cb)]
    # the parent counted both entries' classes and printed total: 8 with exit 0
    assert cli.main(argv + (["--out", str(catalog)] if out else [])) == 3
    assert capsys.readouterr() == ("", LISTS_FAILURE)
    assert not catalog.exists()


def test_classify_checks_the_lists_once_on_either_path(tmp_path, capsys, monkeypatch):
    # without --verify verify_lists checks them; with it the verifier does,
    # from its own orbits, and reaches neither verify_lists nor _owners
    calls = []
    for name in ("verify_lists", "_owners"):
        real = getattr(classify_module, name)
        counted = lambda *a, name=name, real=real: calls.append(name) or real(*a)
        monkeypatch.setattr(classify_module, name, counted)
    monkeypatch.setattr(cli, "verify_lists", classify_module.verify_lists)
    argv = _classify_argv(tmp_path)
    assert cli.main(argv) == 0
    assert "total: 7" in capsys.readouterr().out
    assert calls == ["verify_lists", "_owners", "_owners"]
    calls.clear()
    assert cli.main(argv + ["--verify"]) == 0
    assert "total: 7" in capsys.readouterr().out
    assert calls == []
    assert cli.main(_classify_argv(tmp_path, EQUIVALENT_CA_LIST) + ["--verify"]) == 3
    assert capsys.readouterr().err == LISTS_FAILURE
    assert calls == []


def test_classify_verify_beyond_the_guard_exits_2_before_classifying(tmp_path, capsys, monkeypatch):
    ca = tmp_path / "ca.list"
    cb = tmp_path / "cb.list"
    # the verifier would key 12! rows per entry, about 150 times the byte budget
    ca.write_text("2 12 0\n\n")
    cb.write_text("3 12 0\n\n")
    monkeypatch.setattr(cli, "classify", _raise)
    assert cli.main([
        "classify", "--ring", "H23", "--n", "12",
        "--ca-list", str(ca), "--cb-list", str(cb), "--verify",
    ]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "budget" in err


def _classify_argv(tmp_path, ca_text=CA_LIST, cb_text=CB_LIST, n=2) -> list[str]:
    """classify over H23 at length n, with the two list files written into tmp_path."""
    ca = tmp_path / "ca.list"
    cb = tmp_path / "cb.list"
    ca.write_text(ca_text)
    cb.write_text(cb_text)
    return ["classify", "--ring", "H23", "--n", str(n), "--ca-list", str(ca), "--cb-list", str(cb)]


@pytest.mark.parametrize("verify", [[], ["--verify"]])
def test_classify_with_the_list_files_swapped_names_the_field(tmp_path, capsys, verify):
    # every length matches; the binary list holds ternary codes
    assert cli.main(_classify_argv(tmp_path, CB_LIST, CA_LIST) + verify) == 2
    assert capsys.readouterr() == ("", "error: La entry 0 is a code over F3, not F2\n")


def test_classify_out_to_a_directory_exits_2_and_leaves_no_temp_file(tmp_path, capsys):
    out = tmp_path / "catalog"
    out.mkdir()
    assert cli.main(_classify_argv(tmp_path) + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ca.list", "catalog", "cb.list"]
    assert list(out.iterdir()) == []


def _flags_runs(call) -> int:
    """How often codes.flags runs during call(), under whatever name it is reached."""
    runs = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is codes.flags.__code__:
            runs.append(event)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return len(runs)


def test_classify_verify_out_computes_flags_once_per_governing_component_and_free_dimension(
    tmp_path, capsys
):
    la, lb = (
        inequivalent_reps([c for k in range(3) for c in isotropic_subspaces(SymplecticSpace(p, 2), k)])
        for p in (2, 3)
    )
    admissible = [(ca, cb) for ca in la for cb in lb if is_self_orthogonal(HzCode(RingId.H23, ca, cb))]
    assert len(admissible) == 189
    # C_a governs over H23, and the predicates read C_b only through its dimension
    keys = {(ca, cb.k) for ca, cb in admissible}
    assert len(keys) < len(admissible)
    argv = _classify_argv(tmp_path, io.format_matrix_list(la), io.format_matrix_list(lb), n=4)
    argv += ["--verify", "--out", str(tmp_path / "catalog.json")]
    assert _flags_runs(lambda: cli.main(argv)) == len(keys)
    assert "verification: ok" in capsys.readouterr().out
    records = classify(RingId.H23, la, lb, "SO")
    # the catalog alone computes flags; classify and the verifier never do
    assert _flags_runs(lambda: classify(RingId.H23, la, lb, "SO")) == 0
    assert _flags_runs(lambda: verify_classification(records, RingId.H23, la, lb, "SO")) == 0


def test_main_parses_every_call_with_one_parser_and_fresh_namespaces(r2_path, tmp_path, capsys, monkeypatch):
    parsed = []
    real = argparse.ArgumentParser.parse_args

    def spy(parser, *args, **kwargs):
        parsed.append((parser, real(parser, *args, **kwargs)))
        return parsed[-1][1]

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    out = tmp_path / "catalog.json"
    assert cli.main(_classify_argv(tmp_path) + ["--verify", "--out", str(out)]) == 0
    assert cli.main(["dual", r2_path]) == 0
    assert cli.main(_classify_argv(tmp_path)) == 0
    (first, verified), (second, dualed), (third, plain) = parsed
    assert first is second is third
    assert verified.verify and verified.out == str(out)
    # neither --verify nor --out carries over, to another subcommand or the same one
    assert dualed.out is None and not hasattr(dualed, "verify")
    assert not plain.verify and plain.out is None
    assert capsys.readouterr().out.count("verification: ok") == 1
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize("module", ["symhex", "symhex.cli"])
def test_module_entry_points(tmp_path, module):
    src = str(Path(symhex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", module, *args], env=env, capture_output=True, text=True
        )

    version = run("--version")
    assert (version.returncode, version.stdout) == (0, f"symhex {symhex.__version__}\n")
    assert symhex.__version__ == "0.1.0"
    bad = run("check", str(tmp_path / "missing.code"))
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr.startswith("error: ") and bad.stderr.count("\n") == 1


def test_count_isotropic(capsys):
    assert cli.main(["count-isotropic", "2", "2", "2"]) == 0
    assert "= 15" in capsys.readouterr().out
    assert cli.main(["count-isotropic", "3", "1", "1", "--enumerate"]) == 0
    out = capsys.readouterr().out
    assert "= 4" in out and "enumerated: 4 (matches)" in out
    assert cli.main(["count-isotropic", "2", "3", "0"]) == 0
    assert "= 1" in capsys.readouterr().out
    # the k = 0 count is 1 for any m, so only the space can refuse the length
    m = MAX_LENGTH // 2 + 1
    assert cli.main(["count-isotropic", "2", str(m), "0", "--enumerate"]) == 2
    out, err = capsys.readouterr()
    assert out == f"count(2, {m}, 0) = 1\n"
    assert err.startswith("error: ") and f"exceeds {MAX_LENGTH}" in err


# the 15 binary Lagrangians of F_2^4 as --enumerate prints them, rows in RREF
LAGRANGIANS_2_2 = (
    "1000 0100, 1000 0101, 1001 0110, 1001 0111, 1010 0100, 1010 0101, 1011 0110, 1011 0111, "
    "1100 0011, 1101 0011, 1000 0001, 1010 0001, 0100 0010, 0101 0010, 0010 0001"
).split(", ")


def test_count_isotropic_enumerate_prints_every_block(capsys):
    assert cli.main(["count-isotropic", "2", "2", "2", "--enumerate"]) == 0
    blocks = "".join(block.replace(" ", "\n") + "\n\n" for block in LAGRANGIANS_2_2)
    assert capsys.readouterr().out == "count(2, 2, 2) = 15\nenumerated: 15 (matches)\n" + blocks


def test_count_isotropic_enumerate_reports_a_mismatch(capsys, monkeypatch):
    real = cli.isotropic_subspaces
    monkeypatch.setattr(cli, "isotropic_subspaces", lambda space, k: real(space, k)[1:])
    assert cli.main(["count-isotropic", "2", "2", "2", "--enumerate"]) == 3
    assert capsys.readouterr() == (
        "count(2, 2, 2) = 15\n",
        "error: enumerate: count(2, 2, 2) = 15, enumerated 14\n",
    )


def test_count_isotropic_k_out_of_range(capsys):
    assert cli.main(["count-isotropic", "2", "1", "2"]) == 2


def test_count_isotropic_digit_budget(capsys):
    assert cli.main(["count-isotropic", "3", "100", "100"]) == 0
    assert len(capsys.readouterr().out.split("= ")[1].strip()) == 2410
    assert cli.main(["count-isotropic", "3", "400", "400"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_aut(tmp_path, capsys):
    p = tmp_path / "m.mat"
    p.write_text("3 2 1\n11\n\n")
    assert cli.main(["aut", str(p)]) == 0
    out = capsys.readouterr().out
    assert "|Aut| = 2" in out
    assert "(1 2)" in out
    assert "elements: 2" in out
    assert cli.main(["aut", str(p), "--p", "2"]) == 2  # header disagrees


def test_aut_full_space(tmp_path, capsys):
    p = tmp_path / "full.mat"
    p.write_text("2 3 3\n100\n010\n001\n\n")
    assert cli.main(["aut", str(p)]) == 0
    assert "|Aut| = 6" in capsys.readouterr().out


@pytest.mark.parametrize("n", ["4000000000", "100000000000000000000"])
def test_aut_rejects_a_huge_header_length(tmp_path, capsys, n):
    p = tmp_path / "huge.mat"
    p.write_text(f"2 {n} 0\n\n")
    assert cli.main(["aut", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and n in err
