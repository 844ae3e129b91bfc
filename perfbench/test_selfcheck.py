"""Self-checks of the benchmark: its gate fails on wrong answers, tracing
changes nothing but the bindings it restores, and pass times leave out the
speed probes.

    python3 -m pytest -q perfbench/test_selfcheck.py

Only the length-2 classification cases and the length-2 oracle pairs run, so
this takes seconds; the full passes run under perfbench/run.py.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_symhex()

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

H23 = workloads.H23


def n2_cases(workdir: Path, anchors=workloads.CLASSIFY_ANCHORS) -> list[tuple]:
    cases = workloads.classify_setup(0, workdir, anchors)
    return [case for case in cases if case[0][case[0].index("--n") + 1] == "2"]


def fail_frac(result: tuple[int, int]) -> float:
    attempted, failed = result
    return failed / attempted


def test_seed_code_meets_the_anchors(tmp_path):
    assert fail_frac(workloads.classify_pass(n2_cases(tmp_path))) == 0
    triples = workloads.oracle_setup(20260822, tmp_path)
    assert fail_frac(workloads.oracle_pass(triples[:30])) == 0


def test_wrong_anchor_fails(tmp_path):
    anchors = dict(workloads.CLASSIFY_ANCHORS)
    count, sha = anchors[(2, H23, "SO")]
    anchors[(2, H23, "SO")] = (count - 1, sha)
    assert fail_frac(workloads.classify_pass(n2_cases(tmp_path, anchors))) > 0


@pytest.mark.parametrize("mutate", [lambda r: r[1:], lambda r: r + r[:1]], ids=["dropped", "duplicated"])
def test_mutated_classification_fails(tmp_path, monkeypatch, mutate):
    """A record dropped or duplicated, as criterion 8 mutates them."""
    real = workloads.sx_cli.classify
    monkeypatch.setattr(workloads.sx_cli, "classify", lambda *args: mutate(real(*args)))
    attempted, failed = workloads.classify_pass(n2_cases(tmp_path))
    # every case fails its count, its verification and its digest
    assert failed == attempted


def test_wrong_oracle_answer_fails(tmp_path, monkeypatch):
    real = workloads.sx_codes.is_nice_bruteforce
    monkeypatch.setattr(workloads.sx_codes, "is_nice_bruteforce", lambda code: not real(code))
    triples = workloads.oracle_setup(20260822, tmp_path)[:30]
    assert workloads.oracle_pass(triples) == (30 * 6, 30)


def test_exception_counts_as_failure(tmp_path, monkeypatch):
    def boom(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.sx_classify, "inequivalent_reps", boom)
    spaces = workloads.dedup_setup(0, tmp_path)
    assert workloads.dedup_pass(spaces) == (9, 1)


def test_trace_counts_repeat_and_bindings_restore(tmp_path):
    cases = n2_cases(tmp_path)
    before = {name: getattr(workloads.sx_classify, name) for name in ("apply_perm", "equivalent")}
    contains = workloads.sx_gf.LinearCode.contains
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert workloads.classify_pass(cases) == (18, 0)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items() if k.endswith(".calls")})
        assert set(metrics) == {name for name, _, _ in spans.metric_names()} - {"trace.overhead_s"}
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == 6
    assert counts[0]["perms.apply_perm.calls"] > 0  # reached through classify's own binding
    assert workloads.sx_gf.LinearCode.contains is contains
    assert before == {name: getattr(workloads.sx_classify, name) for name in before}


def test_timed_pass_excludes_speed_probes():
    def busy(_):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.35:
            pass
        return 1, 0

    sampler = speed.SpeedSampler()
    result = run.timed_pass(busy, None, sampler)
    assert len(sampler.samples) >= 2
    assert sampler.spent == pytest.approx(sum(sampler.samples))
    assert result["wall_s"] + sampler.spent == pytest.approx(0.35, abs=0.02)
    assert result["scale"] > 0
