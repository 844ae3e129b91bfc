"""Benchmark of symhex's exact scans, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # all four workloads, one process each

A run imports symhex from ``src/`` next to this directory, builds the
workload's inputs several times, then repeats the workload's pass,
single-threaded, for about ``--seconds``: the first pass is always kept, and
at least one more.  Every pass checks its outputs against frozen answers.
Times are scaled to a reference CPU speed by ``speed.SpeedSampler``; the raw
times are printed beside them.  With ``--trace 1`` the passes after the
first alternate between bare and traced, and the run reports per-function
counts, self times and hit ratios from the traced ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit.  A record of the run, with the environment it ran in,
goes to ``perfbench/out/<workload>[-trace].json``, and the spans of the last
traced pass to ``perfbench/out/<workload>.spans.npz``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOAD_NAMES = ("classify_verify", "cosets_n8", "dedup_n6", "predicate_oracle")
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "first_pass_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def import_symhex() -> None:
    """Import symhex from this checkout's sources, never from site-packages."""
    if not (SRC / "symhex" / "__init__.py").is_file():
        sys.exit(f"error: no symhex package under {SRC}")
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import symhex

    if Path(symhex.__file__).resolve().parent != SRC / "symhex":
        sys.exit(f"error: imported symhex from {symhex.__file__}, not {SRC}")


def git_commit() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
    }


def timed_pass(run_pass, inputs, sampler=None) -> dict:
    """One pass; wall and CPU seconds exclude the probes run during it."""
    gc.collect()
    if sampler is not None:
        sampler.start()
    w0, c0 = time.perf_counter(), time.process_time()
    attempted, failed = run_pass(inputs)
    spent = 0.0
    if sampler is not None:
        sampler.stop()
        spent = sampler.spent
    return {
        "wall_s": time.perf_counter() - w0 - spent,
        "cpu_s": time.process_time() - c0 - spent,
        "scale": sampler.scale() if sampler is not None else None,
        "attempted": attempted,
        "failed": failed,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, sampler) -> tuple[dict, dict]:
    """Set up and measure one workload; ``sampler`` has run since before the imports.

    Returns the result object and the unscaled times.
    """
    import workloads
    from spans import Tracer, metric_names

    import_s = time.perf_counter() - PROCESS_START - sampler.spent
    setup, run_pass, items, item = workloads.WORKLOADS[name]
    loadavg_start = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    tracer = Tracer() if trace else None
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            spent0, t0 = sampler.spent, time.perf_counter()
            inputs = setup(seed, workdir)
            builds.append(time.perf_counter() - t0 - (sampler.spent - spent0))
        sampler.stop()
        setup_raw = import_s + statistics.median(builds)
        setup_scale = sampler.scale()

        begin = time.perf_counter()
        first = timed_pass(run_pass, inputs, sampler)
        last_wall = first["wall_s"]
        bare: list[dict] = []
        traced: list[dict] = []
        trace_metrics: list[dict] = []
        while (
            not bare
            or (tracer is not None and not traced)
            or time.perf_counter() - begin + last_wall <= seconds
        ):
            # in a traced run the passes after the first alternate, bare first;
            # traced passes are not sampled, so no probe lands inside a span
            if tracer is not None and len(bare) > len(traced):
                tracer.reset()
                tracer.install()
                try:
                    traced.append(timed_pass(run_pass, inputs))
                finally:
                    tracer.uninstall()
                trace_metrics.append(tracer.metrics())
                last_wall = traced[-1]["wall_s"]
            else:
                bare.append(timed_pass(run_pass, inputs, sampler))
                last_wall = bare[-1]["wall_s"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = [first] + bare + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    raw = {
        "setup_s": setup_raw,
        "first_pass_s": first["wall_s"],
        "wall_s": statistics.median(p["wall_s"] for p in bare),
        "cpu_s": statistics.median(p["cpu_s"] for p in bare),
    }
    if tracer is None:
        wall_s = statistics.median(p["wall_s"] * p["scale"] for p in bare)
        metrics = {
            "setup_s": setup_raw * setup_scale,
            "first_pass_s": first["wall_s"] * first["scale"],
            "wall_s": wall_s,
            "cpu_s": statistics.median(p["cpu_s"] * p["scale"] for p in bare),
            "items_per_s": items / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        units = {key: unit for key, unit, _ in metric_names()}
        metrics = {
            key: statistics.median(m[key] for m in trace_metrics)
            for key in trace_metrics[0]
        }
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - raw["wall_s"]
        )
        tracer.write_spans(OUT / f"{name}.spans.npz")

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "items_per_pass": f"{items} x {item}",
        "environment": dict(
            environment(), loadavg_start=loadavg_start, loadavg_end=os.getloadavg()
        ),
        "setup": {"import_s": import_s, "builds_s": builds, "scale": setup_scale},
        "passes": {"first": first, "bare": bare, "traced": traced},
        "fail_frac": failed / attempted,
        "raw_metrics": raw,
        "metrics": metrics,
    }
    suffix = "-trace" if trace else ""
    (OUT / f"{name}{suffix}.json").write_text(json.dumps(record, indent=2) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, raw


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=20260822,
                        help="input seed; only predicate_oracle draws from it")
    parser.add_argument("--seconds", type=int, default=10, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if args.workload == "all":
        result = run_all(args)
    else:
        from speed import SpeedSampler

        # the thread caps must be set before numpy is first imported
        for var in THREAD_VARS:
            os.environ[var] = "1"
        sampler = SpeedSampler()
        sampler.start()
        try:
            import_symhex()
            result, raw = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), sampler
            )
        finally:
            sampler.stop()
        print(f"{args.workload}: {result['attempted']} checks, {result['failed']} failed, "
              f"fail_frac {result['failed'] / result['attempted']:.6g}")
        for key, metric in result["metrics"].items():
            tail = f"  (raw {raw[key]:.6g} s)" if key in raw and not args.trace else ""
            print(f"  {key} = {metric['value']:.6g} {metric['unit']}{tail}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
