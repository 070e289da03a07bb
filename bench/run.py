"""Benchmark of erasure_lab: two workloads, end to end and per module.

    python3 bench/run.py --workload cli-scenarios --seed 1 --seconds 55 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See bench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 4          # extra cold set-ups, each in a fresh interpreter
MAX_REPORTED_PROBLEMS = 20


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _setup(workload_name: str, seed: int):
    """Import the package, build pass 0 and warm up; returns (seconds, state)."""
    start = time.perf_counter()
    if not (SRC / "erasure_lab" / "__init__.py").is_file():
        _fail(f"no erasure_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import erasure_lab
    import erasure_lab.selftest  # noqa: F401  (cli imports it lazily; traced runs wrap it)

    if Path(erasure_lab.__file__).resolve().parent != SRC / "erasure_lab":
        _fail(f"imported erasure_lab from {erasure_lab.__file__}, not from {SRC}")
    import numpy as np

    import workloads

    workload = workloads.WORKLOADS[workload_name]
    workdir = ROOT / ".bench_runs" / f"{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    def make_pass(k: int):
        return workload.make_pass(np.random.default_rng([seed, k]), str(workdir))

    first = make_pass(0)
    workload.warm_up(first)
    return time.perf_counter() - start, (make_pass, first, workdir)


def _probe_setup(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        _fail(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


class Run:
    """Counts, timings and check results of the timed passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.op_seconds: list[float] = []
        self.pass_ops_per_s: list[float] = []

    def run_pass(self, ops) -> float:
        """Run and check every op of a pass; returns the time spent in ops."""
        busy = 0.0
        for op in ops:
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception:  # an op that raises is a failed op, not a crash
                busy += time.perf_counter() - start
                self.failed += 1
                print(f"bench: {op.kind} op failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - start
            busy += elapsed
            self.op_seconds.append(elapsed)
            self.problems += op.check(result)
        self.pass_ops_per_s.append(len(ops) / busy)
        print(f"bench: pass of {len(ops)} ops in {busy:.3f} s", file=sys.stderr)
        return busy


def _measure(make_pass, first, seconds: float) -> Run:
    """Fresh passes until ``seconds`` of op time have run; whole passes only."""
    run, ops, k, busy = Run(), first, 0, 0.0
    while True:
        busy += run.run_pass(ops)
        if busy >= seconds:
            return run
        k += 1
        ops = make_pass(k)


def _measure_traced(first, seconds: float):
    """Pass 0 again and again, untraced then traced, until ``seconds`` have run.

    Repeating one pass makes every count exactly repeatable for a seed, and
    pairing each traced pass with an untraced one measures the overhead.
    """
    from tracing import Tracer

    run, tracer = Run(), Tracer()
    plain, traced = [], []
    while sum(plain) + sum(traced) < seconds or not traced:
        plain.append(run.run_pass(first))
        tracer.install()
        try:
            traced.append(run.run_pass(first))
        finally:
            tracer.uninstall()
    return run, tracer, len(traced) * len(first), statistics.median(traced) - statistics.median(plain)


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def _layer_metrics(tracer, n_ops: int, overhead: float) -> dict:
    totals = tracer.totals()

    def calls(*names):
        return sum(totals.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names)

    def layer(prefix):
        return [n for n in totals if n.startswith(prefix + ".")]

    scenario_build = [n for n in layer("scenario") if n.startswith("scenario.build_")]
    ere_calls, eoc_calls = calls("entanglement.ere"), calls("entanglement.eoc")
    per_op = [
        ("linalg.eig_calls", "count/op", calls("linalg.hermitian_eig")),
        ("linalg.eig_s", "s/op", self_s("linalg.hermitian_eig")),
        ("linalg.density_calls", "count/op", calls("linalg.DensityOperator")),
        ("linalg.density_s", "s/op", self_s("linalg.DensityOperator")),
        ("linalg.partial_trace_calls", "count/op", calls("linalg.partial_trace")),
        ("linalg.partial_trace_s", "s/op", self_s("linalg.partial_trace")),
        ("entropy.calls", "count/op", calls(*layer("entropy"))),
        ("entropy.s", "s/op", self_s(*layer("entropy"))),
        ("thermo.calls", "count/op", calls(*layer("thermo"))),
        ("thermo.s", "s/op", self_s(*layer("thermo"))),
        ("thermo.collisions", "count/op", calls("thermo.collision_step")),
        ("demon.calls", "count/op", calls(*layer("demon"))),
        ("demon.s", "s/op", self_s(*layer("demon"))),
        ("scenario.load_calls", "count/op", calls("scenario.load_scenario")),
        ("scenario.load_s", "s/op", self_s("scenario.load_scenario")),
        ("scenario.build_s", "s/op", self_s(*scenario_build)),
        ("cli.s", "s/op", self_s("cli.main")),
        ("selftest.s", "s/op", self_s("selftest.run_selftest")),
        ("entanglement.ere_calls", "count/op", ere_calls),
        ("entanglement.ere_s", "s/op", self_s("entanglement.ere")),
        ("entanglement.ere_iterations", "count/op", tracer.ere_iterations),
        ("entanglement.eoc_calls", "count/op", eoc_calls),
        ("entanglement.eoc_s", "s/op", self_s("entanglement.eoc")),
        ("entanglement.purification_s", "s/op", self_s("entanglement.purification_report")),
    ]
    metrics = {name: {"value": value / n_ops, "unit": unit} for name, unit, value in per_op}
    iterations = tracer.ere_iterations
    metrics["entanglement.ere_iter_ms"] = {
        "value": 1000.0 * self_s("entanglement.ere") / iterations if iterations else 0.0,
        "unit": "ms"}
    metrics["entanglement.ere_converged_ratio"] = {
        "value": tracer.ere_converged / ere_calls if ere_calls else 0.0, "unit": "ratio"}
    metrics["entanglement.eoc_converged_ratio"] = {
        "value": tracer.eoc_converged / eoc_calls if eoc_calls else 0.0, "unit": "ratio"}
    metrics["src.lines"] = {"value": _src_lines(), "unit": "lines"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for name, (n, seconds) in sorted(totals.items()):
        print(f"bench: span {name:<42} {n / n_ops:12.3f} calls/op {seconds / n_ops:12.6f} s/op",
              file=sys.stderr)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-scenarios", "entangle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up seconds and exit")
    args = parser.parse_args()
    os.environ.pop("ERASURE_LAB_SEED", None)  # it would override every scenario's seed

    setup_s, (make_pass, first, workdir) = _setup(args.workload, args.seed)
    try:
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            run, tracer, n_traced, overhead = _measure_traced(first, args.seconds)
        else:
            setups = [setup_s] + [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
            run = _measure(make_pass, first, args.seconds)
        if not run.op_seconds:
            _fail(f"all {run.attempted} ops failed")
        if args.trace:
            metrics = _layer_metrics(tracer, n_traced, overhead)
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "ops_per_s": {"value": statistics.median(run.pass_ops_per_s), "unit": "ops/s"},
                "op_p50_ms": {"value": 1000.0 * statistics.median(run.op_seconds), "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    for problem in run.problems[:MAX_REPORTED_PROBLEMS]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
