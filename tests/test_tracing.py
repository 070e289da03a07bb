"""The names the benchmark and the package's exports rely on.

The benchmark's tracer (bench/tracing.py) replaces package functions by
looking each name up in its owner's ``__dict__``, and its workloads
(bench/workloads.py) call the CLI and the solvers with chosen
``SolverOptions``, so deleting or renaming a name either uses breaks
benchmark runs. Running both here makes that fail the test suite as well."""

import importlib
import importlib.util
import json
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import erasure_lab
from erasure_lab import cli, demon, entropy, linalg

ROOT = Path(__file__).resolve().parents[1]


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


def load_tracer_class():
    return load_bench_module("tracing").Tracer


def test_tracer_installs_records_and_uninstalls():
    originals = (linalg.hermitian_eig, entropy.hermitian_eig, linalg.DensityOperator.__post_init__)
    tracer = load_tracer_class()()
    tracer.install()
    try:
        assert linalg.hermitian_eig is not originals[0]
        code = cli.main(["erasure", "--scenario", str(ROOT / "docs" / "examples" / "erasure.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    totals = tracer.totals()
    assert totals["cli.main"][0] == 1
    assert totals["linalg.hermitian_eig"][0] > 0
    assert totals["linalg.DensityOperator"][0] > 0
    assert (linalg.hermitian_eig, entropy.hermitian_eig,
            linalg.DensityOperator.__post_init__) == originals


@pytest.mark.parametrize("example", ["demon_qec", "demon_sweep"])
def test_tracer_records_qec_cycles(example):
    path = ROOT / "docs" / "examples" / f"{example}.json"
    overlaps = json.loads(path.read_text()).get("overlaps", [None])
    originals = (demon.qec_cycle, demon.mutual_information, demon.hermitian_eig)
    tracer = load_tracer_class()()
    tracer.install()
    try:
        code = cli.main(["demon", "--scenario", str(path), "--format", "json"])
    finally:
        tracer.uninstall()
    assert code == 0
    totals = tracer.totals()
    assert totals["demon.qec_cycle"][0] == len(overlaps)
    assert totals["demon.QecScenario"][0] >= len(overlaps)
    assert totals["entropy.mutual_information"][0] == len(overlaps)
    assert (demon.qec_cycle, demon.mutual_information, demon.hermitian_eig) == originals


def test_benchmark_warm_ups_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # workloads imports checks
    workloads = load_bench_module("workloads")
    ops = workloads.cli_pass(np.random.default_rng([0, 0]), str(tmp_path))
    workloads.cli_warm_up(ops)
    for op in {op.kind: op for op in ops if op.kind != "selftest"}.values():
        assert op.check(op.run()) == []
    workloads.entangle_warm_up(workloads.entangle_pass(np.random.default_rng([0, 0])))


MODULES_WITH_ALL = [info.name for info in pkgutil.iter_modules(erasure_lab.__path__)
                    if info.name != "__main__"
                    and hasattr(importlib.import_module(f"erasure_lab.{info.name}"), "__all__")]


@pytest.mark.parametrize("name", MODULES_WITH_ALL)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"erasure_lab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
