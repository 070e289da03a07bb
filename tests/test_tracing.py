"""The benchmark's tracer (bench/tracing.py) replaces package functions by
looking each name up in its owner's ``__dict__``, so deleting or renaming a
name it lists breaks traced benchmark runs. Installing it here makes that
fail the test suite as well."""

import importlib.util
from pathlib import Path

from erasure_lab import cli, entropy, linalg

ROOT = Path(__file__).resolve().parents[1]


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


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
