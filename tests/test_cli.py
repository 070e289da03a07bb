import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from erasure_lab.cli import main

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
LN2 = math.log(2)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestErasureCommand:
    def test_example_scenario_passes(self, capsys):
        code, out, _ = run_cli(["erasure", "--scenario", str(EXAMPLES / "erasure.json")], capsys)
        assert code == 0
        assert "seed=7" in out
        assert "Landauer bound satisfied" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["erasure", "--scenario", str(EXAMPLES / "erasure.json"), "--format", "json"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["seed"] == 7
        assert blob["report"]["landauer_satisfied"] is True

    def test_missing_beta_exits_2(self, tmp_path, capsys):
        scenario = json.loads((EXAMPLES / "erasure.json").read_text())
        del scenario["hamiltonian"]["beta"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scenario))
        code, _, err = run_cli(["erasure", "--scenario", str(bad)], capsys)
        assert code == 2
        assert "schema" in err

    def test_unreadable_file_exits_2(self, capsys):
        code, _, err = run_cli(["erasure", "--scenario", "/nonexistent.json"], capsys)
        assert code == 2

    @pytest.mark.parametrize("path, value", [
        (("state", "re", 0, 0), math.nan),
        (("hamiltonian", "matrix", "re", 1, 1), math.inf),
        (("hamiltonian", "beta"), math.inf),
    ], ids=["nan-state", "infinite-hamiltonian", "infinite-beta"])
    def test_non_finite_entry_exits_2(self, path, value, tmp_path, capsys):
        scenario = json.loads((EXAMPLES / "erasure.json").read_text())
        target = scenario
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scenario))  # writes the NaN / Infinity tokens
        code, out, err = run_cli(["erasure", "--scenario", str(bad), "--format", "json"], capsys)
        assert code == 2
        assert "non-finite" in err
        assert "NaN" not in out and "Infinity" not in out

    def test_overflowing_number_exits_2(self, tmp_path, capsys):
        text = (EXAMPLES / "erasure.json").read_text().replace('"beta": 1.0', '"beta": 1e400')
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, _, err = run_cli(["erasure", "--scenario", str(bad)], capsys)
        assert code == 2
        assert "non-finite" in err


class TestDemonCommand:
    def test_classical_ledger_totals(self, tmp_path, capsys):
        out_path = tmp_path / "ledger.csv"
        code, _, _ = run_cli(
            ["demon", "--scenario", str(EXAMPLES / "demon_classical.json"),
             "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "# seed=7"
        assert lines[1] == "step,name,dS_system,dS_apparatus,dS_garbage,dF,info_gain"
        assert len(lines) == 7
        garbage_total = sum(float(line.split(",")[4]) for line in lines[2:])
        assert garbage_total == pytest.approx(LN2, abs=1e-12)

    def test_qec_scenario(self, capsys):
        code, out, _ = run_cli(["demon", "--scenario", str(EXAMPLES / "demon_qec.json"),
                                "--format", "json"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["recovery_fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert blob["gc_entropy"] == pytest.approx(math.log(4), abs=1e-9)
        assert blob["violations"] == []

    def test_overlap_sweep_monotone(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["demon", "--scenario", str(EXAMPLES / "demon_sweep.json"),
             "--out", str(out_path)], capsys)
        assert code == 0
        rows = out_path.read_text().strip().split("\n")[2:]
        fidelities = [float(r.split(",")[1]) for r in rows]
        assert fidelities == sorted(fidelities, reverse=True)

    def test_missing_kind_field_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 1, "kind": "qec"}))
        code, _, err = run_cli(["demon", "--scenario", str(bad)], capsys)
        assert code == 2
        assert "missing" in err


class TestEntanglementCommand:
    def test_bell_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["entanglement", "--scenario", str(EXAMPLES / "entanglement.json"),
             "--out", str(out_path), "--format", "json"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["ere"]["value_nats"] == pytest.approx(LN2, abs=1e-3)
        assert blob["purification"]["ensemble_bound"] == pytest.approx(1.0, abs=1e-9)
        assert blob["purification"]["single_shot"] == pytest.approx(1.0, abs=1e-6)
        assert blob["purification"]["schumacher_rate"] == pytest.approx(0.0, abs=1e-9)
        # convergence trace lands next to the report
        trace = (tmp_path / "report.convergence.csv").read_text().strip().split("\n")
        assert trace[0] == "# seed=7"
        assert trace[1] == "iteration,objective,gap"

    def test_cli_overrides_solver_options(self, capsys):
        code, out, _ = run_cli(
            ["entanglement", "--scenario", str(EXAMPLES / "entanglement.json"),
             "--format", "json", "--max-iter", "3", "--gap-tol", "1e-12"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["ere"]["status"] == "iteration-cap"
        assert blob["ere"]["iterations"] <= 4

    def test_dimension_cap_exits_2(self, tmp_path, capsys):
        scenario = json.loads((EXAMPLES / "entanglement.json").read_text())
        scenario["dims"] = [5, 5]
        scenario["state"] = {"dim": 25, "re": [[1.0 / 25 if i == j else 0.0
                                                for j in range(25)] for i in range(25)]}
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(scenario))
        code, _, err = run_cli(["entanglement", "--scenario", str(bad)], capsys)
        assert code == 2


class TestSelftestCommand:
    def test_passes_and_is_deterministic(self, capsys):
        code, out1, _ = run_cli(["selftest", "--seed", "3"], capsys)
        assert code == 0
        assert out1.count("PASS") >= 4
        code, out2, _ = run_cli(["selftest", "--seed", "3"], capsys)
        assert code == 0
        assert out1 == out2

    def test_env_overrides_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("ERASURE_LAB_SEED", "5")
        _, out, _ = run_cli(["selftest", "--seed", "99"], capsys)
        assert "seed=5" in out

    def test_bad_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("ERASURE_LAB_SEED", "not-a-number")
        code, _, _ = run_cli(["selftest"], capsys)
        assert code == 2

    @pytest.mark.parametrize("seed", [91769488, 335907622])
    def test_free_energy_family_on_small_gibbs_weights(self, seed):
        # These seeds draw Gibbs weights near 1e-9, which ln(omega) needs to
        # full relative precision; the generator is advanced as run_selftest does.
        from erasure_lab import sampling, selftest

        gen = sampling.rng(seed)
        selftest._landauer_family(gen, 200)
        result = selftest._free_energy_family(gen, 200)
        assert result.passed, result.detail


@pytest.mark.parametrize("command", [
    ["erasure", "--scenario", str(EXAMPLES / "erasure.json")],
    ["demon", "--scenario", str(EXAMPLES / "demon_classical.json")],
    ["entanglement", "--scenario", str(EXAMPLES / "entanglement.json")],
    ["selftest"],
])
def test_csv_format_is_rejected(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "erasure_lab", "demon", "--scenario",
             str(EXAMPLES / "demon_classical.json")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "reset" in proc.stdout

    @pytest.mark.skipif(shutil.which("erasure-lab") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(
            ["erasure-lab", "erasure", "--scenario", str(EXAMPLES / "erasure.json")],
            capture_output=True, text=True)
        assert proc.returncode == 0
