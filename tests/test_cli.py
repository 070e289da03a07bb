import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from erasure_lab import cli, demon
from erasure_lab import scenario as scenario_mod
from erasure_lab.cli import main

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
LN2 = math.log(2)


def bell_diagonal_scenario(weights):
    """A two-qubit entanglement scenario for sum_i w_i |Bell_i><Bell_i|."""
    scenario = json.loads((EXAMPLES / "entanglement.json").read_text())
    s = 2**-0.5
    bells = [[s, 0, 0, s], [s, 0, 0, -s], [0, s, s, 0], [0, s, -s, 0]]
    scenario["state"] = {"dim": 4, "re": [[sum(w * b[i] * b[j] for w, b in zip(weights, bells))
                                          for j in range(4)] for i in range(4)]}
    return scenario


def noisy_ket_scenario(b_sq=0.2, noise=0.1):
    """A two-qubit scenario for (1 - noise)|psi><psi| + noise I/4 with
    psi = sqrt(1 - b_sq)|00> + sqrt(b_sq)|11>: entangled and not Bell-diagonal
    in any local frame, so no closed form certifies its E_RE and the barrier runs."""
    scenario = json.loads((EXAMPLES / "entanglement.json").read_text())
    psi = np.array([math.sqrt(1.0 - b_sq), 0.0, 0.0, math.sqrt(b_sq)])
    matrix = (1.0 - noise) * np.outer(psi, psi) + noise * np.eye(4) / 4.0
    scenario["state"] = {"dim": 4, "re": matrix.tolist()}
    return scenario


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

    def test_pure_gibbs_state_reports_no_negative_zero(self, tmp_path, capsys):
        # at beta = 1e3 the Gibbs weights are (1, 0) to double precision
        text = (EXAMPLES / "erasure.json").read_text().replace('"beta": 1.0', '"beta": 1e3')
        path = tmp_path / "cold.json"
        path.write_text(text)
        for fmt in ("text", "json"):
            code, out, _ = run_cli(["erasure", "--scenario", str(path), "--format", fmt], capsys)
            assert code == 0
            assert "-0.0" not in out
        report = json.loads(out)["report"]
        assert report["delta_app"]["nats"] == 0.0
        assert report["landauer_satisfied"] is True
        assert report["delta_total"] >= report["info_gain"]["nats"]


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

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_certain_outcome_ledger_is_zero(self, p, tmp_path, capsys):
        scenario = json.loads((EXAMPLES / "demon_classical.json").read_text())
        scenario["error_probability"] = p
        path = tmp_path / "certain.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run_cli(["demon", "--scenario", str(path), "--format", "json"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["violations"] == []
        columns = ("dS_system", "dS_apparatus", "dS_garbage", "dF", "info_gain")
        assert all(step[c] == 0.0 for step in blob["ledger"]["steps"] for c in columns)
        assert all(blob["ledger"]["totals"][c] == 0.0 for c in columns)

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

    @pytest.mark.parametrize("field", ["codewords"])
    def test_ragged_vectors_exit_2(self, field, tmp_path, capsys):
        scenario = json.loads((EXAMPLES / "demon_qec.json").read_text())
        scenario[field][-1] = {"re": [1.0, 0.0, 0.0]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(scenario))
        code, _, err = run_cli(["demon", "--scenario", str(bad)], capsys)
        assert code == 2
        assert "scenario error" in err and "share one length" in err

    @pytest.mark.parametrize("overlap, projective", [(0.0, True), (5e-10, True), (2e-9, False)])
    def test_closure_is_demanded_exactly_for_a_projective_readout(self, overlap, projective,
                                                                   tmp_path, capsys, monkeypatch):
        # the readout and the CLI's closure check read one threshold; a Helstrom
        # readout diagonalises p1 |m1><m1| - p2 |m2><m2|, a projective one does not
        scenario = json.loads((EXAMPLES / "demon_qec.json").read_text())
        scenario["errors"] = [dict(e, weight=0.5) for e in scenario["errors"][:2]]
        scenario["apparatus_overlap"] = overlap
        path = tmp_path / "qec.json"
        path.write_text(json.dumps(scenario))
        helstrom, closure = [], []
        eig, check_cycle = demon.hermitian_eig, demon.EntropyLedger.check_cycle
        built = scenario_mod.build_qec_scenario(scenario)
        monkeypatch.setattr(demon, "hermitian_eig", lambda m: helstrom.append(m) or eig(m))
        demon._measurement_probabilities(built)
        monkeypatch.setattr(demon, "hermitian_eig", eig)

        def spy(ledger, require_system_closure=True):
            closure.append(require_system_closure)
            return check_cycle(ledger, require_system_closure=require_system_closure)
        monkeypatch.setattr(demon.EntropyLedger, "check_cycle", spy)
        code, _, _ = run_cli(["demon", "--scenario", str(path)], capsys)
        assert code == 0
        assert (not helstrom) == projective
        assert closure == [projective]


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

    def test_cli_overrides_solver_options(self, tmp_path, capsys):
        # an entangled state that no closed form certifies: pure, separable and
        # Bell-diagonal states are exact without the barrier
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(noisy_ket_scenario()))
        code, out, _ = run_cli(
            ["entanglement", "--scenario", str(path),
             "--format", "json", "--max-iter", "3", "--gap-tol", "1e-12"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["ere"]["status"] == "iteration-cap"
        assert blob["ere"]["iterations"] <= 4

    def test_solver_seed_exits_2(self, tmp_path, capsys):
        # the seed is a top-level field; a solver.seed would be silently ignored
        scenario = json.loads((EXAMPLES / "entanglement.json").read_text())
        scenario["solver"]["seed"] = 123
        bad = tmp_path / "seeded.json"
        bad.write_text(json.dumps(scenario))
        code, _, err = run_cli(["entanglement", "--scenario", str(bad)], capsys)
        assert code == 2
        assert "schema" in err and "seed" in err

    @pytest.mark.parametrize("key", ["max_factor_dim", "restarts", "eoc_max_steps"])
    def test_unsettable_solver_keys_exit_2(self, key, tmp_path, capsys):
        scenario = json.loads((EXAMPLES / "entanglement.json").read_text())
        scenario["solver"][key] = 4
        bad = tmp_path / "keyed.json"
        bad.write_text(json.dumps(scenario))
        code, _, err = run_cli(["entanglement", "--scenario", str(bad)], capsys)
        assert code == 2
        assert "schema" in err and key in err

    def test_integral_float_max_iter_runs(self, tmp_path, capsys):
        # JSON Schema counts 4000.0 as an integer; the barrier's range() needs an int
        scenario = noisy_ket_scenario()
        scenario["solver"]["max_iter"] = 4000.0
        path = tmp_path / "float_iter.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run_cli(["entanglement", "--scenario", str(path), "--format", "json"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["ere"]["status"] == "converged"
        assert blob["ere"]["iterations"] > 1

    def test_integral_float_schmidt_target_prints_an_integer(self, tmp_path, capsys):
        scenario = noisy_ket_scenario()
        scenario["schmidt_target"] = 2.0
        path = tmp_path / "float_target.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run_cli(["entanglement", "--scenario", str(path), "--format", "json"], capsys)
        assert code == 0
        assert '"N": 2,' in out
        assert json.loads(out)["purification"]["N"] == 2

    @pytest.mark.parametrize("field, value", [("max_iter", 4000.5), ("schmidt_target", 2.5)])
    def test_non_integral_float_exits_2(self, field, value, tmp_path, capsys):
        scenario = noisy_ket_scenario()
        if field == "max_iter":
            scenario["solver"][field] = value
        else:
            scenario[field] = value
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run_cli(["entanglement", "--scenario", str(path)], capsys)
        assert code == 2
        assert out == "" and "schema" in err

    def test_dimension_cap_exits_2(self, tmp_path, capsys):
        scenario = json.loads((EXAMPLES / "entanglement.json").read_text())
        scenario["dims"] = [5, 5]
        scenario["state"] = {"dim": 25, "re": [[1.0 / 25 if i == j else 0.0
                                                for j in range(25)] for i in range(25)]}
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(scenario))
        code, _, err = run_cli(["entanglement", "--scenario", str(bad)], capsys)
        assert code == 2

    @staticmethod
    def run_two_by_three(matrix, tmp_path, capsys):
        scenario = {"version": 1, "dims": [2, 3], "state": {"dim": 6, "re": matrix}}
        path = tmp_path / "state23.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run_cli(
            ["entanglement", "--scenario", str(path), "--format", "json"], capsys)
        assert code == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")
        return json.loads(out, parse_constant=refuse)

    def test_two_by_three_mixed_state_runs_the_barrier(self, tmp_path, capsys):
        # Bell-diagonal (0.8, 0.2) carried into 2x3 by |j> -> |j> on B
        a = [math.sqrt(0.4), 0.0, 0.0, 0.0, math.sqrt(0.4), 0.0]
        b = [0.0, math.sqrt(0.1), 0.0, math.sqrt(0.1), 0.0, 0.0]
        blob = self.run_two_by_three([[x * y + p * q for y, q in zip(a, b)] for x, p in zip(a, b)],
                                     tmp_path, capsys)
        assert blob["ere"]["status"] == "converged"
        assert blob["ere"]["mixture_terms"] is None
        assert blob["ere"]["final_gap"] <= 1e-5

    def test_two_by_three_ket_is_exact(self, tmp_path, capsys):
        psi = [math.sqrt(0.92), 0.0, 0.0, 0.0, math.sqrt(0.08), 0.0]
        blob = self.run_two_by_three([[a * b for b in psi] for a in psi], tmp_path, capsys)
        assert blob["ere"]["status"] == "converged"
        assert blob["ere"]["iterations"] == 1
        assert blob["ere"]["mixture_terms"] == 2
        assert blob["ere"]["final_gap"] <= 1e-12

    def test_classical_mixture_reports_two_terms(self, tmp_path, capsys):
        # (|00><00| + |11><11|)/2: Wootters' four kets are two repeated pairs
        scenario = {"version": 1, "dims": [2, 2],
                    "state": {"dim": 4, "re": np.diag([0.5, 0.0, 0.0, 0.5]).tolist()}}
        path = tmp_path / "classical.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run_cli(["entanglement", "--scenario", str(path), "--format", "json"],
                               capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["ere"]["value_nats"] == 0.0
        assert blob["ere"]["mixture_terms"] == 2


class TestOutFile:
    """What --out receives: the JSON report, or the CSV for demon."""

    @pytest.mark.parametrize("command, example", [("erasure", "erasure"),
                                                  ("entanglement", "entanglement")])
    def test_json_report_matches_stdout(self, command, example, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli([command, "--scenario", str(EXAMPLES / f"{example}.json"),
                                "--format", "json", "--out", str(out_path)], capsys)
        assert code == 0
        assert json.loads(out_path.read_text()) == json.loads(out)

    @pytest.mark.parametrize("example", ["demon_classical", "demon_qec", "demon_sweep"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_demon_csv_matches_text_mode(self, example, fmt, tmp_path, capsys):
        scenario = str(EXAMPLES / f"{example}.json")
        code, shown, _ = run_cli(["demon", "--scenario", scenario], capsys)
        assert code == 0
        header, body = shown.split("\n", 1)
        assert header == "# erasure-lab demon seed=7"
        out_path = tmp_path / "ledger.csv"
        code, out, _ = run_cli(["demon", "--scenario", scenario, "--format", fmt,
                                "--out", str(out_path)], capsys)
        assert code == 0
        csv_text = out_path.read_text()
        # every kind shows its CSV followed by one blank line
        assert csv_text.startswith("# seed=7\n") and body.startswith(csv_text + "\n")
        if fmt == "text":
            assert f"written to {out_path}\n" in out
            assert csv_text not in out
        else:
            assert "written to" not in out
            json.loads(out)


class TestSelftestCommand:
    def test_passes_and_is_deterministic(self, capsys):
        code, out1, _ = run_cli(["selftest", "--seed", "3"], capsys)
        assert code == 0
        assert out1.count("PASS") >= 4
        code, out2, _ = run_cli(["selftest", "--seed", "3"], capsys)
        assert code == 0
        assert out1 == out2

    @pytest.mark.parametrize("seed", [91769488, 335907622])
    def test_free_energy_family_on_small_gibbs_weights(self, seed):
        # These seeds draw Gibbs weights near 1e-9, which ln(omega) needs to
        # full relative precision; the generator is advanced as run_selftest does.
        from erasure_lab import sampling, selftest

        gen = sampling.rng(seed)
        selftest._landauer_family(gen, 200)
        result = selftest._free_energy_family(gen, 200)
        assert result.passed, result.detail

    @pytest.mark.parametrize("seed", [91769488, 335907622])
    def test_free_energy_rhs_matches_the_rotated_relative_entropy(self, seed):
        # S(rho || omega) from omega's exact eigensystem equals S(U^dag rho U ||
        # diag(Gibbs weights)), drawn pair by pair as _free_energy_family draws them
        from erasure_lab import sampling, selftest, thermo
        from erasure_lab.entropy import relative_entropy
        from erasure_lab.linalg import DensityOperator

        gen = sampling.rng(seed)
        selftest._landauer_family(gen, 200)
        pairs = selftest._pair_values(gen, 200)
        gen = sampling.rng(seed)
        selftest._pair_values(gen, 200)
        smallest = 1.0
        for k in range(200):
            d = int(gen.integers(2, 4))
            rho = sampling.random_density(gen, d)
            ham = thermo.HamiltonianSpec(sampling.random_hermitian(gen, d),
                                         beta=float(gen.uniform(0.2, 3.0)))
            rho_h = DensityOperator.from_matrix(ham.frame.conj().T @ rho.matrix @ ham.frame)
            omega_h = DensityOperator.from_matrix(np.diag(ham.gibbs_weights))
            expected = relative_entropy(rho_h, omega_h).nats
            assert pairs.relative_entropy[k] == pytest.approx(expected, rel=1e-12, abs=0.0)
            smallest = min(smallest, float(ham.gibbs_weights.min()))
        assert smallest < 1e-7  # Gibbs weights that ln(omega) must resolve

    @pytest.mark.parametrize("seed", range(5))
    def test_stacked_pairs_match_the_per_object_api(self, seed):
        # the stack kernels are the ones DensityOperator, HamiltonianSpec,
        # erasure_entropy and free_energy run on one pair
        from erasure_lab import sampling, selftest, thermo
        from erasure_lab.entropy import von_neumann_entropy

        pairs = selftest._pair_values(sampling.rng(seed), 200)
        gen = sampling.rng(seed)
        expected = []
        for _ in range(200):
            d = int(gen.integers(2, 4))
            rho = sampling.random_density(gen, d)
            ham = thermo.HamiltonianSpec(sampling.random_hermitian(gen, d),
                                         beta=float(gen.uniform(0.2, 3.0)))
            info = von_neumann_entropy(rho)
            report = thermo.erasure_entropy(rho, ham, info)
            expected.append((info.nats, report.delta_total, thermo.free_energy(rho, ham),
                             -ham.temperature * ham.log_partition, report.landauer_satisfied))
        entropy, cost, free, gibbs_free, satisfied = (np.array(column) for column in zip(*expected))
        for got, want in ((pairs.entropy, entropy), (pairs.erasure_cost, cost),
                          (pairs.free_energy, free), (pairs.gibbs_free_energy, gibbs_free)):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)
        assert np.array_equal(pairs.landauer_satisfied, satisfied)

    def test_landauer_violation_is_reported_by_draw_position(self, monkeypatch):
        # every pair of the dimension that the first pair lacks is made to
        # violate the bound; the report names the first of them in draw
        # order, not its place in its stack
        from erasure_lab import sampling, selftest

        gen = sampling.rng(0)
        dims = []
        for _ in range(200):
            dims.append(int(gen.integers(2, 4)))
            sampling.complex_gaussian(gen, (2, dims[-1], dims[-1]))
            gen.uniform(0.2, 3.0)
        violating = 5 - dims[0]
        entropy = selftest.spectrum_entropy
        monkeypatch.setattr(selftest, "spectrum_entropy",
                            lambda lam: entropy(lam) + 10.0 * (lam.shape[-1] == violating))
        result = selftest._landauer_family(sampling.rng(0), 200)
        assert not result.passed
        assert result.detail.startswith(f"pair {dims.index(violating)}: bound violated by 9.")

    def test_json_format_is_strict_json_and_out_gets_text(self, tmp_path, capsys):
        out_path = tmp_path / "selftest.txt"
        code, out, _ = run_cli(["selftest", "--seed", "1", "--format", "json",
                                "--out", str(out_path)], capsys)
        assert code == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")
        blob = json.loads(out, parse_constant=refuse)
        assert list(blob) == ["command", "seed", "families", "passed"]
        assert blob["command"] == "selftest" and blob["seed"] == 1 and blob["passed"] is True
        assert len(blob["families"]) == 5
        for family in blob["families"]:
            assert list(family) == ["name", "passed", "detail"]
            assert family["passed"] is True
        # --out receives the text report in either format
        text_out_path = tmp_path / "selftest-text.txt"
        code, text, _ = run_cli(["selftest", "--seed", "1", "--out", str(text_out_path)], capsys)
        assert code == 0
        assert out_path.read_text() == text_out_path.read_text() == text
        lines = text.splitlines()
        assert lines[0] == "# erasure-lab selftest seed=1"
        assert lines[1:-1] == [f"PASS {f['name']}: {f['detail']}" for f in blob["families"]]
        assert lines[-1] == "selftest: 5/5 families passed"


class TestOutOfRangeSettings:
    """Settings outside their range exit 2 before any solver or generator runs."""

    @pytest.fixture(autouse=True)
    def no_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a solver ran")
        monkeypatch.setattr("erasure_lab.cli.relative_entropy_of_entanglement", refuse)
        monkeypatch.setattr("erasure_lab.selftest.run_selftest", refuse)

    @pytest.mark.parametrize("flags", [
        ["--max-iter", "-1"], ["--max-iter", "0"],
        ["--gap-tol", "nan"], ["--gap-tol", "-1"], ["--gap-tol", "0"], ["--gap-tol", "inf"],
    ], ids=lambda flags: " ".join(flags))
    def test_solver_flag_exits_2(self, flags, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(bell_diagonal_scenario((0.8, 0.1, 0.05, 0.05))))
        code, out, err = run_cli(["entanglement", "--scenario", str(path)] + flags, capsys)
        assert code == 2
        assert out == "" and "input error" in err

    def test_negative_seed_flag_exits_2(self, capsys):
        code, out, err = run_cli(["selftest", "--seed", "-1"], capsys)
        assert code == 2
        assert out == "" and "seed must be nonnegative" in err

    def test_negative_scenario_seed_exits_2(self, tmp_path, capsys):
        # on 2x4 Frank-Wolfe would seed its oracle with it
        scenario = {"version": 1, "seed": -5, "dims": [2, 4],
                    "state": {"dim": 8, "re": (np.eye(8) / 8).tolist()}}
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps(scenario))
        code, out, err = run_cli(["entanglement", "--scenario", str(path)], capsys)
        assert code == 2
        assert out == "" and "seed must be nonnegative" in err


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


class TestParserReuse:
    """The parser is built once per process; the calls it serves share no state."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_consecutive_calls_share_no_state(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(["erasure", "--scenario", str(EXAMPLES / "erasure.json"),
                                "--seed", "5", "--format", "json", "--out", str(out_path)],
                               capsys)
        assert code == 0
        assert json.loads(out)["seed"] == 5
        out_path.unlink()

        code, out, _ = run_cli(["erasure", "--scenario", str(EXAMPLES / "erasure.json")], capsys)
        assert code == 0
        assert out.startswith("# erasure-lab erasure seed=7\n")  # the scenario's seed
        unseeded = json.loads((EXAMPLES / "erasure.json").read_text())
        del unseeded["seed"]
        path = tmp_path / "unseeded.json"
        path.write_text(json.dumps(unseeded))
        code, out, _ = run_cli(["erasure", "--scenario", str(path)], capsys)
        assert code == 0
        assert out.startswith("# erasure-lab erasure seed=0\n")
        assert list(tmp_path.iterdir()) == [path]


def test_jsonschema_is_imported_on_the_first_scenario_load(tmp_path):
    scenario = json.loads((EXAMPLES / "erasure.json").read_text())
    del scenario["hamiltonian"]["beta"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(scenario))
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        from erasure_lab import cli
        assert "jsonschema" not in sys.modules, "import"
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main(["--help"])
            except SystemExit:
                pass
            assert cli.main(["selftest"]) == 0
        assert "jsonschema" not in sys.modules, "selftest"
        sys.exit(cli.main(["erasure", "--scenario", {str(bad)!r}]))
    """)
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("scenario error: scenario does not match the erasure schema: "
                           "'beta' is a required property\n")


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
