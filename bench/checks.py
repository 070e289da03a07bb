"""Output checks for every benchmark operation.

Each function returns a list of problems, empty when the output is right.
Expected values come from ``oracles`` or from properties the method must
have (an upper bound that cannot undercut the exact value, a ledger that
closes); nothing is compared against a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math

import numpy as np

import oracles

EXACT = 1e-9        # identities the program evaluates in closed form
VALUE_SLACK = 1e-8  # a solver value is an upper bound; it may undercut by rounding only
REASSEMBLY = 1e-8   # max |sum_i p_i |psi_i><psi_i| - rho| entrywise
WOOTTERS = 3e-7     # the concurrence oracle is good to ~sqrt(eps) on rank-deficient states


def strict_json(text: str) -> dict:
    """Parse JSON, refusing the NaN and Infinity tokens json.loads accepts."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def _close(name: str, got: float, want: float, tol: float = EXACT) -> list[str]:
    if got is None or not abs(got - want) <= tol * max(1.0, abs(want)):
        return [f"{name} = {got}, expected {want} (tol {tol:g})"]
    return []


# ---------------------------------------------------------------------------
# cli-scenarios
# ---------------------------------------------------------------------------

def check_erasure(doc: dict, state: np.ndarray, hamiltonian: np.ndarray, beta: float) -> list[str]:
    report = doc["report"]
    cross, s_omega = oracles.gibbs_cross_entropy(state, hamiltonian, beta)
    info = oracles.entropy(state)
    problems = _close("delta_total", report["delta_total"], cross)
    problems += _close("delta_app", report["delta_app"]["nats"], s_omega)
    problems += _close("delta_app + delta_res", report["delta_app"]["nats"] + report["delta_res"], cross)
    problems += _close("info_gain", report["info_gain"]["nats"], info)
    if not report["delta_total"] >= info - EXACT:
        problems.append(f"Landauer bound broken: {report['delta_total']} < S(rho) = {info}")
    if report["landauer_satisfied"] is not True:
        problems.append("report says the Landauer bound is not satisfied")
    return problems


def _ledger_totals(ledger: dict) -> dict:
    cols = ("dS_system", "dS_apparatus", "dS_garbage", "info_gain")
    return {c: sum(step[c] for step in ledger["steps"]) for c in cols}


def _ledger_closes(ledger: dict) -> list[str]:
    t = _ledger_totals(ledger)
    problems = []
    if not abs(t["dS_system"]) <= EXACT:
        problems.append(f"system column sums to {t['dS_system']}")
    if not abs(t["dS_apparatus"]) <= EXACT:
        problems.append(f"apparatus column sums to {t['dS_apparatus']}")
    if not t["dS_garbage"] >= t["info_gain"] - EXACT:
        problems.append(f"garbage entropy {t['dS_garbage']} below info gain {t['info_gain']}")
    return problems


def check_classical(doc: dict, p: float, temperature: float) -> list[str]:
    h = oracles.binary_entropy(p)
    problems = []
    for step in doc["ledger"]["steps"]:
        for col in ("dS_system", "dS_apparatus", "dS_garbage", "info_gain"):
            v = step[col]
            if min(abs(v), abs(v - h), abs(v + h)) > EXACT:
                problems.append(f"{step['name']}.{col} = {v} is not 0 or +-h(p) = {h}")
        if min(abs(step["dF"]), abs(step["dF"] + temperature * h)) > EXACT:
            problems.append(f"{step['name']}.dF = {step['dF']} is not 0 or -T h(p)")
    problems += _ledger_closes(doc["ledger"])
    if doc["violations"]:
        problems.append(f"violations reported: {doc['violations']}")
    return problems


def check_qec(doc: dict, weights) -> list[str]:
    h = oracles.shannon(weights)
    problems = []
    if not doc["recovery_fidelity"] >= 1.0 - EXACT:
        problems.append(f"recovery fidelity {doc['recovery_fidelity']} below 1")
    problems += _close("gc_entropy", doc["gc_entropy"], h)
    problems += _close("info_gain", doc["info_gain"], h)
    problems += _ledger_closes(doc["ledger"])
    if doc["violations"]:
        problems.append(f"violations reported: {doc['violations']}")
    return problems


def check_sweep(doc: dict, overlaps) -> list[str]:
    rows = doc["rows"]
    problems = []
    if [r["overlap"] for r in rows] != list(overlaps):
        problems.append("sweep rows do not follow the requested overlaps")
    for r in rows:
        problems += _close(f"erasure entropy at a={r['overlap']}", r["erasure_entropy"],
                           oracles.binary_entropy((1.0 + r["overlap"]) / 2.0))
    fid = [r["fidelity"] for r in rows]
    if any(b > a + EXACT for a, b in zip(fid, fid[1:])):
        problems.append(f"fidelity increases with the overlap: {fid}")
    return problems


def check_selftest(rc: int, text: str) -> list[str]:
    lines = text.strip().splitlines()
    families = lines[1:-1]
    problems = [] if rc == 0 else [f"selftest exit code {rc}"]
    if not families:
        problems.append("selftest reported no families")
    problems += [f"selftest family failed: {ln}" for ln in families if not ln.startswith("PASS ")]
    n = len(families)
    if lines[-1] != f"selftest: {n}/{n} families passed":
        problems.append(f"unexpected selftest summary {lines[-1]!r}")
    return problems


# ---------------------------------------------------------------------------
# entanglement measures (library workloads and the CLI command)
# ---------------------------------------------------------------------------

def expected_measures(case) -> tuple[float | None, float | None]:
    """Closed-form (E_RE, E_C) of a generated state, None where none exists.

    Pure states: both equal S(rho_A). Bell-diagonal states, also when carried
    into 2x3 by a local isometry: Vedral-Plenio for E_RE and Wootters for E_C
    (both are invariant under local unitaries and isometries). Other two-qubit
    states: Wootters for E_C only.
    """
    if case.kind == "pure":
        s_a = oracles.entropy(oracles.partial_traces(case.matrix, case.dims)[0])
        return s_a, s_a
    if case.bell_weights is not None:
        return oracles.bell_diagonal_ere(case.bell_weights), oracles.wootters_eof(case.two_qubit)
    if case.dims == (2, 2):
        return None, oracles.wootters_eof(case.matrix)
    return None, None


def check_ere(case, value: float, status: str, final_gap: float, gap_tol: float,
              argmin_terms=None) -> list[str]:
    exact, _ = expected_measures(case)
    problems = []
    lower = oracles.ere_lower_bound(case.matrix, case.dims)
    if not value >= lower - VALUE_SLACK:
        problems.append(f"E_RE {value} below max(S_A, S_B) - S(rho) = {lower}")
    if exact is not None:
        if not value >= exact - VALUE_SLACK:
            problems.append(f"E_RE {value} undercuts the exact value {exact}")
        if status == "converged" and not value <= exact + max(final_gap, 0.0) + VALUE_SLACK:
            problems.append(f"E_RE {value} exceeds exact {exact} by more than its gap {final_gap}")
    if status == "converged" and not 0.0 <= final_gap <= gap_tol:
        problems.append(f"status converged with gap {final_gap} outside [0, {gap_tol}]")
    if argmin_terms is not None:
        sigma = oracles.mixture_matrix(argmin_terms)
        if not abs(np.trace(sigma).real - 1.0) <= EXACT:
            problems.append(f"argmin has trace {np.trace(sigma).real}")
        min_pt = oracles.min_pt_eigenvalue(sigma, case.dims)
        if not min_pt >= -EXACT:
            problems.append(f"argmin is not PPT: partial transpose eigenvalue {min_pt}")
        problems += _close("S(rho || argmin)", oracles.relative_entropy(case.matrix, sigma), value,
                           VALUE_SLACK)
    return problems


def check_eoc(case, value: float, status: str, gap: float | None, gap_tol: float,
              ere_value: float, branches=None) -> list[str]:
    _, exact = expected_measures(case)
    problems = []
    if not value >= ere_value - gap_tol:
        problems.append(f"E_C {value} below E_RE {ere_value} - gap_tol")
    if exact is not None and not value >= exact - WOOTTERS:
        problems.append(f"E_C {value} undercuts the exact value {exact}")
    if case.dims == (2, 2):
        problems += _close("E_C gap to Wootters", gap, value - exact, WOOTTERS)
        if status == "converged" and not value <= exact + gap_tol + WOOTTERS:
            problems.append(f"E_C {value} converged but is {value - exact} above Wootters")
    if branches is not None:
        dev = float(np.max(np.abs(oracles.decomposition_matrix(branches) - case.matrix)))
        if not dev <= REASSEMBLY:
            problems.append(f"E_C decomposition misses rho by {dev}")
        problems += _close("average branch entanglement",
                           oracles.branch_entanglement(branches, case.dims), value, VALUE_SLACK)
    return problems


def check_purification(case, ensemble_bound: float, single_shot, schumacher: float,
                       n_target: int, ere_value: float) -> list[str]:
    problems = _close("ensemble bound", ensemble_bound, min(1.0, ere_value / math.log(n_target)))
    problems += _close("Schumacher rate", schumacher, oracles.entropy(case.matrix) / math.log(n_target))
    if case.kind == "pure" and case.dims == (2, 2):
        want = 2.0 * float(np.min(oracles.schmidt_probabilities(case.ket, case.dims)))
        problems += _close("single-shot probability", single_shot, want)
    elif single_shot is not None:
        problems.append(f"single-shot probability {single_shot} reported for a mixed state")
    return problems


def check_library_op(case, ere, eoc, purification, gap_tol: float) -> list[str]:
    """All checks on one entangle-workload op (result objects from the library)."""
    problems = check_ere(case, ere.value, ere.status, ere.convergence[-1][2], gap_tol,
                         ere.argmin.terms if ere.argmin is not None else None)
    problems += check_eoc(case, eoc.value, eoc.status, eoc.gap, gap_tol, ere.value,
                          eoc.decomposition)
    problems += check_purification(case, purification.ensemble_bound, purification.single_shot,
                                   purification.schumacher, purification.n_target, ere.value)
    return problems


def check_cli_entanglement(doc: dict, case, gap_tol: float, n_target: int) -> list[str]:
    """The same checks on the CLI's JSON report, which carries values only."""
    ere, eoc, pur = doc["ere"], doc["eoc"], doc["purification"]
    problems = check_ere(case, ere["value_nats"], ere["status"], ere["final_gap"], gap_tol)
    problems += check_eoc(case, eoc["value_nats"], eoc["status"], eoc["gap"], gap_tol,
                          ere["value_nats"])
    problems += check_purification(case, pur["ensemble_bound"], pur["single_shot"],
                                   pur["schumacher_rate"], pur["N"], ere["value_nats"])
    return problems
