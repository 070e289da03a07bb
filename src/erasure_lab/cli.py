"""Command-line surface: erasure | demon | entanglement | selftest.

Scenario files are JSON, validated against ``scenario.SCHEMAS``. Two output
formats: ``--format json`` prints strict JSON (no NaN or Infinity tokens),
``--format text`` (the default) human-readable tables; ledgers and traces are
written as CSV. Exit codes: 0 success, 2 malformed scenario (including
non-finite numbers), 3 numerical violation (which would indicate a bug, not
bad input).

The seed is resolved as: ERASURE_LAB_SEED environment variable, then --seed,
then the scenario's seed field, then 0; it is recorded in every report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import scenario as scenario_mod
from .demon import classical_cycle, qec_cycle, recovery_fidelity_vs_overlap
from .entanglement import (
    SolverOptions,
    entanglement_of_creation,
    purification_report,
    relative_entropy_of_entanglement,
)
from .entropy import EntropyValue, von_neumann_entropy
from .errors import InputError
from .scenario import ScenarioError, load_scenario
from .thermo import erasure_entropy

OK, USAGE_ERROR, VIOLATION = 0, 2, 3


def _resolve_seed(args, payload: dict | None) -> int:
    env = os.environ.get("ERASURE_LAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ScenarioError(f"ERASURE_LAB_SEED must be an integer, got {env!r}") from exc
    if args.seed is not None:
        return args.seed
    if payload is not None and "seed" in payload:
        return int(payload["seed"])
    return 0


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _to_json(report: dict) -> str:
    """Strict JSON: a non-finite value raises ValueError instead of printing NaN."""
    return json.dumps(report, indent=2, allow_nan=False)


def _emit(args, seed: int, command: str, json_report: dict, text_report: str) -> None:
    json_report = {"command": command, "seed": seed, **json_report}
    if args.format == "json":
        print(_to_json(json_report))
    else:
        print(f"# erasure-lab {command} seed={seed}")
        print(text_report, end="")
    if args.out:
        _write(args.out, _to_json(json_report) + "\n")


def cmd_erasure(args) -> int:
    payload = load_scenario(args.scenario, "erasure")
    seed = _resolve_seed(args, payload)
    state, ham, info_nats = scenario_mod.build_erasure_inputs(payload)
    info = EntropyValue(info_nats) if info_nats is not None else von_neumann_entropy(state)
    report = erasure_entropy(state, ham, info)
    rows = [
        ("apparatus entropy change (S(omega))", report.delta_app.nats),
        ("reservoir entropy change", report.delta_res),
        ("total erasure entropy", report.delta_total),
        ("information gain", report.info_gain.nats),
    ]
    text = "".join(f"{name:<40} {value:+.9f}\n" for name, value in rows)
    text += f"{'Landauer bound satisfied':<40} {report.landauer_satisfied}\n"
    _emit(args, seed, "erasure", {"report": report.to_json()}, text)
    return OK if report.landauer_satisfied else VIOLATION


def _demon_classical(args, payload, seed) -> int:
    ledger = classical_cycle(payload.get("error_probability", 0.5),
                             payload.get("temperature", 1.0))
    problems = ledger.check_cycle()
    csv_text = f"# seed={seed}\n" + ledger.to_csv()
    _write(args.out, csv_text)
    if args.format == "json":
        print(_to_json({"command": "demon", "seed": seed, "ledger": ledger.to_json(),
                        "violations": problems}))
    else:
        print(f"# erasure-lab demon seed={seed}")
        print(csv_text if not args.out else f"ledger written to {args.out}")
        for p in problems:
            print(f"VIOLATION: {p}")
    return VIOLATION if problems else OK


def _demon_qec(args, payload, seed) -> int:
    scenario = scenario_mod.build_qec_scenario(payload)
    result = qec_cycle(scenario)
    perfect_observation = scenario.overlap <= 1e-9
    problems = result.ledger.check_cycle(require_system_closure=perfect_observation)
    csv_text = f"# seed={seed}\n" + result.ledger.to_csv()
    _write(args.out, csv_text)
    summary = {
        "recovery_fidelity": result.recovery_fidelity,
        "gc_entropy": result.gc_entropy,
        "info_gain": result.info_gain,
        "apparatus_overlap": scenario.overlap,
    }
    if args.format == "json":
        print(_to_json({"command": "demon", "seed": seed, "ledger": result.ledger.to_json(),
                        **summary, "violations": problems}))
    else:
        print(f"# erasure-lab demon seed={seed}")
        if args.out:
            print(f"ledger written to {args.out}")
        else:
            print(csv_text, end="")
        for key, value in summary.items():
            print(f"{key:<20} {value:.9f}" if isinstance(value, float) else f"{key:<20} {value}")
        for p in problems:
            print(f"VIOLATION: {p}")
    return VIOLATION if problems else OK


def _demon_sweep(args, payload, seed) -> int:
    base = dict(payload)
    base.pop("overlaps", None)
    base.setdefault("apparatus_overlap", 0.0)
    template = scenario_mod.build_qec_scenario(base)
    rows = recovery_fidelity_vs_overlap(template, payload["overlaps"])
    lines = [f"# seed={seed}", "overlap,fidelity,erasure_entropy"]
    lines += [f"{r.overlap:.6g},{r.fidelity:.12g},{r.erasure_entropy:.12g}" for r in rows]
    csv_text = "\n".join(lines) + "\n"
    _write(args.out, csv_text)
    monotone = all(rows[i + 1].fidelity <= rows[i].fidelity + 1e-9 for i in range(len(rows) - 1))
    if args.format == "json":
        print(_to_json({
            "command": "demon", "seed": seed, "fidelity_monotone": monotone,
            "rows": [{"overlap": r.overlap, "fidelity": r.fidelity,
                      "erasure_entropy": r.erasure_entropy} for r in rows],
        }))
    else:
        print(f"# erasure-lab demon seed={seed}")
        print(csv_text if not args.out else f"sweep written to {args.out}")
        if not monotone:
            print("VIOLATION: fidelity column is not non-increasing")
    return OK if monotone else VIOLATION


def cmd_demon(args) -> int:
    payload = load_scenario(args.scenario, "demon")
    seed = _resolve_seed(args, payload)
    kind = payload["kind"]
    required = {
        "classical": ["error_probability"],
        "qec": ["codewords", "errors"],
        "overlap-sweep": ["codewords", "errors", "overlaps"],
    }
    missing = [key for key in required[kind] if key not in payload]
    if missing:
        raise ScenarioError(f"demon payload of kind {kind!r} is missing {missing}")
    if kind == "classical":
        return _demon_classical(args, payload, seed)
    if kind == "qec":
        return _demon_qec(args, payload, seed)
    return _demon_sweep(args, payload, seed)


def cmd_entanglement(args) -> int:
    payload = load_scenario(args.scenario, "entanglement")
    seed = _resolve_seed(args, payload)
    rho = scenario_mod.build_entanglement_state(payload)
    solver = payload.get("solver", {})
    defaults = SolverOptions()
    opts = SolverOptions(
        gap_tol=args.gap_tol if args.gap_tol is not None else solver.get("gap_tol", defaults.gap_tol),
        max_iter=args.max_iter if args.max_iter is not None else solver.get("max_iter", defaults.max_iter),
        seed=seed,
        max_factor_dim=solver.get("max_factor_dim", defaults.max_factor_dim),
        eoc_restarts=solver.get("restarts", defaults.eoc_restarts),
        eoc_max_steps=solver.get("eoc_max_steps", defaults.eoc_max_steps),
    )
    ere = relative_entropy_of_entanglement(rho, opts)
    n_target = payload.get("schmidt_target", 2)
    bounds = purification_report(rho, n_target, ere)
    report = {"ere": ere.to_json(), "purification": bounds.to_json()}
    if args.with_eoc or payload.get("with_eoc"):
        eoc = entanglement_of_creation(rho, opts)
        report["eoc"] = eoc.to_json()
    if args.out:
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        _write(stem + ".convergence.csv", f"# seed={seed}\n" + ere.convergence_csv())

    lines = [
        f"{'relative entropy of entanglement':<36} {ere.value:.9f} nats ({ere.status}, "
        f"{len(ere.convergence)} iterations)",
        f"{'ensemble purification bound':<36} {bounds.ensemble_bound:.9f}",
        f"{'schumacher rate':<36} {bounds.schumacher:.9f}",
    ]
    if bounds.single_shot is not None:
        lines.append(f"{'single-shot probability':<36} {bounds.single_shot:.9f}")
    if "eoc" in report:
        lines.append(f"{'entanglement of creation':<36} {report['eoc']['value_nats']:.9f} nats")
    _emit(args, seed, "entanglement", report, "\n".join(lines) + "\n")

    if bounds.single_shot is not None and bounds.single_shot > bounds.ensemble_bound + 1e-9:
        print("VIOLATION: single-shot probability exceeds the ensemble bound", file=sys.stderr)
        return VIOLATION
    return OK


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    seed = _resolve_seed(args, None)
    report, passed = run_selftest(seed)
    print(report, end="")
    _write(args.out, report)
    return OK if passed else VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erasure-lab",
        description="Entropy accounting for erasure, error-correction cycles and "
                    "entanglement purification bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_scenario=True):
        if needs_scenario:
            p.add_argument("--scenario", required=True, help="path to a JSON scenario file")
        p.add_argument("--out", help="path for the machine-readable report")
        p.add_argument("--seed", type=int, default=None,
                       help="PRNG seed (ERASURE_LAB_SEED overrides)")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("erasure", help="reservoir erasure entropy report")
    common(p)
    p.set_defaults(func=cmd_erasure)

    p = sub.add_parser("demon", help="classical or quantum error-correction ledger")
    common(p)
    p.set_defaults(func=cmd_demon)

    p = sub.add_parser("entanglement", help="entanglement measures and purification bounds")
    common(p)
    p.add_argument("--gap-tol", type=float, default=None,
                   help="gap target for the solvers (certified on 2x2)")
    p.add_argument("--max-iter", type=int, default=None,
                   help="iteration cap (barrier centring steps on 2x2, Frank-Wolfe steps elsewhere)")
    p.add_argument("--with-eoc", action="store_true", help="also optimize the creation measure")
    p.set_defaults(func=cmd_entanglement)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    common(p, needs_scenario=False)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
