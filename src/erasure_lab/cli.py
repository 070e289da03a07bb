"""Command-line surface: erasure | demon | entanglement | selftest.

Scenario files are JSON, validated against ``scenario.SCHEMAS``. Two output
formats: ``--format json`` prints strict JSON (no NaN or Infinity tokens),
``--format text`` (the default) human-readable tables; ledgers and traces are
written as CSV. Exit codes: 0 success, 2 malformed scenario or option
(including non-finite numbers and out-of-range solver settings or seeds), 3
numerical violation (which would indicate a bug, not bad input).

The seed is --seed, else the scenario's seed field, else 0; it must be
nonnegative and is recorded in every report.

The argument parser is built once per process (``build_parser`` is cached);
every ``main`` call parses into a fresh namespace, so calls share no state.
jsonschema is imported on the first scenario load (see ``scenario``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
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
    seed = args.seed if args.seed is not None else int((payload or {}).get("seed", 0))
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    return seed


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _to_json(report: dict) -> str:
    """Strict JSON: a non-finite value raises ValueError instead of printing NaN."""
    return json.dumps(report, indent=2, allow_nan=False)


def _emit(args, seed: int, command: str, json_report: dict, text_report: str,
          out_text: str | None = None) -> None:
    """Print the report; ``--out`` receives ``out_text`` when given (the demon
    CSV, the selftest report), else the JSON."""
    json_report = {"command": command, "seed": seed, **json_report}
    if args.format == "json":
        print(_to_json(json_report))
    else:
        print(f"# erasure-lab {command} seed={seed}")
        print(text_report, end="")
    if args.out:
        _write(args.out, _to_json(json_report) + "\n" if out_text is None else out_text)


def _csv_shown(args, noun: str, csv_block: str) -> str:
    """Text mode shows a demon CSV in place, then a blank line, or names the
    ``--out`` file it went to."""
    return f"{noun} written to {args.out}\n" if args.out else csv_block + "\n"


def _violations(problems: list[str]) -> str:
    return "".join(f"VIOLATION: {p}\n" for p in problems)


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
    ledger = classical_cycle(payload["error_probability"], payload.get("temperature", 1.0))
    problems = ledger.check_cycle()
    csv_text = f"# seed={seed}\n" + ledger.to_csv()
    text = _csv_shown(args, "ledger", csv_text) + _violations(problems)
    _emit(args, seed, "demon", {"ledger": ledger.to_json(), "violations": problems}, text, csv_text)
    return VIOLATION if problems else OK


def _demon_qec(args, payload, seed) -> int:
    scenario = scenario_mod.build_qec_scenario(payload)
    result = qec_cycle(scenario)
    problems = result.ledger.check_cycle(require_system_closure=scenario.perfect_observation)
    csv_text = f"# seed={seed}\n" + result.ledger.to_csv()
    summary = {
        "recovery_fidelity": result.recovery_fidelity,
        "gc_entropy": result.gc_entropy,
        "info_gain": result.info_gain,
        "apparatus_overlap": scenario.overlap,
    }
    text = _csv_shown(args, "ledger", csv_text)
    text += "".join(f"{key:<20} {value:.9f}\n" for key, value in summary.items())
    text += _violations(problems)
    _emit(args, seed, "demon", {"ledger": result.ledger.to_json(), **summary,
                                "violations": problems}, text, csv_text)
    return VIOLATION if problems else OK


def _demon_sweep(args, payload, seed) -> int:
    template = scenario_mod.build_qec_scenario(payload)
    rows = recovery_fidelity_vs_overlap(template, payload["overlaps"])
    lines = [f"# seed={seed}", "overlap,fidelity,erasure_entropy"]
    lines += [f"{r.overlap:.6g},{r.fidelity:.12g},{r.erasure_entropy:.12g}" for r in rows]
    csv_text = "\n".join(lines) + "\n"
    monotone = all(rows[i + 1].fidelity <= rows[i].fidelity + 1e-9 for i in range(len(rows) - 1))
    text = _csv_shown(args, "sweep", csv_text)
    if not monotone:
        text += "VIOLATION: fidelity column is not non-increasing\n"
    report = {"fidelity_monotone": monotone,
              "rows": [{"overlap": r.overlap, "fidelity": r.fidelity,
                        "erasure_entropy": r.erasure_entropy} for r in rows]}
    _emit(args, seed, "demon", report, text, csv_text)
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
    flags = {"gap_tol": args.gap_tol, "max_iter": args.max_iter}
    settings = {**payload.get("solver", {}), **{k: v for k, v in flags.items() if v is not None}}
    opts = SolverOptions(seed=seed, **settings)  # the solver schema's keys are its field names
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
    results = run_selftest(seed)
    passed = all(r.passed for r in results)
    text = "".join(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}\n" for r in results)
    text += f"selftest: {sum(r.passed for r in results)}/{len(results)} families passed\n"
    report = {"families": [dataclasses.asdict(r) for r in results], "passed": passed}
    # --out receives the text report in either format
    _emit(args, seed, "selftest", report, text, f"# erasure-lab selftest seed={seed}\n" + text)
    return OK if passed else VIOLATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call; parsing leaves it unchanged."""
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
                       help="nonnegative PRNG seed (default: the scenario's seed, else 0)")
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
                   help="gap target for the solvers (certified on 2x2, 2x3 and 3x2); "
                        "pure states are exact on every shape and run no solver")
    p.add_argument("--max-iter", type=int, default=None,
                   help="iteration cap (barrier centring steps on 2x2, 2x3 and 3x2, "
                        "Frank-Wolfe steps beyond); pure states run no solver")
    p.add_argument("--with-eoc", action="store_true", help="also compute the creation measure "
                   "(closed form on two qubits, a random-restart descent on larger factors)")
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
