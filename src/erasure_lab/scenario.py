"""Scenario file loading and validation for the command-line interface.

Each command has a JSON schema; files are validated before any computation so
malformed input fails fast with a diagnostic (CLI exit code 2). Matrices use
the shared literal format {"dim": n, "re": [[...]], "im": [[...]]} (``im``
optional) and kets use {"re": [...], "im": [...]}.

jsonschema is imported on the first scenario load, not with this module, so
``selftest`` and ``--help`` never load it.
"""

from __future__ import annotations

import functools
import json
import math

from .demon import QecScenario, equal_overlap_states
from .errors import InputError
from .linalg import DensityOperator, TensorSpace, matrix_from_json, vector_from_json
from .thermo import HamiltonianSpec

__all__ = ["ScenarioError", "load_scenario", "SCHEMAS"]


class ScenarioError(InputError):
    """Malformed scenario file; maps to CLI exit code 2."""


_MATRIX = {
    "type": "object",
    "required": ["dim", "re"],
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "re": {"type": "array"},
        "im": {"type": "array"},
    },
}

_VECTOR = {
    "type": "object",
    "required": ["re"],
    "properties": {"re": {"type": "array"}, "im": {"type": "array"}},
}

_SOLVER = {
    "type": "object",
    "properties": {
        "gap_tol": {"type": "number", "exclusiveMinimum": 0},
        "max_iter": {"type": "integer", "minimum": 1},
    },
    "additionalProperties": False,
}

SCHEMAS = {
    "erasure": {
        "type": "object",
        "required": ["version", "state", "hamiltonian"],
        "properties": {
            "version": {"const": 1},
            "seed": {"type": "integer"},
            "state": _MATRIX,
            "hamiltonian": {
                "type": "object",
                "required": ["matrix", "beta"],
                "properties": {
                    "matrix": _MATRIX,
                    "beta": {"type": "number", "exclusiveMinimum": 0},
                },
            },
            "info_gain_nats": {"type": "number", "minimum": 0},
        },
        "additionalProperties": False,
    },
    "demon": {
        "type": "object",
        "required": ["version", "kind"],
        "properties": {
            "version": {"const": 1},
            "seed": {"type": "integer"},
            "kind": {"enum": ["classical", "qec", "overlap-sweep"]},
            "error_probability": {"type": "number", "minimum": 0, "maximum": 1},
            "temperature": {"type": "number", "exclusiveMinimum": 0},
            "codewords": {"type": "array", "items": _VECTOR, "minItems": 1},
            "errors": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["matrix", "weight"],
                    "properties": {
                        "matrix": _MATRIX,
                        "weight": {"type": "number", "minimum": 0},
                    },
                },
            },
            "input_state": _MATRIX,
            "input_ket": _VECTOR,
            "apparatus_overlap": {"type": "number", "minimum": 0, "maximum": 1},
            "overlaps": {
                "type": "array",
                "items": {"type": "number", "minimum": 0, "maximum": 1},
                "minItems": 1,
            },
        },
        "additionalProperties": False,
    },
    "entanglement": {
        "type": "object",
        "required": ["version", "state", "dims"],
        "properties": {
            "version": {"const": 1},
            "seed": {"type": "integer"},
            "state": _MATRIX,
            "dims": {
                "type": "array",
                "items": {"type": "integer", "minimum": 2},
                "minItems": 2,
                "maxItems": 2,
            },
            "schmidt_target": {"type": "integer", "minimum": 2},
            "with_eoc": {"type": "boolean"},
            "solver": _SOLVER,
        },
        "additionalProperties": False,
    },
}


def load_scenario(path: str, command: str) -> dict:
    """Read and schema-validate a scenario file for the given command."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=_non_finite, parse_float=_finite_float)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    if command not in SCHEMAS:
        raise ScenarioError(f"no scenario schema for command {command!r}")
    import jsonschema

    # best_match picks the same error, and so the same message, as jsonschema.validate.
    error = jsonschema.exceptions.best_match(_validator(command).iter_errors(payload))
    if error is not None:
        raise ScenarioError(
            f"scenario does not match the {command} schema: {error.message}") from error
    return _as_integers(SCHEMAS[command], payload)


def _as_integers(schema: dict, value):
    """value with each float at an "integer" node of schema made an int: JSON
    Schema counts 4000.0 as an integer, but range() and the reports do not."""
    if schema.get("type") == "integer" and isinstance(value, float):
        return int(value)
    if isinstance(value, dict):
        return {k: _as_integers(schema.get("properties", {}).get(k, {}), v) for k, v in value.items()}
    if isinstance(value, list) and "items" in schema:
        return [_as_integers(schema["items"], v) for v in value]
    return value


def _non_finite(token: str):
    raise ScenarioError(f"scenario file has a non-finite number: {token}")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):  # e.g. 1e400
        _non_finite(token)
    return value


@functools.cache
def _validator(command: str):
    """Validator for one command's schema, checked against its metaschema once."""
    import jsonschema

    schema = SCHEMAS[command]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def build_erasure_inputs(payload: dict) -> tuple[DensityOperator, HamiltonianSpec, float | None]:
    try:
        state = DensityOperator.from_matrix(matrix_from_json(payload["state"]))
        ham = HamiltonianSpec(matrix_from_json(payload["hamiltonian"]["matrix"]),
                              payload["hamiltonian"]["beta"])
    except InputError as exc:
        raise ScenarioError(str(exc)) from exc
    return state, ham, payload.get("info_gain_nats")


def build_qec_scenario(payload: dict) -> QecScenario:
    try:
        codewords = [vector_from_json(v) for v in payload["codewords"]]
        n_logical = len(codewords)
        if "input_ket" in payload:
            input_state = DensityOperator.from_ket(
                vector_from_json(payload["input_ket"]), TensorSpace.single("L", n_logical)
            )
        elif "input_state" in payload:
            input_state = DensityOperator.from_matrix(
                matrix_from_json(payload["input_state"]), TensorSpace.single("L", n_logical)
            )
        else:
            raise ScenarioError("qec payload needs input_state or input_ket")
        errors = [(matrix_from_json(e["matrix"]), e["weight"]) for e in payload["errors"]]
        states = equal_overlap_states(len(errors), payload.get("apparatus_overlap", 0.0))
        return QecScenario(
            codewords=tuple(codewords),
            input_state=input_state,
            errors=tuple(errors),
            apparatus_states=tuple(states),
        )
    except InputError as exc:
        raise ScenarioError(str(exc)) from exc


def build_entanglement_state(payload: dict) -> DensityOperator:
    dims = payload["dims"]
    space = TensorSpace.bipartite(int(dims[0]), int(dims[1]))
    try:
        return DensityOperator(space, matrix_from_json(payload["state"]))
    except InputError as exc:
        raise ScenarioError(str(exc)) from exc
