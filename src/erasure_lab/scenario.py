"""Scenario file loading and validation for the command-line interface.

Each command has a JSON schema; files are validated before any computation so
malformed input fails fast with a diagnostic (CLI exit code 2). Matrices use
the shared literal format {"dim": n, "re": [[...]], "im": [[...]]} (``im``
optional) and kets use {"re": [...], "im": [...]}.

The schemas use a small subset of JSON Schema, which one pass over the parsed
file checks (``_checked``) with jsonschema's semantics and messages, so no
command imports jsonschema; the tests keep it as the oracle.
"""

from __future__ import annotations

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
    """Read and schema-check a scenario file for the given command.

    On a file with several faults, the message names the first one met by a
    walk that checks each node before the values inside it, and those in file
    order. (jsonschema's best_match names the shallowest fault, and of several
    faulty siblings the last.)
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=_non_finite, parse_float=_finite_float)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError("scenario file nests too deeply to parse") from exc
    if command not in SCHEMAS:
        raise ScenarioError(f"no scenario schema for command {command!r}")
    return _checked(SCHEMAS[command], payload, command)


def _checked(schema: dict, value, command: str):
    """value checked against schema, with each float at an "integer" node made
    an int: JSON Schema counts 4000.0 as an integer, but range() and the
    reports do not. Descends only where schema has properties or items."""
    for keyword, arg in schema.items():
        fault = _fault(keyword, arg, value, schema)
        if fault is not None:
            raise ScenarioError(f"scenario does not match the {command} schema: {fault}")
    if isinstance(value, dict) and "properties" in schema:
        props = schema["properties"]
        return {k: _checked(props[k], v, command) if k in props else v for k, v in value.items()}
    if isinstance(value, list) and "items" in schema:
        return [_checked(schema["items"], v, command) for v in value]
    if schema.get("type") == "integer" and isinstance(value, float):
        return int(value)
    return value


def _fault(keyword: str, arg, value, schema: dict) -> str | None:
    """jsonschema's message if value breaks the keyword of schema, else None."""
    if keyword == "type":
        return None if _is_type(value, arg) else f"{value!r} is not of type {arg!r}"
    if keyword == "const":
        return None if _equal(value, arg) else f"{arg!r} was expected"
    if keyword == "enum":
        return None if any(_equal(value, each) for each in arg) else f"{value!r} is not one of {arg!r}"
    if keyword == "required" and isinstance(value, dict):
        missing = [key for key in arg if key not in value]
        return f"{missing[0]!r} is a required property" if missing else None
    if keyword == "additionalProperties" and arg is False and isinstance(value, dict):
        extras = sorted((key for key in value if key not in schema["properties"]), key=str)
        verb = "was" if len(extras) == 1 else "were"
        return (f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} "
                "unexpected)") if extras else None
    if keyword == "minItems" and isinstance(value, list) and len(value) < arg:
        return f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
    if keyword == "maxItems" and isinstance(value, list) and len(value) > arg:
        return f"{value!r} is too long"
    if not _is_type(value, "number"):
        return None
    if keyword == "minimum" and value < arg:
        return f"{value!r} is less than the minimum of {arg!r}"
    if keyword == "maximum" and value > arg:
        return f"{value!r} is greater than the maximum of {arg!r}"
    if keyword == "exclusiveMinimum" and value <= arg:
        return f"{value!r} is less than or equal to the minimum of {arg!r}"
    return None


_TYPES = {"object": dict, "array": list, "number": (int, float), "integer": int, "boolean": bool}


def _is_type(value, name: str) -> bool:
    """JSON Schema's type test: a boolean is neither a number nor an integer,
    and an integral float is an integer."""
    if isinstance(value, bool):
        return name == "boolean"
    if name == "integer" and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, _TYPES[name])


def _equal(value, expected) -> bool:
    """JSON Schema's equality on the scalars that const and enum hold: true is not 1."""
    return value == expected and isinstance(value, bool) == isinstance(expected, bool)


def _non_finite(token: str):
    raise ScenarioError(f"scenario file has a non-finite number: {token}")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):  # e.g. 1e400
        _non_finite(token)
    return value


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
