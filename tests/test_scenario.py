"""Scenario checking against jsonschema as the oracle.

``scenario`` checks files with its own pass over ``SCHEMAS``; these tests hold
that pass to jsonschema's verdicts and messages on every example file, each
mutated at one node at a time.
"""

import json
from pathlib import Path

import pytest

from erasure_lab import scenario as scenario_mod
from erasure_lab.scenario import SCHEMAS, ScenarioError

jsonschema = pytest.importorskip("jsonschema")

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
EXAMPLE_FILES = sorted(EXAMPLES.glob("*.json"))
CHECKED_KEYWORDS = {"type", "required", "properties", "additionalProperties", "items", "minItems",
                    "maxItems", "minimum", "maximum", "exclusiveMinimum", "const", "enum"}


def command_of(path: Path) -> str:
    return path.stem.split("_")[0]


def nodes(schema: dict, value, path=()):
    """Paths of the nodes of value that schema reaches, root first: not the
    entries of matrix and ket literals, which no schema describes."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from nodes(schema.get("properties", {}).get(key, {}), child, path + (key,))
    elif isinstance(value, list) and "items" in schema:
        for index, child in enumerate(value):
            yield from nodes(schema["items"], child, path + (index,))


def mutations(text: str, command: str):
    """(label, document) pairs, each the example changed at one node: set to
    one of several values, its key deleted, or an unknown top-level key added.
    Documents at one node share storage, so use each before taking the next."""
    yield "unknown top-level key", {**json.loads(text), "unknown": 1}
    for path in list(nodes(SCHEMAS[command], json.loads(text))):
        doc = json.loads(text)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        for value in [True, False, None, -1, 0, -0.0, 1.5, 4000.0, 4000.5, "x", [], [1, 2, 3], {}]:
            if path:
                parent[path[-1]] = value
                yield f"{path} = {value!r}", doc
            else:
                yield f"document = {value!r}", value
        if path and isinstance(parent, dict):
            del parent[path[-1]]
            yield f"del {path}", doc


def integer_nodes_hold_ints(schema: dict, value) -> bool:
    if schema.get("type") == "integer":
        return type(value) is int
    if isinstance(value, dict):
        props = schema.get("properties", {})
        return all(integer_nodes_hold_ints(props.get(k, {}), v) for k, v in value.items())
    if isinstance(value, list) and "items" in schema:
        return all(integer_nodes_hold_ints(schema["items"], v) for v in value)
    return True


@pytest.mark.parametrize("example", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_one_node_mutations_match_jsonschema(example):
    """Same verdict as jsonschema on each mutation, and on a rejection the
    message of the first of its shallowest errors, which is best_match's
    unless several siblings are at fault (then best_match takes the last)."""
    command = command_of(example)
    schema = SCHEMAS[command]
    validator = jsonschema.validators.validator_for(schema)(schema)
    disagreements = []
    for label, doc in mutations(example.read_text(), command):
        errors = list(validator.iter_errors(doc))
        try:
            result = scenario_mod._checked(schema, doc, command)
        except ScenarioError as exc:
            best = jsonschema.exceptions.best_match(errors)
            if best is None:
                disagreements.append(f"{label}: rejected ({exc}), jsonschema accepts")
                continue
            first = next(e for e in errors if len(e.path) == len(best.path))
            expected = f"scenario does not match the {command} schema: {first.message}"
            if str(exc) != expected:
                disagreements.append(f"{label}: {exc!s} != {expected}")
            continue
        if errors:
            disagreements.append(f"{label}: accepted, jsonschema says {errors[0].message}")
        elif result != doc or not integer_nodes_hold_ints(schema, result):
            disagreements.append(f"{label}: accepted as {result!r}")
    assert not disagreements, "\n".join(disagreements[:20])


def test_several_faults_name_the_first_in_walk_order():
    schema = SCHEMAS["demon"]
    doc = json.loads((EXAMPLES / "demon_sweep.json").read_text())
    doc["overlaps"] = [0.5, 2, 3]
    with pytest.raises(ScenarioError, match="2 is greater than the maximum of 1$"):
        scenario_mod._checked(schema, doc, "demon")
    best = jsonschema.exceptions.best_match(jsonschema.Draft202012Validator(schema).iter_errors(doc))
    assert best.message == "3 is greater than the maximum of 1"
    doc["unknown"] = 1  # a fault at the root comes before the faults inside it
    with pytest.raises(ScenarioError, match=r"\('unknown' was unexpected\)$"):
        scenario_mod._checked(schema, doc, "demon")


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_schemas_are_valid_json_schema(command):
    schema = SCHEMAS[command]
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_schemas_use_only_the_checked_keywords():
    def keywords(schema):
        yield from ((k, schema) for k in schema)
        for sub in schema.get("properties", {}).values():
            yield from keywords(sub)
        if "items" in schema:
            yield from keywords(schema["items"])

    used = [(k, node[k]) for schema in SCHEMAS.values() for k, node in keywords(schema)]
    assert {k for k, _ in used} <= CHECKED_KEYWORDS
    assert all(v is False for k, v in used if k == "additionalProperties")
