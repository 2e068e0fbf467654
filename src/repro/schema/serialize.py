"""JSON (de)serialization for relations and probabilistic mappings.

A serialized p-mapping is self-contained: it embeds both relation schemas
(names and attribute types), so a JSON file plus a CSV of the source data
is everything ``repro-bench query`` needs to answer queries.  The format::

    {
      "source": {"name": "S1", "attributes": [
          {"name": "ID", "type": "int"}, ...]},
      "target": {"name": "T1", "attributes": [...]},
      "mappings": [
        {"name": "m11", "probability": 0.6,
         "correspondences": [{"source": "postedDate", "target": "date"}, ...]},
        ...
      ]
    }

Deserialization runs through the normal constructors, so Definition 1/2
validation (one-to-one, distinct mappings, probabilities summing to 1)
applies to loaded files exactly as to programmatic construction.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.exceptions import MappingError, SchemaError
from repro.schema.correspondence import AttributeCorrespondence
from repro.schema.mapping import PMapping, RelationMapping
from repro.schema.model import Attribute, AttributeType, Relation
from repro.storage.files import replace_atomically


def relation_to_dict(relation: Relation) -> dict:
    """A JSON-ready description of a relation schema."""
    return {
        "name": relation.name,
        "attributes": [
            {"name": attribute.name, "type": attribute.type.value}
            for attribute in relation
        ],
    }


def relation_from_dict(data: dict) -> Relation:
    """Rebuild a relation schema from :func:`relation_to_dict` output."""
    try:
        name = data["name"]
        attributes = data["attributes"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"malformed relation description: {data!r}") from exc
    built = []
    for entry in attributes:
        try:
            attribute_type = AttributeType(entry["type"])
        except (KeyError, ValueError, TypeError) as exc:
            raise SchemaError(
                f"malformed attribute description: {entry!r}"
            ) from exc
        built.append(Attribute(entry["name"], attribute_type))
    return Relation(name, built)


def pmapping_to_dict(pmapping: PMapping) -> dict:
    """A JSON-ready description of a probabilistic mapping."""
    return {
        "source": relation_to_dict(pmapping.source),
        "target": relation_to_dict(pmapping.target),
        "mappings": [
            {
                "name": mapping.name,
                "probability": probability,
                "correspondences": [
                    {"source": corr.source, "target": corr.target}
                    for corr in mapping.correspondences
                ],
            }
            for mapping, probability in pmapping
        ],
    }


def pmapping_from_dict(data: dict) -> PMapping:
    """Rebuild (and re-validate) a p-mapping from its dictionary form."""
    try:
        source = relation_from_dict(data["source"])
        target = relation_from_dict(data["target"])
        entries = data["mappings"]
    except (KeyError, TypeError) as exc:
        raise MappingError("malformed p-mapping description") from exc
    if not isinstance(entries, list):
        raise MappingError(
            f"malformed p-mapping description: \"mappings\" must be a list, "
            f"not {type(entries).__name__}"
        )
    alternatives = []
    for entry in entries:
        try:
            correspondences = [
                AttributeCorrespondence(corr["source"], corr["target"])
                for corr in entry["correspondences"]
            ]
            probability = entry["probability"]
        except (KeyError, TypeError) as exc:
            raise MappingError(
                f"malformed mapping description: {entry!r}"
            ) from exc
        mapping = RelationMapping(
            source, target, correspondences, name=entry.get("name")
        )
        alternatives.append((mapping, probability))
    return PMapping(source, target, alternatives)


def save_pmapping(pmapping: PMapping, path: str | Path) -> None:
    """Write a p-mapping to ``path`` as indented JSON, whole: a failed
    write leaves ``path`` as it was."""
    text = json.dumps(pmapping_to_dict(pmapping), indent=2)
    with replace_atomically(path) as handle:
        handle.write(text)


def load_pmapping(path: str | Path) -> PMapping:
    """Read a p-mapping written by :func:`save_pmapping` (re-validated)."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise MappingError(f"{path} is not valid JSON: {exc}") from exc
    return pmapping_from_dict(data)
