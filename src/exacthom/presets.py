"""Bundled group fixtures and the JSON schema for group data files.

A group file holds a multiplication table and one or more presentations:

    {
      "table": {"order": 2, "mult": [[0, 1], [1, 0]]},
      "presentations": [
        {"generators": ["a"], "relators": ["aa"], "assignment": [1]}
      ]
    }

Relators are strings over single-letter generator names with uppercase
meaning the inverse letter; assignment lists the 0-based element index each
generator maps to. The bundled presets each carry their minimal presentation
first and a second one with one redundant generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Any

from .errors import InputError
from .grouphom import FiniteGroupTable, FpGroupPresentation

__all__ = ["GroupPreset", "PRESET_NAMES", "load_preset", "decode_group_table", "decode_presentation", "decode_group_file"]

PRESET_NAMES = ("Z2", "Z3", "Z4", "Z2xZ2")


@dataclass(frozen=True)
class GroupPreset:
    name: str
    table: FiniteGroupTable
    presentations: tuple[FpGroupPresentation, ...]


def decode_group_table(obj: Any) -> FiniteGroupTable:
    if not isinstance(obj, dict) or "mult" not in obj:
        raise InputError("group table JSON needs a 'mult' field")
    table = FiniteGroupTable.from_mult(obj["mult"])
    if "order" in obj:
        order = obj["order"]
        if isinstance(order, bool) or not isinstance(order, int):
            raise InputError("group table field 'order' must be an integer")
        if order != table.order:
            raise InputError("declared order does not match the table size")
    return table


def _strings(obj: dict, field: str) -> list[str]:
    value = obj[field]
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise InputError(f"presentation field '{field}' must be a list of strings")
    return value


def decode_presentation(obj: Any, table: FiniteGroupTable) -> FpGroupPresentation:
    for field in ("generators", "relators", "assignment"):
        if not isinstance(obj, dict) or field not in obj:
            raise InputError(f"presentation JSON needs a '{field}' field")
    return FpGroupPresentation.from_strings(
        _strings(obj, "generators"), _strings(obj, "relators"), table, obj["assignment"]
    )


def decode_group_file(obj: Any, name: str = "group") -> GroupPreset:
    if not isinstance(obj, dict) or "table" not in obj or "presentations" not in obj:
        raise InputError("group file JSON needs 'table' and 'presentations' fields")
    table = decode_group_table(obj["table"])
    if not isinstance(obj["presentations"], list) or not obj["presentations"]:
        raise InputError("group file needs a nonempty 'presentations' list")
    presentations = tuple(decode_presentation(p, table) for p in obj["presentations"])
    return GroupPreset(str(obj.get("name", name)), table, presentations)


def load_preset(name: str) -> GroupPreset:
    if name not in PRESET_NAMES:
        raise InputError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    text = resources.files("exacthom").joinpath("data", f"{name}.json").read_text("utf-8")
    return decode_group_file(json.loads(text), name)
