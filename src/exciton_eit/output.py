"""Deterministic CSV and JSON emission.

A table is one ordered mapping of column name to column, where a column
is a list or anything with ``.tolist()`` (a numpy array).  ``render``
turns every float cell into its decimal string once, so the same
rendered table feeds both writers and neither formats a number again.
All numbers are written with 17 significant digits and '.' as the
decimal separator; JSON carries numeric data as decimal strings so the
rendered bytes are identical across platforms and runs.  Every file
embeds the resolved parameter set that produced it.
"""

from __future__ import annotations

import json
from pathlib import Path

SCHEMA_VERSION = "2"


def fmt(x) -> str:
    """17-significant-digit decimal rendering of one real number."""
    return format(float(x), ".17g")


def _cells(column) -> list:
    """One column's cells, each float as ``fmt`` renders it and every
    other cell as it is."""
    cells = column.tolist() if hasattr(column, "tolist") else list(column)
    kinds = set(map(type, cells))
    if kinds == {float}:
        return ["%.17g" % x for x in cells]   # the same digits as fmt, faster
    if any(issubclass(kind, float) for kind in kinds):
        return [fmt(x) if isinstance(x, float) else x for x in cells]
    return cells


def render(table: dict) -> dict:
    """``table`` with every column rendered to the cells both files carry."""
    return {name: _cells(column) for name, column in table.items()}


def _provenance_value(v):
    if isinstance(v, float):
        return fmt(v)
    if isinstance(v, int):  # bool too
        return v
    if hasattr(v, "tolist"):
        return _provenance_value(v.tolist())
    if isinstance(v, (list, tuple)):
        return [_provenance_value(x) for x in v]
    if isinstance(v, dict):
        return {k: _provenance_value(x) for k, x in sorted(v.items())}
    return str(v)


def _provenance_comment_lines(params: dict) -> list[str]:
    lines = [f"# schema_version = {SCHEMA_VERSION}"]
    for key, value in sorted(params.items()):
        rendered = json.dumps(_provenance_value(value), sort_keys=True)
        lines.append(f"# {key} = {rendered}")
    return lines


def write_csv(path: Path, columns: dict, params: dict) -> None:
    """Write a provenance-headed CSV of named, equal-length columns: string
    cells as they are, every other cell as ``fmt`` renders it."""
    lines = _provenance_comment_lines(params)
    lines.append(",".join(columns))
    rows = list(zip(*(c.tolist() if hasattr(c, "tolist") else c for c in columns.values())))
    if rows:
        template = ",".join("%s" if isinstance(cell, str) else "%.17g" for cell in rows[0])
        lines.extend(template % row for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _json_entry(value) -> str:
    """``value`` as ``json.dumps(doc, sort_keys=True, indent=1)`` writes it
    as an entry of ``doc``.  A flat column's cells go through json's C
    encoder as one list, with the indented layout as the item separator."""
    cells = value.tolist() if hasattr(value, "tolist") else value
    if isinstance(cells, (list, tuple)) and cells:
        cells = _cells(cells)
        if set(map(type, cells)) <= {str, int, bool}:
            return "[\n  " + json.dumps(cells, separators=(",\n  ", ": "))[1:-1] + "\n ]"
    return json.dumps(_provenance_value(value), sort_keys=True, indent=1).replace("\n", "\n ")


def write_json(path: Path, payload: dict, params: dict) -> None:
    """Write a JSON document with numbers rendered as decimal strings."""
    doc = {"schema_version": SCHEMA_VERSION, "parameters": params, **payload}
    entries = ",\n".join(f" {json.dumps(key)}: {_json_entry(doc[key])}" for key in sorted(doc))
    _write_text(path, "{\n" + entries + "\n}\n")


def _write_text(path: Path, text: str) -> None:
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write output file {path}: {exc}") from exc
