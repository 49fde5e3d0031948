"""Deterministic CSV and JSON emission.

A table is one ordered mapping of column name to column (a numpy array or
a list); the same mapping feeds both writers, which convert each array
once with ``.tolist()``.  All numbers are written with 17 significant
digits and '.' as the decimal separator; JSON carries numeric data as
decimal strings so the rendered bytes are identical across platforms and
runs.  Every file embeds the resolved parameter set that produced it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SCHEMA_VERSION = "2"


def fmt(x) -> str:
    """17-significant-digit decimal rendering of one real number."""
    return format(float(x), ".17g")


def _provenance_value(v):
    if isinstance(v, float):
        return fmt(v)
    if isinstance(v, int):  # bool too
        return v
    if isinstance(v, np.ndarray):
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
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                      for c in columns.values())))
    if rows:
        template = ",".join("%s" if isinstance(cell, str) else "%.17g" for cell in rows[0])
        lines.extend(template % row for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def write_json(path: Path, payload: dict, params: dict) -> None:
    """Write a JSON document with numbers rendered as decimal strings."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "parameters": _provenance_value(params),
        **{k: _provenance_value(v) for k, v in payload.items()},
    }
    _write_text(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _write_text(path: Path, text: str) -> None:
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write output file {path}: {exc}") from exc
