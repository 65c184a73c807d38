"""The one writer of every deterministic CSV and JSON artifact.

Cells are formatted by type alone (floats with ``repr``, so they read
back exactly); any other type is an error rather than a guess.  Files
are utf-8 with ``"\\n"`` newlines, so equal inputs give equal bytes.
README "File formats" states the table layout.
"""

from __future__ import annotations

import json


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, str):
        return value
    raise TypeError(f"no table format for {type(value).__name__} value {value!r}")


def table_text(magic: str, columns, rows, header=()) -> str:
    """The table as text; each row maps every column name to its value."""
    lines = [f"# {magic}", *(f"# {line}" for line in header), ",".join(columns)]
    lines += [",".join(format_cell(row[key]) for key in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _open(path, mode: str = "w"):
    return open(path, mode, encoding="utf-8", newline="\n")


def write_text(path, text: str) -> None:
    with _open(path) as fh:
        fh.write(text)


def append_text(path, text: str) -> None:
    """Append to the run.log sidecar, the one file that is not deterministic."""
    with _open(path, "a") as fh:
        fh.write(text)


def write_json(path, doc) -> None:
    with _open(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
