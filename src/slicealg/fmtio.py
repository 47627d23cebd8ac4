"""Deterministic JSON/CSV emission, and the package's file access.

All floating values are written with 17 significant digits (``%.17g``),
which round-trips every finite IEEE double exactly and makes repeated
runs byte-identical; NaN and infinities are refused with ``ValueError``.
The JSON writer keeps dict insertion order and renders flat numeric
lists (e.g. quaternion quadruples) on one line.  CSV bodies are numeric
arrays: :func:`csv_chunks` formats each distinct value of a column once,
matched by bit pattern (so -0.0 and 0.0 stay apart): the distinct values
of a column that repeats values in one ``%.17g`` operation, and the values
of a column with none in a ``%.17g`` slot of the row template, which it
fills :data:`CSV_BLOCK` rows at a time.  That gives the bytes of
:func:`fmt_float` without a Python call per value; :func:`write_csv`
streams those chunks to a file.

Files are read by :func:`read_text` and :func:`load_json`, and written
by :func:`write_text`; each turns a failure into one error that names the
path: an :class:`IoError` (an ``OSError``), or a :class:`ParseError` (a
``ValueError``) for a file that is not UTF-8 (or not JSON).  Each JSON
record is read by :func:`record_fields`, each array by :func:`array_from_json`.
"""

from __future__ import annotations

import itertools
import json
import math
import os

from .errors import IoError, ParseError, SliceAlgError

__all__ = ["fmt_float", "dumps_json", "dump_json", "read_text", "load_json",
           "int_from_json", "float_from_json", "array_from_json",
           "record_fields", "write_text", "csv_chunks", "write_csv"]

# Rows filled into the CSV row template per string operation.
CSV_BLOCK = 4096


def fmt_float(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value in output: {value!r}")
    return format(value, ".17g")


def _is_flat_numbers(obj) -> bool:
    return isinstance(obj, (list, tuple)) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj
    )


def _emit(obj, lines, indent):
    pad = "  " * indent
    if obj is None:
        lines.append("null")
    elif isinstance(obj, bool):
        lines.append("true" if obj else "false")
    elif isinstance(obj, str):
        lines.append(json.dumps(obj))
    elif isinstance(obj, int):
        lines.append(repr(obj))
    elif isinstance(obj, float):
        lines.append(fmt_float(obj))
    elif _is_flat_numbers(obj):
        inner = ", ".join(
            repr(v) if isinstance(v, int) else fmt_float(v) for v in obj
        )
        lines.append(f"[{inner}]")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            lines.append("[]")
            return
        lines.append("[\n")
        for n, item in enumerate(obj):
            lines.append(pad + "  ")
            _emit(item, lines, indent + 1)
            lines.append(",\n" if n + 1 < len(obj) else "\n")
        lines.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            lines.append("{}")
            return
        lines.append("{\n")
        items = list(obj.items())
        for n, (key, item) in enumerate(items):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            lines.append(pad + "  " + json.dumps(key) + ": ")
            _emit(item, lines, indent + 1)
            lines.append(",\n" if n + 1 < len(items) else "\n")
        lines.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} deterministically")


def dumps_json(obj) -> str:
    lines = []
    _emit(obj, lines, 0)
    lines.append("\n")
    return "".join(lines)


def dump_json(obj, path) -> None:
    write_text(path, [dumps_json(obj)])


def read_text(path) -> str:
    """The text of the UTF-8 file ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_json(path):
    """The JSON document in the file ``path``."""
    text = read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _json_type(value) -> str:
    """The JSON type that a refusal names in place of a wrong-typed value."""
    return {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
            int: "a number", float: "a number", type(None): "null",
            }.get(type(value), type(value).__name__)


def _json_number(value, what: str):
    """``value`` if it is a JSON number: int() and float() would read the
    string "2" as 2."""
    if not isinstance(value, (int, float)):
        raise ParseError(f"bad {what}: expected a JSON number, got {_json_type(value)}")
    return value


def int_from_json(value, what: str) -> int:
    """``int(value)``, which would read a string, truncate a fraction or
    read a boolean."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ParseError(f"{what} must be an integer, got {json.dumps(value)}")
    return int(_json_number(value, what))


def float_from_json(value, what: str) -> float:
    """``float(value)``, which would read a string, a boolean as 0.0 or 1.0,
    and an integer beyond the float range as an ``OverflowError``."""
    if isinstance(value, bool):
        raise ParseError(f"{what} must be a number, got {json.dumps(value)}")
    try:
        return float(_json_number(value, what))
    except OverflowError as exc:
        raise ParseError(f"bad {what}: integer beyond the float range") from exc


def array_from_json(value, what: str, item, length=None) -> tuple:
    """The JSON array ``value`` (of ``length`` entries, if given), entry n read
    by ``item(v, f"{what}[{n}]")``; anything else is refused by its JSON type."""
    if isinstance(value, list) and length in (None, len(value)):
        return tuple(item(v, f"{what}[{n}]") for n, v in enumerate(value))
    got = f"{len(value)} entries" if isinstance(value, list) else _json_type(value)
    size = "" if length is None else f" of {length} entries"
    raise ParseError(f"bad {what}: expected a JSON array{size}, got {got}")


def record_fields(rec, fields: dict, what: str, required=()) -> dict:
    """The fields of the keys in the JSON object ``rec``, by ``fields``:
    key -> (field, convert).  A missing ``required`` key and an unknown
    (misspelt) key are refused with ``what`` first; a converter's
    :class:`SliceAlgError` passes unchanged."""
    if not isinstance(rec, dict) or not all(key in rec for key in required):
        keys = " with keys " + ", ".join(required) if required else ""
        raise ParseError(f"{what}: expected a JSON object{keys}")
    for key in rec:
        if key not in fields:
            raise ParseError(f"{what}: unknown key {key!r}; accepted keys: "
                             + ", ".join(fields))
    try:
        return {field: convert(rec[key])
                for key, (field, convert) in fields.items() if key in rec}
    except SliceAlgError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what}: {exc}") from exc


def write_text(path, chunks) -> None:
    """Write the strings ``chunks`` to the file ``path``, creating its
    directory if it is missing."""
    try:
        parent = os.path.dirname(os.fspath(path))
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def csv_chunks(header, rows):
    """The CSV text of ``header`` and numeric ``rows``, in chunks.

    ``rows`` is an (n, k) array or anything ``np.asarray`` turns into
    one.  Every value is written as :func:`fmt_float` writes it; a NaN or
    an infinity raises ``ValueError`` before any text is produced.

    A column that repeats values (grid coordinates, a solution at nodes
    the grid's symmetry maps onto each other) has each distinct bit
    pattern formatted once and a ``%s`` slot in the row template; a
    column with none keeps a ``%.17g`` slot on its floats.
    """
    import numpy as np
    data = np.asarray(rows, dtype=float)
    bad = ~np.isfinite(data)
    if bad.any():
        raise ValueError(f"non-finite value in output: {float(data[bad][0])!r}")
    yield ",".join(header) + "\n"
    if data.size == 0:
        return
    slots, columns = [], []       # (values, index of each row's value)
    for bits in data.view(np.uint64).T:
        keys, inverse = np.unique(bits, return_inverse=True)
        values = keys.view(float)
        if keys.size == len(bits):
            slots.append("%.17g")
        else:
            slots.append("%s")
            text = "%.17g\n" * keys.size % tuple(values.tolist())
            values = np.array(text.split("\n"), dtype=object)
        columns.append((values, inverse))
    line = ",".join(slots) + "\n"
    for start in range(0, len(data), CSV_BLOCK):
        part = slice(start, start + CSV_BLOCK)
        block = np.column_stack([values[index[part]] for values, index in columns])
        yield (line * len(block)) % tuple(block.ravel().tolist())


def write_csv(path, header, rows) -> None:
    """Write ``header`` and numeric ``rows`` to ``path`` (:func:`csv_chunks`)."""
    chunks = csv_chunks(header, rows)
    first = next(chunks)        # the values are checked before the file opens
    write_text(path, itertools.chain([first], chunks))
