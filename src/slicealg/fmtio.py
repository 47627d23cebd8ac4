"""Deterministic JSON/CSV emission.

All floating values are written with 17 significant digits (``%.17g``),
which round-trips every finite IEEE double exactly and makes repeated
runs byte-identical; NaN and infinities are refused with ``ValueError``.
The JSON writer keeps dict insertion order and renders flat numeric
lists (e.g. quaternion quadruples) on one line.  CSV bodies are numeric
arrays: :func:`csv_chunks` formats them :data:`CSV_BLOCK` rows at a time
with one ``%.17g`` row template, which gives the bytes of
:func:`fmt_float` without a Python call per value, and :func:`write_csv`
streams those chunks to a file.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["fmt_float", "dumps_json", "dump_json", "load_json", "csv_chunks",
           "write_csv"]

# Rows formatted per string operation of the CSV writer.
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dumps_json(obj))


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def csv_chunks(header, rows):
    """The CSV text of ``header`` and numeric ``rows``, in chunks.

    ``rows`` is an (n, k) array or anything ``np.asarray`` turns into
    one.  Every value is written as :func:`fmt_float` writes it; a NaN or
    an infinity raises ``ValueError`` before any text is produced.
    """
    data = np.asarray(rows, dtype=float)
    bad = ~np.isfinite(data)
    if bad.any():
        raise ValueError(f"non-finite value in output: {float(data[bad][0])!r}")
    yield ",".join(header) + "\n"
    if data.size == 0:
        return
    line = ",".join(["%.17g"] * data.shape[1]) + "\n"
    for start in range(0, len(data), CSV_BLOCK):
        block = data[start:start + CSV_BLOCK]
        yield (line * len(block)) % tuple(block.ravel().tolist())


def write_csv(path, header, rows) -> None:
    """Write ``header`` and numeric ``rows`` to ``path`` (:func:`csv_chunks`)."""
    chunks = csv_chunks(header, rows)
    first = next(chunks)        # the values are checked before the file opens
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(first)
        fh.writelines(chunks)
