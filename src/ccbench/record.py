"""Deterministic report rendering, as a machine record or as text.

Records are emitted as canonical JSON text: keys sorted, floats printed
with 17 significant digits, complex numbers as [re, im] pairs, and nothing
environment-dependent (no timestamps, no paths). Identical report dicts
therefore render to byte-identical output, which is the determinism
contract the CLI tests pin. The text report is the same canonical value
written as one ``path: value`` line per scalar leaf.
"""

from __future__ import annotations

import json
import math

import numpy as np


def canonicalize(obj):
    """Recursively convert to plain JSON-compatible Python values.

    numpy scalars and arrays are unwrapped; complex values become
    [re, im] pairs; sets are sorted. Anything else is a TypeError so a
    non-serializable object never silently truncates a report.
    """
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return canonicalize(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return [canonicalize(v) for v in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    raise TypeError(f"cannot render {type(obj).__name__} in a record")


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _scalar(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _fmt_float(v)
    return json.dumps(v, ensure_ascii=True)


def _is_scalar(v) -> bool:
    return not isinstance(v, (list, dict))


def _inline(v: list) -> bool:
    """A short list of scalars is written on one line in both formats."""
    return len(v) <= 8 and all(_is_scalar(e) for e in v)


def _render(obj, pieces: list, level: int) -> None:
    pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        keys = sorted(obj)
        pieces.append("{\n")
        for i, k in enumerate(keys):
            pieces.append("  " * (level + 1) + json.dumps(k) + ": ")
            _render(obj[k], pieces, level + 1)
            pieces.append(",\n" if i + 1 < len(keys) else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, list):
        if not obj:
            pieces.append("[]")
            return
        if _inline(obj):
            pieces.append("[" + ", ".join(_scalar(v) for v in obj) + "]")
            return
        pieces.append("[\n")
        for i, v in enumerate(obj):
            pieces.append("  " * (level + 1))
            _render(v, pieces, level + 1)
            pieces.append(",\n" if i + 1 < len(obj) else "\n")
        pieces.append(pad + "]")
    else:
        pieces.append(_scalar(obj))


def render_record(obj) -> str:
    """Canonical record text for a report dict; ends with one newline."""
    pieces: list[str] = []
    _render(canonicalize(obj), pieces, 0)
    return "".join(pieces) + "\n"


def _is_complex_matrix(v) -> bool:
    """Rows of one length whose entries are all [re, im] float pairs."""
    if not (isinstance(v, list) and v and isinstance(v[0], list) and v[0]):
        return False
    return all(
        isinstance(row, list)
        and len(row) == len(v[0])
        and all(isinstance(e, list) and len(e) == 2 and all(isinstance(p, float) for p in e) for e in row)
        for row in v
    )


def _text_scalar(v) -> str:
    return format(v, ".10g") if isinstance(v, float) else str(v)


def _text(obj, path: str, lines: list) -> None:
    if isinstance(obj, dict) and obj:
        for k in sorted(obj):
            _text(obj[k], f"{path}.{k}" if path else k, lines)
    elif _is_complex_matrix(obj):
        lines.append(f"{path}: <{len(obj)}x{len(obj[0])} matrix>")
    elif isinstance(obj, list) and not _inline(obj):
        for i, v in enumerate(obj):
            _text(v, f"{path}[{i}]", lines)
    elif isinstance(obj, list):
        lines.append(f"{path}: [{', '.join(map(_text_scalar, obj))}]")
    else:
        lines.append(f"{path}: {_text_scalar(obj)}")


def render_text(obj) -> str:
    """Text report: one ``path: value`` line per scalar leaf, keys sorted.

    Floats are written to 10 significant digits, a short list of scalars
    on one line, any other list one element per ``path[i]``, and a complex
    matrix by its shape, ``<9x9 matrix>`` (its entries are in the record).
    """
    lines: list[str] = []
    _text(canonicalize(obj), "", lines)
    return "".join(line + "\n" for line in lines)


def complex_matrix_record(mat) -> list:
    """Nested-list form of a complex matrix with [re, im] entries."""
    m = np.asarray(mat, dtype=complex)
    return [[[float(e.real), float(e.imag)] for e in row] for row in m]
