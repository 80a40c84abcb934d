"""Reading and writing matrices as CSV or JSON files.

CSV is real-only: one row per line, comma-separated decimal entries.
JSON carries {"rows": r, "cols": c, "data": [...]} with row-major data;
complex entries are two-element [re, im] arrays.  Writing uses repr()
floats, so both formats round-trip exactly.
"""

from __future__ import annotations

import json
import operator
import os
from itertools import chain

import numpy as np

from .errors import MixedField, NonFinite, ParseError
from .linalg import as_matrix


def _is_json(path: str) -> bool:
    """A .json name means JSON; any other name means CSV."""
    return os.path.splitext(path)[1].lower() == ".json"


def _parse_csv(text: str) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = []
        for tok in line.split(","):
            tok = tok.strip()
            try:
                row.append(float(tok))
            except ValueError:
                try:
                    complex(tok)
                except ValueError:
                    raise ParseError(
                        f"line {lineno}: bad entry {tok!r}") from None
                raise MixedField(
                    f"line {lineno}: complex entry {tok!r} in CSV; "
                    "use JSON for complex matrices") from None
        rows.append(row)
    if not rows:
        raise ParseError("no rows in CSV input")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("ragged CSV rows")
    return np.array(rows, dtype=np.float64)


def _parse_json(text: str) -> np.ndarray:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # also an integer too long to read
        raise ParseError(f"invalid JSON: {exc}") from None
    return matrix_from_jsonable(obj)


def _is_number(e) -> bool:
    return isinstance(e, (int, float)) and not isinstance(e, bool)


def _decode_entries(data: list) -> np.ndarray:
    """Entries as floats: shape (N,) when all are numbers, else (N, 2).

    Plain lists of numbers or of [re, im] pairs are converted by numpy
    in one call, pairs as one flat list; anything else (mixed entries,
    subclasses, bad entries) is checked one entry at a time.
    """
    kinds = set(map(type, data))
    if kinds <= {int, float}:
        return np.array(data, dtype=np.float64)
    if kinds == {list} and set(map(len, data)) == {2}:
        flat = list(chain.from_iterable(data))
        if set(map(type, flat)) <= {int, float}:
            return np.array(flat, dtype=np.float64).reshape(-1, 2)
    out = np.zeros((len(data), 2))
    is_complex = False
    for j, e in enumerate(data):
        if _is_number(e):
            out[j, 0] = e
        elif isinstance(e, list) and len(e) == 2 and all(map(_is_number, e)):
            out[j] = e
            is_complex = True
        else:
            raise ParseError(f"bad matrix entry {e!r}")
    return out if is_complex else out[:, 0].copy()


def matrix_from_jsonable(obj) -> np.ndarray:
    """Decode the {"rows", "cols", "data"} matrix object."""
    if not isinstance(obj, dict):
        raise ParseError("JSON matrix must be an object")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
        # operator.index refuses floats and strings, but bool is an int
        if isinstance(rows, bool) or isinstance(cols, bool):
            raise TypeError
        rows, cols = operator.index(rows), operator.index(cols)
    except (KeyError, TypeError):
        raise ParseError(
            "JSON matrix needs integer 'rows', 'cols' and a 'data' list"
        ) from None
    if rows < 1 or cols < 1:
        raise ParseError("rows and cols must be at least 1")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError(f"'data' must list {rows * cols} entries")
    try:
        arr = _decode_entries(data)
    except OverflowError:  # an integer beyond the float range
        raise NonFinite("matrix contains NaN or infinite entries") from None
    if arr.ndim == 2:  # contiguous [re, im] rows are complex128 bit for bit
        arr = arr.view(np.complex128)
    return arr.reshape(rows, cols)


def matrix_to_jsonable(m) -> dict:
    """Encode a matrix as the {"rows", "cols", "data"} object."""
    m = as_matrix(m)
    if np.iscomplexobj(m):
        data = np.stack([m.real, m.imag], axis=-1).reshape(-1, 2).tolist()
    else:
        data = m.ravel().tolist()
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def _basis_json(w, n: int) -> str:
    """JSON text of the n * d basis matrices of direction rows w (d x k).

    The bytes json.dumps writes for [matrix_to_jsonable(b) for b in
    FamilyBasis(w, n)], with no basis matrix built: element i * n + row
    is zero but for row `row`, equal to w[i], so each row of w and one
    zero row are encoded once and the elements are spliced from them.
    """
    w = as_matrix(w, allow_empty=True)
    rows = np.concatenate([np.zeros((1, w.shape[1]), w.dtype), w])
    if np.iscomplexobj(rows):
        rows = np.stack([rows.real, rows.imag], axis=-1)
    zero, *texts = (json.dumps(r)[1:-1] for r in rows.tolist())
    head = f'{{"rows": {n}, "cols": {w.shape[1]}, "data": ['
    before = [f"{zero}, " * row for row in range(n)]
    after = [f", {zero}" * (n - 1 - row) for row in range(n)]
    return "[" + ", ".join(f"{head}{before[row]}{text}{after[row]}]}}"
                           for text in texts for row in range(n)) + "]"


def read_matrix(path: str) -> np.ndarray:
    """Read a matrix file: JSON when the name ends in .json, else CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 text: {exc}") from None
    m = _parse_json(text) if _is_json(path) else _parse_csv(text)
    return as_matrix(m)


def write_matrix(m, path: str) -> None:
    """Write a matrix file as read_matrix reads it; complex is JSON-only."""
    m = as_matrix(m)
    if not _is_json(path):
        if np.iscomplexobj(m):
            raise MixedField("complex matrix cannot be written as CSV")
        text = "\n".join(",".join(repr(float(e)) for e in row) for row in m)
        text += "\n"
    else:
        text = json.dumps(matrix_to_jsonable(m), check_circular=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
