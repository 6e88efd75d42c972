"""Stable, diff-friendly structured-text output.

Documents are JSON with sorted keys and an indent of two spaces; every float
is rounded to 12 significant digits before it is written, so identical runs
emit identical bytes. Dict keys are written as str(key), and lists,
tuples and 1-D or 2-D integer numpy arrays all become JSON arrays. An
IntBlocks value, an integer array given as the blocks it concatenates, is
written byte for byte as that array would be, one block at a time, so an
array too large to hold can still be a value.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Optional

import numpy as np


def round_sig(x: float) -> float:
    if x == 0.0:
        return 0.0
    return float(f"{x:.12g}")


def _scalar_text(obj: Any) -> Optional[str]:
    """JSON text of a scalar, None for a container; TypeError otherwise."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        x = round_sig(obj)
        if x != x:
            return "NaN"
        if x == math.inf:
            return "Infinity"
        if x == -math.inf:
            return "-Infinity"
        return float.__repr__(x)
    if isinstance(obj, (dict, list, tuple, IntBlocks)) or _is_int_array(obj):
        return None
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _is_int_array(obj: Any) -> bool:
    return isinstance(obj, np.ndarray) and obj.dtype.kind in "iu" and obj.ndim in (1, 2)


class IntBlocks:
    """An integer array given as the blocks it concatenates: make() returns
    an iterable of 1-D integer ndarrays, or of 2-D ones with the same
    number (at least one) of columns. Each write of the value calls make()
    again."""

    def __init__(self, make: Callable[[], Iterable[np.ndarray]]):
        self.make = make


# Members of an integer ndarray written by one write call.
BLOCK = 1024


def _int_array_format(obj: Any, inner: str) -> Optional[str]:
    """The %-template of one member when obj is a 1-D integer ndarray or a
    2-D one with columns; None otherwise. inner is the line break and
    indent of obj's members."""
    if not isinstance(obj, np.ndarray):
        return None
    if obj.ndim == 1:
        return "%d"
    if not obj.shape[1]:
        return None
    row_inner = inner + "  "
    return "[" + row_inner + ("," + row_inner).join(["%d"] * obj.shape[1]) + inner + "]"


def _write_value(obj: Any, write: Callable[[str], object], newline: str) -> None:
    """Write a container; newline is a line break plus the indent of the
    line the container opens on. Scalar members go out in one write with
    the separator before them; an integer ndarray (_int_array_format), or
    each array of an IntBlocks in turn, goes out BLOCK members per write,
    each block formatted by one %."""
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted({str(k): v for k, v in obj.items()}.items()):
            text = _scalar_text(value)
            head = sep + encode_basestring_ascii(key) + ": "
            if text is None:
                write(head)
                _write_value(value, write, inner)
            else:
                write(head + text)
            sep = "," + inner
        write(newline + "}")
        return
    inner = newline + "  "
    sep = "[" + inner
    if isinstance(obj, IntBlocks) or _int_array_format(obj, inner) is not None:
        for array in obj.make() if isinstance(obj, IntBlocks) else (obj,):
            fmt = _int_array_format(array, inner)
            for start in range(0, len(array), BLOCK):
                block = array[start:start + BLOCK]
                write(sep + ("," + inner).join([fmt] * len(block)) % tuple(block.ravel().tolist()))
                sep = "," + inner
    else:
        for value in obj:
            text = _scalar_text(value)
            if text is None:
                write(sep)
                _write_value(value, write, inner)
            else:
                write(sep + text)
            sep = "," + inner
    # The opening bracket went out with the first member, if there was one.
    write(newline + "]" if sep[0] == "," else "[]")


def write_stable(obj: Any, write: Callable[[str], object]) -> None:
    """Write stable_text(obj) through write, in pieces, in one pass over obj."""
    text = _scalar_text(obj)
    if text is None:
        _write_value(obj, write, "\n")
        write("\n")
    else:
        write(text + "\n")


def stable_text(obj: Any) -> str:
    """Key-sorted JSON with canonicalized floats, newline terminated."""
    chunks: list[str] = []
    write_stable(obj, chunks.append)
    return "".join(chunks)
