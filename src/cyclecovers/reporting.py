"""Stable, diff-friendly structured-text output.

Documents are JSON with sorted keys and an indent of two spaces; every float
is rounded to 12 significant digits before it is written, so identical runs
emit identical bytes. Dict keys are written as str(key), and lists and
tuples become JSON arrays. Integer numpy arrays are written only as an
IntBlocks value, an array of ids below a bound given as the blocks it
concatenates: byte for byte as the list of its values would be, one block
at a time, so an array too large to hold can still be a value. Ids are
written by id_text, which gathers their digits from a digit_table.
"""

from __future__ import annotations

import math
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

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
    if isinstance(obj, (dict, list, tuple, IntBlocks)):
        return None
    raise TypeError(f"cannot serialize {type(obj)!r}")


def digit_table(n: int) -> np.ndarray:
    """The decimal text of the ids 0..n-1 as an (n, w) uint8 table, w the
    width of n - 1: row i holds the ASCII digits of i, right-aligned, after
    NUL bytes. Built from the table of the ids i // 10, so no int array of
    n entries is made."""
    if n <= 10:
        return np.arange(48, 48 + max(n, 0), dtype=np.uint8)[:, None]
    high = digit_table(-(-n // 10))
    high[0] = 0  # ids below 10 have one digit
    table = np.empty((len(high), 10, high.shape[1] + 1), np.uint8)
    table[:, :, :-1] = high[:, None]
    table[:, :, -1] = np.arange(48, 58, dtype=np.uint8)
    return table.reshape(len(high) * 10, -1)[:n]


def check_ids(ids: np.ndarray, n: int) -> None:
    """ValueError unless every id of the integer array ids lies in 0..n-1,
    naming the largest id when it is n or more, else the least."""
    if ids.size:
        low, high = ids.min(), ids.max()
        if low < 0 or high >= n:
            raise ValueError(f"id {high if high >= n else low} out of range for n={n}")


def check_ints(values) -> None:
    """TypeError unless every entry of values, an integer ndarray or a
    sequence whose entries may be sequences in turn, is an int, a bool or a
    numpy integer or bool: numpy would truncate a float and parse a string."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "biu":
        return
    for v in values:
        if isinstance(v, (list, tuple, np.ndarray)):
            check_ints(v)
        elif not isinstance(v, (int, np.integer, np.bool_)):
            raise TypeError(f"expected integers, got {type(v).__name__} {v!r}")


def id_text(table: np.ndarray, ids: np.ndarray, seps: Sequence[str]) -> str:
    """The rows of the 2-D integer array ids as text, each row seps[0], its
    first id, seps[1], ..., its last id, seps[-1]: the separators with NUL
    bytes in the id slots, each column's digits taken from table
    (digit_table) into its slots, then every NUL dropped. ValueError for an
    id outside 0..len(table)-1, which the take would wrap or reject."""
    check_ids(ids, len(table))
    digits = table.view(f"V{table.shape[1]}")[:, 0]  # one item per id: a take moves whole rows
    row = ("\0" * digits.itemsize).join(seps).encode()
    text = np.frombuffer(bytearray(row * len(ids)), np.uint8).reshape(len(ids), len(row))
    for j, end in enumerate(accumulate(len(sep) + digits.itemsize for sep in seps[:-1])):
        text[:, end - digits.itemsize:end].view(digits.dtype)[:, 0] = digits.take(ids[:, j])
    return text[text != 0].tobytes().decode()


class IntBlocks:
    """An array of ids 0..bound-1 given as the blocks it concatenates:
    make() returns an iterable of 1-D integer ndarrays, or of 2-D ones with
    the same number (at least one) of columns. Each write of the value
    calls make() again."""

    def __init__(self, make: Callable[[], Iterable[np.ndarray]], bound: int):
        self.make = make
        self.bound = bound


# Members of an IntBlocks written by one write call.
BLOCK = 1024


def _member_texts(arrays: Iterable[Any], inner: str, table: np.ndarray) -> Iterator[str]:
    """The members of the arrays, BLOCK per text, each after "," and inner,
    the line break and indent of the members, by id_text from table.
    TypeError for an array that is not a 1-D or 2-D integer ndarray with
    columns, ValueError for one whose shape is not that of the first."""
    shape = None
    for array in arrays:
        if (not isinstance(array, np.ndarray) or array.dtype.kind not in "iu"
                or array.ndim not in (1, 2) or array.shape[1:] == (0,)):
            raise TypeError("a block of ints must be a 1-D or 2-D integer ndarray with columns")
        if shape is None:
            shape, row = array.shape[1:], inner + "  "
            seps = (["," + inner + "[" + row] + ["," + row] * (shape[0] - 1) + [inner + "]"]
                    if shape else ["," + inner, ""])
        elif array.shape[1:] != shape:
            raise ValueError(f"block of shape {array.shape} after blocks of {shape} columns")
        for start in range(0, len(array), BLOCK):
            block = array[start:start + BLOCK]
            yield id_text(table, block.reshape(len(block), -1), seps)


def _write_value(obj: Any, write: Callable[[str], object], newline: str) -> None:
    """Write a container; newline is a line break plus the indent of the
    line the container opens on. Scalar members go out in one write with
    the separator before them; an IntBlocks goes out BLOCK members per
    write (_member_texts)."""
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
    if isinstance(obj, IntBlocks):
        for text in _member_texts(obj.make(), inner, digit_table(obj.bound)):
            write(text if sep[0] == "," else "[" + text[1:])
            sep = ","
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
