"""Finite words over a symbolic alphabet.

Words are plain tuples of non-negative symbol indices.  String forms like
``"0110"`` are accepted wherever a word is expected, one digit per symbol,
which covers every alphabet up to size ten.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import InvalidSymbol

Word = tuple[int, ...]


def as_word(w: Sequence[int] | Iterable[int] | str) -> Word:
    """Normalize ``w`` to a tuple of symbol indices.

    Accepts a digit string, any iterable of integers, or an existing word.
    Raises ``InvalidSymbol`` on negative or non-integer entries and
    ``ValueError`` on the empty word.
    """
    if isinstance(w, str):
        if not w:
            raise ValueError("word must have length >= 1")
        if not w.isdigit():
            raise InvalidSymbol(f"word string must be decimal digits, got {w!r}")
        symbols = tuple(int(c) for c in w)
    else:
        raw = tuple(w)
        try:  # int() truncates a float: a symbol it changes was no integer
            symbols = tuple(int(s) for s in raw)
        except (OverflowError, TypeError, ValueError):  # an infinite float, a NaN, None or a non-digit string
            symbols = None
        if symbols != raw:
            raise InvalidSymbol(f"symbol indices must be integers, got {list(raw)!r}")
        if len(symbols) == 0:
            raise ValueError("word must have length >= 1")
    for s in symbols:
        if s < 0:
            raise InvalidSymbol(f"symbol index must be >= 0, got {s}")
    return symbols


def word_str(w: Sequence[int]) -> str:
    """Compact display form: digits when possible, else dash-joined."""
    if all(0 <= s <= 9 for s in w):
        return "".join(str(s) for s in w)
    return "-".join(str(s) for s in w)
