"""The matching automaton of one word over a symbol stream.

For a word ``w`` of length ``n`` the automaton is the Knuth-Morris-Pratt
table: node ``u`` means the longest suffix of the symbols read so far
that is a prefix of ``w`` has length ``u``, and node ``n`` is a match.
Row ``u`` of the table is row ``fail(u)`` (the node of ``w[1:u]``) with
the column of ``w[u]`` set to ``u + 1``, so the rows are built in order
from the rows before them, for a whole stack of equal-length words at
once (``build_tables``).  The automaton carries no scan position, so
one instance can serve any number of streams.

Countable alphabets get one column per symbol of ``w``, in sorted order,
plus a fallback column shared by every other symbol: such a symbol ends
any partial match, so it leads to node 0 from every node.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSymbol
from .words import Word, as_word


@dataclass(frozen=True)
class PatternAutomaton:
    """KMP table of one word: ``table[u, col]`` is the node after node ``u`` reads ``col``."""

    table: np.ndarray              # (n + 1, columns) intp; node n is the match
    columns: dict[int, int]        # symbol -> column of ``table``
    other_col: int | None          # column for symbols outside ``columns``
    word: Word

    def step(self, state: int, symbol: int) -> int:
        col = self.columns.get(symbol, self.other_col)
        if col is None:
            raise InvalidSymbol(f"symbol {symbol} outside the automaton alphabet")
        return int(self.table[state, col])


def _columns(word: Word, alphabet_size: int | None) -> tuple[dict[int, int], int | None]:
    """Symbol -> column map of ``word`` and its fallback column (``None`` on a finite alphabet)."""
    if alphabet_size is not None:
        return {s: s for s in range(alphabet_size)}, None
    columns = {s: i for i, s in enumerate(sorted(set(word)))}
    return columns, len(columns)


def build_tables(words, alphabet_size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """KMP tables of equal-length words, stacked: ``(tables, cols)``.

    ``words`` are symbol tuples (``as_word``).  ``tables[w]`` is word
    ``w``'s table, shape ``(n + 1, width)``, and ``cols[w, u]`` the
    column that ``words[w][u]`` reads.  Row ``u`` of every table is
    built at once from the rows before it.  On a countable alphabet the
    words have different column counts; the stack is as wide as the
    widest, and a narrower word's extra columns, like its fallback, lead
    to node 0 from every node.
    """
    if alphabet_size is None:
        maps = [_columns(w, None) for w in words]
        width = max(len(c) + 1 for c, _ in maps)
        cols = np.array([[c[s] for s in w] for w, (c, _) in zip(words, maps)], dtype=np.intp)
    else:
        width, cols = alphabet_size, np.array(words, dtype=np.intp)
        if cols.max(initial=0) >= width:
            raise InvalidSymbol(f"symbol {cols[cols >= width][0]} outside alphabet of size {width}")
    W, n = cols.shape
    # node-major while building: row u of every word is ``rows[u]``, and
    # ``at[u]`` the flat offsets of each word's column ``cols[:, u]`` in it
    rows = np.zeros((n + 1, W, width), dtype=np.intp)
    ar = np.arange(W)
    at = ar * width + cols.T
    rows[0].reshape(-1)[at[0]] = 1
    fail = np.zeros(W, dtype=np.intp)  # fail(u): the node reached by w[1:u]
    for u in range(1, n + 1):
        rows[u] = rows[fail, ar]
        if u < n:
            row = rows[u].reshape(-1)
            fail = row[at[u]]  # row fail(u)'s entry, just copied
            row[at[u]] = u + 1
    return np.ascontiguousarray(rows.transpose(1, 0, 2)), cols


def build_automaton(word, alphabet_size: int | None = None) -> PatternAutomaton:
    """KMP automaton of ``word``: the stack of one of ``build_tables``.

    ``alphabet_size`` fixes a finite alphabet ``{0, ..., k-1}`` with one
    column per symbol; omit it for countable alphabets, which get columns
    for the symbols of the word plus a shared fallback column.
    """
    word = as_word(word)
    tables, _ = build_tables([word], alphabet_size)
    columns, other_col = _columns(word, alphabet_size)
    return PatternAutomaton(table=tables[0], columns=columns, other_col=other_col, word=word)
