"""The matching automaton of one word over a symbol stream.

For a word ``w`` of length ``n`` the automaton is the Knuth-Morris-Pratt
table: node ``u`` means the longest suffix of the symbols read so far
that is a prefix of ``w`` has length ``u``, and node ``n`` is a match.
Row ``u`` of the table is row ``fail(u)`` (the node of ``w[1:u]``) with
the column of ``w[u]`` set to ``u + 1``, so the rows are built in order
from the rows before them.  The automaton carries no scan position, so
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

    def scan(self, symbols) -> list[int]:
        """End positions of every match of the word in ``symbols``."""
        n = len(self.word)
        state = 0
        out = []
        for i, sym in enumerate(symbols):
            state = self.step(state, int(sym))
            if state == n:
                out.append(i)
        return out


def build_automaton(word, alphabet_size: int | None = None) -> PatternAutomaton:
    """KMP automaton of ``word``.

    ``alphabet_size`` fixes a finite alphabet ``{0, ..., k-1}`` with one
    column per symbol; omit it for countable alphabets, which get columns
    for the symbols of the word plus a shared fallback column.
    """
    word = as_word(word)
    if alphabet_size is not None:
        for s in word:
            if s >= alphabet_size:
                raise InvalidSymbol(f"symbol {s} outside alphabet of size {alphabet_size}")
        columns = {s: s for s in range(alphabet_size)}
        other_col = None
    else:
        columns = {s: i for i, s in enumerate(sorted(set(word)))}
        other_col = len(columns)
    n = len(word)
    cols = [columns[s] for s in word]
    rows = [[0] * (len(columns) + (other_col is not None))]
    rows[0][cols[0]] = 1
    fail = 0  # fail(u): the node reached by w[1:u]
    for u in range(1, n + 1):
        row = rows[fail].copy()
        if u < n:
            row[cols[u]] = u + 1
            fail = rows[fail][cols[u]]
        rows.append(row)
    table = np.array(rows, dtype=np.intp)
    return PatternAutomaton(table=table, columns=columns, other_col=other_col, word=word)
