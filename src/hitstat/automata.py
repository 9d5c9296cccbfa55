"""Multi-pattern matching automata over symbol streams.

The matcher is a standard Aho-Corasick automaton specialized to equal
length target words, stored as a dense goto table so the per-symbol cost
in scanning loops is one list index.  States are integers with 0 as the
root; the automaton itself is immutable after construction and carries
no scan position, so one instance can serve any number of concurrent
streams.

Countable alphabets are handled with a fallback column: any symbol that
appears in no target word leads back to the root from every state
(matching the failure-closure of the classical construction), so only
the symbols that actually occur in the patterns need real columns.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSymbol, MixedLengths
from .words import Word, as_word


@dataclass(frozen=True)
class PatternAutomaton:
    """Dense-table matcher for a set of equal-length words."""

    table: list[list[int]]
    terminal: list[int]            # word index ending at this state, else -1
    columns: dict[int, int]        # symbol -> column of ``table``
    other_col: int | None          # column for symbols outside ``columns``
    words: tuple[Word, ...]
    word_length: int

    @property
    def n_states(self) -> int:
        return len(self.table)

    def step(self, state: int, symbol: int) -> int:
        col = self.columns.get(symbol, self.other_col)
        if col is None:
            raise InvalidSymbol(f"symbol {symbol} outside the automaton alphabet")
        return self.table[state][col]

    def column_array(self, max_symbol: int) -> np.ndarray:
        """Vectorized symbol-to-column map for block scanning.

        Returns ``arr`` with ``arr[s]`` the column of symbol ``s`` for
        ``0 <= s <= max_symbol``; callers on countable alphabets clip
        their symbol blocks to ``max_symbol`` first (anything beyond the
        largest pattern symbol is fallback anyway, so clipping is exact).
        """
        if self.other_col is None:
            arr = np.arange(max_symbol + 1, dtype=np.intp)
            if max_symbol + 1 > len(self.columns):
                raise InvalidSymbol(f"symbol {max_symbol} outside the automaton alphabet")
            return arr
        arr = np.full(max_symbol + 1, self.other_col, dtype=np.intp)
        for sym, col in self.columns.items():
            if sym <= max_symbol:
                arr[sym] = col
        return arr

    def scan(self, symbols) -> list[tuple[int, int]]:
        """All matches in ``symbols`` as ``(end_position, word_index)``."""
        state = 0
        out = []
        for i, sym in enumerate(symbols):
            state = self.step(state, int(sym))
            w = self.terminal[state]
            if w >= 0:
                out.append((i, w))
        return out


def build_automaton(words, alphabet_size: int | None = None) -> PatternAutomaton:
    """Aho-Corasick automaton for one or more equal-length words.

    ``alphabet_size`` fixes a finite alphabet ``{0, ..., k-1}`` with one
    column per symbol; omit it for countable alphabets, which get columns
    for the symbols present in the words plus a shared fallback column.
    """
    parsed = tuple(as_word(w) for w in words)
    if not parsed:
        raise MixedLengths("need at least one target word")
    lengths = {len(w) for w in parsed}
    if len(lengths) != 1:
        raise MixedLengths(f"target words must share one length, got {sorted(lengths)}")
    if len(set(parsed)) != len(parsed):
        raise ValueError("duplicate target words")
    word_length = lengths.pop()

    if alphabet_size is not None:
        symbols = range(alphabet_size)
        for w in parsed:
            for s in w:
                if s >= alphabet_size:
                    raise InvalidSymbol(f"symbol {s} outside alphabet of size {alphabet_size}")
        columns = {s: s for s in symbols}
        other_col = None
        n_cols = alphabet_size
    else:
        present = sorted({s for w in parsed for s in w})
        columns = {s: i for i, s in enumerate(present)}
        other_col = len(present)
        n_cols = len(present) + 1

    # trie over columns
    goto: list[dict[int, int]] = [{}]
    terminal = [-1]
    for idx, w in enumerate(parsed):
        state = 0
        for s in w:
            col = columns[s]
            nxt = goto[state].get(col)
            if nxt is None:
                nxt = len(goto)
                goto[state][col] = nxt
                goto.append({})
                terminal.append(-1)
            state = nxt
        terminal[state] = idx

    # breadth-first failure links, flattened straight into the dense table
    table = [[0] * n_cols for _ in goto]
    fail = [0] * len(goto)
    queue = deque()
    for col, child in goto[0].items():
        table[0][col] = child
        queue.append(child)
    while queue:
        state = queue.popleft()
        f = fail[state]
        for col in range(n_cols):
            child = goto[state].get(col)
            if child is None:
                table[state][col] = table[f][col]
            else:
                fail[child] = table[f][col]
                table[state][col] = child
                queue.append(child)

    return PatternAutomaton(
        table=table,
        terminal=terminal,
        columns=columns,
        other_col=other_col,
        words=parsed,
        word_length=word_length,
    )
