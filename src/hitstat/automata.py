"""KMP tables: the matching automaton of a word over a symbol stream, as an array.

For a word ``w`` of length ``n`` the automaton is the Knuth-Morris-Pratt
table: ``table[u, col]`` is the node after node ``u`` reads column
``col``, node ``u`` meaning that the longest suffix of the symbols read
so far that is a prefix of ``w`` has length ``u``, and node ``n`` a
match.  Row ``u`` of the table is row ``fail(u)`` (the node of
``w[1:u]``) with the column of ``w[u]`` set to ``u + 1``, so the rows
are built in order from the rows before them, for a whole stack of
equal-length words at once (``build_tables``); ``build_automaton`` is
the stack of one.  A table carries no scan position, so one table can
serve any number of streams.

The alphabet is finite, ``{0, ..., k-1}``, and a column is the symbol
itself.  A countable alphabet is lumped to a finite one before a table
is built, by the exact layer (``exact._lump``).
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidSymbol
from .words import as_word


def build_tables(words, alphabet_size: int) -> tuple[np.ndarray, np.ndarray]:
    """KMP tables of equal-length words over ``{0, ..., alphabet_size-1}``, stacked: ``(tables, cols)``.

    ``words`` are symbol tuples (``as_word``).  ``tables[w]`` is word
    ``w``'s table, shape ``(n + 1, alphabet_size)``, and ``cols[w, u]``
    the column that ``words[w][u]`` reads, the symbol itself.  Row ``u``
    of every table is built at once from the rows before it.
    """
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


def build_automaton(word, alphabet_size: int) -> tuple[np.ndarray, np.ndarray]:
    """KMP table of ``word`` over ``{0, ..., alphabet_size-1}``: ``build_tables`` of the stack of one."""
    return build_tables([as_word(word)], alphabet_size)
