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

A finite alphabet's column is the symbol itself.  Countable alphabets
get one column per symbol of ``w``, in sorted order, plus a fallback
column shared by every other symbol: such a symbol ends any partial
match, so it leads to node 0 from every node.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidSymbol
from .words import as_word


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
        maps = [{s: i for i, s in enumerate(sorted(set(w)))} for w in words]
        width = max(len(c) + 1 for c in maps)
        cols = np.array([[c[s] for s in w] for w, c in zip(words, maps)], dtype=np.intp)
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


def build_automaton(word, alphabet_size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """KMP table of ``word``: ``build_tables`` of the stack of one.

    ``alphabet_size`` fixes a finite alphabet ``{0, ..., k-1}`` with one
    column per symbol; omit it for countable alphabets, which get columns
    for the symbols of the word plus a shared fallback column.
    """
    return build_tables([as_word(word)], alphabet_size)
