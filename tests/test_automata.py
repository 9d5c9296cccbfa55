"""Matcher correctness against naive sliding-window and suffix-prefix oracles."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitstat import geometric
from hitstat.automata import build_automaton, build_tables
from hitstat.errors import InvalidSymbol
from hitstat.exact import _lump

# the countable alphabet whose words ``_lump`` maps to columns
GEOMETRIC = geometric(0.5)


def naive_scan(word, text):
    """Quadratic reference matcher: compare every window to the word."""
    word = tuple(word)
    n = len(word)
    return [i + n - 1 for i in range(len(text) - n + 1) if tuple(text[i:i + n]) == word]


def column_of(word, k):
    """Symbol -> column of a word's table: the symbol itself on a finite alphabet; on a
    countable one the word's symbols in sorted order, then one fallback for every other."""
    if k is not None:
        return lambda sym: sym
    columns = {s: i for i, s in enumerate(sorted(set(word)))}
    return lambda sym: columns.get(sym, len(columns))


def table_of(word, k):
    """``(table, cols)`` of a word over ``{0, ..., k-1}``; with ``k`` None, as the exact layer lumps it."""
    if k is None:
        (word,), k, _ = _lump(GEOMETRIC, [tuple(word)])
    (table,), (cols,) = build_automaton(word, alphabet_size=k)
    return table, cols


def scan(word, symbols, k=None):
    """End positions of every match of ``word`` in ``symbols``, walking its KMP table."""
    table, _ = table_of(word, k)
    col = column_of(word, k)
    state = 0
    out = []
    for i, sym in enumerate(symbols):
        state = int(table[state, col(int(sym))])
        if state == len(word):
            out.append(i)
    return out


def naive_next(word, u, symbol):
    """Length of the longest suffix of ``word[:u] + (symbol,)`` that is a prefix of ``word``."""
    read = tuple(word[:u]) + (symbol,)
    for length in range(min(len(read), len(word)), -1, -1):
        if read[len(read) - length:] == tuple(word[:length]):
            return length


def test_single_word_overlapping_matches():
    assert scan((1, 1), [0, 1, 1, 1], k=2) == [2, 3]
    assert scan((0, 1, 0, 1), [0, 1, 0, 1, 0, 1], k=2) == [3, 5]


def test_failure_links_reuse_matched_prefix():
    # after 0,0,1 a 0 breaks the match but starts a fresh prefix "0"
    assert scan((0, 0, 1, 1), [0, 1, 0, 1, 1], k=2) == []
    assert scan((0, 0, 1, 1), [0, 0, 1, 0, 0, 1, 1], k=2) == [6]


def test_countable_alphabet_fallback_goes_to_root():
    table, cols = table_of((0, 2), None)
    # 999 has no column of its own: the fallback must reset any progress
    assert scan((0, 2), [0, 999, 0, 2]) == [3]
    assert cols.tolist() == [0, 1] and table.shape == (3, 3)
    assert table[table[0, 0], 2] == 0
    # the fallback column carries every other symbol's mass: 1 - mu(0) - mu(2)
    assert _lump(GEOMETRIC, [(0, 2)])[2].tolist() == [[0.5, 0.125, 0.375]]


def test_finite_alphabet_rejects_foreign_symbols():
    with pytest.raises(InvalidSymbol):
        build_automaton("012", alphabet_size=2)


@given(st.sampled_from([2, 3, 16, None]), st.data())
@settings(max_examples=120, deadline=None)
def test_table_is_the_longest_suffix_that_is_a_prefix(k, data):
    top = 5 if k is None else k - 1
    word = tuple(data.draw(st.lists(st.integers(0, top), min_size=1, max_size=12)))
    if data.draw(st.booleans()):  # runs and periods, where the failure links matter
        word = (word * 12)[:data.draw(st.integers(len(word), 12))]
    table, cols = table_of(word, k)
    n = len(word)
    # a symbol outside a countable word reads the fallback column
    symbols = range(k) if k is not None else sorted(set(word)) + [max(word) + 1]
    symbol_of = {column_of(word, k)(sym): sym for sym in symbols}
    assert cols.tolist() == [column_of(word, k)(s) for s in word]
    assert table.shape == (n + 1, len(symbol_of))
    assert table.dtype.kind == "i"
    for u in range(n + 1):
        for col, sym in symbol_of.items():
            assert table[u, col] == naive_next(word, u, sym)


@given(st.sampled_from([2, 3, 16, None]), st.data())
@settings(max_examples=120, deadline=None)
def test_each_slice_of_a_stack_is_its_words_table(k, data):
    top = 5 if k is None else k - 1
    n = data.draw(st.integers(1, 12))
    words = [tuple(data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n)))
             for _ in range(data.draw(st.integers(1, 6)))]
    # a countable alphabet is lumped first, the stack as wide as its widest word
    columns, size, _ = (words, k, None) if k is not None else _lump(GEOMETRIC, words)
    tables, cols = build_tables(columns, alphabet_size=size)
    for w, word in enumerate(words):
        table, lone_cols = table_of(word, k)
        width = table.shape[1]
        assert tables[w, :, :width].tobytes() == table.tobytes()
        # a countable alphabet pads narrower words with columns that lead to node 0
        assert not tables[w, :, width:].any()
        assert cols[w].tolist() == lone_cols.tolist() == [column_of(word, k)(s) for s in word]
        for u in range(n + 1):
            for sym in (range(k) if k is not None else set(word)):
                assert tables[w, u, column_of(word, k)(sym)] == naive_next(word, u, sym)


@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_matches_naive_oracle(k, n, data):
    word = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    text = data.draw(st.lists(st.integers(0, k - 1), min_size=0, max_size=40))
    assert scan(word, text, k=k) == naive_scan(word, text)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_matches_naive_oracle_countable(data):
    n = data.draw(st.integers(1, 3))
    word = tuple(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    text = data.draw(st.lists(st.integers(0, 8), min_size=0, max_size=40))
    assert scan(word, text) == naive_scan(word, text)
