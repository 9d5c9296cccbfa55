"""Matcher correctness against naive sliding-window and suffix-prefix oracles."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitstat.automata import build_automaton
from hitstat.errors import InvalidSymbol


def naive_scan(word, text):
    """Quadratic reference matcher: compare every window to the word."""
    word = tuple(word)
    n = len(word)
    return [i + n - 1 for i in range(len(text) - n + 1) if tuple(text[i:i + n]) == word]


def scan(auto, symbols):
    """End positions of every match of the automaton's word in ``symbols``."""
    state = 0
    out = []
    for i, sym in enumerate(symbols):
        state = auto.step(state, int(sym))
        if state == len(auto.word):
            out.append(i)
    return out


def naive_next(word, u, symbol):
    """Length of the longest suffix of ``word[:u] + (symbol,)`` that is a prefix of ``word``."""
    read = tuple(word[:u]) + (symbol,)
    for length in range(min(len(read), len(word)), -1, -1):
        if read[len(read) - length:] == tuple(word[:length]):
            return length


def test_single_word_overlapping_matches():
    auto = build_automaton("11", alphabet_size=2)
    assert scan(auto, [0, 1, 1, 1]) == [2, 3]
    auto = build_automaton((0, 1, 0, 1), alphabet_size=2)
    assert scan(auto, [0, 1, 0, 1, 0, 1]) == [3, 5]


def test_failure_links_reuse_matched_prefix():
    # after 0,0,1 a 0 breaks the match but starts a fresh prefix "0"
    auto = build_automaton("0011", alphabet_size=2)
    assert scan(auto, [0, 1, 0, 1, 1]) == []
    assert scan(auto, [0, 0, 1, 0, 0, 1, 1]) == [6]


def test_countable_alphabet_fallback_goes_to_root():
    auto = build_automaton((0, 2))
    # 999 has no column: it must reset any progress
    assert scan(auto, [0, 999, 0, 2]) == [3]
    state = auto.step(0, 0)
    assert auto.step(state, 777) == 0
    assert auto.other_col is not None


def test_finite_alphabet_rejects_foreign_symbols():
    auto = build_automaton("01", alphabet_size=2)
    with pytest.raises(InvalidSymbol):
        auto.step(0, 2)
    with pytest.raises(InvalidSymbol):
        build_automaton("012", alphabet_size=2)


@given(st.sampled_from([2, 3, 16, None]), st.data())
@settings(max_examples=120, deadline=None)
def test_table_is_the_longest_suffix_that_is_a_prefix(k, data):
    top = 5 if k is None else k - 1
    word = tuple(data.draw(st.lists(st.integers(0, top), min_size=1, max_size=12)))
    if data.draw(st.booleans()):  # runs and periods, where the failure links matter
        word = (word * 12)[:data.draw(st.integers(len(word), 12))]
    auto = build_automaton(word, alphabet_size=k)
    n = len(word)
    symbol_of = {col: sym for sym, col in auto.columns.items()}
    if k is None:
        assert auto.columns == {s: i for i, s in enumerate(sorted(set(word)))}
        symbol_of[auto.other_col] = max(word) + 1  # a symbol outside the word
    assert auto.table.shape == (n + 1, len(symbol_of))
    assert auto.table.dtype.kind == "i"
    for u in range(n + 1):
        for col, sym in symbol_of.items():
            assert auto.table[u, col] == naive_next(word, u, sym)


@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_matches_naive_oracle(k, n, data):
    word = tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    text = data.draw(st.lists(st.integers(0, k - 1), min_size=0, max_size=40))
    auto = build_automaton(word, alphabet_size=k)
    assert scan(auto, text) == naive_scan(word, text)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_matches_naive_oracle_countable(data):
    n = data.draw(st.integers(1, 3))
    word = tuple(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    text = data.draw(st.lists(st.integers(0, 8), min_size=0, max_size=40))
    auto = build_automaton(word)
    assert scan(auto, text) == naive_scan(word, text)
