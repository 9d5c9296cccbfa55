"""Orbit engine: hand traces, naive-scan oracles, and drift audits."""
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import logsumexp

from hitstat import bernoulli, geometric, log_cylinder_measure, markov
from hitstat.errors import (
    EmptyInput,
    SequenceTooShort,
    ZeroMeasureTarget,
)
from hitstat.models import BernoulliModel, MarkovModel
from hitstat.orbits import (
    BLOCK,
    FIRST_FLOOR,
    FIRST_SCALE,
    CapPolicy,
    OrbitStream,
    OrbitSumResult,
    ReplayStream,
    TimeResult,
    _word_finder,
    entrance_time,
    prepare_target,
    recurrence_time,
    sample_orbit,
    w_sum,
)

FAIR = bernoulli([0.5, 0.5])
CHAIN = markov([[0.9, 0.1], [0.2, 0.8]])


# --- naive oracles -----------------------------------------------------------

def window_at(sym, i, n):
    return tuple(int(x) for x in sym[i:i + n])


def naive_entrance(sym, target, cap):
    n = len(target)
    for i in range(1, cap + 1):
        if window_at(sym, i, n) == tuple(target):
            return TimeResult(value=i, censored=False)
    return TimeResult(value=cap, censored=True)


# --- stream determinism ------------------------------------------------------

def test_sample_orbit_deterministic():
    a = sample_orbit(CHAIN, 42, 50)
    b = sample_orbit(CHAIN, 42, 50)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_orbit(CHAIN, 43, 50))
    assert np.array_equal(sample_orbit(FAIR, (7, 3), 20), sample_orbit(FAIR, (7, 3), 20))


def test_stream_reads_independent_of_chunking():
    whole = sample_orbit(CHAIN, 11, 40)
    s = OrbitStream(CHAIN, 11)
    pieces = np.concatenate([s.take(7), s.take(13), s.take(20)])
    assert np.array_equal(whole, pieces)


def test_pinned_start_plays_its_head_then_the_kernel():
    # P[0, 0] = 0: after a head ending in 0 the kernel must emit 1
    model = MarkovModel(P=np.array([[0.0, 1.0], [0.5, 0.5]]), pi=np.array([1 / 3, 2 / 3]))
    for seed in range(50):
        s = OrbitStream(model, seed, start=(1, 0))
        orb = np.concatenate([s.take(1), s.take(2), s.take(30)])
        assert orb[:3].tolist() == [1, 0, 1]
        assert np.all((orb[:-1] == 1) | (orb[1:] == 1))
        assert s.position == 33
    # i.i.d. kernels ignore the head: the tail is the unpinned path
    s = OrbitStream(FAIR, 8, start="0110")
    assert np.array_equal(s.take(24)[4:], sample_orbit(FAIR, 8, 20))


def test_single_symbol_process_is_constant():
    # degenerate model, constructed directly to bypass validation
    model = BernoulliModel(p=np.array([1.0]))
    assert np.array_equal(sample_orbit(model, 5, 12), np.zeros(12, dtype=np.int64))


def test_periodic_chain_alternates():
    # validation rejects this kernel; the engine itself must still run it
    model = MarkovModel(P=np.array([[0.0, 1.0], [1.0, 0.0]]), pi=np.array([0.5, 0.5]))
    orb = sample_orbit(model, 3, 30)
    assert np.all(orb[1:] != orb[:-1])


# --- entrance times ----------------------------------------------------------

def test_entrance_time_hand_trace():
    # x = 0,1,0,0,1: windows 10, 00, 01 -> first 01 at step 3
    stream = ReplayStream([0, 1, 0, 0, 1])
    assert entrance_time(stream, "01", cap=3) == TimeResult(3)


def test_entrance_window_zero_never_counts():
    stream = ReplayStream([0, 1, 0, 1])
    assert entrance_time(stream, "01", cap=2) == TimeResult(2)


def test_entrance_length_one_target():
    stream = ReplayStream([0, 1, 0])
    assert entrance_time(stream, "1", cap=2) == TimeResult(1)


def test_entrance_censored_at_cap():
    stream = ReplayStream([0] * 50)
    assert entrance_time(stream, "11", cap=5) == TimeResult(5, censored=True)


def test_entrance_zero_measure_target_refused():
    model = markov([[0.0, 1.0], [0.5, 0.5]])
    with pytest.raises(ZeroMeasureTarget):
        entrance_time(OrbitStream(model, 0), "00", cap=10)


def test_entrance_matches_naive_scan():
    rng = np.random.default_rng(0)
    for trial in range(200):
        model = FAIR if trial % 2 == 0 else CHAIN
        n = int(rng.integers(1, 5))
        target = tuple(int(x) for x in rng.integers(0, 2, size=n))
        sym = sample_orbit(model, (900, trial), 120)
        got = entrance_time(ReplayStream(sym, model=model), target, cap=100)
        assert got == naive_entrance(sym, target, 100)


def test_replay_exhaustion_censors_at_last_window():
    # only windows 1..2 fit in 4 symbols; no match -> censored at 2
    stream = ReplayStream([0, 0, 0, 0])
    assert entrance_time(stream, "11", cap=50) == TimeResult(2, censored=True)
    with pytest.raises(SequenceTooShort):
        entrance_time(ReplayStream([0, 0]), "111", cap=50)


def test_replay_stream_validation():
    with pytest.raises(EmptyInput):
        ReplayStream([])
    with pytest.raises(ValueError):
        entrance_time(ReplayStream([0, 1]), "01")  # no model, no cap


# --- recurrence times ---------------------------------------------------------

def test_recurrence_constant_stream():
    assert recurrence_time(ReplayStream([0] * 10), 3, cap=5) == TimeResult(1)


def test_recurrence_alternating_stream():
    assert recurrence_time(ReplayStream([0, 1, 0, 1, 0, 1]), 2, cap=4) == TimeResult(2)


def test_recurrence_equals_entrance_on_own_prefix():
    for seed in range(100):
        rec = recurrence_time(OrbitStream(FAIR, seed), 3, cap=200)
        prefix = sample_orbit(FAIR, seed, 3)
        ent = entrance_time(OrbitStream(FAIR, seed), prefix, cap=200)
        assert rec == ent


# --- orbit measure sums ------------------------------------------------------------

def test_w_sum_at_zero_equals_recurrence_time():
    for seed in range(100):
        n = 2 + (seed % 3)
        prefix = tuple(sample_orbit(FAIR, seed, n).tolist())
        res = w_sum(OrbitStream(FAIR, seed), target=prefix, s=0.0, cap=5000)
        rec = recurrence_time(OrbitStream(FAIR, seed), n, cap=5000)
        assert res.terms == rec.value
        assert res.time == rec
        assert math.exp(res.log_value) == pytest.approx(res.terms, rel=1e-12)


def test_w_sum_equal_measure_windows():
    # fair coin: every window has measure 2^-n, so W = tau * 2^(-n)
    for seed in (0, 1, 2):
        res = w_sum(OrbitStream(FAIR, seed), target=(1, 1, 1, 1), s=1.0, cap=10**5)
        assert not res.time.censored
        expected = math.log(res.time.value) - 4 * math.log(2)
        assert res.log_value == pytest.approx(expected, rel=1e-12)
        assert res.terms == res.time.value


def test_w_sum_matches_naive_recomputation():
    for seed in range(20):
        prefix = tuple(sample_orbit(CHAIN, seed, 4).tolist())
        res = w_sum(OrbitStream(CHAIN, seed), target=prefix, s=0.5, cap=10**4)
        assert not res.time.censored
        sym = sample_orbit(CHAIN, seed, res.time.value + 4)
        logs = [log_cylinder_measure(CHAIN, window_at(sym, i, 4))
                for i in range(1, res.time.value + 1)]
        assert res.log_value == pytest.approx(float(logsumexp(0.5 * np.array(logs))), abs=1e-9)
        assert window_at(sym, res.time.value, 4) == prefix


def test_w_sum_censored_keeps_partial_sum():
    res = w_sum(OrbitStream(FAIR, 0), target=(1,) * 12, s=1.0, cap=50)
    assert res.time == TimeResult(50, censored=True)
    assert res.terms == 50
    assert res.log_value == pytest.approx(math.log(50) - 12 * math.log(2), rel=1e-12)


def test_w_sum_argument_validation():
    with pytest.raises(ValueError):
        w_sum(OrbitStream(FAIR, 0), target=(1, 1), s=-0.5, cap=10)


def test_sliding_measure_drift_stays_tiny():
    # million-step censored scan, then recompute the final window measure
    model = bernoulli([0.7, 0.3])
    n, cap = 24, 10**6
    res = w_sum(OrbitStream(model, 9), target=(1,) * n, s=1.0, cap=cap)
    assert res.time.censored
    sym = sample_orbit(model, 9, res.terms + n)
    fresh = log_cylinder_measure(model, window_at(sym, res.terms, n))
    assert abs(res.window_log_measure - fresh) <= 1e-8

    res = w_sum(OrbitStream(CHAIN, 9), target=(0, 1) * 8, s=1.0, cap=2 * 10**5)
    assert res.time.censored
    sym = sample_orbit(CHAIN, 9, res.terms + 16)
    fresh = log_cylinder_measure(CHAIN, window_at(sym, res.terms, 16))
    assert abs(res.window_log_measure - fresh) <= 1e-8


# --- cap policy ---------------------------------------------------------------------

def test_cap_policy_default_scale():
    assert CapPolicy().cap_for(FAIR, "11") == 400  # ceil(100 / 0.25)
    assert CapPolicy(multiplier=10.0).cap_for(FAIR, "1") == 20
    # a scan makes a policy's cap itself; without a model it has no measure to apply it to
    never = [0] * 500
    assert entrance_time(ReplayStream(never, FAIR), "11", cap=CapPolicy()) == TimeResult(400, True)
    assert entrance_time(ReplayStream(never, FAIR), "11") == TimeResult(400, True)
    with pytest.raises(ValueError, match="explicit cap"):
        entrance_time(ReplayStream(never), "11", cap=CapPolicy())


def test_cap_policy_zero_measure_target():
    model = markov([[0.0, 1.0], [0.5, 0.5]])
    with pytest.raises(ZeroMeasureTarget):
        CapPolicy().cap_for(model, "00")


# --- the block scanner against a sliding-window oracle ---------------------------

BIASED = bernoulli([0.3, 0.7])
GEO = geometric(0.5)
SCAN_MODELS = {"fair": FAIR, "biased": BIASED, "chain": CHAIN, "geometric": GEO}


def window_matches(sym, word):
    """Per window ``i`` of ``sym``: is ``sym[i:i+n] == word``? (brute force)"""
    return np.all(sliding_window_view(np.asarray(sym), len(word)) == np.asarray(word), axis=1)


def block_ends(first):
    """Symbols a block reader has taken after each block: ``first``, then doubling up to ``BLOCK``."""
    total, size = 0, first
    while True:
        total += size
        yield total
        size = min(2 * size, BLOCK)


def oracle_scan(sym, word, cap, head=0, first=BLOCK):
    """Entrance into ``word`` over the windows ``1..cap`` of the data ``sym``.

    Also returns the symbols a block reader takes: ``head`` first, then
    blocks of ``first``, ``2 * first``, ... up to ``BLOCK`` each, up to
    ``cap + n`` in all, through the block that holds the match's last
    symbol.  The result is ``None`` when the data ends before window 1.
    """
    n = len(word)
    last = min(cap, len(sym) - n)
    if last < 1:
        return None, len(sym)
    hits = np.flatnonzero(window_matches(sym[:last + n], word)[1:]) + 1
    budget = cap + n - head
    if len(hits):
        tau = int(hits[0])
        read = head + min(budget, next(e for e in block_ends(first) if e > tau + n - 1 - head))
        return TimeResult(tau), min(read, len(sym))
    return TimeResult(last, censored=True), min(head + budget, len(sym))


def oracle_log_w(model, sym, n, tau, s):
    """``log sum_{i=1..tau} mu(window_i)**s`` and ``log mu(window_tau)``."""
    rows = sliding_window_view(np.asarray(sym), n)[1:tau + 1]
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    logs = np.array([log_cylinder_measure(model, tuple(int(x) for x in w)) for w in uniq])
    logs = logs[inverse.ravel()]
    return float(logsumexp(s * logs)), float(logs[-1])


@st.composite
def scan_cases(draw):
    name = draw(st.sampled_from(sorted(SCAN_MODELS)))
    model = SCAN_MODELS[name]
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**20))
    top = 3 if model.k is None else model.k - 1  # geometric paths run far above the word
    a, b = draw(st.integers(0, top)), draw(st.integers(0, top))
    shape = draw(st.sampled_from(["drawn", "run", "period2"]))
    if shape == "drawn":
        word = tuple(int(x) for x in sample_orbit(model, (seed, 1), n))
    elif shape == "run":
        word = (a,) * n
    else:
        word = tuple(a if i % 2 == 0 else b for i in range(n))
    cap = draw(st.one_of(st.integers(1, 60), st.integers(BLOCK - 8, BLOCK + 8),
                         st.integers(2 * BLOCK, 3 * BLOCK)))
    return model, word, seed, cap


@given(scan_cases(), st.sampled_from([0.0, 0.5, 1.0, 2.0]))
@settings(max_examples=80, deadline=None)
def test_generated_scans_match_the_oracle(case, s):
    model, word, seed, cap = case
    n = len(word)
    sym = sample_orbit(model, seed, cap + n)  # every symbol a scan may read
    expect, read = oracle_scan(sym, word, cap, first=prepare_target(model, word, cap).first)
    stream = OrbitStream(model, seed)
    assert entrance_time(stream, word, cap=cap) == expect
    assert stream.position == read
    if not expect.censored:  # a cap equal to tau still finds it; one less censors
        assert entrance_time(OrbitStream(model, seed), word, cap=expect.value) == expect
        if expect.value > 1:
            got = entrance_time(OrbitStream(model, seed), word, cap=expect.value - 1)
            assert got == TimeResult(expect.value - 1, censored=True)

    head = tuple(int(x) for x in sym[:n])
    expect_rec, read_rec = oracle_scan(sym, head, cap, head=n, first=prepare_target(model, head, cap).first)
    stream = OrbitStream(model, seed)
    assert recurrence_time(stream, n, cap=cap) == expect_rec
    assert stream.position == read_rec

    expect_w, read_w = oracle_scan(sym, word, cap, head=n)
    assert expect_w == expect
    stream = OrbitStream(model, seed)
    res = w_sum(stream, target=word, s=s, cap=cap)
    assert (res.time, res.terms, stream.position) == (expect, expect.value, read_w)
    log_w, last = oracle_log_w(model, sym, n, res.terms, s)
    assert abs(res.log_value - log_w) <= 1e-9
    assert abs(res.window_log_measure - last) <= 1e-9


def test_first_block_is_sized_from_the_target():
    # fair-coin words: 1/mu = 2**n, clipped to [FIRST_FLOOR, BLOCK]
    for n in range(1, 15):
        got = prepare_target(FAIR, (1,) * n, cap=10).first
        expect = min(max(math.ceil(FIRST_SCALE * 2.0**n), FIRST_FLOOR), BLOCK)
        assert abs(got - expect) <= 1 and FIRST_FLOOR <= got <= BLOCK
    assert prepare_target(FAIR, (1,) * 12, cap=10).first == BLOCK
    assert prepare_target(FAIR, (1,), cap=10).first == FIRST_FLOOR
    # far beyond BLOCK the rule stays in log space: no overflow where mu underflows
    assert prepare_target(FAIR, (1,) * 1100, cap=10).first == BLOCK
    # without a model there is no measure: the blocks stay at BLOCK
    assert prepare_target(None, (1, 0), cap=10).first == BLOCK


SWEEP_MODELS = {
    "fair": FAIR,
    "bernoulli-3": bernoulli([0.5, 0.3, 0.2]),
    "chain": CHAIN,
    "chain-3": markov([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]),  # the k > 2 loop
    "geometric": GEO,
}


@st.composite
def sized_scan_cases(draw):
    """Run and period-2 words, caps near their first block, its end, and near ``BLOCK``."""
    name = draw(st.sampled_from(sorted(SWEEP_MODELS)))
    model = SWEEP_MODELS[name]
    n = draw(st.integers(1, 9))
    top = 2 if model.k is None else model.k - 1
    a, b = draw(st.integers(0, top)), draw(st.integers(0, top))
    word = (a,) * n if draw(st.booleans()) else tuple(a if i % 2 == 0 else b for i in range(n))
    first = min(max(math.ceil(FIRST_SCALE / math.exp(log_cylinder_measure(model, word))),
                    FIRST_FLOOR), BLOCK)
    near = draw(st.sampled_from([first, 3 * first, BLOCK, 1]))  # the first two block ends
    cap = max(near - n + draw(st.integers(-3, 3)), 1)
    return name, model, word, first, cap, draw(st.integers(0, 2**20))


@given(sized_scan_cases())
@settings(max_examples=150, deadline=None)
def test_scans_sized_from_their_target_match_the_oracle(case):
    """Entrance and recurrence scans read blocks sized from the target's measure.

    Times, censoring and the symbols read equal a brute-force search of
    the path, and a replay of the same path under the model reads alike.
    """
    name, model, word, first, cap, seed = case
    n = len(word)
    sym = sample_orbit(model, seed, cap + n)
    target = prepare_target(model, word, cap)
    assert abs(target.first - first) <= 1  # the rule, up to the last bit of exp
    expect, read = oracle_scan(sym, word, cap, first=target.first)
    for stream in (OrbitStream(model, seed), ReplayStream(sym, model=model)):
        assert entrance_time(stream, word, cap=cap) == expect
        assert stream.position == read
    stream = OrbitStream(model, seed)
    assert entrance_time(stream, target) == expect  # the prepared target scans alike
    assert stream.position == read

    head = tuple(int(x) for x in sym[:n])
    expect_rec, read_rec = oracle_scan(sym, head, cap, head=n, first=prepare_target(model, head, cap).first)
    for stream in (OrbitStream(model, seed), ReplayStream(sym, model=model)):
        assert recurrence_time(stream, n, cap=cap) == expect_rec
        assert stream.position == read_rec


def test_a_prepared_target_carries_its_own_cap():
    target = prepare_target(FAIR, "11", cap=7)
    assert entrance_time(ReplayStream([0] * 20, FAIR), target) == TimeResult(7, censored=True)
    with pytest.raises(ValueError, match="own cap"):
        entrance_time(ReplayStream([0] * 20, FAIR), target, cap=3)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_replay_scans_match_the_oracle(data):
    n = data.draw(st.integers(1, 6))
    word = tuple(data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)))
    sym = np.zeros(data.draw(st.integers(1, 3 * BLOCK)), dtype=np.int64)  # 0 is in no word
    spots = [0] if data.draw(st.booleans()) else []  # a match at window 0 never counts
    spots.append(data.draw(st.one_of(st.integers(BLOCK - n + 1, BLOCK),  # straddles the block edge
                                      st.integers(1, 3 * BLOCK))))
    for p in spots:
        if p + n <= len(sym):
            sym[p:p + n] = word
    cap = data.draw(st.integers(1, 3 * BLOCK + 10))  # often beyond the data

    def check(scan, expect, read, stream):
        if expect is None:
            with pytest.raises(SequenceTooShort):
                scan()
        else:
            assert scan() == expect
            assert stream.position == read

    stream = ReplayStream(sym)
    check(lambda: entrance_time(stream, word, cap=cap), *oracle_scan(sym, word, cap), stream)
    stream = ReplayStream(sym)
    head = tuple(int(x) for x in sym[:n])
    if len(sym) < n:
        with pytest.raises(SequenceTooShort):
            recurrence_time(stream, n, cap=cap)
    else:
        check(lambda: recurrence_time(stream, n, cap=cap), *oracle_scan(sym, head, cap, head=n), stream)

    expect, read = oracle_scan(sym, word, cap, head=n)
    stream = ReplayStream(sym, model=GEO)
    if len(sym) < n or expect is None:
        with pytest.raises(SequenceTooShort):
            w_sum(stream, target=word, s=1.0, cap=cap)
    else:
        res = w_sum(stream, target=word, s=1.0, cap=cap)
        assert (res.time, res.terms, stream.position) == (expect, expect.value, read)
        assert abs(res.log_value - oracle_log_w(GEO, sym, n, res.terms, 1.0)[0]) <= 1e-9


@given(st.sampled_from(sorted(SCAN_MODELS)), st.integers(0, 2**20), st.integers(1, 6),
       st.integers(1, 3 * BLOCK), st.sampled_from(["drawn", "run", "wide"]),
       st.integers(1, 3 * BLOCK + 10))
@example("geometric", 7, 3, BLOCK + 5, "wide", BLOCK)
@settings(max_examples=80, deadline=None)
def test_narrow_replay_scans_equal_the_int64_replay(name, seed, n, length, shape, cap):
    model = SCAN_MODELS[name]
    sym = sample_orbit(model, seed, length + n)
    assert sym.max() < 256
    word = tuple(int(x) for x in sym[length:length + n])
    if shape == "run":
        word = (word[0],) * n
    if shape == "wide" and model.k is None:
        word = word[:-1] + (300,)  # a countable symbol no uint8 block can hold
    cap = min(cap, length + 10)  # replays that end before the cap, too
    narrow = sym.astype(np.uint8)

    def scans(symbols):
        def run(scan):
            stream = ReplayStream(symbols, model=model)
            try:
                return scan(stream), stream.position
            except SequenceTooShort as exc:
                return str(exc), stream.position
        sums = [run(lambda st_: w_sum(st_, target=word, s=s, cap=cap)) for s in (0.0, 1.0, 2.5)]
        # the return to the replay's own prefix
        prefix = tuple(int(x) for x in symbols[:n])
        sums.append(run(lambda st_: w_sum(st_, target=prefix, s=0.5, cap=cap)))
        return [
            run(lambda st_: entrance_time(st_, word, cap=cap)),
            run(lambda st_: recurrence_time(st_, n, cap=cap)),
            *[((r.time, r.log_value, r.terms, r.window_log_measure), pos)
              if isinstance(r, OrbitSumResult) else (r, pos) for r, pos in sums],
        ]

    assert ReplayStream(narrow).symbols.dtype == np.uint8
    assert scans(narrow) == scans(sym)


# --- the byte search against a sliding-window oracle -----------------------------

@given(st.data())
@settings(max_examples=150, deadline=None)
def test_word_finder_matches_the_sliding_window_oracle(data):
    """``_word_finder`` on blocks laced with the word's mod-256 aliases.

    An alias ``w[i] + 256 r_i`` equals the word as bytes but not as
    symbols; one placed before a true match makes the finder reject a
    byte match and search on.  ``uint8`` blocks can only hold the alias
    ``w mod 256`` of a word with a symbol of 256 or more.
    """
    draw = data.draw
    n = draw(st.integers(1, 6))
    word = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=np.int64)
    if draw(st.booleans()):  # a wide symbol
        word[draw(st.integers(0, n - 1))] += 256 * draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.uint8, np.int64]))
    length = draw(st.integers(n, 3 * BLOCK))
    sym = np.random.default_rng(draw(st.integers(0, 2**20))).integers(0, 3, length).astype(dtype)
    spot = st.one_of(st.integers(BLOCK - n + 1, BLOCK), st.integers(0, length - n))
    p = 0
    for _ in range(draw(st.integers(0, 3))):
        top = 0 if dtype is np.uint8 else 3
        alias = word % 256 + 256 * np.array(draw(st.lists(st.integers(0, top), min_size=n,
                                                          max_size=n)))
        p = draw(spot)
        if p + n <= length and not np.array_equal(alias, word):
            sym[p:p + n] = alias
    if word.max() < 256 or dtype is np.int64:
        # a true match, often after the aliases, inside the last one or across the block edge
        p = draw(st.one_of(spot, st.integers(p + 1, p + n - 1))) if n > 1 else draw(spot)
        if p + n <= length:
            sym[p:p + n] = word

    hits = np.flatnonzero(window_matches(sym, word))
    count = length - n + 1
    lo = draw(st.integers(0, count))
    hi = draw(st.integers(lo, count))
    inside = hits[(hits >= lo) & (hits < hi)]
    assert _word_finder(tuple(word))(sym, lo, hi) == (int(inside[0]) if len(inside) else -1)

    cap = draw(st.integers(1, 3 * BLOCK + 10))
    expect, read = oracle_scan(sym, word, cap)
    stream = ReplayStream(sym)
    if expect is None:
        with pytest.raises(SequenceTooShort):
            entrance_time(stream, tuple(word), cap=cap)
    else:
        assert entrance_time(stream, tuple(word), cap=cap) == expect
        assert stream.position == read


# --- Bernoulli generation against the frozen clipped bisect --------------------

def test_bernoulli_symbols_equal_the_frozen_clipped_bisect():
    """Draws at every cut point, beside it and past ``cum_p[-1]`` give the
    symbols of the clipped bisect over all k cut points, the sampler's
    former rule ``clip(searchsorted(cum_p, u), 0, k - 1)``."""
    rng = np.random.default_rng(300)
    masses = [rng.dirichlet(np.ones(k)) for k in range(1, 301)]
    masses.append(np.full(10, 0.1))
    assert np.cumsum(masses[-1])[-1] < 1.0  # so are 106 of the others, and 134 above
    for p in masses:
        model = BernoulliModel(p=p)
        cum_p = np.cumsum(p)
        u = [0.0, *rng.random(64).tolist()]
        for c in cum_p.tolist():
            u += [c, float(np.nextafter(c, -np.inf)), float(np.nextafter(c, np.inf))]
        u = np.array([x for x in u if 0.0 <= x < 1.0])
        stream = OrbitStream(model, 0)
        stream._rng = FixedDraws(u)
        got = stream.take(len(u))
        assert got.dtype == np.int64
        frozen = np.clip(np.searchsorted(cum_p, u, side="right").astype(np.int64), 0, len(p) - 1)
        assert np.array_equal(got, frozen)


# --- Markov generation against the frozen per-symbol loop ---------------------

def frozen_markov_steps(model, u, start=()):
    """The Markov sampler as one ``bisect_right`` per symbol, kept as the oracle.

    This is the loop the update-map table replaced: the stationary first
    symbol from ``u[0]`` unless ``start`` pins the head, then one clipped
    bisection of the current row's cumsum per uniform.
    """
    out = [int(x) for x in start]
    rows = [row.tolist() for row in np.cumsum(model.P, axis=1)]
    k_top = model.k - 1
    if out:
        s = out[-1]
    else:
        s = min(bisect_right(np.cumsum(model.pi).tolist(), u[0]), k_top)
        out.append(s)
        u = u[1:]
    for x in u:
        s = bisect_right(rows[s], x)
        if s > k_top:
            s = k_top
        out.append(s)
    return np.array(out, dtype=np.int64)


def frozen_markov_path(model, seed, length, start=()):
    """The oracle path of ``(model, seed)``, drawing from its own substream."""
    path = tuple(int(x) for x in seed) if isinstance(seed, tuple) else (int(seed),)
    rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence(path)))
    return frozen_markov_steps(model, rng.random(length - len(start)).tolist(), start)


class FixedDraws:
    """Stands in for a stream's generator: hands out given uniforms in order."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)
        self.used = 0

    def random(self, count):
        self.used += count
        return self.u[self.used - count:self.used]


def breakpoint_draws(model):
    """``0.0``, every distinct entry of ``cum_P`` and its two neighbours."""
    points = [0.0]
    for b in np.unique(np.cumsum(model.P, axis=1)).tolist():
        points += [b, float(np.nextafter(b, -np.inf)), float(np.nextafter(b, np.inf))]
    return points


SHORT_ROW = [[0.7, 0.2, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]]  # row 0 sums below 1.0
CHAINS = {
    "two-state": CHAIN,
    "anti-correlated": markov([[0.2, 0.8], [0.7, 0.3]]),
    "eps-1e-4": markov([[1 - 1e-4, 1e-4], [1e-4, 1 - 1e-4]]),
    # validation rejects these two kernels; the sampler must still run them
    "periodic": MarkovModel(P=np.array([[0.0, 1.0], [1.0, 0.0]]), pi=np.array([0.5, 0.5])),
    "zero-diagonal": MarkovModel(P=np.array([[0.0, 1.0], [0.5, 0.5]]),
                                 pi=np.array([1 / 3, 2 / 3])),
    "sticky-3": markov([[0.98, 0.01, 0.01], [0.01, 0.98, 0.01], [0.01, 0.01, 0.98]]),
    "short-row-3": markov(SHORT_ROW),
    "dense-16": markov(np.random.default_rng(16).dirichlet(np.ones(16), size=16)),
}


@st.composite
def take_splits(draw):
    """Take sizes summing to at least three blocks, cut anywhere."""
    total = draw(st.integers(3 * BLOCK, 3 * BLOCK + 50))
    cuts = draw(st.lists(st.integers(1, total - 1), max_size=8, unique=True))
    edges = [0, *sorted(cuts), total]
    return [b - a for a, b in zip(edges, edges[1:])]


@pytest.mark.parametrize("name", sorted(CHAINS))
@given(seed=st.one_of(st.integers(0, 2**32), st.tuples(st.integers(0, 99), st.integers(0, 9))),
       sizes=take_splits(), pinned=st.booleans())
@settings(max_examples=12, deadline=None)
def test_markov_symbols_equal_the_frozen_bisect_loop(name, seed, sizes, pinned):
    model = CHAINS[name]
    start = (1, 0) if pinned else ()
    stream = OrbitStream(model, seed, start=start or None)
    got = [stream.take(c) for c in sizes]
    assert all(part.dtype == np.int64 for part in got)
    assert np.array_equal(np.concatenate(got), frozen_markov_path(model, seed, sum(sizes), start))


def test_update_map_table_equals_the_clipped_bisect_at_every_breakpoint():
    for model in CHAINS.values():
        maps = model.update_maps
        k = model.k
        rows = [row.tolist() for row in np.cumsum(model.P, axis=1)]
        assert np.array_equal(maps.breaks, np.unique(model.cum_P))
        for u in breakpoint_draws(model):
            j = int(np.searchsorted(maps.breaks, u, side="right"))
            for s in range(k):
                assert maps.rows[j][s] == min(bisect_right(rows[s], u), k - 1)
    # the clip: past row 0's last cumsum the bisect reads k, the table k - 1
    last = float(np.cumsum(SHORT_ROW[0])[-1])
    assert last < 1.0 and bisect_right(np.cumsum(SHORT_ROW[0]).tolist(), last) == 3
    maps = CHAINS["short-row-3"].update_maps
    assert maps.rows[np.searchsorted(maps.breaks, last, side="right")][0] == 2


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_markov_symbols_at_the_breakpoints_equal_the_frozen_bisect_loop(name):
    model = CHAINS[name]
    # each breakpoint draw k + 1 times in a seeded order, so it meets many states
    u = np.random.default_rng(3).permutation(np.repeat(breakpoint_draws(model), model.k + 1))
    for start in ((), (1, 0)):
        stream = OrbitStream(model, 0, start=start or None)
        stream._rng = FixedDraws(u)
        total = len(u) + len(start)
        edges = [0, *[c for c in (1, 8, BLOCK + 8) if c < total], total]
        got = np.concatenate([stream.take(b - a) for a, b in zip(edges, edges[1:])])
        assert np.array_equal(got, frozen_markov_steps(model, u.tolist(), start))


CUT = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@given(c0=CUT, c1=st.one_of(st.none(), CUT), start=st.sampled_from([(), (0,), (1,), (1, 0)]),
       sizes=st.lists(st.one_of(st.just(1), st.integers(1, BLOCK + 10)), min_size=1, max_size=8),
       seed=st.integers(0, 2**32))
@example(0.9, 0.2, (), [1, 1, BLOCK, 1], 0)  # keeps between the cut points
@example(0.2, 0.7, (1, 0), [1, 1, BLOCK, 1], 1)  # swaps between them
@example(0.3, None, (), [1, BLOCK + 10, 1], 2)  # c1 == c0: every draw a constant
@example(0.0, 1.0, (0,), [1, 7, BLOCK], 3)  # the periodic chain: every draw swaps
@example(1.0, 0.0, (), [1, 7, BLOCK], 4)  # the identity: the first symbol forever
@settings(max_examples=150, deadline=None)
def test_two_state_symbols_equal_the_frozen_bisect_loop(c0, c1, start, sizes, seed):
    """Any 2x2 kernel, its cut points among the draws, under any take split."""
    c1 = c0 if c1 is None else c1
    model = MarkovModel(P=np.array([[c0, 1.0 - c0], [c1, 1.0 - c1]]), pi=np.array([0.5, 0.5]))
    total = sum(sizes)
    rng = np.random.default_rng(seed)
    u = rng.random(max(total - len(start), 0))
    cuts = [0.0]
    for c in (c0, c1):
        cuts += [c, float(np.nextafter(c, -np.inf)), float(np.nextafter(c, np.inf))]
    cuts = [x for x in cuts if 0.0 <= x < 1.0]
    at = rng.random(len(u)) < 0.3
    u[at] = rng.choice(cuts, size=int(at.sum()))
    stream = OrbitStream(model, 0, start=start or None)
    stream._rng = FixedDraws(u)
    got = [stream.take(c) for c in sizes]
    assert all(part.dtype == np.int64 for part in got)
    assert stream._rng.used == len(u)
    frozen = frozen_markov_steps(model, u.tolist(), start)[:total]
    assert np.array_equal(np.concatenate(got), frozen)


def test_update_maps_are_built_on_first_use():
    model = markov([[0.9, 0.1], [0.2, 0.8]])
    assert "update_maps" not in vars(model)
    sample_orbit(model, 1, 3)
    assert "update_maps" in vars(model)
