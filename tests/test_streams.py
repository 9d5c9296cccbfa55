"""Byte ingestion and the two data-driven entropy estimators."""
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from hitstat import OrbitStream, bernoulli, builtin_model, shannon_entropy, streams
from hitstat.errors import (
    BudgetExceeded,
    CensoringExceeded,
    EmptyInput,
    InvalidSymbol,
    IoFailure,
    NonPositiveS,
    SequenceTooShort,
)
from hitstat.orbits import ReplayStream
from hitstat.rng import substream
from hitstat.streams import (
    EstimateSeries,
    SymbolMap,
    ingest,
    named_map,
    ow_entropy_estimate,
    plugin_renyi_estimate,
    window_counts,
)

CHAIN = builtin_model("two-state-chain")
FAIR = builtin_model("fair-coin")


# ---------------------------------------------------------------------------
# symbol maps and ingestion
# ---------------------------------------------------------------------------

def test_byte_identity_maps_bytes_to_their_values():
    assert ingest(b"AB").tolist() == [65, 66]


def test_bit_map_expands_each_byte_msb_first():
    symbols = ingest(b"\xa0\x01", named_map("bit"))
    assert len(symbols) == 16
    assert symbols.tolist() == [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]


def test_nibble_map_splits_high_then_low():
    assert ingest(b"\x4f", named_map("nibble")).tolist() == [4, 15]


def test_ingest_reads_files_and_reports_failures(tmp_path):
    path = tmp_path / "data.bin"
    path.write_bytes(b"\x00\xff")
    assert ingest(path).tolist() == [0, 255]
    with pytest.raises(IoFailure):
        ingest(tmp_path / "missing.bin")
    with pytest.raises(EmptyInput):
        ingest(b"")


def test_named_maps_resolve():
    for name in ("bit", "nibble", "byte"):
        assert named_map(name).mode == name
    assert streams._NAMED_K == {"bit": 2, "nibble": 16, "byte": 256}
    with pytest.raises(InvalidSymbol):
        named_map("trit")


def test_ingest_returns_one_byte_symbols_while_they_fit():
    data = bytes(range(256)) * 3
    for name, per_byte in (("byte", 1), ("nibble", 2), ("bit", 8)):
        symbols = ingest(data, named_map(name))
        assert symbols.dtype == np.uint8
        assert len(symbols) == per_byte * len(data)
        assert symbols.max() == streams._NAMED_K[name] - 1
    with pytest.raises(InvalidSymbol):
        ingest(data, SymbolMap(mode="octal"))


# ---------------------------------------------------------------------------
# recurrence-time entropy
# ---------------------------------------------------------------------------

def ow_oracle(sequence, n_list, starts_per_n, seed):
    """``ow_entropy_estimate`` by brute force: each start's window against every later one.

    The starts are drawn as the estimator draws them; a start's first
    repeat is the first later window of ``sliding_window_view`` equal to it.
    """
    seq = np.asarray(sequence)
    rows = []
    for n in n_list:
        top = len(seq) - 2 * n
        count = min(starts_per_n, top + 1)
        starts = np.sort(substream(seed, n).choice(top + 1, size=count, replace=False))
        windows = sliding_window_view(seq, n)
        taus = []
        for i in starts:
            hits = np.flatnonzero((windows[i + 1:] == windows[i]).all(axis=1))
            taus.append(int(hits[0]) + 1 if len(hits) else None)
        frac = taus.count(None) / count
        if frac > streams.CENSOR_LIMIT:
            raise CensoringExceeded(f"{frac:.1%} of n={n} windows never recur")
        v = np.array([math.log(t) / n for t in taus if t is not None])
        # fewer than two repeats give no spread: the standard error is unknown
        stderr = 1.2533 * float(v.std(ddof=1)) / math.sqrt(len(v)) if len(v) > 1 else None
        rows.append(streams.EstimateRow(streams.OW_METHOD, n, None, float(np.median(v)) + 0.0,
                                        stderr, frac, count))
    return EstimateSeries(rows=tuple(rows))


def assert_ow_matches_the_oracle(seq, n_list, starts_per_n, seed):
    try:
        expect = ow_oracle(seq, n_list, starts_per_n, seed)
    except CensoringExceeded:
        with pytest.raises(CensoringExceeded):
            ow_entropy_estimate(seq, n_list, starts_per_n=starts_per_n, seed=seed)
        return None
    series = ow_entropy_estimate(seq, n_list, starts_per_n=starts_per_n, seed=seed)
    assert series == expect
    return series


def test_constant_data_estimates_zero_exactly():
    for seq in (np.zeros(5000, dtype=np.int64), np.full(5000, 300), np.full(5000, 7, dtype=np.uint8)):
        series = assert_ow_matches_the_oracle(seq, [3, 7], 50, 0)
        for row in series.rows:
            assert row.estimate_nats == 0.0  # tau = 1 at every start
            assert row.censored_fraction == 0.0
            assert row.stderr == 0.0


def test_ow_stderr_is_unknown_with_one_start():
    # one start per n: one repeat, no spread to measure
    seq = OrbitStream(FAIR, 5).take(4000)
    series = assert_ow_matches_the_oracle(seq, [2, 5], 1, 3)
    for row in series.rows:
        assert row.sample_count == 1 and row.censored_fraction == 0.0
        assert row.stderr is None
    assert [r[4] for r in series.csv_rows()] == ["", ""]


def test_uniform_nibbles_recover_log16():
    data = substream(1234, 0).integers(0, 256, size=500_000).astype(np.uint8)
    seq = named_map("nibble").apply(data.tobytes())
    series = ow_entropy_estimate(seq, [2, 3], starts_per_n=150, seed=5)
    h = math.log(16.0)
    for row in series.rows:
        assert abs(row.estimate_nats - h) < 0.1 * h
        assert row.sample_count == 150
        assert row.stderr > 0.0


def test_markov_sequence_closes_the_loop_with_the_model_entropy():
    seq = OrbitStream(CHAIN, 99).take(300_000)
    series = ow_entropy_estimate(seq, [10], starts_per_n=400, seed=7)
    assert abs(series.rows[0].estimate_nats - shannon_entropy(CHAIN)) < 0.08


def test_short_sequences_and_heavy_censoring_fail_loudly():
    with pytest.raises(SequenceTooShort):
        ow_entropy_estimate(np.zeros(100, dtype=np.int64), [4])
    # 8 equiprobable symbols: tau_4 ~ 8^4 = 4096 dwarfs a 1300-symbol file
    seq = substream(3, 1).integers(0, 8, size=1300)
    with pytest.raises(CensoringExceeded):
        ow_entropy_estimate(seq, [4], starts_per_n=80, seed=2)


def test_ow_runs_are_deterministic_in_the_seed():
    seq = OrbitStream(CHAIN, 4).take(100_000)
    a = ow_entropy_estimate(seq, [8], starts_per_n=100, seed=11)
    b = ow_entropy_estimate(seq, [8], starts_per_n=100, seed=11)
    c = ow_entropy_estimate(seq, [8], starts_per_n=100, seed=12)
    assert a == b
    assert a.rows[0].estimate_nats != c.rows[0].estimate_nats


def test_ow_rows_match_the_brute_force_oracle_on_bit_data():
    data = np.packbits(substream(21, 0).random(8 << 13) < 0.3).tobytes()
    seq = ingest(data, named_map("bit"))
    assert seq.dtype == np.uint8
    for seed in (0, 1):
        assert_ow_matches_the_oracle(seq, [4, 8, 12], 150, seed)


def test_ow_counts_only_full_symbol_matches_where_low_bytes_agree():
    # 1, 257 and 513 are all 1 mod 256: every window is a byte match of every other
    seq = np.array([1, 257, 513])[substream(22, 0).integers(0, 3, size=20_000)]
    series = assert_ow_matches_the_oracle(seq, [2, 5], 120, 4)
    assert all(row.estimate_nats > 0.5 for row in series.rows)  # near log 3, not 0
    assert all(row.estimate_nats == 0.0 for row in ow_entropy_estimate(
        seq % 256, [2, 5], starts_per_n=120, seed=4).rows)


def test_ow_censoring_matches_the_oracle():
    # 8 equiprobable symbols at n = 3: 3.5 % of 200 starts never recur in
    # 12000 symbols, and more than 5 % in 4000
    for length, refused in ((12_000, False), (4000, True)):
        seq = substream(3, 1).integers(0, 8, size=length)
        for data in (seq, seq.astype(np.uint8)):
            series = assert_ow_matches_the_oracle(data, [3], 200, 2)
            if refused:
                assert series is None
            else:
                assert 0.0 < series.rows[0].censored_fraction <= streams.CENSOR_LIMIT


def test_ow_rejects_negative_symbols_before_any_search():
    # the sampled windows never reach the one negative symbol at the end; OW, window_counts
    # and ReplayStream share one gate, orbits.as_symbols, which checks a float array once
    # cast, and the sign comes before any length check
    seq = np.array([0, 1] * 800 + [-3])
    for data in (seq, seq.astype(np.int8), seq.astype(float)):
        for call in (lambda: ow_entropy_estimate(data, [2], starts_per_n=20),
                     lambda: window_counts(data, 2), lambda: ReplayStream(data)):
            with pytest.raises(InvalidSymbol, match="negative symbols in sequence"):
                call()
    for call in (lambda: ow_entropy_estimate(np.array([-1, 0]), [4]),
                 lambda: window_counts(np.array([-1]), 4)):
        with pytest.raises(InvalidSymbol, match="negative symbols in sequence"):
            call()


# ---------------------------------------------------------------------------
# plug-in Renyi
# ---------------------------------------------------------------------------

def test_window_counts_sum_to_window_total():
    seq = substream(8, 0).integers(0, 4, size=10_000)
    for n in (1, 3, 6):
        counts = window_counts(seq, n)
        assert counts.sum() == len(seq) - n + 1
        # same counts, in the same (code) order, as counting the tuples directly
        tally = Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))
        assert counts.tolist() == [tally[w] for w in sorted(tally)]


def counter_oracle(seq, n):
    """Counts of the distinct n-windows in ascending (code) order, by tuples."""
    tally = Counter(tuple(seq[i:i + n].tolist()) for i in range(len(seq) - n + 1))
    return [tally[w] for w in sorted(tally)]


@pytest.mark.parametrize("k, low, n, length, tabulated", [
    (4, 0, 9, 4**9 + 8, True),    # k**n == m windows: bincount
    (4, 0, 9, 4**9 + 7, False),   # k**n == m + 1: sort
    (4, 0, 8, 1000, True),        # k**n == 2**16 > m: bincount
    (4, 0, 9, 1000, False),       # k**n == 2**18 > 2**16 > m: sort
    # uint64 codes near 2**56, where float64 cannot tell codes 1 apart
    (256, 254, 7, 5000, False),
])
def test_window_counts_match_the_counter_oracle_on_both_paths(monkeypatch, k, low, n, length,
                                                             tabulated):
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **kw: calls.append(1) or bincount(*a, **kw))
    seq = substream(41, k).integers(low, k, size=length).astype(np.uint8)
    seq[0] = k - 1  # k is the alphabet the codes are built on
    expect = counter_oracle(seq, n)
    for data in (seq, seq.astype(np.int64)):
        counts = window_counts(data, n)
        assert counts.tolist() == expect
    assert bool(calls) == tabulated


def passes_oracle(sequence, n):
    """``window_counts`` as one pass per symbol over every window's code.

    The reference builder: ``n - 1`` passes of ``code * k + sym`` over all
    ``m`` windows at once, then one ``np.bincount`` or ``np.unique`` over
    the full code array.
    """
    seq = np.asarray(sequence)
    k = max(int(seq.max()) + 1, 2)
    m = len(seq) - n + 1
    space = k**n
    dtype = np.uint32 if space <= 2**32 else np.uint64
    codes = seq[:m].astype(dtype)
    for j in range(1, n):
        codes *= dtype(k)
        np.add(codes, seq[j:j + m], out=codes, dtype=dtype, casting="unsafe")
    if space <= max(m, 2**16):
        counts = np.bincount(codes)
        return counts[counts != 0]
    return np.unique(codes, return_counts=True)[1]


def assert_same_as_the_passes_oracle(monkeypatch, seq, n):
    counts = window_counts(seq, n)
    expect = passes_oracle(seq, n)
    assert counts.dtype == expect.dtype
    assert np.array_equal(counts, expect)
    estimates = [plugin_renyi_estimate(seq, n, s) for s in (0.5, 1.0, 3.0)]
    with monkeypatch.context() as patched:
        patched.setattr(streams, "window_counts", passes_oracle)
        assert estimates == [plugin_renyi_estimate(seq, n, s) for s in (0.5, 1.0, 3.0)]


@pytest.mark.parametrize("k, n", [
    (k, n) for k in (2, 3, 16, 256) for n in (1, 2, 3, 7, 8, 14, 15, 16, 17)
    if n * math.log2(k) <= 64.0  # longer codes are refused
] + [
    # code spaces at each edge of the codes' dtype (uint8 .. uint64): 2**8
    # and 2**16 are in the grid above (k = 2 at n = 8, 16 and 17; k = 256 at
    # n = 2), 257 on int64 data and 2**32 and past it here
    (257, 1), (2, 32), (2, 33),
])
def test_block_codes_are_bit_identical_to_the_passes_oracle(monkeypatch, k, n):
    block = 1 << 16
    # windows: one short of a block, one block, one block and n - 1 more,
    # two blocks and one more
    for m in (block - 1, block, block + n - 1, 2 * block + 1):
        seq = substream(k, n).integers(0, k, size=m + n - 1)
        seq[m // 2] = k - 1  # k is the alphabet the codes are built on
        for data in ((seq.astype(np.uint8), seq) if k <= 256 else (seq,)):
            assert_same_as_the_passes_oracle(monkeypatch, data, n)


def test_block_codes_on_a_wide_custom_table_match_the_passes_oracle(monkeypatch):
    data = substream(7, 7).integers(0, 256, size=2 * (1 << 16) + 5).astype(np.uint8).tobytes()
    seq = 3 * ingest(data).astype(np.int64)  # a table of 3 * byte: k = 766
    for n in (1, 2, 3, 6):
        assert_same_as_the_passes_oracle(monkeypatch, seq, n)


def test_window_counts_peak_memory_stays_within_a_few_blocks():
    seq = substream(12, 0).integers(0, 2, size=4 << 20).astype(np.uint8)
    tracemalloc.start()
    try:
        counts = window_counts(seq, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == len(seq) - 13
    # the full code array alone would be 16 MB, and its intp cast 32 MB
    assert peak < 4 * 10**6


def test_a_code_space_above_a_block_is_tallied_in_chunks():
    # 2**20 codes: above one block, below the 4 Mi windows
    n = 20
    seq = substream(12, 1).integers(0, 2, size=4 << 20).astype(np.uint8)
    tracemalloc.start()
    try:
        counts = window_counts(seq, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    codes = np.zeros(len(seq) - n + 1, dtype=np.int64)
    for i in range(n):
        codes = 2 * codes + seq[i:i + len(codes)]
    assert counts.tolist() == np.unique(codes, return_counts=True)[1].tolist()
    # the count table and each chunk's tally and codes, 8 MB each; the full
    # code array with its intp cast took 59 MB
    assert peak < 4 * 8 * 2**n


def test_plugin_estimates_on_a_packed_coin_file_are_pinned():
    # a 1 MiB file of packed (0.7, 0.3) coin bits; the values are the
    # estimates' reprs, so any change in the counts or their order fails
    data = np.packbits(substream(20, 0).random(8 << 20) < 0.3).tobytes()
    assert repr(plugin_renyi_estimate(ingest(data, named_map("bit")), 14, 1.0)) == "0.5446099701617536"
    assert repr(plugin_renyi_estimate(ingest(data, named_map("nibble")), 4, 1.0)) == "2.1780124906384186"


def test_ow_estimates_on_a_packed_coin_file_are_pinned():
    # the file of the plug-in pins; the rows' reprs, so any change in a
    # start's first repeat, the censoring or the formulas fails
    data = np.packbits(substream(20, 0).random(8 << 20) < 0.3).tobytes()
    bit = ow_entropy_estimate(ingest(data, named_map("bit")), [14], starts_per_n=200, seed=1)
    assert repr(bit.rows[0]) == (
        "EstimateRow(method='OW-recurrence', n=14, s=None, estimate_nats=0.5750730148707628, "
        "stderr=0.012935455510426032, censored_fraction=0.015, sample_count=200)")
    nibble = ow_entropy_estimate(ingest(data, named_map("nibble")), [3], starts_per_n=200, seed=1)
    assert repr(nibble.rows[0]) == (
        "EstimateRow(method='OW-recurrence', n=3, s=None, estimate_nats=2.2152469140588957, "
        "stderr=0.04996551894564489, censored_fraction=0.0, sample_count=200)")


def test_estimates_are_the_same_on_every_integer_dtype():
    data = substream(6, 6).integers(0, 256, size=1 << 14).astype(np.uint8).tobytes()
    for name, n in (("bit", 6), ("nibble", 2), ("byte", 1)):
        narrow = ingest(data, named_map(name))
        for wide in (narrow.astype(np.int64), narrow.astype(np.uint64), narrow.tolist()):
            assert window_counts(wide, n).tolist() == window_counts(narrow, n).tolist()
            assert plugin_renyi_estimate(wide, n, 1.5) == plugin_renyi_estimate(narrow, n, 1.5)
        assert (ow_entropy_estimate(narrow.astype(np.int64), [n], starts_per_n=40, seed=3)
                == ow_entropy_estimate(narrow, [n], starts_per_n=40, seed=3))


def test_non_integer_symbols_are_rejected_not_truncated():
    # int() would read 0.2, 0.7, 1.9, 1.2 as 0, 0, 1, 1, and 0.5 and 1.5 as 0 and 1
    with pytest.raises(InvalidSymbol, match="must be integers, got 0.2"):
        window_counts(np.array([0.2, 0.7, 1.9, 1.2]), 1)
    with pytest.raises(InvalidSymbol, match="must be integers, got 0.5"):
        plugin_renyi_estimate([0.5] * 100 + [1.5] * 100, 1, 1.0)
    for bad in ([np.nan, 1.0], [np.inf, 0.0], [1e30, 0.0]):
        with pytest.raises(InvalidSymbol):
            ow_entropy_estimate(np.array(bad * 40), [1], starts_per_n=4)
    # integer-valued floats are the integers they hold
    assert window_counts(np.array([0.0, 1.0, 1.0]), 1).tolist() == [1, 2]
    for shape in ([], [[0, 1], [1, 0]]):
        with pytest.raises(EmptyInput):
            window_counts(np.array(shape), 1)


def test_an_integer_symbol_array_is_used_in_place():
    # the estimators and ReplayStream read a caller's integer array, or a tail of it, as given
    data = substream(4, 4).integers(0, 2, size=1 << 20).astype(np.uint8)
    assert streams.as_symbols(data) is data
    tail = data[5:]
    assert np.shares_memory(streams.as_symbols(tail), data)


def test_plugin_recovers_the_bernoulli_renyi_value():
    model = bernoulli([0.7, 0.3])
    seq = OrbitStream(model, 17).take(1_000_000)
    est = plugin_renyi_estimate(seq, n=8, s=1.0)
    assert abs(est - 0.5447271754416722) < 0.05


def test_plugin_is_exact_on_uniform_single_windows():
    seq = substream(9, 0).integers(0, 16, size=200_000)
    # n=1 empirical table is the symbol histogram; near log 16 for any s
    for s in (0.5, 1.0, 3.0):
        assert abs(plugin_renyi_estimate(seq, 1, s) - math.log(16.0)) < 0.01


def test_plugin_is_nonincreasing_in_s():
    seq = OrbitStream(CHAIN, 23).take(50_000)
    grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    values = [plugin_renyi_estimate(seq, 6, s) for s in grid]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_plugin_guards():
    seq = np.zeros(100, dtype=np.int64)
    assert plugin_renyi_estimate(seq, 4, 1.0) == 0.0
    with pytest.raises(NonPositiveS):
        plugin_renyi_estimate(seq, 4, 0.0)
    with pytest.raises(SequenceTooShort):
        plugin_renyi_estimate(np.zeros(3, dtype=np.int64), 4, 1.0)
    wide = substream(2, 2).integers(0, 256, size=1000)
    with pytest.raises(BudgetExceeded):
        plugin_renyi_estimate(wide, 9, 1.0)  # 256^9 needs 72 bits


def test_plugin_rejects_non_finite_s():
    seq = substream(2, 3).integers(0, 2, size=1000)
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonPositiveS):
            plugin_renyi_estimate(seq, 3, s)


def test_series_csv_layout(tmp_path):
    seq = OrbitStream(CHAIN, 31).take(80_000)
    series = ow_entropy_estimate(seq, [4, 6], starts_per_n=60, seed=1)
    out = tmp_path / "series.csv"
    series.to_csv(out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "method,n,s,estimate_nats,stderr,censored_fraction,sample_count"
    assert len(lines) == 3
    assert lines[1].startswith("OW-recurrence,4,,")


def test_series_rejects_negative_estimates():
    from hitstat.streams import EstimateRow
    with pytest.raises(ValueError):
        EstimateSeries(rows=(EstimateRow("OW-recurrence", 2, None, -0.1, 0.0, 0.0, 5),))
