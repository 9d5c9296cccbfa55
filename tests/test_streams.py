"""Byte ingestion and the two data-driven entropy estimators."""
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

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

def test_constant_data_estimates_zero_exactly():
    series = ow_entropy_estimate(np.zeros(5000, dtype=np.int64), [3, 7], starts_per_n=50)
    for row in series.rows:
        assert row.estimate_nats == 0.0  # tau = 1 at every start
        assert row.censored_fraction == 0.0
        assert row.stderr == 0.0


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
])
def test_block_codes_are_bit_identical_to_the_passes_oracle(monkeypatch, k, n):
    block = 1 << 16
    # windows: one short of a block, one block, one block and n - 1 more,
    # two blocks and one more
    for m in (block - 1, block, block + n - 1, 2 * block + 1):
        seq = substream(k, n).integers(0, k, size=m + n - 1).astype(np.uint8)
        seq[m // 2] = k - 1  # k is the alphabet the codes are built on
        for data in (seq, seq.astype(np.int64)):
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


def test_estimates_are_the_same_on_every_integer_dtype():
    data = substream(6, 6).integers(0, 256, size=1 << 14).astype(np.uint8).tobytes()
    for name, n in (("bit", 6), ("nibble", 2), ("byte", 1)):
        narrow = ingest(data, named_map(name))
        for wide in (narrow.astype(np.int64), narrow.astype(np.uint64), narrow.tolist()):
            assert window_counts(wide, n).tolist() == window_counts(narrow, n).tolist()
            assert plugin_renyi_estimate(wide, n, 1.5) == plugin_renyi_estimate(narrow, n, 1.5)
        assert (ow_entropy_estimate(narrow.astype(np.int64), [n], starts_per_n=40, seed=3)
                == ow_entropy_estimate(narrow, [n], starts_per_n=40, seed=3))


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
