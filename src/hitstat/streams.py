"""Entropy estimation from raw byte data.

Bytes become ``uint8`` symbols through one of three named maps
(``named_map``: ``byte``, ``nibble`` or ``bit``).  Two estimators run over
a symbol sequence: window-recurrence times give Shannon entropy (the
exponent of the first repeat of an n-window scales with the entropy
rate), and plug-in n-gram frequencies give the Renyi entropy function.
Both work on finite data, so recurrence scans can be censored by the end
of the sequence; the censored fraction is reported and a hard error
fires once it could visibly bias the median.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from .errors import (
    BudgetExceeded,
    CensoringExceeded,
    EmptyInput,
    InvalidSymbol,
    IoFailure,
    NonPositiveS,
    SequenceTooShort,
)
from .orbits import ReplayStream, as_symbols, recurrence_time
from .rng import substream

OW_METHOD = "OW-recurrence"
PLUGIN_METHOD = "plugin-renyi"
CENSOR_LIMIT = 0.05
MIN_LENGTH_MULTIPLE = 64
# windows coded and tallied at a time by ``window_counts``
_BLOCK = 1 << 16
# the alphabet size of each built-in symbol map (``named_map``)
_NAMED_K = {"byte": 256, "nibble": 16, "bit": 2}


# ---------------------------------------------------------------------------
# byte-to-symbol maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolMap:
    """One of the named maps from bytes to symbols (``named_map``)."""

    mode: str

    def apply(self, data: bytes) -> np.ndarray:
        """Symbols of ``data`` as ``uint8``, one byte per symbol (8 per input byte for ``bit``)."""
        raw = np.frombuffer(data, dtype=np.uint8)
        if self.mode == "byte":
            return raw.copy()
        if self.mode == "nibble":
            out = np.empty(2 * len(raw), dtype=np.uint8)
            out[0::2] = raw >> 4
            out[1::2] = raw & 0x0F
            return out
        if self.mode == "bit":
            return np.unpackbits(raw)  # MSB first
        raise InvalidSymbol(f"unknown symbol map {self.mode!r}")


def named_map(name: str) -> SymbolMap:
    """The built-in map ``name``: ``byte`` (k = 256), ``nibble`` (16) or ``bit`` (2)."""
    if name not in _NAMED_K:
        raise InvalidSymbol(f"unknown symbol map {name!r}; expected one of {sorted(_NAMED_K)}")
    return SymbolMap(mode=name)


def ingest(source, symbol_map: SymbolMap | None = None) -> np.ndarray:
    """Read bytes (or a file of bytes) into a ``uint8`` symbol sequence.

    Another alphabet is a table indexed by the bytes:
    ``np.asarray(table)[ingest(source)]``.
    """
    symbol_map = symbol_map or named_map("byte")
    if isinstance(source, (bytes, bytearray, memoryview)):
        data = bytes(source)
    else:
        try:
            data = Path(source).read_bytes()
        except OSError as exc:
            raise IoFailure(f"cannot read {source}: {exc}") from exc
    if len(data) == 0:
        raise EmptyInput("no bytes to ingest")
    return symbol_map.apply(data)


# ---------------------------------------------------------------------------
# estimate series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateRow:
    method: str
    n: int
    s: float | None
    estimate_nats: float
    stderr: float
    censored_fraction: float
    sample_count: int


@dataclass(frozen=True)
class EstimateSeries:
    rows: tuple
    COLUMNS = ("method", "n", "s", "estimate_nats", "stderr", "censored_fraction", "sample_count")

    def __post_init__(self):
        for row in self.rows:
            if row.estimate_nats < 0.0:
                raise ValueError(f"negative entropy estimate in row {row}")

    def csv_rows(self) -> list:
        """One row per estimate under ``COLUMNS``, floats by ``repr``."""
        return [[r.method, r.n, "" if r.s is None else repr(float(r.s)),
                 repr(float(r.estimate_nats)), repr(float(r.stderr)),
                 repr(float(r.censored_fraction)), r.sample_count] for r in self.rows]

    def to_csv(self, path) -> None:
        with open(Path(path), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.COLUMNS)
            writer.writerows(self.csv_rows())


# ---------------------------------------------------------------------------
# recurrence-time entropy
# ---------------------------------------------------------------------------

def ow_entropy_estimate(sequence, n_list, starts_per_n: int = 200, seed: int = 0) -> EstimateSeries:
    """Shannon entropy from the first repeats of sampled n-windows.

    For each sampled start offset the scan looks for the next occurrence
    of that offset's n-window within the remainder of the sequence; the
    estimate is the median of ``(1/n) log tau``.  Windows whose repeat
    falls past the end of the data are censored; beyond a 5% censored
    fraction the median itself is suspect and the run fails hard.
    """
    seq = as_symbols(sequence)
    if seq.ndim != 1 or len(seq) == 0:
        raise EmptyInput("need a non-empty 1-d symbol sequence")
    n_list = [int(n) for n in n_list]
    if not n_list or any(n < 1 for n in n_list):
        raise ValueError("n_list must hold positive window lengths")
    if starts_per_n < 1:
        raise ValueError("starts_per_n must be >= 1")
    L = len(seq)
    needed = max(n_list) * MIN_LENGTH_MULTIPLE
    if L < needed:
        raise SequenceTooShort(
            f"sequence of length {L} is shorter than {MIN_LENGTH_MULTIPLE} x max(n) = {needed}"
        )
    rows = []
    for n in n_list:
        rng = substream(seed, n)
        # keep one candidate window after every start
        top = L - 2 * n
        count = min(starts_per_n, top + 1)
        starts = np.sort(rng.choice(top + 1, size=count, replace=False))
        values = []
        censored = 0
        for i in starts:
            t = recurrence_time(ReplayStream(seq[int(i):]), n, cap=L)
            if t.censored:
                censored += 1
            else:
                values.append(math.log(t.value) / n)
        frac = censored / count
        if frac > CENSOR_LIMIT:
            raise CensoringExceeded(
                f"{frac:.1%} of n={n} windows never recur inside the data "
                f"(limit {CENSOR_LIMIT:.0%}); the sequence is too short for this n"
            )
        v = np.array(values)
        # stderr of a sample median under approximate normality
        stderr = 1.2533 * float(v.std(ddof=1)) / math.sqrt(len(v)) if len(v) > 1 else 0.0
        rows.append(EstimateRow(
            method=OW_METHOD,
            n=n,
            s=None,
            estimate_nats=float(np.median(v)) + 0.0,
            stderr=stderr,
            censored_fraction=frac,
            sample_count=count,
        ))
    return EstimateSeries(rows=tuple(rows))


# ---------------------------------------------------------------------------
# plug-in Renyi entropy
# ---------------------------------------------------------------------------

def _window_codes(seg: np.ndarray, n: int, k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Base-``k`` codes of the ``len(seg) - n + 1`` n-windows of ``seg``.

    Built as exponentiation by squaring builds a power: a code of length
    ``L`` doubles by ``code[i] * k**L + code[i + L]``, and a set bit of
    ``n`` appends one symbol by ``code[i] * k + seg[i + L]``, for
    ``floor(log2 n) + popcount(n) - 1`` passes in place of ``n - 1``.
    ``a`` and ``b`` are scratch buffers of at least ``len(seg)`` codes;
    the result is a view of one of them.  Every partial code of length
    ``L`` is below ``k**L <= k**n``, so the buffers' dtype holds it exactly.
    """
    dtype = a.dtype.type
    size = len(seg)
    a[:size] = seg
    length = 1
    for bit in bin(n)[3:]:
        size -= length
        np.multiply(a[:size], dtype(k**length), out=b[:size])
        b[:size] += a[length:length + size]
        a, b = b, a
        length *= 2
        if bit == "1":
            size -= 1
            a[:size] *= dtype(k)
            # the symbols are non-negative and below k, so adding in the
            # codes' own dtype is exact
            np.add(a[:size], seg[length:length + size], out=a[:size], dtype=dtype,
                   casting="unsafe")
            length += 1
    return a[:size]


def window_counts(sequence, n: int) -> np.ndarray:
    """Occurrence counts of the distinct overlapping n-windows, in code order.

    Each window is coded in base ``k = max + 1``, in ``uint32`` when the
    ``k**n`` codes fit and in ``uint64`` otherwise, one block of
    ``_BLOCK`` windows at a time so the code passes run in cache; symbols
    of any integer dtype are added straight into the codes, never widened
    first.  A code space ``k**n`` no larger than a block or than the
    window count ``m`` is tallied by ``np.bincount`` into one table, a
    block at a time, or ``ceil(k**n / _BLOCK)`` blocks at a time when
    the space is larger, so no table is zeroed and added for fewer
    codes than it has entries and no array of all the codes exists.  A
    space above both keeps every code and ``np.unique`` sorts them.
    Both give the counts of the windows present in ascending code order.
    """
    seq = as_symbols(sequence)
    if seq.ndim != 1 or len(seq) == 0:
        raise EmptyInput("need a non-empty 1-d symbol sequence")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(seq) < n:
        raise SequenceTooShort(f"need at least {n} symbols, have {len(seq)}")
    if seq.min() < 0:
        raise InvalidSymbol("negative symbols in sequence")
    k = int(seq.max()) + 1
    if k < 2:
        k = 2  # constant data still encodes
    if n * math.log2(k) > 64.0:
        raise BudgetExceeded(
            f"n-gram codes for k={k}, n={n} exceed 64 bits; reduce n or remap symbols"
        )
    m = len(seq) - n + 1
    space = k**n
    dtype = np.uint32 if space <= 2**32 else np.uint64
    a = np.empty(min(m, _BLOCK) + n - 1, dtype=dtype)
    b = np.empty_like(a)
    starts = range(0, m, _BLOCK)
    # each block's codes are a view of ``a`` or ``b``, overwritten by the next
    blocks = (_window_codes(seq[lo:lo + _BLOCK + n - 1], n, k, a, b) for lo in starts)
    if space > max(m, _BLOCK):
        codes = np.empty(m, dtype=dtype)
        for lo, part in zip(starts, blocks):
            codes[lo:lo + len(part)] = part
        return np.unique(codes, return_counts=True)[1]
    counts = np.zeros(space, dtype=np.intp)
    for part in _chunks(blocks, -(-space // _BLOCK)):
        counts += np.bincount(part, minlength=space)
    return counts[counts != 0]


def _chunks(blocks, group: int):
    """The codes of ``group`` consecutive blocks at a time, the last run possibly shorter.

    A group of one passes each block through; a longer group is copied
    into one ``intp`` buffer, which ``np.bincount`` reads without a cast.
    """
    if group == 1:
        yield from blocks
        return
    buf = np.empty(group * _BLOCK, dtype=np.intp)
    filled = 0
    for part in blocks:
        buf[filled:filled + len(part)] = part
        filled += len(part)
        if filled == len(buf):
            yield buf
            filled = 0
    if filled:
        yield buf[:filled]


def plugin_renyi_estimate(sequence, n: int, s: float) -> float:
    """Empirical Renyi entropy ``-(1/(s n)) log sum_w f(w)^(1+s)``.

    Overlapping windows feed the frequency table; at large n relative to
    the data the plug-in is biased upward (unseen mass) -- documented,
    not corrected.
    """
    if not 0.0 < s < math.inf:
        raise NonPositiveS(f"s must be positive and finite, got {s}")
    counts = window_counts(sequence, n)
    log_c = np.log(counts.astype(float))
    log_total = math.log(counts.sum())
    log_z = float(logsumexp((1.0 + s) * log_c)) - (1.0 + s) * log_total
    return -log_z / (s * n) + 0.0
