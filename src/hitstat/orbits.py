"""Seeded orbits and their pathwise statistics.

An ``OrbitStream`` is a lazily generated stationary sample path of a
measure model: the first symbol follows the stationary law, later ones
the conditional kernel.  Everything downstream is a deterministic
function of ``(model, seed)``; seeds may be tuples, so experiments can
hand sample ``j`` the substream ``(seed, j)`` and stay reproducible under
any parallel schedule.  A stream may also read a ready generator, such
as one that ``rng.Substreams`` re-keyed to a sample's substream.  A
stream started at a word (``start=``) plays it first, so the return to a
path's own n-prefix is a scan of such a stream for that prefix.  Each
symbol is one raw Philox word compared with integer cut points
(``rng.raw_cuts``), and a finite alphabet of at most 256 symbols is
generated, held and searched as ``uint8`` bytes; a countable one stays
``int64``.

Time conventions (fixed throughout the package):

* the orbit's windows are ``x_i .. x_{i+n-1}`` for ``i = 0, 1, 2, ...``;
* the entrance time into a word is the smallest ``i >= 1`` whose window
  equals it -- the window at ``i = 0`` never counts;
* orbit measure sums run over ``i = 1 .. tau`` inclusive.

Every scan is one pass of ``_scan``, which reads the stream in blocks,
carries the last ``n - 1`` symbols into the next block and applies a
hard cap: when no event occurs within ``cap`` windows the result is
right-censored at the cap.  The target word is found by a byte search
of each block (of its own bytes when it is ``uint8``, re-checked against
the full symbols only where the bytes are not the symbols), and orbit
sums take every window log-measure of a block at once.  The entrance
law rescales time by ``mu(w)``, so an entrance or recurrence scan under
a model expects about ``1/mu(w)`` symbols: its
first block is ``clip(ceil(1 / mu(w)), FIRST_FLOOR, BLOCK)`` symbols,
and later ones double up to ``BLOCK``.  Orbit sums, and replays
without a model, read blocks of ``BLOCK``.  A block cut moves no symbol,
so no time depends on it.  The OW estimator (``streams.ow_entropy_estimate``)
replays nothing: it runs the same byte search (``_find_word``) over the
whole recorded sequence, once per sampled start.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

# unused here, but perfbench/tracing.py patches ``orbits.build_automaton``
from .automata import build_automaton  # noqa: F401
from .errors import EmptyInput, InvalidSymbol, MeasureUnderflow, SequenceTooShort
from .models import STEP_CEILING, BernoulliModel, MarkovModel, MeasureModel, target_log_measure
from .rng import substream
from .words import as_word

BLOCK = 4096
FIRST_FLOOR = 64  # a first block holds about 1 / mu(w) symbols, and never fewer than this

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class TimeResult:
    """An entrance/recurrence step count, or the cap when censored."""

    value: int
    censored: bool = False


@dataclass(frozen=True)
class CapPolicy:
    """Rule turning a target measure into a censoring cap.

    The default ``ceil(100 / mu(target))`` keeps at most ``exp(-100)`` of
    the mass beyond the cap under the rescaled exponential regime while
    bounding the work per sample.
    """

    multiplier: float = 100.0

    def __post_init__(self):
        if not 0.0 < self.multiplier < math.inf:
            raise ValueError(f"cap multiplier must be finite and > 0, got {self.multiplier}")

    def cap_for(self, model: MeasureModel, target) -> int:
        return prepare_target(model, target, self).cap


_DEFAULT_CAP = CapPolicy()


class OrbitStream:
    """Deterministic stationary sample path, read in blocks.

    ``start`` pins the first symbols: the stream plays them, then
    continues with the kernel from the last one (a path conditioned on
    its initial cylinder).  Without it the path starts from the
    stationary law.  ``seed`` is a substream key (an int or a tuple) or a
    ``numpy.random.Generator`` that the stream then draws from.  Each
    symbol takes one raw 64-bit word of the generator (``rng.raw_cuts``).
    A finite alphabet of at most 256 symbols comes out as ``uint8``, any
    other as ``int64``.

    Single-owner mutable state: one stream feeds one scan at a time.
    Many streams over one shared model may run concurrently.
    """

    def __init__(self, model: MeasureModel, seed, start=None):
        self.model = model
        if not isinstance(seed, np.random.Generator):
            seed = substream(*seed) if isinstance(seed, tuple) else substream(seed)
        self._bits = seed.bit_generator
        k = model.k
        self._dtype = np.uint8 if k is not None and k <= 256 else np.int64
        self.position = 0
        self._start = _EMPTY if start is None else np.array(as_word(start), dtype=self._dtype)
        # previous symbol, the Markov state between blocks
        self._last = -1 if start is None else int(self._start[-1])

    def take(self, count: int) -> np.ndarray:
        """Next ``count`` symbols, always full: the rest of ``start``, then generated ones."""
        if count <= 0:
            return _EMPTY
        out = self._start[self.position:self.position + count]
        if len(out) < count:
            fresh = self._generate(count - len(out))
            out = np.concatenate((out, fresh)) if len(out) else fresh
        self.position += count
        return out

    def _generate(self, count: int) -> np.ndarray:
        model = self.model
        r = self._bits.random_raw(count)
        if isinstance(model, BernoulliModel):
            # the inner cut points at or below u: the clipped bisect of all k
            breaks = model.breaks
            out = (r >= breaks[0]).view(np.uint8) if len(breaks) == 1 else np.searchsorted(breaks, r, side="right")
            return out.astype(self._dtype, copy=False)
        if isinstance(model, MarkovModel):
            maps = model.update_maps
            s = self._last
            fresh = s < 0
            if fresh:  # the stationary first symbol
                s = min(bisect_right(maps.first, int(r[0])), model.k - 1)
                r = r[1:]
            if model.k == 2:
                # from state s the next is u >= cum_P[s, 0]: u below both cut points gives 0
                # and u at or above both gives 1 (a constant); u between keeps s (c1 <= c0) or
                # swaps it.  Every step but a constant keeps y_t = x_t XOR (t mod 2) on a swap
                # chain (y = x else), so y_t is the last constant's y at or before t, else s
                c0, c1 = maps.to_one
                swap = c1 > c0
                lo, hi = (c0, c1) if swap else (c1, c0)
                top = r >= hi
                hit = np.flatnonzero(top | (r < lo))  # the constants, at steps hit + 1
                value = np.empty(len(hit) + 1, dtype=np.uint8)
                value[0] = s
                value[1:] = top[hit]
                if swap:
                    value[1:] ^= (hit & 1) == 0
                edges = np.concatenate(([-1], hit, [len(r)]))
                out = np.repeat(value, edges[1:] - edges[:-1])
                if swap:
                    out[1::2] ^= 1
                out = out[0 if fresh else 1:]
            else:
                rows = maps.rows
                path = [s] if fresh else []
                append = path.append
                for x in np.searchsorted(maps.breaks, r, side="right").tolist():
                    s = rows[x][s]
                    append(s)
                out = np.array(path, dtype=self._dtype)
            self._last = int(out[-1])
            return out
        # inversion of numpy's uniform (r >> 11) * 2**-53: u < 1 keeps every symbol
        # below -log(2**-53) / |log theta|
        u = (r >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return np.floor(np.log1p(-u) / model.log_theta).astype(np.int64)


def as_symbols(symbols) -> np.ndarray:
    """A non-empty 1-d contiguous symbol array in its own integer dtype, else as int64.

    Any other shape raises ``EmptyInput``, and a value that is no integer (as in
    ``words.as_word``) or is negative ``InvalidSymbol``; an unsigned array passes
    without a read of its values.
    """
    arr = np.asarray(symbols)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInput("need a non-empty 1-d symbol sequence")
    if not np.issubdtype(arr.dtype, np.integer):
        with np.errstate(invalid="ignore"):  # a NaN, infinite or huge value casts to garbage, rejected below
            try:
                ints = arr.astype(np.int64)
            except (TypeError, ValueError) as exc:  # None, or a string no int() reads
                raise InvalidSymbol(f"symbols must be integers: {exc}") from None
        if not np.array_equal(ints, arr):
            raise InvalidSymbol(f"symbols must be integers, got {arr[ints != arr][0].item()!r}")
        arr = ints
    if arr.dtype.kind == "i" and arr.min() < 0:
        raise InvalidSymbol("negative symbols in sequence")
    return np.ascontiguousarray(arr)


class ReplayStream:
    """Stream interface over recorded symbols; exhausts with short reads.

    The symbols keep their integer dtype (``as_symbols``: ``uint8`` from
    ``streams.ingest`` stays one byte per symbol).  Every scan gives the
    same results on any integer dtype holding the same values.
    """

    def __init__(self, symbols, model: MeasureModel | None = None):
        self.symbols = as_symbols(symbols)
        self.model = model
        self.position = 0

    def take(self, count: int) -> np.ndarray:
        out = self.symbols[self.position:self.position + max(count, 0)]
        self.position += len(out)
        return out


def sample_orbit(model: MeasureModel, seed, length: int) -> np.ndarray:
    """Finite prefix of the stationary path; deterministic in (model, seed)."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    return OrbitStream(model, seed).take(length)


# ---------------------------------------------------------------------------
# the block scanner
# ---------------------------------------------------------------------------

def _scan(stream, target: Target, visit=None, head=_EMPTY) -> TimeResult:
    """One pass over the windows ``i = 0 .. cap`` of ``stream``, in blocks.

    ``head`` holds symbols already taken from the stream (the first
    ``len(head)`` of window 0).  Each block ``buf`` is the carried tail of
    the previous one plus ``stream.take(min(size, budget))``, where ``size``
    is ``target.first`` (``BLOCK`` under a ``visit``), then doubles up to
    ``BLOCK``; its window at offset ``q`` is ``buf[q:q+n]``, window ``i0 + q``.
    ``_find_word`` gives the block's first event offset from ``lo``, or
    -1; ``visit(buf, lo, hi)`` then sees the block's windows up to and
    including the event.  ``lo`` skips window 0, which is never an event.

    Returns the first event step, else ``target.cap`` censored.  When a
    replay stream runs dry first, the result is censored at the last
    complete window, ``consumed - n``.
    """
    n = len(target.word)
    carry = head
    i0 = 0
    budget = target.cap + n - len(head)
    size = target.first if visit is None else BLOCK
    while budget > 0:
        chunk = stream.take(min(size, budget))
        size = min(2 * size, BLOCK)
        if len(chunk) == 0:
            if i0 < 2:
                raise SequenceTooShort("data ends before the first candidate window")
            return TimeResult(value=i0 - 1, censored=True)
        budget -= len(chunk)
        buf = np.concatenate((carry, chunk)) if len(carry) else chunk
        count = len(buf) - n + 1  # windows that end inside this block
        if count <= 0:
            carry = buf
            continue
        lo = 1 if i0 == 0 else 0
        q = _find_word(buf.astype(np.uint8, copy=False).tobytes(), target.needle, buf, target.symbols, lo)
        if visit is not None:
            visit(buf, lo, count if q < 0 else q + 1)
        if q >= 0:
            return TimeResult(value=i0 + q)
        carry = buf[count:]
        i0 += count
    return TimeResult(value=target.cap, censored=True)


def _find_word(hay: bytes, needle: bytes, symbols: np.ndarray, word: np.ndarray, q: int) -> int:
    """The first offset ``>= q`` of ``hay`` at which ``symbols`` holds ``word``, else -1.

    ``hay`` and ``needle`` are ``symbols`` and ``word`` taken mod 256 (their
    own bytes when they are ``uint8``), so every match is a byte match that
    ``bytes.find`` finds.  Where the bytes are not the symbols (``symbols``
    or ``word`` wider than ``uint8``, as a ``Target`` holding a symbol of
    256 or more keeps its word), a byte match counts only where the full
    symbols agree: exact on any integer alphabet.
    """
    q = hay.find(needle, q)
    if symbols.dtype == np.uint8 and word.dtype == np.uint8:
        return q
    n = len(word)
    while q >= 0 and not np.array_equal(symbols[q:q + n], word):
        q = hay.find(needle, q + 1)
    return q


class Target:
    """A word ready for any number of scans: its cap, log-measure, byte search and first block.

    ``cap`` is the cap itself, or a ``CapPolicy`` (``None``: the default) of
    the measure ``exp(log_mu)``; a policy's cap past ``models.STEP_CEILING``,
    compared in log space, raises ``MeasureUnderflow``.  The word's symbols
    are kept as ``uint8`` when all are below 256, so a search of ``uint8``
    symbols needs no re-check of its byte matches (``_find_word``).
    """

    __slots__ = ("word", "cap", "log_mu", "symbols", "needle", "first")

    def __init__(self, word: tuple, cap, log_mu: float | None):
        if cap is None or isinstance(cap, CapPolicy):
            if log_mu is None:
                raise ValueError("replay streams without a model need an explicit cap")
            policy = _DEFAULT_CAP if cap is None else cap
            log_cap = math.log(policy.multiplier) - log_mu
            if log_cap > math.log(STEP_CEILING):
                raise MeasureUnderflow(f"target measure underflows: its cap exp({log_cap:.6g}) passes 2**62")
            cap = max(math.ceil(policy.multiplier * math.exp(-log_mu)), 1)
        elif cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.word, self.cap, self.log_mu = word, int(cap), log_mu
        self.symbols = np.array(word, dtype=np.uint8 if max(word) < 256 else np.int64)
        self.needle = self.symbols.astype(np.uint8, copy=False).tobytes()
        # clip(ceil(1 / mu), FIRST_FLOOR, BLOCK), the top clip in log space; no measure: BLOCK
        if log_mu is None or -log_mu >= math.log(BLOCK):
            self.first = BLOCK
        else:
            self.first = min(max(math.ceil(math.exp(-log_mu)), FIRST_FLOOR), BLOCK)


def prepare_target(model: MeasureModel | None, target, cap=None) -> Target:
    """``target`` with its cap (see ``Target``); a prepared ``Target`` as it is.

    Under a model the target is measured once (``models.target_log_measure``),
    for the gate, the policy and the first block alike.  A prepared target
    carries its own cap, so a ``cap`` beside it raises ``ValueError``.
    """
    if isinstance(target, Target):
        if cap is not None:
            raise ValueError("a prepared target carries its own cap")
        return target
    word = as_word(target)
    return Target(word, cap, None if model is None else target_log_measure(model, word))


def _take_head(stream, n: int) -> np.ndarray:
    head = stream.take(n)
    if len(head) < n:
        raise SequenceTooShort(f"needed {n} symbols for the initial window")
    return head


# ---------------------------------------------------------------------------
# entrance and recurrence
# ---------------------------------------------------------------------------

def entrance_time(stream, target, cap: int | CapPolicy | None = None) -> TimeResult:
    """First step ``i in [1, cap]`` whose window matches ``target``.

    Consumes at most ``cap + n`` symbols from the stream; a match in the
    window at ``i = 0`` does not count.  A ``CapPolicy`` as ``cap`` (the
    default one without it) is applied to the target's measure; a
    ``Target`` made for the stream's model carries its own cap.
    """
    return _scan(stream, prepare_target(stream.model, target, cap))


def recurrence_time(stream, n: int, cap: int | CapPolicy | None = None) -> TimeResult:
    """Entrance time of the stream into its own first ``n`` symbols."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    head = _take_head(stream, n)
    target = prepare_target(stream.model, head.tolist(), cap)
    return _scan(stream, target, head=head)


# ---------------------------------------------------------------------------
# orbit measure sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitSumResult:
    """Streaming sum of ``mu(window_i)**s`` over ``i = 1 .. tau``.

    ``terms`` is the exact number of summands; at ``s = 0`` every
    summand is one, so ``terms`` *is* the sum (and equals the entrance
    step).  ``window_log_measure`` is the log-measure of the final
    window, kept for drift audits against fresh recomputation.
    """

    time: TimeResult
    log_value: float
    terms: int
    window_log_measure: float


def _window_log_measures(model: MeasureModel, buf: np.ndarray, n: int) -> np.ndarray:
    """``log mu(buf[q:q+n])`` for every window of ``buf``.

    Sums of per-symbol increments, as prefix-sum differences within the
    block: ``log p[x]`` (Bernoulli), ``log pi[x_q]`` plus
    ``log P[x_r, x_{r+1}]`` (Markov), the symbol sum in the closed form
    (geometric, exact in integers).
    """
    m = len(buf) - n + 1
    if isinstance(model, BernoulliModel):
        c = np.concatenate(([0.0], np.cumsum(model.log_p[buf])))
        return c[n:] - c[:m]
    if isinstance(model, MarkovModel):
        c = np.concatenate(([0.0], np.cumsum(model.log_P[buf[:-1], buf[1:]])))
        return model.log_pi[buf[:m]] + (c[n - 1:] - c[:m])
    c = np.concatenate(([0], np.cumsum(buf, dtype=np.int64)))
    return n * model.log_one_minus_theta + (c[n:] - c[:m]) * model.log_theta


class _OrbitSum:
    """``visit`` for ``_scan``: blockwise log-sum-exp of ``s * log mu(window)``."""

    def __init__(self, model: MeasureModel, n: int, s: float):
        self.model, self.n, self.s = model, n, s
        self.run_max = -math.inf
        self.run_sum = 0.0
        self.last = -math.inf  # log-measure of the latest window summed

    def __call__(self, buf, lo, hi):
        log_mu = _window_log_measures(self.model, buf[lo:hi + self.n - 1], self.n)
        assert np.all(log_mu > -math.inf), "zero-measure window on a realized orbit"
        terms = self.s * log_mu
        top = float(terms.max())
        if top > self.run_max:
            self.run_sum *= math.exp(self.run_max - top)
            self.run_max = top
        self.run_sum += float(np.exp(terms - self.run_max).sum())
        self.last = float(log_mu[-1])


def w_sum(stream, target, s: float = 0.0, cap: int | CapPolicy | None = None) -> OrbitSumResult:
    """Accumulate ``sum_i mu(x_i..x_{i+n-1})**s`` until entrance into ``target``.

    The return to a path's own n-prefix is the scan of a stream started
    at that prefix (``OrbitStream(model, seed, start=word)``) for it.  As
    in ``entrance_time``, a ``Target`` made for the model carries its cap.
    Window log-measures are summed afresh from per-symbol increments in
    every block, so no rounding drift accumulates along the scan, and
    merged into a running log-sum-exp; the blocks stay at ``BLOCK``
    symbols, since a finer cut would move the sums' last bits.
    """
    model = stream.model
    if model is None:
        raise ValueError("orbit measure sums need a measure model")
    if s < 0.0:
        raise ValueError(f"s must be >= 0, got {s}")
    target = prepare_target(model, target, cap)
    head = _take_head(stream, len(target.word))
    acc = _OrbitSum(model, len(head), s)
    t = _scan(stream, target, visit=acc, head=head)
    return OrbitSumResult(
        time=t,
        log_value=acc.run_max + math.log(acc.run_sum),
        terms=t.value,
        window_log_measure=acc.last,
    )
