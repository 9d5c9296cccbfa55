"""Seeded orbits and their pathwise statistics.

An ``OrbitStream`` is a lazily generated stationary sample path of a
measure model: the first symbol follows the stationary law, later ones
the conditional kernel.  Everything downstream is a deterministic
function of ``(model, seed)``; seeds may be tuples, so experiments can
hand sample ``j`` the substream ``(seed, j)`` and stay reproducible under
any parallel schedule.  A stream may also read a ready generator, such
as one that ``rng.Substreams`` re-keyed to a sample's substream.  A
stream started at a word (``start=``) plays it first, so the return to a
path's own n-prefix is a scan of such a stream for that prefix.

Time conventions (fixed throughout the package):

* the orbit's windows are ``x_i .. x_{i+n-1}`` for ``i = 0, 1, 2, ...``;
* the entrance time into a word is the smallest ``i >= 1`` whose window
  equals it -- the window at ``i = 0`` never counts;
* orbit measure sums run over ``i = 1 .. tau`` inclusive.

Every scan is one pass of ``_scan``, which reads the stream in blocks,
carries the last ``n - 1`` symbols into the next block and applies a
hard cap: when no event occurs within ``cap`` windows the result is
right-censored at the cap.  The target word is found by a byte search
of each block, and orbit sums take every window log-measure of a block
at once.  The entrance law rescales time by ``mu(w)``, so an entrance or
recurrence scan under a model expects about ``1/mu(w)`` symbols: its
first block is ``clip(ceil(FIRST_SCALE / mu(w)), FIRST_FLOOR, BLOCK)``
symbols, and later ones double up to ``BLOCK``.  Orbit sums, and replays
without a model, read blocks of ``BLOCK``.  A block cut moves no symbol,
so no time depends on it.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

# unused here, but perfbench/tracing.py patches ``orbits.build_automaton``
from .automata import build_automaton  # noqa: F401
from .errors import EmptyInput, SequenceTooShort
from .models import BernoulliModel, MarkovModel, MeasureModel, target_log_measure
from .rng import substream
from .words import as_word

BLOCK = 4096
FIRST_SCALE = 1.0  # a first block holds about FIRST_SCALE / mu(w) symbols ...
FIRST_FLOOR = 64  # ... and never fewer than this

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

    def cap_for(self, model: MeasureModel, target) -> int:
        return prepare_target(model, target, self).cap


class OrbitStream:
    """Deterministic stationary sample path, read in blocks.

    ``start`` pins the first symbols: the stream plays them, then
    continues with the kernel from the last one (a path conditioned on
    its initial cylinder).  Without it the path starts from the
    stationary law.  ``seed`` is a substream key (an int or a tuple) or a
    ``numpy.random.Generator`` that the stream then draws from.

    Single-owner mutable state: one stream feeds one scan at a time.
    Many streams over one shared model may run concurrently.
    """

    def __init__(self, model: MeasureModel, seed, start=None):
        self.model = model
        if isinstance(seed, np.random.Generator):
            self._rng = seed
        else:
            self._rng = substream(*seed) if isinstance(seed, tuple) else substream(seed)
        self.position = 0
        self._buf = _EMPTY if start is None else np.array(as_word(start), dtype=np.int64)
        self._off = 0
        # previous symbol, the Markov state between blocks
        self._last = -1 if start is None else int(self._buf[-1])

    def take(self, count: int) -> np.ndarray:
        """Next ``count`` symbols (always full for generated streams)."""
        if count <= 0:
            return _EMPTY
        avail = len(self._buf) - self._off
        if avail >= count:
            out = self._buf[self._off:self._off + count]
            self._off += count
        else:
            parts = [self._buf[self._off:]] if avail else []
            parts.append(self._generate(count - avail))
            self._buf = _EMPTY
            self._off = 0
            out = np.concatenate(parts) if len(parts) > 1 else parts[0]
        self.position += count
        return out

    def _generate(self, count: int) -> np.ndarray:
        model = self.model
        if isinstance(model, BernoulliModel):
            # the inner cut points at or below u: the clipped bisect of all k
            if model.k == 2:
                return (self._rng.random(count) >= model.cum_p[0]).astype(np.int64)
            return np.searchsorted(model.cum_p[:-1], self._rng.random(count), side="right")
        if isinstance(model, MarkovModel):
            maps = model.update_maps
            u = self._rng.random(count)
            s = self._last
            fresh = s < 0
            if fresh:  # the stationary first symbol
                s = min(bisect_right(maps.cum_pi, u[0]), model.k - 1)
                u = u[1:]
            if model.k == 2:
                # from state s the next is u >= cum_P[s, 0]: u below both cut points gives 0
                # and u at or above both gives 1 (a constant); u between keeps s (c1 <= c0) or
                # swaps it.  Every step but a constant keeps y_t = x_t XOR (t mod 2) on a swap
                # chain (y = x else), so y_t is the last constant's y at or before t, else s
                c0, c1 = model.cum_P[:, 0].tolist()
                swap = c1 > c0
                lo, hi = (c0, c1) if swap else (c1, c0)
                top = u >= hi
                hit = np.flatnonzero(top | (u < lo))  # the constants, at steps hit + 1
                value = np.concatenate(([s], top[hit]))
                if swap:
                    value[1:] ^= (hit + 1) & 1
                edges = np.concatenate(([-1], hit, [len(u)]))
                out = np.repeat(value, edges[1:] - edges[:-1])
                if swap:
                    out[1::2] ^= 1
                out = out[0 if fresh else 1:]
            else:
                rows = maps.rows
                path = [s] if fresh else []
                append = path.append
                for x in np.searchsorted(maps.breaks, u, side="right").tolist():
                    s = rows[x][s]
                    append(s)
                out = np.array(path, dtype=np.int64)
            self._last = int(out[-1])
            return out
        # inversion: u < 1 keeps every symbol below -log(2**-53) / |log theta|
        return np.floor(np.log1p(-self._rng.random(count)) / model.log_theta).astype(np.int64)


def as_symbols(symbols) -> np.ndarray:
    """Contiguous symbol array in its own integer dtype; anything else as int64."""
    arr = np.asarray(symbols)
    if not np.issubdtype(arr.dtype, np.integer):
        arr = arr.astype(np.int64)
    return np.ascontiguousarray(arr)


class ReplayStream:
    """Stream interface over recorded symbols; exhausts with short reads.

    The symbols keep their integer dtype (``uint8`` from ``streams.ingest``
    stays one byte per symbol); non-integer input is read as int64.  Every
    scan gives the same results on any integer dtype holding the same
    values.
    """

    def __init__(self, symbols, model: MeasureModel | None = None):
        arr = as_symbols(symbols)
        if arr.ndim != 1 or arr.size == 0:
            raise EmptyInput("replay data must be a non-empty 1-d symbol array")
        self.symbols = arr
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

def _scan(stream, target: Target, first: int, visit=None, head=_EMPTY) -> TimeResult:
    """One pass over the windows ``i = 0 .. cap`` of ``stream``, in blocks.

    ``head`` holds symbols already taken from the stream (the first
    ``len(head)`` of window 0).  Each block ``buf`` is the carried tail
    of the previous one plus ``stream.take(min(size, budget))``, where
    ``size`` is ``first``, then doubles up to ``BLOCK``; its window at
    offset ``q`` is ``buf[q:q+n]``, window ``i0 + q`` of the orbit.
    ``target.find(buf, lo, hi)`` returns the first offset in ``[lo, hi)``
    whose window is an event, or -1; ``visit(buf, i0, lo, hi)`` then sees
    the block's windows up to and including the event.  ``lo`` skips
    window 0, which is never an event.

    Returns the first event step, else ``target.cap`` censored.  When a
    replay stream runs dry first, the result is censored at the last
    complete window, ``consumed - n``.
    """
    n, find = len(target.word), target.find
    carry = head
    i0 = 0
    budget = target.cap + n - len(head)
    size = first
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
        q = find(buf, lo, count)
        if visit is not None:
            visit(buf, i0, lo, count if q < 0 else q + 1)
        if q >= 0:
            return TimeResult(value=i0 + q)
        carry = buf[count:]
        i0 += count
    return TimeResult(value=target.cap, censored=True)


def _word_finder(word):
    """``find`` for ``_scan``: the first window of a block equal to ``word``.

    ``bytes.find`` searches the windows with symbols taken mod 256 (free
    for ``uint8`` data), so every match is a byte match; a byte match
    counts only where the full symbols agree: exact on any integer alphabet.
    """
    w = np.array(word, dtype=np.int64)
    needle = w.astype(np.uint8).tobytes()
    n = len(w)

    def find(buf: np.ndarray, lo: int, hi: int) -> int:
        windows = buf[lo:hi + n - 1]
        hay = windows.astype(np.uint8, copy=False).tobytes()
        q = hay.find(needle)
        while q >= 0 and not np.array_equal(windows[q:q + n], w):
            q = hay.find(needle, q + 1)
        return q if q < 0 else lo + q

    return find


class Target:
    """A word ready to scan: its cap, byte finder and first block, made once for any number of scans."""

    def __init__(self, word, cap: int, log_mu: float | None):
        self.word, self.cap = word, cap
        self.find = _word_finder(word)
        # clip(ceil(FIRST_SCALE / mu), FIRST_FLOOR, BLOCK), the top clip in log space; no measure: BLOCK
        if log_mu is None or math.log(FIRST_SCALE) - log_mu >= math.log(BLOCK):
            self.first = BLOCK
        else:
            self.first = min(max(math.ceil(FIRST_SCALE * math.exp(-log_mu)), FIRST_FLOOR), BLOCK)


def prepare_target(model: MeasureModel | None, target, cap=None) -> Target:
    """``target`` with its cap: ``cap`` itself, or a ``CapPolicy`` (``None``: the default) of it.

    Under a model the target is measured once (``models.target_log_measure``),
    for the gate, the policy and the first block alike.
    """
    word = as_word(target)
    log_mu = None if model is None else target_log_measure(model, word)
    if cap is None or isinstance(cap, CapPolicy):
        if log_mu is None:
            raise ValueError("replay streams without a model need an explicit cap")
        policy = CapPolicy() if cap is None else cap
        cap = max(math.ceil(policy.multiplier * math.exp(-log_mu)), 1)
    elif cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    return Target(word, int(cap), log_mu)


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
    if not isinstance(target, Target):
        target = prepare_target(stream.model, target, cap)
    elif cap is not None:
        raise ValueError("a prepared target carries its own cap")
    return _scan(stream, target, target.first)


def recurrence_time(stream, n: int, cap: int | CapPolicy | None = None) -> TimeResult:
    """Entrance time of the stream into its own first ``n`` symbols."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    head = _take_head(stream, n)
    target = prepare_target(stream.model, head.tolist(), cap)
    return _scan(stream, target, target.first, head=head)


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

    def __call__(self, buf, i0, lo, hi):
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
    at that prefix (``OrbitStream(model, seed, start=word)``) for it.
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
    target = as_word(target)
    head = _take_head(stream, len(target))
    target = prepare_target(model, target, cap)
    acc = _OrbitSum(model, len(head), s)
    t = _scan(stream, target, BLOCK, visit=acc, head=head)
    return OrbitSumResult(
        time=t,
        log_value=acc.run_max + math.log(acc.run_sum),
        terms=t.value,
        window_log_measure=acc.last,
    )
