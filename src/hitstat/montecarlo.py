"""Seeded ensemble experiments over entrance times and orbit sums.

Every experiment is an ensemble of samples addressed by index: sample
``j`` draws from the dedicated RNG substreams ``(seed, j, 0)`` (the z
role: the word-defining path) and ``(seed, j, 1)`` (the x role: the
scanned path).  A sampler keys every substream of the part it runs in one
pass and re-keys one generator per stream (``rng.Substreams``); an
exponent or tail-integral sampler draws the part's words first and gates
and measures them all in one call (``models.target_log_measure``).  One
core, ``ensemble``, hands a sampler all of a part's indices and keeps
the rows; every statistic is computed from the rows in index order.  A
run over any part of the index range (``indices=``) therefore merges
associatively into exactly the one-pass result, no matter how the range
is split across workers.

Censored samples (no event within the cap) are tracked by index,
excluded from summaries, and trip a hard ``CensoringExceeded`` once
they exceed 1% of the ensemble -- a summary over quietly truncated
data would be biased toward small exponents.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .errors import CensoringExceeded, MeasureUnderflow
from .exact import ENTRANCE, RETURN, SurvivalCurve, _time_grid, entrance_survival_stack, step_at
# unused here, but perfbench/tracing.py patches ``montecarlo.build_product_chain``
# and ``montecarlo.survival_at``
from .exact import build_product_chain, survival_at  # noqa: F401
from .models import STEP_CEILING, MeasureModel, plain_measure, renyi_entropy, shannon_entropy, target_log_measure
from .orbits import CapPolicy, OrbitStream, Target, entrance_time, prepare_target, w_sum
from .rng import Substreams

CENSOR_SUMMARY_LIMIT = 0.01
SURVIVAL_CENSOR_MASS = 1e-3  # exponential-reference mass allowed beyond the cap
SURVIVAL_CAP = CapPolicy(multiplier=-math.log(SURVIVAL_CENSOR_MASS))  # the survival samplers' scan cap
# Cephes' rational expm1 on [-0.5, 0.5] (Moshier, Methods and Programs for Mathematical Functions, 1989)
_EXPM1_P = (1.2617719307481059087798e-4, 3.0299440770744196129956e-2, 9.9999999999999999991025e-1)
_EXPM1_Q = (3.0019850513866445504159e-6, 2.5244834034968410419224e-3, 2.2726554820815502876593e-1,
            2.0000000000000000000897e0)


# ---------------------------------------------------------------------------
# the ensemble core
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ensemble:
    """Rows of an index-addressed ensemble, in index order.

    ``indices`` and ``values`` align; ``censored`` lists the sample
    indices that hit the cap.  Subclasses add the experiment's parameters
    as further fields, and parts merge only when those agree.
    """

    indices: np.ndarray
    values: np.ndarray
    censored: np.ndarray

    @property
    def total(self) -> int:
        return len(self.indices) + len(self.censored)

    @property
    def censored_fraction(self) -> float:
        return len(self.censored) / self.total if self.total else 0.0

    def merge(self, other: "Ensemble") -> "Ensemble":
        """Union of two disjoint parts of one ensemble."""
        if type(self) is not type(other) or any(
                getattr(self, f.name) != getattr(other, f.name)
                for f in fields(self)[len(fields(Ensemble)):]):
            raise ValueError("cannot merge ensembles with different parameters")
        idx = np.concatenate([self.indices, other.indices])
        cens = np.concatenate([self.censored, other.censored])
        if len(np.unique(np.concatenate([idx, cens]))) != len(idx) + len(cens):
            raise ValueError("overlapping sample indices")
        order = np.argsort(idx)
        return replace(self, indices=idx[order],
                       values=np.concatenate([self.values, other.values])[order],
                       censored=np.sort(cens))


def ensemble(samples, N: int, indices=None) -> Ensemble:
    """Rows of the samples ``indices`` (default ``range(N)``).

    ``samples(js)`` returns the value of each sample of the increasing
    index list ``js``, or ``None`` for a censored one.  An index outside
    ``[0, N)`` or given twice raises ``ValueError`` before any sample runs.
    """
    idx = np.sort(np.fromiter(range(N) if indices is None else indices, dtype=np.int64))
    if len(idx) and (idx[0] < 0 or idx[-1] >= N):
        raise ValueError("sample indices must lie in [0, N)")
    if np.any(idx[1:] == idx[:-1]):
        raise ValueError("duplicate sample indices")
    values = samples(idx.tolist())
    done = np.array([v is not None for v in values], dtype=bool)
    return Ensemble(indices=idx[done], censored=idx[~done],
                    values=np.array([v for v in values if v is not None], dtype=float))


def _words(model: MeasureModel, streams: Substreams, count: int, n: int) -> np.ndarray:
    """A part's words, one row each: the first ``n`` symbols of each of its ``count`` z-role substreams."""
    words = np.empty((count, n), dtype=np.int64)
    for i in range(count):
        words[i] = OrbitStream(model, streams.open(i, 0)).take(n)
    return words


# ---------------------------------------------------------------------------
# exponent ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentSamples(Ensemble):
    """Ensemble of ``(1/n) log tau`` (or ``(1/n) log W``) values.

    ``target`` carries the limit constant the ensemble is probing, so
    reports stay self-auditing.
    """

    kind: str
    n: int
    s: float | None
    target: float

    def summary(self) -> dict:
        """Mean/median/quantiles of the uncensored mass.

        Raises ``CensoringExceeded`` beyond the 1% censoring budget:
        truncation clips exactly the large-exponent tail, so a summary
        over such an ensemble would be silently biased.  An empty part
        raises ``ValueError``.
        """
        if self.censored_fraction > CENSOR_SUMMARY_LIMIT:
            raise CensoringExceeded(
                f"censored fraction {self.censored_fraction:.4f} exceeds "
                f"{CENSOR_SUMMARY_LIMIT:.2%}"
            )
        v = self.values
        if not len(v):
            raise ValueError("no samples to summarize: the ensemble part is empty")
        return {
            "count": int(len(v)),
            "censored": int(len(self.censored)),
            "mean": float(v.mean()),
            "median": float(np.median(v)),
            "q10": float(np.quantile(v, 0.10)),
            "q90": float(np.quantile(v, 0.90)),
            "target": self.target,
        }

    def exceedance(self, eps: float) -> dict:
        """Fractions of the uncensored samples beyond ``target +- eps`` (``eps > 0``); ValueError if none."""
        if eps <= 0.0:
            raise ValueError(f"eps must be > 0, got {eps}")
        v = self.values
        if not len(v):
            raise ValueError("no samples for an exceedance: the part is empty or all censored")
        lower = float((v < self.target - eps).mean())
        upper = float((v > self.target + eps).mean())
        return {"eps": eps, "lower": lower, "upper": upper, "two_sided": lower + upper}


def _exponent_samples(scan, diagonal, kind, model, n, s, N, seed, cap_policy, indices) -> ExponentSamples:
    """Samples of ``scan(stream, target, s) / n``, a log time or sum, ``None`` if censored.

    Sample ``j``'s word is the n-prefix of substream ``(seed, j, 0)``, and the scanned stream reads
    ``(seed, j, 1)``, or, when ``diagonal``, ``(seed, j, 0)`` on from the word.  The ensemble's
    target is ``h - s R(s)``, or ``h`` when ``s`` is ``None``.
    """
    if s is not None and s < 0.0:
        raise ValueError(f"s must be >= 0, got {s}")
    limit = shannon_entropy(model) - (s * renyi_entropy(model, s) if s is not None and s > 0.0 else 0.0)

    def samples(js):
        streams = Substreams(seed, js, (0,) if diagonal else (0, 1))
        words = _words(model, streams, len(js), n)
        values = []
        # the part's words are gated and measured in one call, each capped by the scalar rule
        for i, (word, log_mu) in enumerate(zip(words.tolist(), target_log_measure(model, words).tolist())):
            target = Target(tuple(word), cap_policy, log_mu)
            if diagonal:  # the word's stream, on from the word: its n raw words drawn again
                z = streams.open(i, 0)
                z.bit_generator.random_raw(n)
                stream = OrbitStream(model, z, start=target.word)
            else:
                stream = OrbitStream(model, streams.open(i, 1))
            value = scan(stream, target, s)
            values.append(None if value is None else value / n)
        return values

    rows = ensemble(samples, N, indices)
    return ExponentSamples(**vars(rows), kind=kind, n=n, s=s, target=limit)


def _log_tau(stream, target, s) -> float | None:
    t = entrance_time(stream, target)
    return None if t.censored else math.log(t.value)


def _log_w_sum(stream, target, s) -> float | None:
    res = w_sum(stream, target, s=s)
    return None if res.time.censored else res.log_value


def entrance_exponent_samples(model: MeasureModel, n: int, N: int, seed: int,
                              cap_policy: CapPolicy | None = None,
                              indices=None) -> ExponentSamples:
    """Samples of ``(1/n) log tau`` for entrance into an independent word.

    Sample ``j`` draws the word from the n-prefix of substream
    ``(seed, j, 0)`` and scans substream ``(seed, j, 1)``.
    """
    return _exponent_samples(_log_tau, False, "entrance", model, n, None, N, seed, cap_policy, indices)


def recurrence_exponent_samples(model: MeasureModel, n: int, N: int, seed: int,
                                cap_policy: CapPolicy | None = None,
                                indices=None) -> ExponentSamples:
    """Diagonal variant: ``(1/n) log`` of the return to the own n-prefix.

    The scan replays the prefix drawn from substream ``(seed, j, 0)`` and
    reads on from the same substream.
    """
    return _exponent_samples(_log_tau, True, "recurrence", model, n, None, N, seed, cap_policy, indices)


def orbit_sum_exponent_samples(model: MeasureModel, n: int, s: float, N: int, seed: int,
                               cap_policy: CapPolicy | None = None, diagonal: bool = False,
                               indices=None) -> ExponentSamples:
    """Samples of ``(1/n) log W_n^s`` toward ``h - s R(s)``.

    ``diagonal=True`` targets the stream's own prefix (at ``s = 0`` this
    is exactly the recurrence ensemble).
    """
    return _exponent_samples(_log_w_sum, diagonal, "orbit-sum", model, n, s, N, seed, cap_policy, indices)


# ---------------------------------------------------------------------------
# empirical survival curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurvivalExperiment(Ensemble):
    """Sampled entrance/return times with their empirical curve.

    ``values`` holds the uncensored step counts.  A censored sample certifies
    ``tau > cap``: it survives every step up to the cap, which no grid step
    passes (``survival_target``), and counts in every value's denominator.
    """

    kind: str
    word: tuple
    t_grid: tuple
    mu: float
    cap: int

    @property
    def times(self) -> np.ndarray:
        return self.values.astype(np.int64)

    @property
    def mean_time(self) -> float:
        if not len(self.values):
            raise ValueError("no uncensored times to average: the part is empty or all censored")
        return float(self.times.mean())

    @cached_property
    def curve(self) -> SurvivalCurve:
        if not self.total:
            raise ValueError("no samples for a curve: the ensemble part is empty")
        t = np.asarray(self.t_grid, dtype=float)
        m_of = step_at(t, self.mu)
        # times above m, and the censored samples while m <= cap: they certify tau > cap
        hold = len(self.values) - np.searchsorted(np.sort(self.times), m_of, side="right")
        hold += np.where(m_of <= self.cap, len(self.censored), 0)
        return SurvivalCurve(m=m_of, t=t, values=hold / self.total, kind=self.kind,
                             exactness=f"empirical({self.total})")

    @cached_property
    def ks(self) -> float:
        """Kolmogorov-Smirnov distance of the uncensored rescaled times to the unit exponential."""
        x = np.sort(self.times * self.mu)
        n = len(x)
        # scipy.stats.kstest(x, "expon").statistic, bit for bit, without scipy: its cdf
        # is scipy.special's expm1, which np.expm1 does not match in every last bit
        cdf = -_expm1(-x)
        d = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max()) if n else 1.0
        return float(d)


def _expm1(x: np.ndarray) -> np.ndarray:
    """``exp(x) - 1`` elementwise for ``x <= 0``, bit for bit as ``scipy.special.expm1`` gives it.

    That is Cephes' form: a rational function of ``x**2`` for ``|x| <= 0.5``,
    evaluated in Horner order, and libm's ``exp(x) - 1.0`` beyond.  The far
    points go through ``math.exp`` (which cannot overflow for ``x <= 0``):
    ``np.exp`` differs from libm in the last bit on a few of them.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    near = np.abs(x) <= 0.5
    y = x[near]
    yy = y * y
    p0, p1, p2 = _EXPM1_P
    q0, q1, q2, q3 = _EXPM1_Q
    r = y * ((p0 * yy + p1) * yy + p2)
    r = r / ((((q0 * yy + q1) * yy + q2) * yy + q3) - r)
    out[near] = r + r
    out[~near] = [math.exp(v) - 1.0 for v in x[~near].tolist()]
    return out


def survival_target(model: MeasureModel, word, t_grid) -> tuple:
    """A survival word's scan target at ``SURVIVAL_CAP``, its measure and its checked time grid.

    No sampled time passes the cap, so a grid whose last step passes it raises ``ValueError``.
    """
    target = prepare_target(model, word, SURVIVAL_CAP)
    mu = plain_measure(target.log_mu)
    t = _time_grid(t_grid)
    last = int(step_at(t[-1], mu))
    if last > target.cap:
        raise ValueError(f"t grid ends at step {last}, past the survival scan's cap {target.cap}")
    return target, mu, t


def _survival_experiment(model, word, N, t_grid, seed, kind, indices) -> SurvivalExperiment:
    # every sample scans for the one word, gated and measured once
    target, mu, t = survival_target(model, word, t_grid)
    start = target.word if kind == RETURN else None

    def samples(js):
        streams = Substreams(seed, js, (1,))
        taus = [entrance_time(OrbitStream(model, streams.open(i, 1), start=start), target) for i in range(len(js))]
        return [None if tau.censored else tau.value for tau in taus]

    return SurvivalExperiment(**vars(ensemble(samples, N, indices)), kind=kind,
                              word=target.word, t_grid=tuple(t.tolist()), mu=mu, cap=target.cap)


def empirical_survival(model: MeasureModel, z_word, N: int, t_grid, seed: int,
                       indices=None) -> SurvivalExperiment:
    """Entrance-time ensemble for a fixed word, rescaled by its measure.

    The cap keeps the censored mass below ``1e-3`` under the limiting
    unit exponential; the KS statistic is computed on uncensored mass.
    """
    return _survival_experiment(model, z_word, N, t_grid, seed, ENTRANCE, indices)


def empirical_return_survival(model: MeasureModel, z_word, N: int, t_grid, seed: int,
                              indices=None) -> SurvivalExperiment:
    """Return-time ensemble: paths start inside the word's cylinder.

    Conditional sampling is exact -- the first ``|B|`` symbols are
    pinned and the kernel continues from the word's last symbol; no
    rejection step is involved.
    """
    return _survival_experiment(model, z_word, N, t_grid, seed, RETURN, indices)


def dkw_epsilon(N: int, alpha: float = 0.001) -> float:
    """Dvoretzky-Kiefer-Wolfowitz band half-width at confidence 1-alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * N))


# ---------------------------------------------------------------------------
# tail integral across words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailIntegral(Ensemble):
    """Word average of an exact tail probability; ``std_error`` is ``None`` below two words."""

    n: int
    epsilon: float

    @property
    def estimate(self) -> float:
        if not len(self.values):
            raise ValueError("no words to average: the ensemble part is empty")
        return float(self.values.mean())

    @property
    def std_error(self) -> float | None:
        words = len(self.values)
        return float(self.values.std(ddof=1) / math.sqrt(words)) if words > 1 else None


def survival_tail_integral(model: MeasureModel, n: int, epsilon: float, n_outer: int,
                           seed: int, indices=None) -> TailIntegral:
    """Estimate of the word-averaged rescaled tail ``P(tau >= e^(n*eps)/mu)``.

    Outer Monte Carlo over words drawn from the measure; the inner
    probability is computed exactly from each word's absorbing chain.
    Its decay in ``n`` is the summability diagnostic behind the
    exponential entrance law.  Sample ``j``'s word is the n-prefix of
    substream ``(seed, j, 0)``; the words of one run (or one part of it)
    are sorted by step count and built in shared stacks, each step
    count's slice walked once (``exact.entrance_survival_stack``).
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if n * epsilon > math.log(STEP_CEILING):  # mu <= 1, so every step count e^(n*eps)/mu passes it too
        raise MeasureUnderflow(f"every step count passes 2**62: its threshold exp({n * epsilon:.6g}) does")
    threshold = math.exp(n * epsilon)

    def samples(js):
        return entrance_survival_stack(model, _words(model, Substreams(seed, js, (0,)), len(js), n), threshold)

    return TailIntegral(**vars(ensemble(samples, n_outer, indices)), n=n, epsilon=epsilon)
