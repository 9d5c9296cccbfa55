"""Seeded ensemble experiments over entrance times and orbit sums.

Every experiment is an ensemble of samples addressed by index: sample
``j`` draws from the dedicated RNG substreams ``(seed, j, 0)`` (the z
role: the word-defining path) and ``(seed, j, 1)`` (the x role: the
scanned path).  A sampler keys every substream of the part it runs in one
pass and re-keys one generator per stream (``rng.Substreams``).  One
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
from scipy.special import expm1

from .errors import CensoringExceeded
from .exact import ENTRANCE, RETURN, SurvivalCurve, _time_grid, entrance_survival_stack, step_at
# unused here, but perfbench/tracing.py patches ``montecarlo.build_product_chain``
# and ``montecarlo.survival_at``
from .exact import build_product_chain, survival_at  # noqa: F401
from .models import (
    MeasureModel,
    plain_measure,
    renyi_entropy,
    shannon_entropy,
    target_log_measure,
)
from .orbits import CapPolicy, OrbitStream, Target, entrance_time, w_sum
from .rng import Substreams
from .words import as_word

CENSOR_SUMMARY_LIMIT = 0.01
SURVIVAL_CENSOR_MASS = 1e-3  # exponential-reference mass allowed beyond the cap


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


def _keyed(seed: int, roles, sample):
    """``samples`` for ``ensemble`` from ``sample(streams, i)``, the value of a part's i-th index.

    The part's substreams of every role in ``roles`` are keyed in one pass;
    ``streams.open(i, role)`` re-keys their one generator, so a sample
    finishes with a stream before it opens the next.
    """
    def samples(js):
        streams = Substreams(seed, js, roles)
        return [sample(streams, i) for i in range(len(js))]
    return samples


def _prefix(model: MeasureModel, rng, n: int) -> tuple:
    """The first ``n`` symbols of the path ``rng`` draws: a word, from its z-role substream."""
    return tuple(OrbitStream(model, rng).take(n).tolist())


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
        """Fractions of samples straying beyond ``target +- eps``, for ``eps > 0``."""
        if eps <= 0.0:
            raise ValueError(f"eps must be > 0, got {eps}")
        v = self.values
        lower = float((v < self.target - eps).mean()) if len(v) else 0.0
        upper = float((v > self.target + eps).mean()) if len(v) else 0.0
        return {"eps": eps, "lower": lower, "upper": upper, "two_sided": lower + upper}


def _exponents(samples, N, indices, kind, n, s, target) -> ExponentSamples:
    return ExponentSamples(**vars(ensemble(samples, N, indices)), kind=kind, n=n, s=s, target=target)


def entrance_exponent_samples(model: MeasureModel, n: int, N: int, seed: int,
                              cap_policy: CapPolicy | None = None,
                              indices=None) -> ExponentSamples:
    """Samples of ``(1/n) log tau`` for entrance into an independent word.

    Sample ``j`` draws the word from the n-prefix of substream
    ``(seed, j, 0)`` and scans substream ``(seed, j, 1)``.
    """
    def sample(streams, i):
        word = _prefix(model, streams.open(i, 0), n)
        t = entrance_time(OrbitStream(model, streams.open(i, 1)), word, cap=cap_policy)
        return None if t.censored else math.log(t.value) / n

    return _exponents(_keyed(seed, (0, 1), sample), N, indices, "entrance", n, None,
                      shannon_entropy(model))


def recurrence_exponent_samples(model: MeasureModel, n: int, N: int, seed: int,
                                cap_policy: CapPolicy | None = None,
                                indices=None) -> ExponentSamples:
    """Diagonal variant: ``(1/n) log`` of the return to the own n-prefix.

    The scan replays the prefix drawn from substream ``(seed, j, 0)`` and
    reads on from the same substream.
    """
    def sample(streams, i):
        z = streams.open(i, 0)
        prefix = _prefix(model, z, n)
        t = entrance_time(OrbitStream(model, z, start=prefix), prefix, cap=cap_policy)
        return None if t.censored else math.log(t.value) / n

    return _exponents(_keyed(seed, (0,), sample), N, indices, "recurrence", n, None,
                      shannon_entropy(model))


def orbit_sum_exponent_samples(model: MeasureModel, n: int, s: float, N: int, seed: int,
                               cap_policy: CapPolicy | None = None, diagonal: bool = False,
                               indices=None) -> ExponentSamples:
    """Samples of ``(1/n) log W_n^s`` toward ``h - s R(s)``.

    ``diagonal=True`` targets the stream's own prefix (at ``s = 0`` this
    is exactly the recurrence ensemble).
    """
    if s < 0.0:
        raise ValueError(f"s must be >= 0, got {s}")
    target = shannon_entropy(model) - (s * renyi_entropy(model, s) if s > 0.0 else 0.0)

    def sample(streams, i):
        z = streams.open(i, 0)
        word = _prefix(model, z, n)
        if diagonal:  # the path goes on from its own prefix
            stream = OrbitStream(model, z, start=word)
        else:
            stream = OrbitStream(model, streams.open(i, 1))
        res = w_sum(stream, word, s=s, cap=cap_policy)
        return None if res.time.censored else res.log_value / n

    roles = (0,) if diagonal else (0, 1)
    return _exponents(_keyed(seed, roles, sample), N, indices, "orbit-sum", n, s, target)


# ---------------------------------------------------------------------------
# empirical survival curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KsResult:
    """Kolmogorov-Smirnov distance of the rescaled times to the unit exponential."""
    statistic: float
    sample_count: int


@dataclass(frozen=True)
class SurvivalExperiment(Ensemble):
    """Sampled entrance/return times with their empirical curve.

    ``values`` holds the uncensored step counts; censored samples sit as
    right-censored mass at ``cap`` (they still certify ``tau > cap``, so
    they support the curve up to the cap and are dropped beyond it).
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
    def censored_count(self) -> int:
        return len(self.censored)

    @property
    def mean_time(self) -> float:
        if not len(self.values):
            raise ValueError("no uncensored times to average: the part is empty or all censored")
        return float(self.times.mean())

    @property
    def rescaled(self) -> np.ndarray:
        return self.times * self.mu

    @cached_property
    def curve(self) -> SurvivalCurve:
        if not self.total:
            raise ValueError("no samples for a curve: the ensemble part is empty")
        t = np.asarray(self.t_grid, dtype=float)
        m_of = step_at(t, self.mu)
        # times above m, and the censored samples while m <= cap: they certify tau > cap
        hold = len(self.values) - np.searchsorted(np.sort(self.times), m_of, side="right")
        hold += np.where(m_of <= self.cap, self.censored_count, 0)
        return SurvivalCurve(m=m_of, t=t, values=hold / self.total, kind=self.kind,
                             exactness="empirical", mu=self.mu, word=self.word,
                             sample_count=self.total)

    @cached_property
    def ks(self) -> KsResult:
        x = np.sort(self.rescaled)
        n = len(x)
        # scipy.stats.kstest(x, "expon").statistic without loading scipy.stats; its cdf
        # is scipy.special's expm1, which np.expm1 does not match in every last bit
        cdf = -expm1(-x)
        d = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max()) if n else 1.0
        return KsResult(statistic=float(d), sample_count=n)


def _survival_cap(mu: float) -> int:
    return math.ceil(-math.log(SURVIVAL_CENSOR_MASS) / mu)


def _survival_experiment(model, word, N, t_grid, seed, kind, indices) -> SurvivalExperiment:
    word = as_word(word)
    log_mu = target_log_measure(model, word)
    mu = plain_measure(log_mu)
    t = _time_grid(t_grid)
    cap = _survival_cap(mu)
    target = Target(word, cap, log_mu)  # every sample scans for the one word, measured once
    start = word if kind == RETURN else None

    def sample(streams, i):
        tau = entrance_time(OrbitStream(model, streams.open(i, 1), start=start), target)
        return None if tau.censored else tau.value

    return SurvivalExperiment(**vars(ensemble(_keyed(seed, (1,), sample), N, indices)), kind=kind,
                              word=word, t_grid=tuple(t.tolist()), mu=mu, cap=cap)


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
    """Monte Carlo average over words of an exact tail probability."""

    n: int
    epsilon: float

    @property
    def estimate(self) -> float:
        if not len(self.values):
            raise ValueError("no words to average: the ensemble part is empty")
        return float(self.values.mean())

    @property
    def std_error(self) -> float:
        words = len(self.values)
        return float(self.values.std(ddof=1) / math.sqrt(words)) if words > 1 else 0.0


def survival_tail_integral(model: MeasureModel, n: int, epsilon: float, n_outer: int,
                           seed: int, indices=None) -> TailIntegral:
    """Estimate of the word-averaged rescaled tail ``P(tau >= e^(n*eps)/mu)``.

    Outer Monte Carlo over words drawn from the measure; the inner
    probability is computed exactly from each word's absorbing chain.
    Its decay in ``n`` is the summability diagnostic behind the
    exponential entrance law.  Sample ``j``'s word is the n-prefix of
    substream ``(seed, j, 0)``; the words of one run (or one part of it)
    share one stacked chain build and one walk
    (``exact.entrance_survival_stack``).
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    threshold = math.exp(n * epsilon)

    def samples(js):
        streams = Substreams(seed, js, (0,))
        words = [_prefix(model, streams.open(i, 0), n) for i in range(len(js))]
        return entrance_survival_stack(model, words, threshold)

    return TailIntegral(**vars(ensemble(samples, n_outer, indices)), n=n, epsilon=epsilon)
