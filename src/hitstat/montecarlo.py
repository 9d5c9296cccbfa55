"""Seeded ensemble experiments over entrance times and orbit sums.

Every sampler draws sample ``j`` from the dedicated RNG substreams
``(seed, j, 0)`` (the z role: the word-defining path) and
``(seed, j, 1)`` (the x role: the scanned path), so results are
identical no matter how the index range is split across workers.
Samplers accept an explicit ``indices`` iterable for sharding; partial
results merge associatively into the same totals.

Censored samples (no event within the cap) are tracked by index,
excluded from summaries, and trip a hard ``CensoringExceeded`` once
they exceed 1% of the ensemble -- a summary over quietly truncated
data would be biased toward small exponents.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats

from .errors import CensoringExceeded, ZeroMeasureTarget
from .exact import ENTRANCE, RETURN, SurvivalCurve, build_product_chain, step_at, survival_at
from .models import (
    MeasureModel,
    cylinder_measure,
    log_cylinder_measure,
    renyi_entropy,
    shannon_entropy,
)
from .orbits import CapPolicy, OrbitStream, entrance_time, sample_orbit, w_sum
from .words import as_word

CENSOR_SUMMARY_LIMIT = 0.01
SURVIVAL_CENSOR_MASS = 1e-3  # exponential-reference mass allowed beyond the cap


# ---------------------------------------------------------------------------
# exponent ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentSamples:
    """Ensemble of ``(1/n) log tau`` (or ``(1/n) log W``) values.

    ``indices`` and ``values`` align; ``censored`` lists the sample
    indices that hit the cap.  ``target`` carries the limit constant the
    ensemble is probing, so reports stay self-auditing.
    """

    kind: str
    n: int
    s: float | None
    target: float
    indices: np.ndarray
    values: np.ndarray
    censored: np.ndarray

    @property
    def total(self) -> int:
        return len(self.indices) + len(self.censored)

    @property
    def censored_fraction(self) -> float:
        return len(self.censored) / self.total if self.total else 0.0

    def merge(self, other: "ExponentSamples") -> "ExponentSamples":
        if (self.kind, self.n, self.s, self.target) != (other.kind, other.n, other.s, other.target):
            raise ValueError("cannot merge ensembles with different parameters")
        idx = np.concatenate([self.indices, other.indices])
        if len(np.unique(idx)) != len(idx):
            raise ValueError("overlapping sample indices")
        order = np.argsort(idx)
        return replace(
            self,
            indices=idx[order],
            values=np.concatenate([self.values, other.values])[order],
            censored=np.sort(np.concatenate([self.censored, other.censored])),
        )

    def summary(self) -> dict:
        """Mean/median/quantiles of the uncensored mass.

        Raises ``CensoringExceeded`` beyond the 1% censoring budget:
        truncation clips exactly the large-exponent tail, so a summary
        over such an ensemble would be silently biased.
        """
        if self.censored_fraction > CENSOR_SUMMARY_LIMIT:
            raise CensoringExceeded(
                f"censored fraction {self.censored_fraction:.4f} exceeds "
                f"{CENSOR_SUMMARY_LIMIT:.2%}"
            )
        v = self.values
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
        """Fractions of samples straying beyond ``target +- eps``."""
        v = self.values
        lower = float((v < self.target - eps).mean()) if len(v) else 0.0
        upper = float((v > self.target + eps).mean()) if len(v) else 0.0
        return {"eps": eps, "lower": lower, "upper": upper, "two_sided": lower + upper}


def _resolve_indices(N: int, indices) -> list[int]:
    if indices is None:
        return list(range(N))
    out = [int(j) for j in indices]
    if any(j < 0 or j >= N for j in out):
        raise ValueError("sample indices must lie in [0, N)")
    return out


def _collect(kind: str, n: int, s: float | None, target: float, rows) -> ExponentSamples:
    idx, vals, cens = [], [], []
    for j, value in rows:
        if value is None:
            cens.append(j)
        else:
            idx.append(j)
            vals.append(value)
    return ExponentSamples(
        kind=kind,
        n=n,
        s=s,
        target=target,
        indices=np.array(idx, dtype=np.int64),
        values=np.array(vals, dtype=float),
        censored=np.array(cens, dtype=np.int64),
    )


def entrance_exponent_samples(model: MeasureModel, n: int, N: int, seed: int,
                              cap_policy: CapPolicy | None = None,
                              indices=None) -> ExponentSamples:
    """Samples of ``(1/n) log tau`` for entrance into an independent word.

    Sample ``j`` draws the word from the n-prefix of substream
    ``(seed, j, 0)`` and scans substream ``(seed, j, 1)``.
    """
    policy = cap_policy or CapPolicy()
    rows = []
    for j in _resolve_indices(N, indices):
        word = tuple(int(x) for x in sample_orbit(model, (seed, j, 0), n))
        cap = policy.cap_for(model, word)
        t = entrance_time(OrbitStream(model, (seed, j, 1)), word, cap=cap)
        rows.append((j, None if t.censored else math.log(t.value) / n))
    return _collect("entrance", n, None, shannon_entropy(model), rows)


def recurrence_exponent_samples(model: MeasureModel, n: int, N: int, seed: int,
                                cap_policy: CapPolicy | None = None,
                                indices=None) -> ExponentSamples:
    """Diagonal variant: ``(1/n) log`` of the return to the own n-prefix."""
    policy = cap_policy or CapPolicy()
    rows = []
    for j in _resolve_indices(N, indices):
        prefix = tuple(int(x) for x in sample_orbit(model, (seed, j, 0), n))
        cap = policy.cap_for(model, prefix)
        t = entrance_time(OrbitStream(model, (seed, j, 0)), prefix, cap=cap)
        rows.append((j, None if t.censored else math.log(t.value) / n))
    return _collect("recurrence", n, None, shannon_entropy(model), rows)


def orbit_sum_exponent_samples(model: MeasureModel, n: int, s: float, N: int, seed: int,
                               cap_policy: CapPolicy | None = None, diagonal: bool = False,
                               indices=None) -> ExponentSamples:
    """Samples of ``(1/n) log W_n^s`` toward ``h - s R(s)``.

    ``diagonal=True`` targets the stream's own prefix (at ``s = 0`` this
    is exactly the recurrence ensemble).
    """
    if s < 0.0:
        raise ValueError(f"s must be >= 0, got {s}")
    policy = cap_policy or CapPolicy()
    target = shannon_entropy(model) - (s * renyi_entropy(model, s) if s > 0.0 else 0.0)
    rows = []
    for j in _resolve_indices(N, indices):
        word = tuple(int(x) for x in sample_orbit(model, (seed, j, 0), n))
        cap = policy.cap_for(model, word)
        if diagonal:
            res = w_sum(OrbitStream(model, (seed, j, 0)), s=s, cap=cap, n=n)
        else:
            res = w_sum(OrbitStream(model, (seed, j, 1)), target=word, s=s, cap=cap)
        rows.append((j, None if res.time.censored else res.log_value / n))
    return _collect("orbit-sum", n, s, target, rows)


# ---------------------------------------------------------------------------
# empirical survival curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KsResult:
    statistic: float
    sample_count: int
    reference: str = "unit-exponential"


@dataclass(frozen=True)
class SurvivalExperiment:
    """Sampled entrance/return times with their empirical curve.

    ``times`` holds uncensored step counts; censored samples sit as
    right-censored mass at ``cap`` (they still certify ``tau > cap``, so
    they support the curve up to the cap and are dropped beyond it).
    """

    curve: SurvivalCurve
    ks: KsResult
    times: np.ndarray
    censored_count: int
    cap: int
    mu: float

    @property
    def mean_time(self) -> float:
        return float(self.times.mean())

    @property
    def rescaled(self) -> np.ndarray:
        return self.times * self.mu


def _survival_cap(mu: float) -> int:
    return math.ceil(-math.log(SURVIVAL_CENSOR_MASS) / mu)


def _empirical_experiment(model, word, N, t_grid, seed, kind, start_word) -> SurvivalExperiment:
    word = as_word(word)
    log_mu = log_cylinder_measure(model, word)
    if log_mu == -math.inf:
        raise ZeroMeasureTarget(f"word {word} has measure zero")
    mu = math.exp(log_mu)
    cap = _survival_cap(mu)
    times = np.empty(N, dtype=np.int64)
    censored = 0
    for j in range(N):
        t = entrance_time(OrbitStream(model, (seed, j, 1), start=start_word), word, cap=cap)
        if t.censored:
            times[j] = -1
            censored += 1
        else:
            times[j] = t.value
    uncensored = times[times > 0]
    t = np.asarray(list(t_grid), dtype=float)
    if t.ndim != 1 or len(t) == 0 or np.any(t < 0) or np.any(np.diff(t) <= 0):
        raise ValueError("t grid must be non-negative and strictly increasing")
    m_of = step_at(t, mu)
    values = np.empty(len(t))
    for i, m in enumerate(m_of):
        hold = int((uncensored > m).sum())
        if m <= cap:
            hold += censored  # censored certify tau > cap >= m
        values[i] = hold / N
    curve = SurvivalCurve(
        m=m_of,
        t=t,
        values=values,
        kind=kind,
        exactness="empirical",
        mu=mu,
        word=word,
        sample_count=N,
    )
    ks_stat = float(stats.kstest(uncensored * mu, "expon").statistic) if len(uncensored) else 1.0
    return SurvivalExperiment(
        curve=curve,
        ks=KsResult(statistic=ks_stat, sample_count=len(uncensored)),
        times=uncensored,
        censored_count=censored,
        cap=cap,
        mu=mu,
    )


def empirical_survival(model: MeasureModel, z_word, N: int, t_grid, seed: int) -> SurvivalExperiment:
    """Entrance-time ensemble for a fixed word, rescaled by its measure.

    The cap keeps the censored mass below ``1e-3`` under the limiting
    unit exponential; the KS statistic is computed on uncensored mass.
    """
    return _empirical_experiment(model, z_word, N, t_grid, seed, ENTRANCE, start_word=None)


def empirical_return_survival(model: MeasureModel, z_word, N: int, t_grid, seed: int) -> SurvivalExperiment:
    """Return-time ensemble: paths start inside the word's cylinder.

    Conditional sampling is exact -- the first ``|B|`` symbols are
    pinned and the kernel continues from the word's last symbol; no
    rejection step is involved.
    """
    word = as_word(z_word)
    return _empirical_experiment(model, word, N, t_grid, seed, RETURN, start_word=word)


def dkw_epsilon(N: int, alpha: float = 0.001) -> float:
    """Dvoretzky-Kiefer-Wolfowitz band half-width at confidence 1-alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * N))


# ---------------------------------------------------------------------------
# tail integral across words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailIntegral:
    """Monte Carlo average over words of an exact tail probability."""

    estimate: float
    std_error: float
    n: int
    epsilon: float
    values: np.ndarray


def survival_tail_integral(model: MeasureModel, n: int, epsilon: float, n_outer: int,
                           seed: int, n_inner: int = 400,
                           state_budget: int = 5000) -> TailIntegral:
    """Estimate of the word-averaged rescaled tail ``P(tau >= e^(n*eps)/mu)``.

    Outer Monte Carlo over words drawn from the measure; the inner
    probability is computed exactly from the absorbing chain whenever
    its state count fits ``state_budget`` (always, for the built-in
    models), falling back to an inner ensemble of ``n_inner`` entrance
    times otherwise.  Its decay in ``n`` is the summability diagnostic
    behind the exponential entrance law.
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    threshold = math.exp(n * epsilon)
    vals = np.empty(n_outer)
    for j in range(n_outer):
        word = tuple(int(x) for x in sample_orbit(model, (seed, j, 0), n))
        mu = cylinder_measure(model, word)
        m = int(step_at(threshold, mu))
        chain = build_product_chain(model, word, ENTRANCE)
        if chain.Q.shape[0] <= state_budget:
            vals[j] = survival_at(chain, m)
        else:
            hits = sum(
                not entrance_time(OrbitStream(model, (seed, j, 1, i)), word, cap=m).censored
                for i in range(n_inner)
            )
            vals[j] = 1.0 - hits / n_inner
    return TailIntegral(
        estimate=float(vals.mean()),
        std_error=float(vals.std(ddof=1) / math.sqrt(n_outer)) if n_outer > 1 else 0.0,
        n=n,
        epsilon=epsilon,
        values=vals,
    )
