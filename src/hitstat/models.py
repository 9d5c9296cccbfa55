"""Shift-invariant measures on symbol sequences and their entropies.

Three model families are supported, each giving an ergodic stationary
measure on one-sided sequences over a symbolic alphabet:

* ``BernoulliModel`` -- i.i.d. symbols with distribution ``p`` on a finite
  alphabet.
* ``MarkovModel`` -- an irreducible aperiodic finite-state chain ``P``
  started from its stationary vector ``pi``.
* ``GeometricModel`` -- i.i.d. symbols on the countable alphabet
  ``{0, 1, 2, ...}`` with masses ``(1 - theta) * theta**j``.  This is the
  standard witness for an infinite partition whose tail mass decays
  geometrically.  The model is its ``theta`` alone: it is sampled, like
  it is measured, from the exact infinite law.

The measure of the cylinder set fixing the first ``n`` symbols to a word
``w`` is ``mu(w)``; all measures are handled in natural-log space (nats)
so that long cylinders never underflow.  The key scalar summaries are the
Shannon entropy rate ``h`` and the Renyi-type rate

    R(s) = lim_n (1/(s*n)) * |log Z_n(s)|,    Z_n(s) = sum_w mu(w)**(1+s),

with the sum over all n-cylinders.  For i.i.d. models ``Z_n`` factorizes,
giving ``R(s) = -(1/s) * log sum_i p_i**(1+s)``; for Markov models
``R(s) = -(1/s) * log lambda(s)`` where ``lambda(s)`` is the Perron root
of the entrywise power matrix ``P**(1+s)``.

``phi_bound`` gives the phi-mixing coefficient across ``g`` transitions: 0
for i.i.d. models, ``max_i 1/2 sum_j |P**g[i, j] - pi_j|`` plus a stated term for Markov ones.

A model's JSON spec (``model_from_dict``) names its kind and that kind's
keys only; a missing or unknown key raises.
"""
from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Union

import numpy as np

from .errors import (
    BadThetaRange,
    InvalidSymbol,
    MeasureUnderflow,
    NonPositiveS,
    NonStochasticRow,
    ReducibleChain,
    TailNotContracting,
    ToleranceNotCertified,
    ZeroMassSymbol,
    ZeroMeasureTarget,
)
from .words import as_word

_SUM_TOL = 1e-12          # row/vector stochasticity tolerance
_STATIONARY_TOL = 1e-10   # accepted entrywise relative error of a supplied stationary vector
_LOG_ZERO = float("-inf")
_UNIT_ROUNDOFF = 2.0**-53
_NORMAL_PRODUCTS = 2.0**-511  # products of entries this large stay normal
_PERRON_REFINE_STEPS = 8      # power steps allowed to narrow a Perron root's bracket
# the largest scan cap or step count t/mu: any word length added still fits in int64
STEP_CEILING = 2**62


# ---------------------------------------------------------------------------
# model types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BernoulliModel:
    """I.i.d. symbols on ``{0, ..., k-1}`` with strictly positive masses."""

    p: np.ndarray

    @property
    def k(self) -> int:
        return int(self.p.shape[0])

    @cached_property
    def log_p(self) -> np.ndarray:
        return np.log(self.p)

    @cached_property
    def cum_p(self) -> np.ndarray:
        return np.cumsum(self.p)


@dataclass(frozen=True, eq=False)
class MarkovModel:
    """Irreducible aperiodic chain ``P`` with stationary vector ``pi``."""

    P: np.ndarray
    pi: np.ndarray

    @property
    def k(self) -> int:
        return int(self.P.shape[0])

    @cached_property
    def log_P(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.where(self.P > 0.0, np.log(np.where(self.P > 0.0, self.P, 1.0)), _LOG_ZERO)

    @cached_property
    def log_pi(self) -> np.ndarray:
        return np.log(self.pi)

    @cached_property
    def cum_P(self) -> np.ndarray:
        return np.cumsum(self.P, axis=1)

    @cached_property
    def update_maps(self) -> "UpdateMaps":
        """The sampler's update maps, tabulated on first use (see ``UpdateMaps``)."""
        k = self.k
        breaks = np.unique(self.cum_P)
        reps = np.concatenate(([-1.0], breaks))  # one point of each interval
        rows = np.minimum(
            np.stack([np.searchsorted(row, reps, side="right") for row in self.cum_P], axis=1),
            k - 1,
        )
        return UpdateMaps(breaks=breaks, rows=rows.tolist(), cum_pi=np.cumsum(self.pi).tolist())


@dataclass(frozen=True, eq=False)
class UpdateMaps:
    """Every update map of a Markov sampler, one per interval of ``u``.

    On a uniform ``u`` the sampler moves every state ``s`` at once to
    ``min(bisect_right(cum_P[s], u), k - 1)``: one ``u`` picks one map of
    the whole alphabet (a grand coupling; Propp & Wilson 1996).  The map
    changes only where ``u`` crosses an entry of ``cum_P``, so the sorted
    distinct entries ``breaks`` cut the line into ``len(breaks) + 1``
    intervals and ``searchsorted(breaks, u, side="right")`` names the
    interval of ``u``: 0 is ``u < breaks[0]``, ``j >= 1`` is
    ``[breaks[j-1], breaks[j])``.  ``rows[j][s]`` is the map of interval
    ``j`` at state ``s``; there are at most ``k**2 + 1`` rows.
    """

    breaks: np.ndarray    # sorted distinct entries of cum_P
    rows: list            # (len(breaks) + 1) lists of k next states, for the per-step lookup
    cum_pi: list          # cumsum(pi).tolist(), for the stationary first symbol


@dataclass(frozen=True, eq=False)
class GeometricModel:
    """I.i.d. symbols on ``{0, 1, 2, ...}`` with masses ``(1-theta)*theta**j``.

    Measures, entropies and the sampler all use the exact infinite law.
    """

    theta: float

    @property
    def k(self) -> None:
        return None  # countable alphabet

    @cached_property
    def log_theta(self) -> float:
        return math.log(self.theta)

    @cached_property
    def log_one_minus_theta(self) -> float:
        return math.log1p(-self.theta)


MeasureModel = Union[BernoulliModel, MarkovModel, GeometricModel]


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def bernoulli(p) -> BernoulliModel:
    """Validated i.i.d. model from a probability vector."""
    model = BernoulliModel(p=np.asarray(p, dtype=float))
    validate(model)
    return model


def markov(P, pi=None) -> MarkovModel:
    """Validated Markov model; computes the stationary vector when omitted."""
    P = np.asarray(P, dtype=float)
    _check_kernel(P)
    stationary = stationary_distribution(P)
    model = MarkovModel(P=P, pi=stationary if pi is None else np.asarray(pi, dtype=float))
    _check_stationary(model, stationary)
    return model


def geometric(theta: float) -> GeometricModel:
    """Validated countable-alphabet model with geometric symbol masses."""
    model = GeometricModel(theta=float(theta))
    validate(model)
    return model


def validate(model: MeasureModel) -> None:
    """Check every structural invariant of ``model``; raise on failure.

    Bernoulli: masses positive, summing to one, alphabet size >= 2.
    Markov: rows stochastic, kernel irreducible and aperiodic, supplied
    ``pi`` within ``_STATIONARY_TOL`` of the stationary vector in every
    entry, relative to that entry.  Geometric: ``theta`` in (0, 1).
    Degenerate (zero-entropy) models cannot pass: they are either
    reducible, periodic, or carry a zero-mass symbol.
    """
    if isinstance(model, BernoulliModel):
        p = model.p
        if p.ndim != 1 or p.shape[0] < 2:
            raise ZeroMassSymbol("need a probability vector over at least 2 symbols")
        if np.any(p <= 0.0):
            raise ZeroMassSymbol("every symbol must have positive mass")
        if abs(float(p.sum()) - 1.0) > _SUM_TOL:
            raise NonStochasticRow(f"masses sum to {p.sum()!r}, not 1")
    elif isinstance(model, MarkovModel):
        _check_kernel(model.P)
        _check_stationary(model, stationary_distribution(model.P))
    elif isinstance(model, GeometricModel):
        if not (0.0 < model.theta < 1.0):
            raise BadThetaRange(f"theta must lie in (0, 1), got {model.theta}")
    else:
        raise TypeError(f"not a measure model: {model!r}")


def _check_stationary(model: MarkovModel, stationary: np.ndarray) -> None:
    """Compare ``model.pi`` entrywise with the GTH ``stationary`` vector.

    The comparison is relative, so a small entry wrong by a large factor
    fails even when its residual ``|pi P - pi|`` is tiny.
    """
    pi = model.pi
    if pi.shape != (model.k,) or np.any(pi <= 0.0):
        raise NonStochasticRow("stationary vector must be positive over all states")
    if abs(float(pi.sum()) - 1.0) > _SUM_TOL:
        raise NonStochasticRow(f"stationary vector sums to {pi.sum()!r}, not 1")
    error = float(np.max(np.abs(pi - stationary) / stationary))
    if error > _STATIONARY_TOL:
        raise NonStochasticRow(f"pi differs from the stationary vector by {error:.3e} relative")


def _check_kernel(P: np.ndarray) -> None:
    """Require a stochastic, primitive (irreducible and aperiodic) kernel.

    By Wielandt's theorem a non-negative k x k matrix is primitive exactly
    when its power ``(k-1)**2 + 1`` is positive (Horn & Johnson, *Matrix
    Analysis*, Cor. 8.5.9).  The 0/1 support is squared until every entry is
    positive or the power passes that bound.  A product entry counts at most
    k paths, so single precision holds it exactly and halves the cost.
    """
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 2:
        raise ReducibleChain("kernel must be square with at least 2 states")
    if np.any(P < 0.0):
        raise NonStochasticRow("kernel entries must be non-negative")
    row_err = np.abs(P.sum(axis=1) - 1.0)
    if np.any(row_err > _SUM_TOL):
        bad = int(np.argmax(row_err))
        raise NonStochasticRow(f"row {bad} sums to {P[bad].sum()!r}, not 1")
    R = (P > 0.0).astype(np.float32)
    power = 1
    while not R.all():
        if power > (P.shape[0] - 1) ** 2:
            raise ReducibleChain(f"kernel is reducible or periodic: its support's power {power} "
                                 "has a zero entry")
        R = np.minimum(R @ R, 1.0)
        power *= 2


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible kernel by one GTH elimination.

    With state 0 as the regeneration state, ``pi[1:] / pi[0]`` solves
    ``y (I - P[1:, 1:]) = P[0, 1:]`` with exit mass ``P[1:, 0]``.  Every
    entry of ``y`` is within the relative bound ``_gth_solve`` certifies,
    at most ``(1-u)**(-4 k**2) - 1`` (``u = 2**-53``), however close the
    chain is to reducible, and the normalisation adds a few roundings.
    Raises ``ReducibleChain`` when some states never reach state 0.
    """
    P = np.asarray(P, dtype=float)
    try:
        y, _ = _gth_solve(P[1:, 1:], P[1:, 0], P[0, 1:], left=True)
    except TailNotContracting as exc:
        raise ReducibleChain("some states never reach state 0") from exc
    v = np.concatenate(([1.0], y))
    return v / math.fsum(v.tolist())


def _gth_solve(Q: np.ndarray, exit: np.ndarray, rhs: np.ndarray,
               left: bool = False) -> tuple[np.ndarray, float]:
    """Solve ``(I - Q) x = rhs``, or ``x (I - Q) = rhs`` when ``left``, by GTH.

    ``exit`` is each row's absorbed mass; the diagonal of ``I - Q`` is taken
    as ``exit`` plus the off-diagonal row mass, so ``Q``'s diagonal is never
    read.  The Grassmann-Taksar-Heyman elimination (Oper. Res. 33, 1985)
    forms every pivot that way, never as ``1 - Q_kk``; with ``rhs >= 0`` it
    only adds, multiplies and divides non-negative numbers.  A zero pivot
    (states that never exit) raises ``TailNotContracting``.

    Returns ``x`` and ``bound`` with ``|x_computed - x| <= bound * x``
    entrywise.  The bound counts roundings by how far they reach, after
    O'Cinneide (Numer. Math. 65, 1993): by the all-minors matrix-tree
    theorem ``x`` is a ratio of sums over spanning forests that take one
    out-edge per state, so scaling the out-edges of ``r`` states by factors
    within ``(1-u)**(+-c)`` (``u = 2**-53``) moves ``x`` within
    ``(1-u)**(-+2 r c)``, and scaling ``rhs`` moves it no further than
    that scaling.  Eliminating state ``k`` rounds each ratio ``M[k, j] / d_k``
    once (2 units), ``rhs_k / d_k`` three times (3 units), every updated
    entry of the ``r_k`` rows that lead into ``k`` four times (``8 r_k``)
    and each ``rhs`` entry it updates twice (2 units); substituting back
    for ``x_k`` adds four.  So ``bound = (1-u)**(-E) - 1`` with ``E = sum_k (11 + 8 r_k)``,
    ``r_k`` the nonzeros of column ``k`` when it is eliminated.  A dense
    chain has ``r_k = k`` and ``E`` about ``4 S**2``; the product chains of
    ``exact`` keep ``r_k`` at a few, so ``E`` grows as ``S``.  Products that
    underflow are not counted: nonzero entries of ``Q`` or ``exit`` below
    ``2**-511`` make the bound infinite.
    """
    S = len(exit)
    M = np.array(Q, dtype=float)
    out = np.array(exit, dtype=float)
    d = np.empty(S)
    E = 11 * S
    for k in range(S - 1, -1, -1):
        d[k] = math.fsum([out[k], *M[k, :k].tolist()])
        if d[k] <= 0.0:
            raise TailNotContracting(f"transient state {k} never exits")
        # only the rows that lead into k change; the others would add exact zeros
        rows = np.flatnonzero(M[:k, k])
        E += 8 * len(rows)
        col = M[rows, k]
        M[rows, :k] += np.multiply.outer(col, M[k, :k] / d[k])
        out[rows] += col * (out[k] / d[k])
    F = M.T if left else M
    x = np.array(rhs, dtype=float)
    for k in range(S - 1, 0, -1):
        x[:k] += F[:k, k] * (x[k] / d[k])
    for k in range(S):
        x[k] = math.fsum([x[k], *(F[k, :k] * x[:k]).tolist()]) / d[k]
    bound = math.expm1(-E * math.log1p(-_UNIT_ROUNDOFF))
    if np.concatenate((Q[Q > 0.0], exit[exit > 0.0])).min(initial=1.0) < _NORMAL_PRODUCTS:
        bound = math.inf
    return x, bound


# ---------------------------------------------------------------------------
# cylinder measures
# ---------------------------------------------------------------------------

def log_cylinder_measure(model: MeasureModel, word) -> float:
    """``log mu([w])`` in nats; ``-inf`` for a zero-measure word, ``InvalidSymbol`` off the alphabet."""
    w = as_word(word)
    k = model.k
    if k is not None and any(s >= k for s in w):
        raise InvalidSymbol(f"symbol out of range for alphabet of size {k}: {w}")
    if isinstance(model, BernoulliModel):
        return float(model.log_p[list(w)].sum())
    if isinstance(model, MarkovModel):
        idx = np.asarray(w, dtype=np.intp)
        total = float(model.log_pi[idx[0]])
        if idx.shape[0] > 1:
            total += float(model.log_P[idx[:-1], idx[1:]].sum())
        return total
    return len(w) * model.log_one_minus_theta + sum(w) * model.log_theta


def target_log_measure(model: MeasureModel, word) -> float:
    """``log mu([w])`` of a word that can be a target, or raise.

    The entrance laws rescale time by ``mu(w)``, so a word of measure zero
    raises ``ZeroMeasureTarget`` (and a symbol off the alphabet ``InvalidSymbol``).
    """
    log_mu = log_cylinder_measure(model, word)
    if log_mu == _LOG_ZERO:
        raise ZeroMeasureTarget(f"target {as_word(word)} has measure zero")
    return log_mu


def plain_measure(log_mu: float) -> float:
    """A target's measure ``exp(log_mu)`` for the rescaling ``t/mu``; ``MeasureUnderflow`` where it is 0.0."""
    mu = math.exp(log_mu)
    if mu == 0.0:
        raise MeasureUnderflow(f"target measure underflows: mu = exp({log_mu:.6g}) is 0.0 in floats")
    return mu


def cylinder_measure(model: MeasureModel, word) -> float:
    """``mu([w])``, the plain-space cylinder measure."""
    return math.exp(log_cylinder_measure(model, word))


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def shannon_entropy(model: MeasureModel) -> float:
    """Entropy rate ``h`` in nats per symbol.

    Bernoulli: ``-sum p log p``.  Markov: ``sum_i pi_i * H(P[i, :])``.
    Geometric: ``-log(1-theta) - theta/(1-theta) * log theta`` (closed
    form of the series).
    """
    if isinstance(model, BernoulliModel):
        return float(-(model.p * model.log_p).sum())
    if isinstance(model, MarkovModel):
        # the product is taken only where P > 0: 0 * log 0 would warn
        P = model.P
        row_entropy = -np.multiply(P, model.log_P, out=np.zeros_like(P), where=P > 0.0).sum(axis=1)
        return float(model.pi @ row_entropy)
    t = model.theta
    return -math.log1p(-t) - t / (1.0 - t) * math.log(t)


def renyi_entropy(model: MeasureModel, s: float, rel_tol: float = 1e-12) -> float:
    """Renyi-type rate ``R(s)`` for ``s > 0``.

    I.i.d. models use the closed form ``-(1/s) log sum_i p_i**(1+s)``
    (series summation for the countable model).  Markov models use the
    Perron root ``lam`` of the entrywise power kernel ``P**(1+s)``: the root
    behind the value is within relative ``rel_tol`` of the exact one, so
    ``R(s)`` is within about ``rel_tol / s`` absolute, or the root's bracket
    (``_perron_root``) is too wide and ``ToleranceNotCertified`` is raised.
    The stationary factor ``pi**(1+s)`` in ``Z_n`` only shifts the prefactor,
    never the exponential rate; ``partition_sum_exact`` checks this.
    """
    if not 0.0 < s < math.inf:
        raise NonPositiveS(f"s must be positive and finite, got {s}")
    if isinstance(model, MarkovModel):
        lam, lo, hi = _perron_root(model.P ** (1.0 + s), rel_tol)
        if not (hi - lo) / lo <= rel_tol:
            raise ToleranceNotCertified(f"the root behind R({s}) is bracketed only to "
                                        f"relative width {(hi - lo) / lo:.3g}")
        return -math.log(lam) / s
    return -_iid_log_z1(model, s) / s


def _iid_log_z1(model: BernoulliModel | GeometricModel, s: float) -> float:
    """``log Z_1(s) = log sum_i p_i**(1+s)`` of an i.i.d. model, with ``Z_n = Z_1**n``.

    The countable model sums its geometric series in closed form.
    """
    if isinstance(model, BernoulliModel):
        return float(_logsumexp((1.0 + s) * model.log_p))
    t = model.theta
    return (1.0 + s) * math.log1p(-t) - math.log1p(-(t ** (1.0 + s)))


def _perron_root(A: np.ndarray, rel_tol: float) -> tuple[float, float, float]:
    """Leading eigenvalue ``lam`` of a primitive non-negative matrix, in ``[lo, hi]``.

    For the eigensolver's positive Perron vector ``x``, the Collatz-Wielandt
    bracket ``min_i (Ax)_i/x_i <= lam <= max_i (Ax)_i/x_i`` is widened by
    ``gamma_(k+5)``: ``k + 1`` roundings per ratio, two for ``pow`` in ``A``
    (within one ulp; the root is monotone in the entries), two for the ends.
    The bracket holds for every positive ``x``, so while it is wider than
    relative ``rel_tol``, up to ``_PERRON_REFINE_STEPS`` power steps
    ``x <- Ax`` narrow it, each by about the ratio of the two leading roots.
    """
    w, V = np.linalg.eig(A)
    i = int(np.argmax(w.real))
    x = V[:, i].real
    x = x / x.sum()
    if not np.all(x > 0.0):
        raise ToleranceNotCertified("the Perron vector is not positive in floating point")
    g = (A.shape[0] + 5) * _UNIT_ROUNDOFF
    g /= 1.0 - g
    for step in range(_PERRON_REFINE_STEPS + 1):
        ratios = (A @ x) / x
        lo = float(ratios.min()) * (1.0 - g)
        hi = float(ratios.max()) * (1.0 + g)
        if (hi - lo) / lo <= rel_tol or step == _PERRON_REFINE_STEPS:
            break
        x = A @ x
        x = x / x.sum()
    return min(max(float(w[i].real), lo), hi), lo, hi


def _logsumexp(a: np.ndarray, axis=None):
    """``log sum exp(a)`` over ``axis`` (all of ``a`` when None), bit for bit as
    ``scipy.special.logsumexp`` gives it on real input.

    The ``m`` entries tied at the max are counted apart and the rest,
    shifted by the max, summed to ``s``; ``log1p(s / m) + log(m) + max``
    then keeps full precision however small ``s`` is (Blanchard, Higham &
    Higham, IMA J. Numer. Anal. 41, 2021).  Where that is not finite (a
    slice all ``-inf``, or an ``inf`` entry) the direct ``log(sum(exp(a)))``
    is taken, which gives ``-inf`` and ``inf`` there.
    """
    a = np.asarray(a, dtype=float)
    axes = tuple(range(a.ndim)) if axis is None else (axis,)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=axes, keepdims=True)
        tied = a == a_max
        m = tied.sum(axis=axes, keepdims=True, dtype=float)
        s = np.exp(np.where(tied, _LOG_ZERO, a) - a_max).sum(axis=axes, keepdims=True)
        s = np.where(s == 0.0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=axes, keepdims=True)))
    out = out.squeeze(axis=axes)
    return out[()] if out.ndim == 0 else out


def partition_sum_exact(model: MeasureModel, n, s: float):
    """``log Z_n(s) = log sum_w mu([w])**(1+s)`` over all n-cylinders.

    I.i.d. models factor exactly: ``log Z_n = n * log Z_1``, for any ``n``.
    Markov models need no enumeration either: ``Z_n`` is a bilinear form in
    powers of the entrywise kernel ``P**(1+s)``, applied as repeated
    log-space matrix-vector products.  Their slope ``|log Z_n| / (s*n)``
    sits ``|log C_n| / (s*n)`` from ``R(s)``, for a prefactor ``C_n`` that
    converges; the increment ``(log Z_{n-1} - log Z_n) / s`` cancels it.

    ``n`` may be a 1-d sequence: the list of ``log Z_n`` in its order comes
    back, each value bit for bit the one ``n`` alone gives, from one walk
    of the products to the largest ``n``.
    """
    ns = [operator.index(k) for k in np.atleast_1d(n)]
    if min(ns, default=1) < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < s < math.inf:
        raise NonPositiveS(f"s must be positive and finite, got {s}")
    if isinstance(model, MarkovModel):
        power = 1.0 + s
        log_Q = np.where(model.P > 0.0, power * model.log_P, _LOG_ZERO)
        lv = power * model.log_pi
        wanted, at = set(ns), {}
        for step in range(1, max(ns, default=0) + 1):
            if step > 1:
                lv = _logsumexp(lv[:, None] + log_Q, axis=0)
            if step in wanted:
                at[step] = float(_logsumexp(lv))
        values = [at[k] for k in ns]
    else:
        log_z1 = _iid_log_z1(model, s)
        values = [k * log_z1 for k in ns]
    return values if np.ndim(n) else values[0]


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------

def phi_bound(model: MeasureModel, gap: int) -> float:
    """The phi-mixing coefficient ``phi(gap)`` plus a rounding term, at most 1.

    ``phi(g)`` is the sup of ``|P(B | A) - P(B)|`` over past events ``A`` of ``sigma(x_0..x_j)``,
    ``P(A) > 0``, and future events ``B`` of ``sigma(x_{j+g}, ...)``, ``g`` steps apart, hence
    ``P**g``: 0.0 for i.i.d. models, ``max_i 1/2 sum_j |P**g[i, j] - pi_j|`` for a stationary
    Markov chain (Bradley, *Probab. Surveys* 2, 2005).  The term has three parts (``u = 2**-53``):
    the powering, whose products of non-negative matrices leave each entry of ``P**g`` within
    ``(1 + gamma_k)**g - 1`` relative (Higham 2002, section 3.5) on rows summing to at most
    ``(1 + 2 _SUM_TOL)**g``; ``pi``, within ``_STATIONARY_TOL`` of the GTH vector and that
    within ``(1-u)**-(8 k**2 + 2) - 1`` of the stationary one (``stationary_distribution``);
    and the final sum, whose ``k + 3`` roundings the divisor ``1 - (k+3) u`` covers.
    """
    if gap < 0:
        raise ValueError(f"gap must be >= 0, got {gap}")
    if isinstance(model, (BernoulliModel, GeometricModel)):
        return 0.0
    k, u = model.k, _UNIT_ROUNDOFF
    # ((1 + gamma_k)**g - 1) (1 + 2 _SUM_TOL)**g <= expm1(exponent); past 2 it alone passes 1
    exponent = gap * (math.log1p(k * u / (1.0 - k * u)) + math.log1p(2.0 * _SUM_TOL))
    powering = 0.5 * math.expm1(min(exponent, 2.0))
    stationary = 0.5 * ((1.0 + _STATIONARY_TOL) * (1.0 - u) ** -(8 * k * k + 2) - 1.0)
    value = 0.5 * float(np.abs(np.linalg.matrix_power(model.P, gap) - model.pi).sum(axis=1).max())
    return min(1.0, (value + powering + stationary) / (1.0 - (k + 3) * u))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def model_to_dict(model: MeasureModel) -> dict:
    """JSON-ready description of ``model``."""
    if isinstance(model, BernoulliModel):
        return {"kind": "bernoulli", "p": [float(x) for x in model.p]}
    if isinstance(model, MarkovModel):
        return {
            "kind": "markov",
            "P": [[float(x) for x in row] for row in model.P],
            "pi": [float(x) for x in model.pi],
        }
    return {"kind": "geometric", "theta": float(model.theta)}


# each kind's builder, its required keys and its optional ones
_SPECS = {
    "bernoulli": (lambda spec: bernoulli(spec["p"]), ("p",), ()),
    "markov": (lambda spec: markov(spec["P"], pi=spec.get("pi")), ("P",), ("pi",)),
    "geometric": (lambda spec: geometric(float(spec["theta"])), ("theta",), ()),
}


def model_from_dict(spec: dict) -> MeasureModel:
    """Build and validate a model from its JSON description.

    Recognized shapes: ``{"kind": "bernoulli", "p": [...]}``,
    ``{"kind": "markov", "P": [[...]], "pi": [...](optional)}`` and
    ``{"kind": "geometric", "theta": x}``.  A missing key, or any key
    its kind does not list, raises ``ValueError``.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("model spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _SPECS:
        raise ValueError(f"unknown model kind: {kind!r}")
    build, required, optional = _SPECS[kind]
    for key in required:
        if key not in spec:
            raise ValueError(f"{kind} spec needs {key!r}")
    for key in spec:
        if key not in ("kind", *required, *optional):
            raise ValueError(f"{kind} spec: unknown key {key!r}")
    return build(spec)


def load_model(path) -> MeasureModel:
    """Read a model spec from a JSON file."""
    with open(Path(path), "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def model_fingerprint(model: MeasureModel) -> str:
    """Short stable hash identifying the model parameters."""
    blob = json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------

# each built from its spec by ``model_from_dict``, as inline and file models are
BUILTIN_MODELS = {
    "fair-coin": {"kind": "bernoulli", "p": [0.5, 0.5]},
    "biased-coin": {"kind": "bernoulli", "p": [0.7, 0.3]},
    "two-state-chain": {"kind": "markov", "P": [[0.9, 0.1], [0.2, 0.8]]},
    "geometric-half": {"kind": "geometric", "theta": 0.5},
}

# finite-alphabet subset: entrance times into typical n-cylinders stay
# simulable (the countable model has E[1/mu(A_n)] = infinity, so long-run
# exponent experiments at large n are not affordable there)
BUILTIN_FINITE = ("fair-coin", "biased-coin", "two-state-chain")


def builtin_model(name: str) -> MeasureModel:
    if name not in BUILTIN_MODELS:
        raise ValueError(f"unknown built-in model {name!r}")
    return model_from_dict(BUILTIN_MODELS[name])
