"""Exact entrance and return time laws via absorbing product chains.

The target's KMP automaton (``automata.build_automaton``) composed with
the symbol process is a finite Markov chain on pairs (automaton node,
last symbol); making the match node absorbing turns "no match among
windows 1..m" into the transient mass after a fixed number of
transitions, found by stepping.  The chain is assembled with array
operations, all (state, column) transitions at once.
Infinite sums, such as the mean return time, are one subtraction-free GTH
solve of ``(I - Q) x = 1`` (``models._gth_solve``), whose relative error
bound is counted from the elimination's fill and does not depend on how
small the target's measure is.

Time alignment (windows are ``x_i..x_{i+n-1}``, entrance means the
smallest matching ``i >= 1``):

* the scan feeds the shifted sequence ``x_1, x_2, ...`` -- stationarity
  makes the shift invisible, and the window at ``i = 0`` can never
  absorb;
* entrance law: the chain origin is the state after consuming ``x_1``
  (stationary one-symbol law); ``P(tau > m)`` is the transient mass
  once ``m + n - 1`` symbols are consumed;
* return law: the origin is the deterministic state after feeding the
  target's tail ``B[1:]`` (the symbols shared with the conditioning
  window), carrying total mass 1 on the conditional measure over ``B``;
  ``P_B(tau > m)`` is the transient mass after ``m`` more transitions.

Countable alphabets are lumped: symbols absent from the target share
one fallback column and one aggregated mass, which is exact because the
automaton treats them identically.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .automata import PatternAutomaton, build_automaton
from .errors import GridTooCoarse, ToleranceNotCertified, ZeroMeasureTarget
from .models import (
    BernoulliModel,
    MarkovModel,
    MeasureModel,
    _UNIT_ROUNDOFF,
    _gth_solve,
    log_cylinder_measure,
    phi_bound,
)
from .words import Word, as_word

ENTRANCE = "entrance"
RETURN = "return"


@dataclass(frozen=True)
class ProductChain:
    """Absorbing chain of (automaton node, last symbol) pairs.

    ``states`` lists the transient states; i.i.d. models drop the last
    symbol coordinate (stored as ``None``) since it never affects the
    future.  ``Q`` is the transient-to-transient block and ``exit`` each
    row's mass into the match node, summed from its transitions (not
    ``1 - Q.sum(1)``).  ``origin_consumed`` records how many shifted
    symbols the ``initial`` vector already accounts for.
    """

    states: tuple
    Q: np.ndarray
    exit: np.ndarray
    initial: np.ndarray
    origin_consumed: int
    kind: str
    word: Word
    mu: float

    @property
    def n(self) -> int:
        return len(self.word)

    def steps_for(self, m: int) -> int:
        """Transitions from the origin until windows 1..m are decided."""
        return (m + self.n - 1) - self.origin_consumed


def build_product_chain(model: MeasureModel, target, conditioning: str = ENTRANCE) -> ProductChain:
    """Absorbing-chain representation of the entrance or return law."""
    target = as_word(target)
    log_mu = log_cylinder_measure(model, target)
    if log_mu == -math.inf:
        raise ZeroMeasureTarget(f"target {target} has measure zero")
    if conditioning not in (ENTRANCE, RETURN):
        raise ValueError(f"conditioning must be {ENTRANCE!r} or {RETURN!r}")
    auto = build_automaton(target, alphabet_size=model.k)
    n = len(target)
    # a context is the symbol the future depends on: the last one for a
    # Markov model, none for an i.i.d. one; ``rows[c]`` are its column
    # masses and ``ctx[col]`` the context after reading column ``col``
    if isinstance(model, MarkovModel):
        rows, first, contexts = model.P, model.pi, range(model.k)
        ctx = np.arange(model.k)
    else:
        masses = _column_masses(model, auto)
        rows, first, contexts = masses[None, :], masses, (None,)
        ctx = np.zeros(len(masses), dtype=np.intp)
    C = len(contexts)
    states = [(u, c) for u in range(n) for c in contexts]
    S = len(states)
    # state (u, c) is u*C + c; node u reading column col goes to node
    # T[u, col], where node n absorbs.  The transitions are listed in
    # (state, column) order, the order in which ``np.add.at`` sums them
    T = auto.table[:n]
    nxt = T * C + ctx
    src = np.repeat(np.arange(S), T.shape[1])
    dst = np.repeat(nxt, C, axis=0).ravel()
    mass = np.tile(rows.ravel(), n)
    keep = np.repeat(T < n, C, axis=0).ravel()
    Q, exit, initial = np.zeros((S, S)), np.zeros(S), np.zeros(S)
    np.add.at(Q.reshape(-1), src[keep] * S + dst[keep], mass[keep])
    np.add.at(exit, src[~keep], mass[~keep])
    if conditioning == ENTRANCE:
        keep = T[0] < n
        np.add.at(initial, nxt[0][keep], first[keep])
    else:
        state = 0
        for sym in target[1:]:
            state = auto.step(state, sym)
        initial[state * C + ctx[auto.columns[target[-1]]]] = 1.0
    return ProductChain(
        states=tuple(states),
        Q=Q,
        exit=exit,
        initial=initial,
        origin_consumed=1 if conditioning == ENTRANCE else len(target) - 1,
        kind=conditioning,
        word=target,
        mu=math.exp(log_mu),
    )


def _column_masses(model: MeasureModel, auto: PatternAutomaton) -> np.ndarray:
    """Per-column symbol masses for an i.i.d. model (fallback lumped)."""
    if isinstance(model, BernoulliModel):
        return model.p.copy()
    masses = np.zeros(auto.other_col + 1)
    for sym, col in auto.columns.items():
        masses[col] = (1.0 - model.theta) * model.theta**sym
    masses[auto.other_col] = 1.0 - masses.sum()
    return masses


# ---------------------------------------------------------------------------
# survival curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurvivalCurve:
    """``P(tau > m)`` on a step grid, exact or empirical.

    ``t`` is the rescaled grid ``m * mu(B)``; the curve value at ``t``
    reads as ``P(tau >= t / mu)`` via ``P(tau >= m) = P(tau > m - 1)``.
    """

    m: np.ndarray
    t: np.ndarray
    values: np.ndarray
    kind: str
    exactness: str
    mu: float
    word: Word
    sample_count: int | None = None

    def __len__(self) -> int:
        return len(self.m)

    @property
    def exactness_label(self) -> str:
        if self.exactness == "exact":
            return "exact"
        return f"empirical({self.sample_count})"

    def to_csv(self, path) -> None:
        with open(Path(path), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "t", "survival", "kind", "exactness"])
            for m, t, v in zip(self.m, self.t, self.values):
                writer.writerow([int(m), repr(float(t)), repr(float(v)),
                                 self.kind, self.exactness_label])


def step_at(t, mu: float) -> np.ndarray:
    """Step ``m`` with ``P(tau >= t/mu) = P(tau > m)``: ``ceil(t/mu) - 1``, at least 0.

    A ratio ``t/mu`` within four units in the last place of an integer
    is taken as that integer, so a last-bit change of ``mu`` cannot move
    the step.  Works elementwise on arrays.
    """
    r = np.asarray(t, dtype=float) / mu
    k = np.rint(r)
    r = np.where(np.abs(r - k) <= 4.0 * np.spacing(k), k, r)
    return np.maximum(np.ceil(r).astype(np.int64) - 1, 0)


def exact_survival(chain: ProductChain, m_max: int) -> SurvivalCurve:
    """``P(tau > m)`` for ``m = 0..m_max`` by repeated matvec."""
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    values = np.empty(m_max + 1)
    values[0] = 1.0
    v = chain.initial.copy()
    done = 0  # transitions applied so far
    for m in range(1, m_max + 1):
        need = chain.steps_for(m)
        while done < need:
            v = v @ chain.Q
            done += 1
        values[m] = min(max(float(v.sum()), 0.0), 1.0)
    m_grid = np.arange(m_max + 1)
    return SurvivalCurve(
        m=m_grid,
        t=m_grid * chain.mu,
        values=values,
        kind=chain.kind,
        exactness="exact",
        mu=chain.mu,
        word=chain.word,
    )


def survival_at(chain: ProductChain, m: int) -> float:
    """``P(tau > m)`` at a single step count, via binary powering."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m == 0:
        return 1.0
    e = chain.steps_for(m)
    v = chain.initial.copy()
    B = chain.Q
    while e > 0:
        if e & 1:
            v = v @ B
        e >>= 1
        if e:
            B = B @ B
    return min(max(float(v.sum()), 0.0), 1.0)


def entrance_survival(model: MeasureModel, target, m_max: int) -> SurvivalCurve:
    return exact_survival(build_product_chain(model, target, ENTRANCE), m_max)


def return_survival(model: MeasureModel, target, m_max: int) -> SurvivalCurve:
    return exact_survival(build_product_chain(model, target, RETURN), m_max)


# ---------------------------------------------------------------------------
# certified infinite sums
# ---------------------------------------------------------------------------

def _survival_total(chain: ProductChain, rel_tol: float) -> float:
    """``sum_{m >= 0} initial Q^m 1`` within relative ``rel_tol``, or raise.

    ``x = (I - Q)^-1 1`` comes from one GTH solve with its certified
    entrywise bound; the non-negative weights ``initial`` and one ``fsum``
    add two roundings, covered by three more units.
    """
    x, bound = _gth_solve(chain.Q, chain.exit, np.ones(len(chain.states)))
    bound = (bound + 3.0 * _UNIT_ROUNDOFF) * (1.0 + 4.0 * _UNIT_ROUNDOFF)
    if not bound <= rel_tol:
        raise ToleranceNotCertified(f"mean return on {len(x)} states is certified only to {bound:.3g}, "
                                    f"above rel_tol = {rel_tol:g}")
    return math.fsum((chain.initial * x).tolist())


def exact_mean_return(model: MeasureModel, target, rel_tol: float = 1e-10) -> float:
    """``E_B[tau_B]`` within relative ``rel_tol``, or raise; Kac says ``1/mu(B)``."""
    return _survival_total(build_product_chain(model, target, RETURN), rel_tol)


def entrance_return_residual(model: MeasureModel, target, m_max: int, rel_tol: float = 1e-12) -> float:
    """Max defect of the discrete entrance/return identity on ``k <= m_max``.

    The identity is ``P(tau >= k) = mu(B) * sum_{j >= k} P_B(tau_B >= j)``
    for every ``k >= 1`` (at ``k = 1`` it is Kac's lemma).  Both sides
    are exact: the entrance side by stepping, the return-side tail by
    the total ``E_B[tau_B]`` minus a partial sum.  ``rel_tol`` bounds the
    relative error of that total; a solve that cannot certify it raises.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    ent_chain = build_product_chain(model, target, ENTRANCE)
    ret_chain = build_product_chain(model, target, RETURN)
    entrance = exact_survival(ent_chain, max(m_max - 1, 1)).values
    ret = exact_survival(ret_chain, max(m_max - 1, 1)).values
    total = _survival_total(ret_chain, rel_tol)
    mu = ent_chain.mu
    worst = 0.0
    partial = 0.0  # sum_{i <= k-2} P_B(tau_B > i)
    for k in range(1, m_max + 1):
        lhs = entrance[k - 1]             # P(tau >= k) = P(tau > k-1)
        rhs = mu * (total - partial)      # mu * sum_{j >= k} P_B(tau_B >= j)
        worst = max(worst, abs(lhs - rhs))
        partial += ret[k - 1]
    return worst


# ---------------------------------------------------------------------------
# tail shape
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailShapeReport:
    """Fitted exponential shape of the rescaled entrance survival.

    ``rate`` is the fitted decay per unit rescaled time; ``floor`` is
    the additive slack ``n * mu(B) + phi(n)`` below which no exponential
    statement is attempted; ``bound_holds`` records the pointwise check
    ``F(t) <= exp(-rate * t) + floor`` on the whole grid.
    """

    rate: float
    intercept: float
    floor: float
    bound_holds: bool
    fit_points: int
    t: np.ndarray
    survival: np.ndarray


def fit_survival_shape(model: MeasureModel, target, t_grid) -> TailShapeReport:
    """Fit ``log F(t) ~ intercept - rate * t`` above the additive floor."""
    t = np.asarray(list(t_grid), dtype=float)
    if t.ndim != 1 or len(t) < 2:
        raise GridTooCoarse("need at least two grid points")
    if np.any(t <= 0.0) or np.any(np.diff(t) <= 0.0):
        raise ValueError("t grid must be positive and strictly increasing")
    chain = build_product_chain(model, target, ENTRANCE)
    mu = chain.mu
    n = chain.n
    floor = n * mu + phi_bound(model, n)
    m_of = step_at(t, mu)
    values = np.array([survival_at(chain, int(m)) for m in m_of])
    # points still at m = 0 sit before the discretized curve moves; they
    # carry no decay information and would flatten the fit
    informative = m_of >= 1
    above = informative & (values > floor)
    if above.sum() < 2:
        above = informative & (values > 0.0)
    if above.sum() < 2:
        raise GridTooCoarse("fewer than two informative grid points with positive survival")
    x = t[above]
    y = np.log(values[above])
    slope, intercept = np.polyfit(x, y, 1)
    rate = -float(slope)
    holds = bool(np.all(values <= np.exp(-rate * t) + floor + 1e-12))
    return TailShapeReport(
        rate=rate,
        intercept=float(intercept),
        floor=float(floor),
        bound_holds=holds,
        fit_points=int(above.sum()),
        t=t,
        survival=values,
    )
