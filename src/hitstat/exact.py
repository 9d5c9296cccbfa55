"""Exact entrance and return time laws via absorbing product chains.

The target's KMP automaton (``automata.build_automaton``) composed with
the symbol process is a finite Markov chain on pairs (automaton node,
last symbol); making the match node absorbing turns "no match among
windows 1..m" into the transient mass after a fixed number of
transitions.  Every such mass comes from one walk (``_walk``) of a
vector over the sorted step counts asked for: short gaps one ``v @ Q``
at a time, long ones by binary powering of ``Q``.  The chain is
assembled with array operations, all (state, column) transitions at
once.
Infinite sums, such as the mean return time, are one subtraction-free GTH
solve of ``(I - Q) x = 1`` (``models._gth_solve``), whose relative error
bound is counted from the elimination's fill and does not depend on how
small the target's measure is.

Both work on the chain's live states only (``ProductChain.live``).  For
a Markov source a state is a node and the last symbol, n*k of them, but
the KMP automaton reaches node ``u >= 1`` only by reading ``w[u-1]``, so
only the k states of node 0 and one state per node ``u >= 1`` can ever
carry mass: n + k - 1 states, 47 of 512 at n = 32, k = 16.

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

    ``live`` are the indices, ascending, of the states that can carry
    mass.  Every transition into node ``u >= 1`` reads the symbol
    ``w[u-1]`` (the KMP invariant: node u means the last u symbols read
    are ``w[:u]``), so for a Markov model the live states are node 0
    with every last symbol and node ``u >= 1`` with ``w[u-1]``, n + k - 1
    of the n*k.  Every transition, from any state, lands on a live one,
    so the set is closed under ``Q`` and holds the support of
    ``initial`` (whose states are also reached by reading a symbol).
    For i.i.d. models every state is live.
    """

    states: tuple
    Q: np.ndarray
    exit: np.ndarray
    initial: np.ndarray
    live: np.ndarray
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
        # node 0 with every context, node u >= 1 with w[u-1] (see ProductChain)
        live = np.concatenate((ctx, np.arange(1, n) * model.k + np.array(target[:-1], dtype=np.intp)))
    else:
        masses = _column_masses(model, auto)
        rows, first, contexts = masses[None, :], masses, (None,)
        ctx = np.zeros(len(masses), dtype=np.intp)
        live = np.arange(n)
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
        live=live,
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


def _live_block(chain: ProductChain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``Q``, ``exit`` and ``initial`` on the live states; the full arrays when all are live."""
    live = chain.live
    if len(live) == len(chain.states):
        return chain.Q, chain.exit, chain.initial
    return chain.Q[np.ix_(live, live)], chain.exit[live], chain.initial[live]


def _walk(chain: ProductChain, m) -> list[float]:
    """``P(tau > m)`` at every entry of the integer sequence ``m``.

    One vector ``v`` on the L live states walks from the origin through
    the sorted distinct step counts ``chain.steps_for(m)``.  A gap of at
    most L transitions is taken one ``v @ Q`` at a time, ``L**2`` work
    each, so no gap costs more than one squaring of ``Q``; a longer gap
    is binary powering of ``Q``, holding only the current square.
    ``m = 0`` is 1.
    """
    if min(m, default=0) < 0:
        raise ValueError(f"m must be >= 0, got {min(m)}")
    Q, _, v = _live_block(chain)
    L = len(v)
    done = 0  # transitions applied so far
    at = {0: 1.0}
    for k in sorted(set(m) - {0}):
        e = chain.steps_for(k)
        gap = e - done
        if gap <= L:
            for _ in range(gap):
                v = v @ Q
        else:
            B = Q
            while gap > 0:
                if gap & 1:
                    v = v @ B
                gap >>= 1
                if gap:
                    B = B @ B
        done = e
        at[k] = min(max(float(v.sum()), 0.0), 1.0)
    return [at[k] for k in m]


def exact_survival(chain: ProductChain, m_max: int) -> SurvivalCurve:
    """``P(tau > m)`` for ``m = 0..m_max``, one ``v @ Q`` per transition."""
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    m_grid = np.arange(m_max + 1)
    return SurvivalCurve(
        m=m_grid,
        t=m_grid * chain.mu,
        values=np.array(_walk(chain, range(m_max + 1))),
        kind=chain.kind,
        exactness="exact",
        mu=chain.mu,
        word=chain.word,
    )


def survival_at(chain: ProductChain, m):
    """``P(tau > m)`` at a step count, or at each of a 1-d array of them.

    An integer gives a float; an array (any order, repeats and 0
    allowed) gives an array of the same length from one walk over its
    sorted distinct step counts.  A negative step count raises
    ``ValueError``.
    """
    steps = np.asarray(m)
    if steps.ndim > 1:
        raise ValueError(f"m must be an integer or a 1-d array, got shape {steps.shape}")
    values = _walk(chain, steps.reshape(-1).tolist())
    return values[0] if steps.ndim == 0 else np.array(values)


# ---------------------------------------------------------------------------
# certified infinite sums
# ---------------------------------------------------------------------------

def _survival_total(chain: ProductChain, rel_tol: float) -> float:
    """``sum_{m >= 0} initial Q^m 1`` within relative ``rel_tol``, or raise.

    ``x = (I - Q)^-1 1`` comes from one GTH solve with its certified
    entrywise bound; the non-negative weights ``initial`` and one ``fsum``
    add two roundings, covered by three more units.

    The solve runs on the live block only.  The live set is closed under
    ``Q`` and holds ``initial``'s support, so the restriction can only
    drop states that no mass reaches.  Eliminating a state updates only
    the rows that lead into it, and no live row leads out of the set, so
    every live entry of ``x`` is the one the full chain gives.  Every
    live state is a state of the full chain, so a zero pivot on the
    block (a live state that never exits) would raise on the full chain
    too.  The block's bound counts only the live rows, which is what
    certifies long Markov words at the default tolerances.
    """
    Q, exit, initial = _live_block(chain)
    x, bound = _gth_solve(Q, exit, np.ones(len(exit)))
    bound = (bound + 3.0 * _UNIT_ROUNDOFF) * (1.0 + 4.0 * _UNIT_ROUNDOFF)
    if not bound <= rel_tol:
        raise ToleranceNotCertified(f"mean return on {len(x)} states is certified only to {bound:.3g}, "
                                    f"above rel_tol = {rel_tol:g}")
    return math.fsum((initial * x).tolist())


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
    values = survival_at(chain, m_of)
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
