"""Exact entrance and return time laws via absorbing product chains.

The target's KMP table (``automata.build_automaton``) composed with
the symbol process is a finite Markov chain on pairs (automaton node,
context), the context being the last symbol for a Markov source and
nothing for an i.i.d. one; making the match node absorbing turns "no
match among windows 1..m" into the transient mass after a fixed number
of transitions.

One builder, ``_build_stack``, assembles the chains of a stack of
equal-length words at once, all their (state, column) transitions in
one ``np.add.at``; ``build_product_chain`` is the stack of one.  One
walk, ``_walk``, moves a stack of vectors through one sorted list of
step counts that the whole stack shares: short gaps one ``v @ Q`` at a
time, long ones by binary powering of ``Q`` (``_advance``).  A lone
chain's curve (``survival_at``, ``exact_survival``) is that walk with a
stack of one over the sorted step counts asked for;
``entrance_survival_stack`` sorts its words by step count, builds them
in stacks, and walks each step count's slice of a stack once, each
value bit for bit its word's lone value.

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

A KMP table reads a finite alphabet, so a countable one is lumped here
and only here (``_lump``): every symbol absent from the target reads one
fallback column with their summed mass, which is exact because such a
symbol ends any partial match and leads to node 0 from every node.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .automata import build_automaton, build_tables
from .errors import GridTooCoarse, MeasureUnderflow, ToleranceNotCertified
from .models import (
    MarkovModel,
    MeasureModel,
    STEP_CEILING,
    _UNIT_ROUNDOFF,
    _gth_solve,
    phi_bound,
    plain_measure,
    target_log_measure,
)
from .words import Word, as_word

ENTRANCE = "entrance"
RETURN = "return"
# bytes of ``Q`` that ``entrance_survival_stack`` builds and walks at once
STACK_BYTES = 1 << 20
_SUM_BATCH = 256  # walk vectors summed by one reduction


@dataclass(frozen=True)
class ProductChain:
    """Absorbing chain of (automaton node, context) pairs.

    State ``u*C + c`` is node ``u`` with context ``c``: the last symbol
    (C = k) for a Markov model, none (C = 1) for an i.i.d. one, whose
    future does not depend on it.  ``Q`` is the transient-to-transient
    block and ``exit`` each row's mass into the match node, summed from
    its transitions (not ``1 - Q.sum(1)``).

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

    Q: np.ndarray
    exit: np.ndarray
    initial: np.ndarray
    live: np.ndarray
    kind: str
    word: Word
    mu: float

    @property
    def n(self) -> int:
        return len(self.word)

    def steps_for(self, m):
        """Transitions from the origin until windows 1..m are decided (``_steps_for``)."""
        return _steps_for(m, self.n, self.kind)


def _steps_for(m, n: int, conditioning: str):
    """Transitions deciding windows 1..m: ``m + n - 1`` less the ``x_1`` or ``B[1:]`` its origin consumed."""
    return m + (n - 2 if conditioning == ENTRANCE else 0)


def build_product_chain(model: MeasureModel, target, conditioning: str = ENTRANCE) -> ProductChain:
    """Absorbing-chain representation of the entrance or return law: the stack of one of ``_build_stack``."""
    target = as_word(target)
    mu = plain_measure(target_log_measure(model, target))  # t/mu needs mu > 0 before the chain is built
    if conditioning not in (ENTRANCE, RETURN):
        raise ValueError(f"conditioning must be {ENTRANCE!r} or {RETURN!r}")
    (cols,), width, masses = _lump(model, [target])
    Q, exit, initial, live = _build_stack(model, masses, *build_automaton(cols, width), conditioning)
    return ProductChain(
        Q=Q[0],
        exit=exit[0],
        initial=initial[0],
        live=live[0],
        kind=conditioning,
        word=target,
        mu=mu,
    )


def _lump(model: MeasureModel, words):
    """``(cols, width, masses)``: a stack's words as columns below ``width``, and their i.i.d. column masses.

    A finite alphabet's column is the symbol itself, and a Markov model has no ``masses``.  A
    countable one is lumped: a word's columns are its symbols in sorted order, then a fallback
    with the rest of the mass, and zero-mass columns pad each row to the widest word's.
    """
    if model.k is not None:
        masses = None if isinstance(model, MarkovModel) else model.p[None].repeat(len(words), 0)
        return words, model.k, masses
    symbols = [sorted(set(word)) for word in words]
    width = max(len(row) for row in symbols) + 1
    masses = np.zeros((len(words), width))
    for row, present in zip(masses, symbols):
        for col, sym in enumerate(present):
            row[col] = (1.0 - model.theta) * model.theta**sym
        row[len(present)] = 1.0 - row[:len(present) + 1].sum()
    return [[present.index(s) for s in word] for word, present in zip(words, symbols)], width, masses


def _build_stack(model: MeasureModel, masses, tables: np.ndarray, cols: np.ndarray, conditioning: str):
    """``(Q, exit, initial, live)`` of the chains of equal-length words, stacked.

    ``masses``, ``tables`` and ``cols`` are the words' i.i.d. column
    masses (``_lump``), KMP tables and columns (``automata.build_tables``).
    ``Q`` is ``(W, S, S)``, ``exit`` and ``initial`` ``(W, S)`` and ``live``
    ``(W, L)``; slice ``w`` is word ``w``'s chain, its states numbered as
    in ``ProductChain``.  One
    ``np.add.at`` sums every word's transitions, in each word's (state,
    column) order, so each slice is bit for bit the chain of its word
    alone.  A zero-mass column (the padding of a narrower word's table)
    leads to node 0 and adds ``0.0``, which changes no sum.
    """
    W, n = cols.shape
    width = tables.shape[2]
    ar = np.arange(W)
    # a context is the symbol the future depends on: the last one for a
    # Markov model, none for an i.i.d. one; ``rows[w, c]`` are its column
    # masses for word w, and ``ctx[col]`` the context after reading column ``col``
    if isinstance(model, MarkovModel):
        rows, first, C = model.P[None].repeat(W, 0), model.pi[None].repeat(W, 0), model.k
        ctx = np.arange(model.k)
        # node 0 with every context, node u >= 1 with w[u-1] (see ProductChain)
        live = np.concatenate((ctx[None].repeat(W, 0), np.arange(1, n) * model.k + cols[:, :-1]), axis=1)
    else:
        rows, first, C = masses[:, None, :], masses, 1
        ctx = np.zeros(width, dtype=np.intp)
        live = np.arange(n)[None].repeat(W, 0)
    S = n * C
    # state (u, c) is u*C + c; node u reading column col goes to node
    # T[u, col], where node n absorbs.  The transitions are listed in
    # (word, state, column) order, the order in which ``np.add.at`` sums them
    T = tables[:, :n]
    nxt = T * C + ctx
    src = ar[:, None] * S + np.repeat(np.arange(S), width)
    dst = np.repeat(nxt, C, axis=1).reshape(W, -1)
    mass = rows.reshape(W, 1, -1).repeat(n, 1).reshape(W, -1)
    keep = np.repeat(T < n, C, axis=1).reshape(W, -1)
    Q, exit, initial = np.zeros((W, S, S)), np.zeros((W, S)), np.zeros((W, S))
    np.add.at(Q.reshape(-1), src[keep] * S + dst[keep], mass[keep])
    np.add.at(exit.reshape(-1), src[~keep], mass[~keep])
    if conditioning == ENTRANCE:
        keep = T[:, 0] < n
        np.add.at(initial.reshape(-1), (ar[:, None] * S + nxt[:, 0])[keep], first[keep])
    else:
        # the node after the target's tail w[1:], and the context of w[-1]
        state = np.zeros(W, dtype=np.intp)
        for u in range(1, n):
            state = tables[ar, state, cols[:, u]]
        initial[ar, state * C + ctx[cols[:, -1]]] = 1.0
    return Q, exit, initial, live


# ---------------------------------------------------------------------------
# survival curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurvivalCurve:
    """``P(tau > m)`` on a step grid, exact or empirical.

    ``exact_survival`` steps ``m`` and sets ``t = m * mu(B)``, so its value at
    ``t`` is ``P(tau > t / mu)``; a sampled curve takes ``t`` from its grid and
    ``m = step_at(t, mu)``, so its value at ``t`` is ``P(tau >= t / mu)``.
    ``exactness`` is ``"exact"``, or ``"empirical(N)"`` for a curve of N samples.
    """

    m: np.ndarray
    t: np.ndarray
    values: np.ndarray
    kind: str
    exactness: str

    def to_csv(self, path) -> None:
        with open(Path(path), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["m", "t", "survival", "kind", "exactness"])
            for m, t, v in zip(self.m, self.t, self.values):
                writer.writerow([int(m), repr(float(t)), repr(float(v)),
                                 self.kind, self.exactness])


def _time_grid(t_grid) -> np.ndarray:
    """``t_grid`` as floats: 1-d, non-empty, finite, >= 0 and strictly increasing, or ``ValueError``."""
    t = np.asarray(list(t_grid), dtype=float)
    if t.ndim != 1 or not len(t) or not (np.all(np.isfinite(t) & (t >= 0)) and np.all(np.diff(t) > 0)):
        raise ValueError("t grid must be non-empty, finite, non-negative and strictly increasing")
    return t


def step_at(t, mu: float) -> np.ndarray:
    """Step ``m`` with ``P(tau >= t/mu) = P(tau > m)``: ``ceil(t/mu) - 1``, at least 0.

    A ratio ``t/mu`` within four units in the last place of an integer
    is taken as that integer, so a last-bit change of ``mu`` cannot move
    the step.  Works elementwise on arrays.  A ratio not finite or past
    ``models.STEP_CEILING`` (``2**62``) in size raises ``MeasureUnderflow``.
    """
    with np.errstate(all="ignore"):  # an infinite or undefined ratio is rejected below
        r = np.asarray(t, dtype=float) / mu
    if not np.all(np.abs(r) <= STEP_CEILING):
        raise MeasureUnderflow("a step count t/mu must be finite and at most 2**62 in size")
    k = np.rint(r)
    r = np.where(np.abs(r - k) <= 4.0 * np.spacing(k), k, r)
    return np.maximum(np.ceil(r).astype(np.int64) - 1, 0)


def _live(Q: np.ndarray, exit: np.ndarray, initial: np.ndarray, live: np.ndarray):
    """``Q``, ``exit`` and ``initial`` of a stack on its live states; the stack itself when all are live.

    The blocks are C-ordered, as a lone chain's are: ``matmul`` picks its
    BLAS call, and with it the rounding, by the strides.
    """
    if live.shape[1] == Q.shape[1]:
        return Q, exit, initial
    ar = np.arange(len(live))[:, None]
    Q = np.ascontiguousarray(Q[ar[:, :, None], live[:, :, None], live[:, None, :]])
    return Q, exit[ar, live], initial[ar, live]


def _advance(Q: np.ndarray, v: np.ndarray, gap: int) -> np.ndarray:
    """The stack ``v`` (W, 1, L) after ``gap`` transitions of every slice of ``Q`` (W, L, L).

    A gap of at most L transitions is taken one ``v @ Q`` at a time,
    ``L**2`` work each, so no gap costs more than one squaring of ``Q``;
    a longer gap is binary powering of ``Q``, holding only the current
    square.  numpy's ``matmul`` makes one BLAS call per slice of a
    C-ordered stack, the call a stack of one makes, so every slice takes
    exactly the products it would take alone.
    """
    if gap <= Q.shape[-1]:
        for _ in range(gap):
            v = v @ Q
        return v
    B = Q
    while gap:
        if gap & 1:
            v = v @ B
        gap >>= 1
        if gap:
            B = B @ B
    return v


def _walk(Q: np.ndarray, v: np.ndarray, m: list, n: int, conditioning: str) -> np.ndarray:
    """``P(tau > m)`` for every chain of a stack at each entry of ``m``, a ``(W, K)`` array.

    ``Q`` and ``v`` are the stack's live blocks and initial vectors
    (``_live``) for words of length ``n`` and one ``conditioning``, and
    ``m`` the sorted distinct step counts, one list that the whole stack
    shares.  Windows 1..m are decided after ``_steps_for(m)`` transitions
    from the origin, and ``m = 0`` is 1 and takes none.  The stack
    advances by each gap between transition counts (``_advance``), and
    the vectors it holds are summed ``_SUM_BATCH`` at a time, one
    reduction for many that sums each as it would sum it alone; each sum
    is clamped to [0, 1].  A negative step count raises ``ValueError``.
    """
    if m and m[0] < 0:
        raise ValueError(f"m must be >= 0, got {m[0]}")
    zero = int(m[:1] == [0])
    steps = [_steps_for(k, n, conditioning) for k in m[zero:]]
    gaps = [b - a for a, b in zip([0] + steps, steps)]
    sums = np.ones((len(v), len(m)))
    v = v[:, None]
    for lo in range(0, len(gaps), _SUM_BATCH):
        held = []
        for gap in gaps[lo:lo + _SUM_BATCH]:
            v = _advance(Q, v, gap)
            held.append(v)
        sums[:, zero + lo:zero + lo + len(held)] = np.add.reduce(np.concatenate(held, axis=1), axis=2)
    return np.clip(sums, 0.0, 1.0)


def _chain_survival(chain: ProductChain, m: np.ndarray) -> np.ndarray:
    """``P(tau > m)`` at every entry of the 1-d integer array ``m``: one walk of a stack of one."""
    ks = sorted(set(m.tolist()))
    Q, _, v = _live(chain.Q[None], chain.exit[None], chain.initial[None], chain.live[None])
    return _walk(Q, v, ks, chain.n, chain.kind)[0, np.searchsorted(ks, m)]


def exact_survival(chain: ProductChain, m_max: int) -> SurvivalCurve:
    """``P(tau > m)`` for ``m = 0..m_max``, one ``v @ Q`` per transition."""
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    m_grid = np.arange(m_max + 1)
    return SurvivalCurve(
        m=m_grid,
        t=m_grid * chain.mu,
        values=_chain_survival(chain, m_grid),
        kind=chain.kind,
        exactness="exact",
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
    values = _chain_survival(chain, steps.reshape(-1))
    return float(values[0]) if steps.ndim == 0 else values


def entrance_survival_stack(model: MeasureModel, words, t) -> list[float]:
    """``P(tau_w >= t/mu(w))`` for a list of equal-length words at a rescaled time ``t``.

    ``t`` is one time, or one per word.  Each word is gated and measured
    as ``build_product_chain`` does (``models.target_log_measure``), and
    its value is bit for bit ``survival_at(build_product_chain(model, w),
    step_at(t, mu(w)))``: the words, sorted by step count, are built in
    stacks of at most ``STACK_BYTES`` of ``Q`` (``_build_stack``), and
    each step count's slice of a stack is walked by one ``_walk``.  A
    measure that is 0.0 in floats raises ``MeasureUnderflow``.
    """
    words = [as_word(w) for w in words]
    if not words:
        return []
    m = step_at(t, np.array([plain_measure(target_log_measure(model, w)) for w in words]))
    n = len(words[0])
    S = n * (model.k if isinstance(model, MarkovModel) else 1)
    size = max(1, STACK_BYTES // (8 * S * S))
    out = np.empty(len(words))
    order = np.argsort(m, kind="stable")
    for lo in range(0, len(words), size):
        part, steps = order[lo:lo + size], m[order[lo:lo + size]]
        chosen = [words[i] for i in part]
        # ``stack`` stays bound until the next build has allocated its own:
        # freed first, its pages go back to the system and the next build
        # faults them in again, which made ``np.add.at`` about 5x slower
        cols, width, masses = _lump(model, chosen)
        stack = _build_stack(model, masses, *build_tables(cols, width), ENTRANCE)
        Q, _, v = _live(*stack)
        # a step count's slices of the C-ordered blocks are C-ordered views
        cuts = [0, *(np.flatnonzero(np.diff(steps)) + 1).tolist(), len(part)]
        for a, b in zip(cuts, cuts[1:]):
            out[part[a:b]] = _walk(Q[a:b], v[a:b], [int(steps[a])], n, ENTRANCE)[:, 0]
    return out.tolist()


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
    stack = chain.Q[None], chain.exit[None], chain.initial[None], chain.live[None]
    Q, exit, initial = (a[0] for a in _live(*stack))
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
    # at k = 1..m_max: P(tau >= k) = P(tau > k-1) against mu * sum_{j >= k} P_B(tau_B >= j),
    # the total less the partial sum_{i <= k-2} P_B(tau_B > i), summed in order
    partial = np.concatenate(([0.0], np.cumsum(ret[:m_max - 1])))
    return float(np.max(np.abs(entrance[:m_max] - ent_chain.mu * (total - partial))))


# ---------------------------------------------------------------------------
# tail shape
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailShapeReport:
    """Fitted exponential shape of the rescaled entrance survival.

    ``rate`` is the fitted decay per unit rescaled time; ``floor`` is
    the additive slack ``n * mu(B) + phi(n)`` below which no exponential
    statement is attempted, ``phi(n)`` (``models.phi_bound``) mixing the past
    ``sigma(x_0..x_j)`` with the future ``sigma(x_{j+n}, ...)``, hence ``P**n``;
    ``bound_holds`` records the check ``F(t) <= exp(-rate * t) + floor`` on the grid.
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
    t = _time_grid(t_grid)
    if len(t) < 2 or t[0] <= 0.0:
        raise GridTooCoarse("need at least two grid points, all > 0")
    chain = build_product_chain(model, target, ENTRANCE)
    floor = chain.n * chain.mu + phi_bound(model, chain.n)
    m_of = step_at(t, chain.mu)
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
