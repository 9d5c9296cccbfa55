"""Brute-force law oracles by exhaustive prefix enumeration.

Slow by construction and deliberately independent of the product-chain
machinery: sequences are walked with ``itertools.product``, window
matches are found by literal tuple comparison, and probabilities are
plain products of symbol masses.  The tests hold the product-chain laws
against it.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from hitstat.errors import BudgetExceeded
from hitstat.models import BernoulliModel, MarkovModel, MeasureModel
from hitstat.words import as_word


def _prefix_probability(model: MeasureModel, seq) -> float:
    if isinstance(model, BernoulliModel):
        return math.prod(float(model.p[a]) for a in seq)
    total = float(model.pi[seq[0]])
    for a, b in zip(seq, seq[1:]):
        total *= float(model.P[a, b])
    return total


def _conditional_probability(model: MeasureModel, prev: int, seq) -> float:
    """Probability of ``seq`` given the preceding symbol ``prev``."""
    if isinstance(model, BernoulliModel):
        return math.prod(float(model.p[a]) for a in seq)
    total = 1.0
    a = prev
    for b in seq:
        total *= float(model.P[a, b])
        a = b
    return total


def _first_entrance(seq, target, m_max: int) -> int | None:
    n = len(target)
    for i in range(1, m_max + 1):
        if tuple(seq[i:i + n]) == target:
            return i
    return None


def enumerate_survival(model: MeasureModel, target, m_max: int,
                       kind: str = "entrance", budget: int = 2_000_000) -> np.ndarray:
    """``P(tau > m)`` for ``m = 0..m_max`` by summing over all prefixes.

    Entrance: sum over every sequence ``x_0..x_{m_max+n-1}``.  Return:
    fix ``x_0..x_{n-1}`` to the target and sum the conditional law of
    the remaining ``m_max`` symbols.
    """
    target = as_word(target)
    n = len(target)
    k = model.k
    if k is None:
        raise ValueError("enumeration oracle needs a finite alphabet")
    if kind == "entrance":
        length = m_max + n
        fixed = ()
    elif kind == "return":
        length = m_max
        fixed = target
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if k**length > budget:
        raise BudgetExceeded(f"{k}**{length} sequences exceed the enumeration budget")

    survival = np.zeros(m_max + 1)
    survival[0] = 1.0
    for tail in itertools.product(range(k), repeat=length):
        seq = fixed + tail
        if kind == "entrance":
            prob = _prefix_probability(model, seq)
        else:
            prob = _conditional_probability(model, target[-1], tail)
        hit = _first_entrance(seq, target, m_max)
        top = m_max if hit is None else hit - 1
        for m in range(1, top + 1):
            survival[m] += prob
    return survival
