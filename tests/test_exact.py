"""Exact laws: enumeration oracles, Kac, the entrance/return identity, tail shape."""
import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitstat import bernoulli, geometric, markov
from enumeration import enumerate_survival
from hitstat.errors import (
    BudgetExceeded,
    GridTooCoarse,
    MeasureUnderflow,
    TailNotContracting,
    ToleranceNotCertified,
    ZeroMeasureTarget,
)
from hitstat import exact
from hitstat.automata import build_tables
from hitstat.exact import (
    ENTRANCE,
    RETURN,
    _advance,
    _build_stack,
    _lump,
    _survival_total,
    _walk,
    entrance_survival_stack,
    fit_survival_shape,
    build_product_chain,
    exact_mean_return,
    exact_survival,
    entrance_return_residual,
    step_at,
    survival_at,
)
from hitstat.models import BernoulliModel, MarkovModel, cylinder_measure
from hitstat.montecarlo import empirical_survival
from hitstat.orbits import OrbitStream, entrance_time

FAIR = bernoulli([0.5, 0.5])
BIASED = bernoulli([0.7, 0.3])
CHAIN = markov([[0.9, 0.1], [0.2, 0.8]])
CHAIN16 = markov(np.random.default_rng(16).dirichlet(np.ones(16), size=16))


def test_fair_coin_single_symbol_survival_is_geometric():
    curve = exact_survival(build_product_chain(FAIR, "1", ENTRANCE), 30)
    assert np.abs(curve.values - 0.5 ** np.arange(31)).max() <= 1e-14
    ret = exact_survival(build_product_chain(FAIR, "1", RETURN), 30)
    assert np.abs(ret.values - 0.5 ** np.arange(31)).max() <= 1e-14


def test_overlap_effect_against_enumeration():
    # "11" overlaps itself, "10" does not; the laws split although mu is equal
    sv = {}
    for word in ("11", "10"):
        curve = exact_survival(build_product_chain(FAIR, word, ENTRANCE), 14)
        oracle = enumerate_survival(FAIR, word, 14)
        assert np.abs(curve.values - oracle).max() <= 1e-12
        sv[word] = curve.values
    assert np.abs(sv["11"] - sv["10"]).max() > 0.1


def test_markov_laws_match_enumeration():
    for word in ("01", "11", "010"):
        ent = exact_survival(build_product_chain(CHAIN, word, ENTRANCE), 10).values
        assert np.abs(ent - enumerate_survival(CHAIN, word, 10)).max() <= 1e-12
        ret = exact_survival(build_product_chain(CHAIN, word, RETURN), 10).values
        assert np.abs(ret - enumerate_survival(CHAIN, word, 10, kind="return")).max() <= 1e-12


def test_fair_coin_return_laws_match_enumeration():
    for word in ("11", "101"):
        ret = exact_survival(build_product_chain(FAIR, word, RETURN), 12).values
        assert np.abs(ret - enumerate_survival(FAIR, word, 12, kind="return")).max() <= 1e-12


def test_enumeration_past_its_budget_raises():
    with pytest.raises(BudgetExceeded):
        enumerate_survival(FAIR, "11", 30)


def test_survival_curve_contract():
    rng = np.random.default_rng(5)
    for model in (FAIR, BIASED, CHAIN, geometric(0.5)):
        k = 2 if model.k is None else model.k
        word = tuple(int(x) for x in rng.integers(0, k, size=int(rng.integers(1, 5))))
        for kind in ("entrance", "return"):
            chain = build_product_chain(model, word, kind)
            curve = exact_survival(chain, 40)
            assert curve.values[0] == 1.0
            assert np.all(curve.values >= 0.0) and np.all(curve.values <= 1.0)
            assert np.all(np.diff(curve.values) <= 1e-12)
            assert np.allclose(curve.t, curve.m * chain.mu)


def test_state_count_bound():
    for model, k in ((CHAIN, 2), (FAIR, 2)):
        for word in ("0110", "111111"):
            chain = build_product_chain(model, word)
            assert chain.Q.shape[0] <= (len(word) + 1) * k


def naive_next(word, u, symbol):
    """Length of the longest suffix of ``word[:u] + (symbol,)`` that is a prefix of ``word``."""
    read = tuple(word[:u]) + (symbol,)
    for length in range(min(len(read), len(word)), -1, -1):
        if read[len(read) - length:] == tuple(word[:length]):
            return length


def oracle_chain(model, word, kind):
    """``(Q, exit, initial)`` from the per-state, per-column double loop.

    A column is a symbol of a finite alphabet; on a countable one it is a
    symbol of ``word`` in sorted order, then one fallback column for every
    other symbol, lumped at ``max(word) + 1``.
    """
    n = len(word)
    symbols = list(range(model.k)) if model.k is not None else sorted(set(word)) + [max(word) + 1]
    if isinstance(model, MarkovModel):
        rows, first, context = dict(enumerate(model.P)), model.pi, lambda sym: sym
    else:
        if isinstance(model, BernoulliModel):
            masses = model.p
        else:
            masses = np.zeros(len(symbols))
            for col, sym in enumerate(symbols[:-1]):
                masses[col] = (1.0 - model.theta) * model.theta**sym
            masses[-1] = 1.0 - masses.sum()
        rows, first, context = {None: masses}, masses, lambda sym: None
    states = [(u, c) for u in range(n) for c in rows]
    index = {state: i for i, state in enumerate(states)}
    S = len(states)
    Q, exit, initial = np.zeros((S, S)), np.zeros(S), np.zeros(S)
    for (u, c), i in index.items():
        for col, mass in enumerate(rows[c]):
            v = naive_next(word, u, symbols[col])
            if v < n:
                Q[i, index[(v, context(symbols[col]))]] += mass
            else:
                exit[i] += mass
    if kind == "entrance":
        for col, mass in enumerate(first):
            v = naive_next(word, 0, symbols[col])
            if v < n:
                initial[index[(v, context(symbols[col]))]] += mass
    else:
        u = 0
        for sym in word[1:]:
            u = naive_next(word, u, sym)
        initial[index[(u, context(word[-1]))]] = 1.0
    return Q, exit, initial


ORACLE_MODELS = {
    "fair": FAIR, "biased": BIASED, "three": bernoulli([0.2, 0.3, 0.5]),
    "chain": CHAIN, "chain3": markov([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]]),
    "chain16": CHAIN16, "geometric": geometric(0.5), "geometric-0.3": geometric(0.3),
}


def draw_word(model, data):
    top = 6 if model.k is None else model.k - 1
    word = tuple(data.draw(st.lists(st.integers(0, top), min_size=1, max_size=10)))
    if data.draw(st.booleans()):  # runs and periods, where the failure links matter
        word = (word * 10)[:data.draw(st.integers(len(word), 10))]
    return word


@given(st.sampled_from(sorted(ORACLE_MODELS)), st.sampled_from(["entrance", "return"]), st.data())
@settings(max_examples=150, deadline=None)
def test_chain_is_bit_identical_to_the_double_loop(name, kind, data):
    model = ORACLE_MODELS[name]
    word = draw_word(model, data)
    chain = build_product_chain(model, word, kind)
    Q, exit, initial = oracle_chain(model, word, kind)
    for got, want in ((chain.Q, Q), (chain.exit, exit), (chain.initial, initial)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_kac_frozen_values():
    assert exact_mean_return(FAIR, "111") == pytest.approx(8.0, rel=1e-10)
    assert exact_mean_return(FAIR, "1") == pytest.approx(2.0, rel=1e-10)
    assert exact_mean_return(CHAIN, "01") == pytest.approx(15.0, rel=1e-10)
    assert exact_mean_return(geometric(0.5), (1, 2)) == pytest.approx(32.0, rel=1e-10)


def test_kac_identity_across_models_and_words():
    rng = np.random.default_rng(6)
    models = (FAIR, BIASED, CHAIN, geometric(0.4))
    for trial in range(24):
        model = models[trial % 4]
        k = 3 if model.k is None else model.k
        word = tuple(int(x) for x in rng.integers(0, k, size=int(rng.integers(1, 7))))
        mean = exact_mean_return(model, word, rel_tol=1e-11)
        assert mean * cylinder_measure(model, word) == pytest.approx(1.0, rel=1e-9)
    # runs of the fair coin: mu = 2^-n is exact, down to 2^-100 (S = n states)
    for n in (30, 40, 50, 56, 100):
        mean = exact_mean_return(FAIR, (1,) * n, rel_tol=1e-10)
        assert mean * 2.0**-n == pytest.approx(1.0, rel=1e-10)
    # 512 states with a dense fill: a 128-state chain and a word of length 4
    chain128 = markov(np.random.default_rng(128).dirichlet(np.ones(128), size=128))
    word = (3, 77, 120, 5)
    mean = exact_mean_return(chain128, word)
    assert mean * cylinder_measure(chain128, word) == pytest.approx(1.0, rel=1e-10 + 1e-13)


@given(st.lists(st.integers(0, 15), min_size=1, max_size=32))
@settings(max_examples=25, deadline=None)
def test_kac_within_rel_tol_or_raises_at_small_mu(word):
    # 16-state chain: up to 512 product states and mu down to about 1e-45
    try:
        mean = exact_mean_return(CHAIN16, word, rel_tol=1e-10)
    except ToleranceNotCertified:
        return
    # the 1e-13 covers the rounding of mu itself
    assert mean * cylinder_measure(CHAIN16, word) == pytest.approx(1.0, rel=1e-10 + 1e-13)


def test_geometric_lump_matches_truncated_full_chain():
    geo = geometric(0.5)
    lumped = exact_survival(build_product_chain(geo, (1, 2), ENTRANCE), 25).values
    masses = [0.5 * 0.5**j for j in range(45)]
    masses.append(1.0 - sum(masses))
    full = BernoulliModel(p=np.array(masses))  # bypasses the k<=small validation path
    dense = exact_survival(build_product_chain(full, (1, 2), ENTRANCE), 25).values
    assert np.abs(lumped - dense).max() <= 1e-14


def test_entrance_return_identity_residuals():
    assert entrance_return_residual(FAIR, "11", 20) <= 1e-10
    assert entrance_return_residual(CHAIN, "01", 50) <= 1e-9
    assert entrance_return_residual(geometric(0.5), (0, 1), 30) <= 1e-10
    # long grid: the spec-level envelope
    assert entrance_return_residual(CHAIN, "11", 1000) <= 1e-9
    assert entrance_return_residual(BIASED, "010", 1000) <= 1e-9
    # 48 and 47 product states, certified at the default rel_tol = 1e-12
    for model, word in ((CHAIN, "011010011101001011010010"), (CHAIN16, (4, 11, 9)), (BIASED, "1" * 47)):
        assert entrance_return_residual(model, word, 60) <= 1e-12


def _residual_loop(model, word, m_max):
    """The identity's defect summed one k at a time: the reference for the cumsum."""
    ent_chain = build_product_chain(model, word, ENTRANCE)
    ret_chain = build_product_chain(model, word, RETURN)
    entrance = exact_survival(ent_chain, max(m_max - 1, 1)).values
    ret = exact_survival(ret_chain, max(m_max - 1, 1)).values
    total = _survival_total(ret_chain, 1e-12)
    worst = 0.0
    partial = 0.0  # sum_{i <= k-2} P_B(tau_B > i)
    for k in range(1, m_max + 1):
        worst = max(worst, abs(entrance[k - 1] - ent_chain.mu * (total - partial)))
        partial += ret[k - 1]
    return worst


def test_entrance_return_residual_matches_the_loop_bit_for_bit():
    words = ["".join(w) for n in (1, 2, 3, 4) for w in itertools.product("01", repeat=n)]
    for model in (FAIR, BIASED, CHAIN, geometric(0.5)):
        for word in words:
            for m_max in (1, 2, 3, 17, 500):
                assert entrance_return_residual(model, word, m_max) == _residual_loop(model, word, m_max)


def test_long_markov_words_certify_at_the_default_tolerance():
    # 16 symbols, words of length 28, 32 and 40: S = 448, 512 and 640 states,
    # of which 43, 47 and 55 are live; the full chain's bound is above 1e-12
    rng = np.random.default_rng(32)
    for n in (28, 32, 40):
        word = tuple(int(a) for a in rng.integers(0, 16, n))
        chain = build_product_chain(CHAIN16, word, "return")
        assert chain.Q.shape[0] == 16 * n and len(chain.live) == n + 15
        mean = exact_mean_return(CHAIN16, word, rel_tol=1e-12)
        assert abs(1.0 - cylinder_measure(CHAIN16, word) * mean) <= 1e-12
        assert entrance_return_residual(CHAIN16, word, 60) <= 1e-12


def test_identity_at_k1_is_kac():
    # |P(tau >= 1) - mu * E_B[tau_B]| = |1 - mu * mean| is inside the residual
    for model, word in ((FAIR, "101"), (CHAIN, "00")):
        mu = cylinder_measure(model, word)
        mean = exact_mean_return(model, word, rel_tol=1e-12)
        assert abs(1.0 - mu * mean) <= 1e-10
        assert entrance_return_residual(model, word, 1) <= 1e-10


def stepped_oracle(chain, m_max, Q, v):
    """``P(tau > m)`` for ``m = 0..m_max`` by one ``v @ Q`` per transition from ``v``."""
    values = np.empty(m_max + 1)
    values[0] = 1.0
    done = 0
    for m in range(1, m_max + 1):
        while done < chain.steps_for(m):
            v = v @ Q
            done += 1
        values[m] = min(max(float(v.sum()), 0.0), 1.0)
    return values


def powered_oracle(chain, m, Q, v):
    """``P(tau > m)`` by binary powering of ``Q`` from ``v``."""
    if m == 0:
        return 1.0
    e = chain.steps_for(m)
    B = Q
    while e > 0:
        if e & 1:
            v = v @ B
        e >>= 1
        if e:
            B = B @ B
    return min(max(float(v.sum()), 0.0), 1.0)


def live_block(chain):
    """``Q`` and ``initial`` restricted to ``chain.live``."""
    return chain.Q[np.ix_(chain.live, chain.live)], chain.initial[chain.live]


@given(st.sampled_from(sorted(ORACLE_MODELS)), st.sampled_from(["entrance", "return"]), st.data())
@settings(max_examples=80, deadline=None)
def test_survival_is_bit_identical_to_stepping_and_to_powering(name, kind, data):
    model = ORACLE_MODELS[name]
    chain = build_product_chain(model, draw_word(model, data), kind)
    Q, initial = live_block(chain)
    m_max = data.draw(st.integers(1, 80))
    assert exact_survival(chain, m_max).values.tobytes() == stepped_oracle(chain, m_max, Q, initial).tobytes()
    # past len(live) transitions a single step count is powered on the live block
    L = len(chain.live)
    m = L + 2 + data.draw(st.integers(0, 10**7))
    assert chain.steps_for(m) > L
    assert survival_at(chain, m) == powered_oracle(chain, m, Q, initial)


def draw_words(model, data):
    """One to five words of one drawn length, for a stacked build."""
    top = 6 if model.k is None else model.k - 1
    n = data.draw(st.integers(1, 10))
    words = []
    for _ in range(data.draw(st.integers(1, 5))):
        word = tuple(data.draw(st.lists(st.integers(0, top), min_size=1, max_size=n)))
        words.append((word * n)[:n])  # short draws repeat: runs and periods
    return words


@given(st.sampled_from(sorted(ORACLE_MODELS)), st.sampled_from(["entrance", "return"]), st.data())
@settings(max_examples=150, deadline=None)
def test_stacked_build_is_bit_identical_to_the_double_loop(name, kind, data):
    model = ORACLE_MODELS[name]
    words = draw_words(model, data)
    cols, width, masses = _lump(model, words)
    Q, exit, initial, live = _build_stack(model, masses, *build_tables(cols, width), kind)
    for w, word in enumerate(words):
        # a geometric word narrower than the stack has zero-mass padding columns
        for got, oracle in zip((Q[w], exit[w], initial[w]), oracle_chain(model, word, kind)):
            assert got.shape == oracle.shape and got.dtype == oracle.dtype
            assert got.tobytes() == oracle.tobytes()
        assert live[w].tolist() == build_product_chain(model, word, kind).live.tolist()


def draw_steps(data, words, L):
    """A step count per word: 0, a gap of at most ``L`` transitions, or a powered one."""
    n = len(words[0])
    return [data.draw(st.sampled_from([0, data.draw(st.integers(1, max(1, L - n + 2))),
                                       data.draw(st.integers(L + 1, 10**7))]))
            for _ in words]


@given(st.sampled_from(sorted(ORACLE_MODELS)), st.data())
@settings(max_examples=150, deadline=None)
def test_stacked_entrance_survival_is_bit_identical_to_each_lone_chain(name, data):
    model = ORACLE_MODELS[name]
    words = draw_words(model, data)
    chains = [build_product_chain(model, word, ENTRANCE) for word in words]
    m = draw_steps(data, words, len(chains[0].live))
    t = [(k + 0.5) * chain.mu for chain, k in zip(chains, m)]  # a time that steps to k
    if data.draw(st.booleans()):
        t = t[0]  # one time for the whole stack
    mu = np.array([chain.mu for chain in chains])
    if not np.all(np.broadcast_to(t, len(words)) / mu <= 2.0**62):
        # one word's time, shared by a far rarer word, is past every int64 step count
        with pytest.raises(ValueError, match="at most 2"):
            entrance_survival_stack(model, words, t)
        return
    got = entrance_survival_stack(model, words, t)
    m = step_at(np.broadcast_to(t, len(words)), mu)
    assert got == [survival_at(chain, k) for chain, k in zip(chains, m)]


@given(st.sampled_from(sorted(ORACLE_MODELS)), st.sampled_from(["entrance", "return"]), st.data())
@settings(max_examples=100, deadline=None)
def test_a_stack_advances_each_slice_as_it_advances_alone(name, kind, data):
    model = ORACLE_MODELS[name]
    words = draw_words(model, data)
    chains = [build_product_chain(model, word, kind) for word in words]
    blocks = [live_block(chain) for chain in chains]
    L = len(blocks[0][1])
    # one gap for the whole stack: none, stepped or powered
    gap = data.draw(st.sampled_from([0, data.draw(st.integers(1, L)), data.draw(st.integers(L + 1, 10**7))]))
    v = _advance(np.stack([Q for Q, _ in blocks]), np.stack([v for _, v in blocks])[:, None, :], gap)
    lone = [_advance(Q[None], v[None, None], gap) for Q, v in blocks]
    assert v.tobytes() == np.concatenate(lone).tobytes()


@given(st.sampled_from(sorted(ORACLE_MODELS)), st.sampled_from(["entrance", "return"]), st.data())
@settings(max_examples=100, deadline=None)
def test_a_stack_walks_several_step_counts_per_chain_as_each_chain_alone(name, kind, data):
    model = ORACLE_MODELS[name]
    words = draw_words(model, data)
    chains = [build_product_chain(model, word, kind) for word in words]
    blocks = [live_block(chain) for chain in chains]
    L = len(blocks[0][1])
    K = data.draw(st.integers(2, 6))

    def row():
        """K sorted step counts m >= 1: repeats, gaps of at most L and powered ones."""
        m = [data.draw(st.integers(1, L + 1))]
        for _ in range(K - 1):
            m.append(m[-1] + data.draw(st.sampled_from([0, data.draw(st.integers(1, L)),
                                                        data.draw(st.integers(L + 1, 10**6))])))
        return m

    ks = sorted(set(row()))
    # equal-length words of one kind take the same transitions to decide windows 1..m
    got = _walk(np.stack([Q for Q, _ in blocks]), np.stack([v for _, v in blocks]), ks, chains[0].n, kind)
    assert got.shape == (len(chains), len(ks))
    for chain, values in zip(chains, got):
        assert values.tobytes() == survival_at(chain, ks).tobytes()


def test_entrance_survival_stack_of_no_words_is_empty():
    assert entrance_survival_stack(FAIR, [], 1.0) == []


def test_stacks_cut_within_each_step_count_keep_every_lone_value(monkeypatch):
    # words of length 4 on the chain have several measures, so a shared time gives several
    # step counts; at most two 8-state chains per stack cuts every group of three or more
    words = list(itertools.product((0, 1), repeat=4)) * 3
    np.random.default_rng(4).shuffle(words)
    monkeypatch.setattr(exact, "STACK_BYTES", 2 * 8 * 8 * 8)
    stacks = []
    walk = exact._walk

    def recording(Q, v, m, n, conditioning):
        stacks.append((len(Q), m))
        return walk(Q, v, m, n, conditioning)

    monkeypatch.setattr(exact, "_walk", recording)
    got = entrance_survival_stack(CHAIN, words, 1.5)
    chains = [build_product_chain(CHAIN, word, ENTRANCE) for word in words]
    assert got == [survival_at(chain, step_at(1.5, chain.mu)) for chain in chains]
    counts = sorted({m for _, (m,) in stacks})
    assert len(counts) > 1 and len(stacks) > len(counts) and max(size for size, _ in stacks) == 2


def test_entrance_survival_stack_refuses_a_measure_that_underflows():
    with pytest.raises(MeasureUnderflow, match="underflows"):  # mu(1^1100) is 0.0 in floats
        entrance_survival_stack(FAIR, ["1" * 1100], 1.0)


def test_a_lone_chain_refuses_a_measure_that_underflows():
    # its curve would carry mu 0.0 and a time axis of zeros
    for kind in (ENTRANCE, RETURN):
        with pytest.raises(MeasureUnderflow, match="underflows"):  # mu(1^1100) is 0.0 in floats
            build_product_chain(FAIR, "1" * 1100, kind)
    with pytest.raises(MeasureUnderflow, match="underflows"):
        exact_mean_return(FAIR, "1" * 1100)


def test_entrance_survival_stack_gates_every_word():
    # as build_product_chain does: "00" has measure zero, so it is no target
    model = markov([[0.0, 1.0], [0.5, 0.5]])
    with pytest.raises(ZeroMeasureTarget):
        entrance_survival_stack(model, ["00", "01"], 3.0)
    with pytest.raises(ZeroMeasureTarget):
        build_product_chain(model, "00")


@st.composite
def live_case(draw):
    """A model (Bernoulli, Markov with zeros in ``P``, geometric) and a word of positive measure."""
    family = draw(st.sampled_from(["bernoulli", "markov", "geometric"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 6))
    if family == "geometric":
        model = geometric(draw(st.sampled_from([0.3, 0.5, 0.7])))
        return model, tuple(draw(st.lists(st.integers(0, 6), min_size=1, max_size=12)))
    if family == "bernoulli":
        model = bernoulli(rng.dirichlet(np.ones(k)))
        return model, tuple(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=12)))
    # zero out entries off the diagonal and off the cycle i -> i+1, which keep
    # the kernel irreducible and aperiodic
    P = rng.dirichlet(np.ones(k), size=k)
    keep = (rng.random((k, k)) < 0.5) | np.eye(k, dtype=bool) | np.roll(np.eye(k, dtype=bool), 1, axis=1)
    P = np.where(keep, P, 0.0)
    model = markov(P / P.sum(axis=1, keepdims=True))
    word = [draw(st.integers(0, k - 1))]
    for _ in range(draw(st.integers(0, 11))):
        word.append(draw(st.sampled_from(np.flatnonzero(model.P[word[-1]]).tolist())))
    return model, tuple(word)


@given(live_case(), st.sampled_from(["entrance", "return"]), st.integers(1, 60))
@settings(max_examples=120, deadline=None)
def test_live_states_are_closed_and_walk_matches_the_full_chain(case, kind, m_max):
    model, word = case
    chain = build_product_chain(model, word, kind)
    S, live = chain.Q.shape[0], chain.live
    dead = np.setdiff1d(np.arange(S), live)
    assert np.all(np.diff(live) > 0)
    assert not np.any(chain.Q[np.ix_(live, dead)] > 0.0)
    assert not np.any(chain.initial[dead] != 0.0)
    assert len(live) == (len(word) + model.k - 1 if isinstance(model, MarkovModel) else S)
    # both walks sum non-negative terms: each of the e steps and the final sum
    # round every entry at most S times, so each is within (1-u)**(-S (e+1))
    # of the exact value, relative, and they are within its square of each other
    full = stepped_oracle(chain, m_max, chain.Q, chain.initial)
    walk = exact_survival(chain, m_max).values
    e = chain.steps_for(m_max)
    rel = math.expm1(-2 * S * (e + 1) * math.log1p(-2.0**-53))
    assert np.all(np.abs(walk - full) <= rel * full)


def test_survival_at_matches_stepped_curve():
    rng = np.random.default_rng(7)
    for model, word in ((FAIR, "110"), (CHAIN, "010"), (geometric(0.5), (0, 2))):
        for kind in ("entrance", "return"):
            chain = build_product_chain(model, word, kind)
            curve = exact_survival(chain, 60)
            # unsorted, with repeats and 0; gaps above S are powered
            m = np.concatenate([rng.integers(0, 61, size=8), [0, 60, 5, 5, 0]])
            values = survival_at(chain, m)
            assert values.shape == m.shape
            for mi, value in zip(m.tolist(), values.tolist()):
                single = survival_at(chain, mi)
                assert isinstance(single, float)
                assert value == pytest.approx(single, abs=1e-13)
                assert value == pytest.approx(curve.values[mi], abs=1e-13)
            with pytest.raises(ValueError):
                survival_at(chain, -1)
            with pytest.raises(ValueError):
                survival_at(chain, [3, -1, 0])


def test_abadi_fit_fair_coin():
    # F(t) = 2^{-(2t-1)} on half-integer t: rate 2 log 2, intercept log 2
    report = fit_survival_shape(FAIR, "1", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    assert report.rate == pytest.approx(2 * math.log(2), rel=1e-10)
    assert report.intercept == pytest.approx(math.log(2), rel=1e-10)
    assert report.floor == pytest.approx(0.5)  # n * mu, no mixing slack
    assert report.bound_holds
    assert report.fit_points >= 2


def test_abadi_markov_floor_includes_mixing_bound():
    # n mu = 2/15, and phi(2) = (2/3) 0.7**2 on this chain, plus a rounding term near 5e-11
    report = fit_survival_shape(CHAIN, "01", np.linspace(0.2, 4.0, 20))
    assert report.floor == pytest.approx(2 / 15 + 2 / 3 * 0.7**2, rel=0, abs=1e-10)
    assert report.floor > 2 / 15 + 2 / 3 * 0.7**2
    assert report.rate > 0.0


def test_abadi_rate_positive_across_targets():
    rng = np.random.default_rng(8)
    grid = np.linspace(0.25, 6.0, 24)
    for trial in range(10):
        model = (FAIR, BIASED, CHAIN)[trial % 3]
        word = tuple(int(x) for x in rng.integers(0, 2, size=int(rng.integers(1, 5))))
        assert fit_survival_shape(model, word, grid).rate > 0.0


def test_abadi_grid_validation():
    with pytest.raises(GridTooCoarse):
        fit_survival_shape(FAIR, "1", [1.0])
    with pytest.raises(ValueError):
        fit_survival_shape(FAIR, "1", [2.0, 1.0])
    with pytest.raises(GridTooCoarse):
        # survival underflows to exactly 0 this deep in the tail
        fit_survival_shape(FAIR, "1", [600.0, 700.0])
    with pytest.raises(MeasureUnderflow, match="underflows"):  # mu(1^1100) is 0.0 in floats
        fit_survival_shape(FAIR, "1" * 1100, [0.5, 1.0])


def test_unreachable_target_tail_never_contracts():
    # state 0 is absorbing for the symbol process; from there "1" never occurs
    model = MarkovModel(P=np.array([[1.0, 0.0], [0.5, 0.5]]), pi=np.array([0.5, 0.5]))
    with pytest.raises(TailNotContracting):
        exact_mean_return(model, "1")


def test_zero_measure_target_refused():
    model = markov([[0.0, 1.0], [0.5, 0.5]])
    with pytest.raises(ZeroMeasureTarget):
        build_product_chain(model, "00")


def test_curve_csv_export(tmp_path):
    curve = exact_survival(build_product_chain(CHAIN, "01", ENTRANCE), 6)
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "t", "survival", "kind", "exactness"]
    assert len(rows) == 8
    # every CSV the package writes ends its lines in a bare newline
    assert path.read_bytes().startswith(b"m,t,survival,kind,exactness\n0,0.0,1.0,entrance,exact\n")
    assert path.read_bytes().count(b"\n") == 8 and b"\r" not in path.read_bytes()
    for row, m, t, v in zip(rows[1:], curve.m, curve.t, curve.values):
        assert int(row[0]) == m
        assert float(row[1]) == t  # repr round-trips exactly
        assert float(row[2]) == v
        assert row[3] == "entrance"
        assert row[4] == "exact"


def test_censoring_probability_matches_exact_survival():
    # censored <=> tau > cap, so the censor rate is a Bernoulli(q) sample
    cap, trials = 8, 2000
    chain = build_product_chain(FAIR, "11")
    q = survival_at(chain, cap)
    censored = sum(
        entrance_time(OrbitStream(FAIR, (77, j)), "11", cap=cap).censored
        for j in range(trials)
    )
    frac = censored / trials
    assert abs(frac - q) <= 3.0 * math.sqrt(q * (1 - q) / trials) + 1 / trials


def test_step_ignores_a_last_bit_change_of_mu():
    # t/mu an integer k: m = k - 1, whichever neighbour of mu rounding gave
    for mu0 in (1 / 15, 0.1, 1 / 3, 1 / 7, 3e-5):
        for k in (15, 30, 45):
            t = k * mu0
            for mu in (np.nextafter(mu0, 0.0), mu0, np.nextafter(mu0, 1.0)):
                assert int(step_at(t, mu)) == k - 1
                assert step_at([t, t], mu).tolist() == [k - 1, k - 1]
    assert step_at([1.0, 2.0, 3.0], 1 / 15).tolist() == [14, 29, 44]
    assert step_at([0.0, 0.5, 1.01], 0.25).tolist() == [0, 1, 4]


@pytest.mark.filterwarnings("error")
def test_a_step_count_past_int64_raises():
    # a step count and a word length must add in int64; no cast may wrap
    assert step_at(2.0**62 * 0.5, 0.5) == 2**62 - 1
    for t, mu in ((1e30, 0.5), (math.inf, 0.5), (math.nan, 0.5), (-math.inf, 0.5), (1.0, 0.0),
                  (2.0**62 * 0.5 * 1.01, 0.5), (1.0, 2.0**-70)):
        with pytest.raises(ValueError, match="2\\*\\*62"):
            step_at([0.5, t], mu)


def test_a_step_count_past_2_62_is_a_measure_underflow():
    # the type prepare_target and survival_tail_integral raise at the same ceiling
    with pytest.raises(MeasureUnderflow, match="a step count t/mu must be finite and at most 2\\*\\*62"):
        step_at(1.0, 1e-300)


@pytest.mark.filterwarnings("error")
def test_survival_grids_share_one_check():
    for grid in ([0.5, math.inf], [math.nan], [[0.5, 1.0]], [], [1.0, 0.5], [-0.5, 1.0]):
        with pytest.raises(ValueError, match="t grid"):
            fit_survival_shape(FAIR, "1", grid)
        with pytest.raises(ValueError, match="t grid"):
            empirical_survival(FAIR, "1", 4, grid, seed=1)
    # beyond it, a fit needs two times, all > 0
    with pytest.raises(GridTooCoarse, match="all > 0"):
        fit_survival_shape(FAIR, "1", [0.0, 1.0])
