"""Model layer: measures, entropies, mixing and tail certificates.

Expected values were computed independently (closed forms, linear
solves, itertools enumeration) and frozen here; see the repeated
literals below.
"""
import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from hitstat import (
    BadThetaRange,
    InvalidSymbol,
    NonPositiveS,
    NonStochasticRow,
    MarkovModel,
    ReducibleChain,
    ZeroMassSymbol,
    ZeroMeasureTarget,
    as_word,
    bernoulli,
    builtin_model,
    cylinder_measure,
    geometric,
    log_cylinder_measure,
    markov,
    model_fingerprint,
    model_from_dict,
    model_to_dict,
    partition_sum_exact,
    phi_bound,
    renyi_entropy,
    shannon_entropy,
    stationary_distribution,
    validate,
    word_str,
)
from hitstat.errors import ToleranceNotCertified
from hitstat.models import _gth_solve, _perron_root, target_log_measure

P_CHAIN = [[0.9, 0.1], [0.2, 0.8]]


# --- probability-vector and kernel strategies -------------------------------

def prob_vectors(min_size=2, max_size=5):
    return st.lists(
        st.floats(min_value=0.05, max_value=1.0),
        min_size=min_size, max_size=max_size,
    ).map(lambda xs: [x / sum(xs) for x in xs])


@st.composite
def kernels(draw, max_states=4):
    k = draw(st.integers(min_value=2, max_value=max_states))
    rows = [
        draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=k, max_size=k))
        for _ in range(k)
    ]
    return [[x / sum(row) for x in row] for row in rows]


# --- construction and validation --------------------------------------------

def test_stationary_vector_of_two_state_chain():
    model = markov(P_CHAIN)
    assert model.pi == pytest.approx([2 / 3, 1 / 3], abs=1e-12)


def test_supplied_stationary_vector_is_checked():
    with pytest.raises(NonStochasticRow):
        markov(P_CHAIN, pi=[0.5, 0.5])


def test_supplied_stationary_vector_is_checked_entrywise_relative():
    # pi_3 is about 1e-11: supplying 3e-11 leaves a residual |pi P - pi| of
    # only 1e-11, but the entry is off by a factor of 3
    P = [[0.5, 0.5, 0.0], [0.5, 0.5 - 1e-11, 1e-11], [0.5, 0.0, 0.5]]
    pi = stationary_distribution(np.array(P))
    assert pi[2] == pytest.approx(1e-11, rel=1e-6)
    assert np.array_equal(markov(P).pi, pi)
    assert np.array_equal(markov(P, pi=pi).pi, pi)
    wrong = pi.copy()
    wrong[2] *= 3.0
    wrong[0] -= wrong[2] - pi[2]
    assert float(np.max(np.abs(wrong @ np.array(P) - wrong))) < 1e-10
    with pytest.raises(NonStochasticRow):
        markov(P, pi=wrong)


def test_non_stochastic_row_rejected():
    with pytest.raises(NonStochasticRow):
        markov([[0.9, 0.2], [0.2, 0.8]])
    with pytest.raises(NonStochasticRow):
        markov([[1.1, -0.1], [0.2, 0.8]])


def test_reducible_kernel_rejected():
    with pytest.raises(ReducibleChain):
        markov([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ReducibleChain):
        markov([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]])


def test_periodic_kernel_rejected():
    with pytest.raises(ReducibleChain):
        markov([[0.0, 1.0], [1.0, 0.0]])


def _graph_period(support: np.ndarray) -> int:
    """Period (gcd of cycle lengths) of a strongly connected digraph, by BFS depths."""
    adj = [np.nonzero(row)[0] for row in support]
    depth = {0: 0}
    g = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            v = int(v)
            if v not in depth:
                depth[v] = depth[u] + 1
                queue.append(v)
            else:
                g = math.gcd(g, depth[u] + 1 - depth[v])
    return abs(g)


def primitive_by_graph(support: np.ndarray) -> bool:
    """Oracle: one strongly connected component, and period 1."""
    n_comp, _ = connected_components(csr_matrix(support), directed=True, connection="strong")
    return n_comp == 1 and _graph_period(support) == 1


@st.composite
def supports(draw, max_states=6):
    """0/1 kernel supports with no empty row; reducible and periodic ones on purpose."""
    k = draw(st.integers(min_value=2, max_value=max_states))
    shape = draw(st.sampled_from(["any", "reducible", "periodic"]))
    allowed = np.ones((k, k), dtype=bool)
    if shape == "reducible":
        cut = draw(st.integers(min_value=1, max_value=k - 1))
        allowed[cut:, :cut] = False  # the states from the cut on never leave
    elif shape == "periodic":
        d = draw(st.integers(min_value=2, max_value=k))
        cls = np.array([i if i < d else draw(st.integers(0, d - 1)) for i in range(k)])
        allowed = cls[None, :] == (cls[:, None] + 1) % d  # each step moves one class on
    bits = np.array(draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))).reshape(k, k)
    support = bits & allowed
    for i in np.flatnonzero(~support.any(axis=1)):
        support[i, draw(st.sampled_from(np.flatnonzero(allowed[i]).tolist()))] = True
    return shape, support


def wielandt_support(k: int) -> np.ndarray:
    """The cycle 0 -> 1 -> ... -> k-1 -> 0 plus k-1 -> 1: primitive, first positive at power (k-1)**2 + 1."""
    support = np.roll(np.eye(k, dtype=bool), 1, axis=1)
    support[k - 1, 1] = True
    return support


@given(supports())
@example(("any", wielandt_support(6)))
@settings(max_examples=300, deadline=None)
def test_primitivity_check_agrees_with_the_graph_oracle(drawn):
    shape, support = drawn
    primitive = primitive_by_graph(support)
    assert not (primitive and shape != "any")
    P = support / support.sum(axis=1, keepdims=True)
    if primitive:
        validate(markov(P))
    else:
        with pytest.raises(ReducibleChain):
            markov(P)
        with pytest.raises(ReducibleChain):
            validate(MarkovModel(P=P, pi=np.full(len(P), 1.0 / len(P))))


def test_zero_mass_symbol_rejected():
    with pytest.raises(ZeroMassSymbol):
        bernoulli([1.0, 0.0])
    with pytest.raises(ZeroMassSymbol):
        bernoulli([1.0])  # single-symbol alphabet is degenerate


def test_bad_theta_rejected():
    for theta in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(BadThetaRange):
            geometric(theta)


def exact_stationary(P):
    """Stationary vector in exact rationals, each diagonal set so its row sums to one."""
    k = len(P)
    F = [[Fraction(x) for x in row] for row in P]
    for i, row in enumerate(F):
        row[i] = 1 - sum(x for j, x in enumerate(row) if j != i)
    # pi (F - I) = 0 on the first k - 1 columns, and sum(pi) = 1
    rows = [[F[i][j] - (i == j) for i in range(k)] + [Fraction(0)] for j in range(k - 1)]
    rows.append([Fraction(1)] * (k + 1))
    for c in range(k):
        p = next(r for r in range(c, k) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(k):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [float(row[k]) for row in rows]


@given(kernels())
@example([[1 - 1e-7, 1e-7], [3e-7, 1 - 3e-7]])  # nearly reducible: pi = (3/4, 1/4)
@settings(max_examples=40, deadline=None)
def test_stationary_distribution_fixed_point(P):
    pi = stationary_distribution(np.array(P))
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(pi > 0)
    assert np.abs(pi @ np.array(P) - pi).max() < 1e-10
    assert pi.tolist() == pytest.approx(exact_stationary(P), rel=1e-12, abs=0.0)


# --- cylinder measures -------------------------------------------------------

def test_markov_cylinder_measure_hand_value():
    model = markov(P_CHAIN)
    assert cylinder_measure(model, "01") == pytest.approx(1 / 15, rel=1e-12)
    assert cylinder_measure(model, "010") == pytest.approx((2 / 3) * 0.1 * 0.2, rel=1e-12)


def test_bernoulli_cylinder_measure_hand_value():
    model = bernoulli([0.7, 0.3])
    assert cylinder_measure(model, "0110") == pytest.approx(0.7 * 0.3 * 0.3 * 0.7, rel=1e-12)


def test_geometric_cylinder_measure_hand_value():
    model = geometric(0.5)
    # word (0, 2): masses 1/2 and 1/8
    assert cylinder_measure(model, (0, 2)) == pytest.approx(0.0625, rel=1e-12)


def test_zero_measure_word_gives_minus_inf():
    model = markov([[0.0, 1.0], [0.5, 0.5]])  # P[0][0] = 0, still irreducible aperiodic
    assert log_cylinder_measure(model, "00") == -math.inf
    # a target must have positive measure: the one rule every scan and chain applies
    with pytest.raises(ZeroMeasureTarget):
        target_log_measure(model, "00")
    with pytest.raises(InvalidSymbol):
        target_log_measure(model, "02")
    assert target_log_measure(model, "01") == log_cylinder_measure(model, "01")


def test_out_of_alphabet_symbol_rejected():
    with pytest.raises(InvalidSymbol):
        log_cylinder_measure(bernoulli([0.5, 0.5]), "012")
    with pytest.raises(InvalidSymbol):
        as_word([1, -2])
    for word in ([1.5, 0.2], [1, 0.5], ["1", "0"], [math.inf]):  # never truncated to a symbol
        with pytest.raises(InvalidSymbol):
            as_word(word)
    assert as_word(np.array([1, 0])) == as_word([1.0, False]) == (1, 0)


def test_word_parsing_round_trip():
    assert as_word("0110") == (0, 1, 1, 0)
    assert word_str((0, 1, 1, 0)) == "0110"
    assert word_str((3, 12)) == "3-12"
    with pytest.raises(ValueError):
        as_word("")


@given(prob_vectors(max_size=2), st.lists(st.integers(0, 1), min_size=1, max_size=6),
       st.lists(st.integers(0, 1), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_iid_measure_is_multiplicative(p, u, v):
    model = bernoulli(p)
    lm = log_cylinder_measure
    assert lm(model, u + v) == pytest.approx(lm(model, u) + lm(model, v), abs=1e-10)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_markov_measure_extension_consistency(w):
    # appending one symbol splits a cylinder; prepending uses shift invariance
    model = markov(P_CHAIN)
    mu = cylinder_measure(model, w)
    right = sum(cylinder_measure(model, w + [a]) for a in range(2))
    left = sum(cylinder_measure(model, [a] + w) for a in range(2))
    assert right == pytest.approx(mu, rel=1e-12)
    assert left == pytest.approx(mu, rel=1e-12)


# --- entropies ----------------------------------------------------------------

@pytest.mark.filterwarnings("error")
def test_shannon_entropy_frozen_values():
    assert shannon_entropy(bernoulli([0.5, 0.5])) == pytest.approx(math.log(2), rel=1e-14)
    assert shannon_entropy(bernoulli([0.7, 0.3])) == pytest.approx(0.6108643020548935, rel=1e-13)
    assert shannon_entropy(markov(P_CHAIN)) == pytest.approx(0.38352279010702806, rel=1e-12)
    assert shannon_entropy(geometric(0.5)) == pytest.approx(2 * math.log(2), rel=1e-13)
    # a zero transition adds nothing, and no 0 * log 0 is taken: each row is a fair coin
    ring = markov([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    assert shannon_entropy(ring) == pytest.approx(math.log(2), rel=1e-14)


def test_renyi_entropy_frozen_values():
    assert renyi_entropy(bernoulli([0.7, 0.3]), 1.0) == pytest.approx(0.5447271754416722, rel=1e-13)
    # two-state chain: Perron root of P**2 has closed form (1.45 + sqrt(0.0305))/2
    assert renyi_entropy(markov(P_CHAIN), 1.0) == pytest.approx(0.2078593939270485, abs=1e-10)
    assert renyi_entropy(markov(P_CHAIN), 0.5) == pytest.approx(0.27415209680713715, abs=1e-10)
    assert renyi_entropy(geometric(0.5), 1.0) == pytest.approx(math.log(3), rel=1e-13)


def test_renyi_requires_positive_s():
    for s in (0.0, -1.0):
        with pytest.raises(NonPositiveS):
            renyi_entropy(bernoulli([0.5, 0.5]), s)
        with pytest.raises(NonPositiveS):
            partition_sum_exact(bernoulli([0.5, 0.5]), 3, s)


def test_non_finite_s_is_rejected():
    chain = builtin_model("two-state-chain")
    for s in (math.nan, math.inf):
        for model in (chain, bernoulli([0.5, 0.5]), geometric(0.5)):
            with pytest.raises(NonPositiveS):
                renyi_entropy(model, s)
            with pytest.raises(NonPositiveS):
                partition_sum_exact(model, 6, s)


@given(prob_vectors(), st.floats(min_value=0.05, max_value=4.0),
       st.floats(min_value=0.05, max_value=4.0))
@settings(max_examples=60, deadline=None)
def test_renyi_nonincreasing_and_below_shannon(p, s1, s2):
    model = bernoulli(p)
    lo, hi = sorted((s1, s2))
    assert renyi_entropy(model, hi) <= renyi_entropy(model, lo) + 1e-9
    assert renyi_entropy(model, lo) <= shannon_entropy(model) + 1e-9


def eps_chain(eps):
    """Slowly mixing two-state chain with spectral gap 3 * eps."""
    return [[1 - eps, eps], [2 * eps, 1 - 2 * eps]]


@given(kernels(), st.floats(min_value=0.1, max_value=3.0))
@example(eps_chain(1e-2), 1.0)
@example(eps_chain(1e-3), 1.0)
@example(P_CHAIN, 1e-3)  # R(s) -> h as s -> 0
@settings(max_examples=30, deadline=None)
def test_markov_perron_root_matches_dense_eigensolver(P, s):
    model = markov(P)
    lam_eig = float(np.linalg.eigvals(np.array(P) ** (1 + s)).real.max())
    assert renyi_entropy(model, s) == pytest.approx(-math.log(lam_eig) / s, rel=1e-12, abs=0.0)


def test_a_loose_eigenvector_bracket_is_narrowed_by_power_steps():
    # rows 0 and 1 coincide; the eigensolver's vector brackets the root of
    # P**4 only to relative 1.5e-12, one power step narrows it to 3e-13
    P = [[0.32, 0.32, 0.04, 0.32], [0.32, 0.32, 0.04, 0.32], [0.25, 0.125, 0.5, 0.125],
         [4 / 13, 4 / 13, 1 / 13, 4 / 13]]
    A = np.array(P) ** 4
    _, lo, hi = _perron_root(A, rel_tol=math.inf)
    assert (hi - lo) / lo > 1e-12
    lam_eig = float(np.linalg.eigvals(A).real.max())
    assert renyi_entropy(markov(P), 3.0) == pytest.approx(-math.log(lam_eig) / 3.0, rel=1e-12, abs=0.0)


def test_renyi_certifies_its_root_or_raises():
    # rel_tol bounds the Perron root, so R(s) = -log(lam) / s is within
    # rel_tol / s absolute, also at eps = 1e-4 where R(1) is only 2e-4
    P = eps_chain(1e-4)
    lam = float(np.linalg.eigvals(np.array(P) ** 2).real.max())
    assert renyi_entropy(markov(P), 1.0) == pytest.approx(-math.log(lam), rel=0.0, abs=1e-12)
    # no bracket is narrower than the rounding it is widened by
    with pytest.raises(ToleranceNotCertified):
        renyi_entropy(markov(P), 1.0, rel_tol=1e-17)


def exact_absorption(Q, exit, rhs, left):
    """``(I - Q) x = rhs`` (or ``x (I - Q) = rhs``) in rationals, GTH diagonal."""
    S = len(exit)
    A = [[-Fraction(Q[i][j]) if i != j else Fraction(exit[i]) + sum(Fraction(Q[i][c]) for c in range(S) if c != i)
          for j in range(S)] for i in range(S)]
    if left:
        A = [list(col) for col in zip(*A)]
    rows = [A[i] + [Fraction(rhs[i])] for i in range(S)]
    for c in range(S):
        for r in range(S):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [rows[i][S] / rows[i][i] for i in range(S)]


@given(st.integers(2, 9), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=30, deadline=None)
def test_gth_bound_covers_the_exact_solution(S, seed, left):
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.ones(S + 1), size=S) * (rng.random((S, S + 1)) < 0.6)
    W[:, S] += 1e-6  # every state can exit
    W /= W.sum(axis=1, keepdims=True)
    Q, exit = W[:, :S], W[:, S]
    rhs = rng.random(S) * (rng.random(S) < 0.8)
    rhs[0] = 1.0
    x, bound = _gth_solve(Q, exit, rhs, left=left)
    assert bound < 1e-13
    for got, want in zip(x.tolist(), exact_absorption(Q.tolist(), exit.tolist(), rhs.tolist(), left)):
        assert abs(Fraction(got) - want) <= Fraction(bound) * want


def dense_gth_reference(Q, exit, rhs, left=False):
    """``_gth_solve`` updating the whole block ``M[:k, :k]`` at every pivot."""
    S = len(exit)
    M = np.array(Q, dtype=float)
    out = np.array(exit, dtype=float)
    d = np.empty(S)
    E = 11 * S
    for k in range(S - 1, -1, -1):
        d[k] = math.fsum([out[k], *M[k, :k].tolist()])
        col = M[:k, k]
        E += 8 * int(np.count_nonzero(col))
        M[:k, :k] += np.multiply.outer(col, M[k, :k] / d[k])
        out[:k] += col * (out[k] / d[k])
    F = M.T if left else M
    x = np.array(rhs, dtype=float)
    for k in range(S - 1, 0, -1):
        x[:k] += F[:k, k] * (x[k] / d[k])
    for k in range(S):
        x[k] = math.fsum([x[k], *(F[k, :k] * x[:k]).tolist()]) / d[k]
    bound = math.expm1(-E * math.log1p(-2.0**-53))
    if np.concatenate((Q[Q > 0.0], exit[exit > 0.0])).min(initial=1.0) < 2.0**-511:
        bound = math.inf
    return x, bound


@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from([0.05, 0.3, 1.0]),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_gth_row_elimination_is_bit_identical_to_the_dense_update(S, seed, density, left):
    rng = np.random.default_rng(seed)
    W = rng.random((S, S + 1)) * (rng.random((S, S + 1)) < density)
    W[:, S] += 1e-3  # every state can exit
    W /= W.sum(axis=1, keepdims=True)
    Q, exit = W[:, :S], W[:, S]
    rhs = rng.random(S)
    x, bound = _gth_solve(Q, exit, rhs, left=left)
    x_ref, bound_ref = dense_gth_reference(Q, exit, rhs, left=left)
    assert np.array_equal(x, x_ref)
    assert bound == bound_ref


def test_geometric_renyi_matches_brute_series():
    model = geometric(0.6)
    for s in (0.3, 1.0, 2.5):
        z = math.fsum(((0.4) * 0.6**j) ** (1 + s) for j in range(4000))
        assert renyi_entropy(model, s) == pytest.approx(-math.log(z) / s, rel=1e-12)


# --- partition sums -----------------------------------------------------------

def test_markov_partition_sum_matches_enumeration():
    # brute-force values frozen from an itertools enumeration
    model = markov(P_CHAIN)
    expected = {
        (1, 1.0): -0.587786664902119,
        (2, 1.0): -0.8209805520698303,
        (5, 1.0): -1.4941330065348106,
        (8, 1.0): -2.1426044865664573,
        (5, 0.5): -0.8794196115843823,
    }
    for (n, s), value in expected.items():
        assert partition_sum_exact(model, n, s) == pytest.approx(value, abs=1e-11)


def test_bernoulli_partition_sum_matches_closed_form():
    model = bernoulli([0.7, 0.3])
    assert partition_sum_exact(model, 6, 1.0) == pytest.approx(6 * math.log(0.58), abs=1e-12)


@given(prob_vectors(max_size=3), st.integers(1, 5), st.floats(min_value=0.2, max_value=2.0))
@settings(max_examples=30, deadline=None)
def test_bernoulli_partition_sum_matches_brute_force(p, n, s):
    model = bernoulli(p)
    brute = math.fsum(
        math.prod(p[a] for a in w) ** (1 + s)
        for w in itertools.product(range(len(p)), repeat=n)
    )
    assert partition_sum_exact(model, n, s) == pytest.approx(math.log(brute), abs=1e-10)


def _slope(model, n, s):
    return abs(partition_sum_exact(model, n, s)) / (s * n)


def test_iid_partition_slope_equals_rate_exactly():
    # |log Z_n| = n |log Z_1| for product measures, so the slope is flat
    model = bernoulli([0.7, 0.3])
    r = renyi_entropy(model, 1.0)
    for n in (1, 4, 9):
        assert _slope(model, n, 1.0) == pytest.approx(r, rel=1e-12)


def test_markov_partition_slope_converges_to_rate():
    model = markov(P_CHAIN)
    r = renyi_entropy(model, 1.0)
    gaps = [abs(_slope(model, n, 1.0) - r) for n in (4, 8, 16, 32)]
    assert all(g <= 0.8 / n for g, n in zip(gaps, (4, 8, 16, 32)))
    assert gaps == sorted(gaps, reverse=True)


# --- mixing and tails ----------------------------------------------------------

RING = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]  # a zero in every column


def stated_phi_term(k: int, gap: int) -> float:
    """The most ``phi_bound`` adds to the computed phi of a k-state chain, as its docstring states."""
    u = 2.0**-53
    gamma = k * u / (1.0 - k * u)
    powering = 0.5 * (((1.0 + gamma) * (1.0 + 2e-12)) ** gap - 1.0)
    stationary = 0.5 * ((1.0 + 1e-10) * (1.0 - u) ** -(8 * k * k + 2) - 1.0)
    return (1.0 + powering + stationary) / (1.0 - (k + 3) * u) - 1.0


def test_phi_bound_frozen_values():
    # two-state chain: P**g = 1 pi + 0.7**g (I - 1 pi), so phi(g) = (1 - min(pi)) 0.7**g = (2/3) 0.7**g
    chain = markov(P_CHAIN)
    for gap in (0, 1, 2, 4, 16):
        assert phi_bound(chain, gap) == pytest.approx(2 / 3 * 0.7**gap, rel=0, abs=stated_phi_term(2, gap))
        assert phi_bound(chain, gap) > 2 / 3 * 0.7**gap
    ring = markov(RING)
    for gap, phi in ((1, 1 / 3), (4, 1 / 24), (16, 1.0172591e-05)):
        assert phi_bound(ring, gap) == pytest.approx(phi, rel=1e-7, abs=stated_phi_term(3, gap))
    assert phi_bound(bernoulli([0.5, 0.5]), 5) == 0.0
    assert phi_bound(geometric(0.5), 5) == 0.0
    # no phi exceeds 1, and a gap past the rounding term's reach says so
    assert phi_bound(chain, 10**13) == 1.0


@pytest.mark.filterwarnings("error")
def test_phi_bound_decays_where_the_contraction_is_degenerate():
    # every column holds a zero, so 1 - sum_j min_i P[i, j] = 1 and Dobrushin's
    # coefficient certifies nothing; the chain's own phi still decays
    ring = markov(RING)
    values = [phi_bound(ring, gap) for gap in range(1, 25)]
    assert values == sorted(values, reverse=True)
    assert values[-1] < 1e-6


def _brute_phi(P: np.ndarray, pi: np.ndarray, gap: int) -> float:
    """``sup |P(B | A) - P(B)|`` over every event A of (x_0, x_1) and B of (x_{1+gap}, x_{2+gap})."""
    k = len(P)
    Pg = np.eye(k)
    for _ in range(gap):
        Pg = Pg @ P
    # joint[a0 k + a1, b0 k + b1] = mu(x_0 x_1 = a0 a1, x_{1+gap} x_{2+gap} = b0 b1)
    past = (pi[:, None] * P).reshape(-1)
    joint = past[:, None] * np.repeat(np.tile(Pg, (k, 1)), k, axis=1) * np.tile(P.reshape(-1), (k * k, 1))
    events = np.array(list(itertools.product((0.0, 1.0), repeat=k * k)))[1:]
    pa, pb = events @ joint.sum(axis=1), events @ joint.sum(axis=0)
    both = events @ joint @ events.T
    seen = pa > 0.0
    return float(np.abs(both[seen] / pa[seen, None] - pb[None, :]).max())


@st.composite
def sparse_kernels(draw, max_states=3):
    """Primitive chains that may hold zeros: the cycle i -> i+1 and one loop are positive."""
    k = draw(st.integers(min_value=2, max_value=max_states))
    weight = st.floats(min_value=0.05, max_value=1.0)
    P = np.array([[draw(st.one_of(st.just(0.0), weight)) for _ in range(k)] for _ in range(k)])
    P[np.arange(k), (np.arange(k) + 1) % k] = [draw(weight) for _ in range(k)]
    loop = draw(st.integers(min_value=0, max_value=k - 1))
    P[loop, loop] = draw(weight)
    return markov(P / P.sum(axis=1, keepdims=True))


@given(sparse_kernels())
@example(markov(P_CHAIN))
@example(markov(RING))
@settings(max_examples=25, deadline=None)
def test_phi_bound_is_the_brute_force_supremum(model):
    for gap in range(7):
        brute = _brute_phi(model.P, model.pi, gap)
        assert brute <= phi_bound(model, gap) <= brute + 2.0 * stated_phi_term(model.k, gap) + 1e-14


@given(sparse_kernels(max_states=4), st.integers(min_value=0, max_value=40))
@example(markov(RING), 10)
@example(markov([[0.0, 1.0], [1 / 9, 8 / 9]]), 16)  # the computed phi is 2.5 rho**g, all rounding
@settings(max_examples=60, deadline=None)
def test_phi_bound_never_exceeds_the_contraction_certificate(model, gap):
    # Dobrushin: phi(g) <= rho**g <= C rho**g, with C = 1 / min(pi).  The computed
    # phi may sit up to the term above the exact one, and the term is added to it
    rho = 1.0 - float(model.P.min(axis=0).sum())
    term = stated_phi_term(model.k, gap)
    assert phi_bound(model, gap) <= rho**gap + 2.0 * term
    assert phi_bound(model, gap) <= rho**gap / model.pi.min() + 2.0 * term


# --- serialization ---------------------------------------------------------------

def test_model_dict_round_trip():
    for name in ("fair-coin", "biased-coin", "two-state-chain", "geometric-half"):
        model = builtin_model(name)
        again = model_from_dict(model_to_dict(model))
        assert model_fingerprint(again) == model_fingerprint(model)


def test_model_from_dict_computes_stationary_vector():
    model = model_from_dict({"kind": "markov", "P": P_CHAIN})
    assert model.pi == pytest.approx([2 / 3, 1 / 3], abs=1e-10)


def test_model_from_dict_rejects_malformed_specs():
    for spec in ({}, {"kind": "nope"}, {"kind": "bernoulli"}, {"kind": "markov"},
                 {"kind": "geometric"}, "fair-coin", {"kind": ["markov"]}):
        with pytest.raises(ValueError):
            model_from_dict(spec)


def test_model_from_dict_rejects_keys_its_kind_does_not_list():
    for spec, key in (({"kind": "markov", "P": P_CHAIN, "pii": [2 / 3, 1 / 3]}, "pii"),
                      ({"kind": "bernoulli", "p": [0.5, 0.5], "pi": [0.5, 0.5]}, "pi"),
                      ({"kind": "geometric", "theta": 0.5, "truncation": 50}, "truncation")):
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            model_from_dict(spec)


def test_fingerprint_distinguishes_parameters():
    assert model_fingerprint(bernoulli([0.5, 0.5])) != model_fingerprint(bernoulli([0.7, 0.3]))
