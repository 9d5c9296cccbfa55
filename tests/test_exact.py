"""Exact laws: enumeration oracles, Kac, the entrance/return identity, tail shape."""
import csv
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
    TailNotContracting,
    ToleranceNotCertified,
    ZeroMeasureTarget,
)
from hitstat.exact import (
    fit_survival_shape,
    build_product_chain,
    entrance_survival,
    exact_mean_return,
    exact_survival,
    entrance_return_residual,
    return_survival,
    step_at,
    survival_at,
)
from hitstat.models import BernoulliModel, MarkovModel, cylinder_measure
from hitstat.orbits import OrbitStream, entrance_time

FAIR = bernoulli([0.5, 0.5])
BIASED = bernoulli([0.7, 0.3])
CHAIN = markov([[0.9, 0.1], [0.2, 0.8]])
CHAIN16 = markov(np.random.default_rng(16).dirichlet(np.ones(16), size=16))


def test_fair_coin_single_symbol_survival_is_geometric():
    curve = entrance_survival(FAIR, "1", 30)
    assert np.abs(curve.values - 0.5 ** np.arange(31)).max() <= 1e-14
    ret = return_survival(FAIR, "1", 30)
    assert np.abs(ret.values - 0.5 ** np.arange(31)).max() <= 1e-14


def test_overlap_effect_against_enumeration():
    # "11" overlaps itself, "10" does not; the laws split although mu is equal
    sv = {}
    for word in ("11", "10"):
        curve = entrance_survival(FAIR, word, 14)
        oracle = enumerate_survival(FAIR, word, 14)
        assert np.abs(curve.values - oracle).max() <= 1e-12
        sv[word] = curve.values
    assert np.abs(sv["11"] - sv["10"]).max() > 0.1


def test_markov_laws_match_enumeration():
    for word in ("01", "11", "010"):
        ent = entrance_survival(CHAIN, word, 10).values
        assert np.abs(ent - enumerate_survival(CHAIN, word, 10)).max() <= 1e-12
        ret = return_survival(CHAIN, word, 10).values
        assert np.abs(ret - enumerate_survival(CHAIN, word, 10, kind="return")).max() <= 1e-12


def test_fair_coin_return_laws_match_enumeration():
    for word in ("11", "101"):
        ret = return_survival(FAIR, word, 12).values
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
            curve = exact_survival(build_product_chain(model, word, kind), 40)
            assert curve.values[0] == 1.0
            assert np.all(curve.values >= 0.0) and np.all(curve.values <= 1.0)
            assert np.all(np.diff(curve.values) <= 1e-12)
            assert np.allclose(curve.t, curve.m * curve.mu)


def test_state_count_bound():
    for model, k in ((CHAIN, 2), (FAIR, 2)):
        for word in ("0110", "111111"):
            chain = build_product_chain(model, word)
            assert len(chain.states) <= (len(word) + 1) * k


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
    lumped = entrance_survival(geo, (1, 2), 25).values
    masses = [0.5 * 0.5**j for j in range(45)]
    masses.append(1.0 - sum(masses))
    full = BernoulliModel(p=np.array(masses))  # bypasses the k<=small validation path
    dense = entrance_survival(full, (1, 2), 25).values
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


def test_identity_at_k1_is_kac():
    # |P(tau >= 1) - mu * E_B[tau_B]| = |1 - mu * mean| is inside the residual
    for model, word in ((FAIR, "101"), (CHAIN, "00")):
        mu = cylinder_measure(model, word)
        mean = exact_mean_return(model, word, rel_tol=1e-12)
        assert abs(1.0 - mu * mean) <= 1e-10
        assert entrance_return_residual(model, word, 1) <= 1e-10


def test_survival_at_matches_stepped_curve():
    rng = np.random.default_rng(7)
    for model, word in ((FAIR, "110"), (CHAIN, "010"), (geometric(0.5), (0, 2))):
        for kind in ("entrance", "return"):
            chain = build_product_chain(model, word, kind)
            curve = exact_survival(chain, 60)
            for m in rng.integers(0, 61, size=8):
                assert survival_at(chain, int(m)) == pytest.approx(curve.values[m], abs=1e-13)


def test_abadi_fit_fair_coin():
    # F(t) = 2^{-(2t-1)} on half-integer t: rate 2 log 2, intercept log 2
    report = fit_survival_shape(FAIR, "1", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    assert report.rate == pytest.approx(2 * math.log(2), rel=1e-10)
    assert report.intercept == pytest.approx(math.log(2), rel=1e-10)
    assert report.floor == pytest.approx(0.5)  # n * mu, no mixing slack
    assert report.bound_holds
    assert report.fit_points >= 2


def test_abadi_markov_floor_includes_mixing_bound():
    report = fit_survival_shape(CHAIN, "01", np.linspace(0.2, 4.0, 20))
    assert report.floor == pytest.approx(2 / 15 + 3 * 0.7**2, rel=1e-10)
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
    curve = entrance_survival(CHAIN, "01", 6)
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "t", "survival", "kind", "exactness"]
    assert len(rows) == 8
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
