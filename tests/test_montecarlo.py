"""Ensemble sampler behavior: determinism, merging, censoring, laws."""
import collections
import dataclasses
import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hitstat import (
    ENTRANCE,
    RETURN,
    CapPolicy,
    CensoringExceeded,
    ExponentSamples,
    SurvivalExperiment,
    build_product_chain,
    builtin_model,
    dkw_epsilon,
    empirical_return_survival,
    empirical_survival,
    entrance_exponent_samples,
    exact_mean_return,
    exact_survival,
    orbit_sum_exponent_samples,
    recurrence_exponent_samples,
    shannon_entropy,
    survival_tail_integral,
)
from hitstat import exact, models, montecarlo
from hitstat.errors import MeasureUnderflow
from hitstat.exact import step_at, survival_at
from hitstat.models import BernoulliModel, cylinder_measure, geometric
from hitstat.orbits import OrbitStream, entrance_time, sample_orbit, w_sum
from hitstat.words import as_word

FAIR = builtin_model("fair-coin")
BIASED = builtin_model("biased-coin")
CHAIN = builtin_model("two-state-chain")

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# determinism and merging
# ---------------------------------------------------------------------------

def test_sharded_runs_merge_to_the_full_ensemble():
    full = entrance_exponent_samples(FAIR, n=8, N=60, seed=11)
    a = entrance_exponent_samples(FAIR, n=8, N=60, seed=11, indices=range(0, 23))
    b = entrance_exponent_samples(FAIR, n=8, N=60, seed=11, indices=range(23, 60))
    for merged in (a.merge(b), b.merge(a)):
        np.testing.assert_array_equal(merged.indices, full.indices)
        np.testing.assert_array_equal(merged.values, full.values)
        np.testing.assert_array_equal(merged.censored, full.censored)
    assert a.merge(b).summary() == full.summary()


def test_merge_rejects_mismatched_or_overlapping_parts():
    a = entrance_exponent_samples(FAIR, n=6, N=10, seed=1, indices=range(5))
    b = entrance_exponent_samples(FAIR, n=7, N=10, seed=1, indices=range(5, 10))
    with pytest.raises(ValueError):
        a.merge(b)
    with pytest.raises(ValueError):
        a.merge(a)


def test_indices_outside_the_ensemble_are_rejected():
    with pytest.raises(ValueError):
        entrance_exponent_samples(FAIR, n=4, N=10, seed=0, indices=[3, 10])


# every ensemble function, at a size small enough to run many splits; the
# tight cap censors about 60 % of the entrance samples
ENSEMBLES = {
    "entrance": (entrance_exponent_samples,
                 dict(model=CHAIN, n=6, N=24, seed=3, cap_policy=CapPolicy(multiplier=0.5))),
    "recurrence": (recurrence_exponent_samples, dict(model=BIASED, n=6, N=24, seed=3)),
    "orbit-sum": (orbit_sum_exponent_samples, dict(model=CHAIN, n=6, s=1.5, N=24, seed=3)),
    "diagonal-orbit-sum": (orbit_sum_exponent_samples,
                           dict(model=BIASED, n=6, s=0.5, N=24, seed=3, diagonal=True)),
    "survival": (empirical_survival,
                 dict(model=FAIR, z_word="101", N=60, t_grid=[0.25, 0.5, 1.0, 2.0], seed=3)),
    "return-survival": (empirical_return_survival,
                        dict(model=CHAIN, z_word="01", N=60, t_grid=[0.5, 1.0, 2.0], seed=3)),
    "tail-integral": (survival_tail_integral,
                      dict(model=FAIR, n=5, epsilon=0.1, n_outer=20, seed=3)),
}


def _fingerprint(run):
    """Every row and every statistic derived from the rows, bit for bit."""
    out = [run.indices.tobytes(), run.values.tobytes(), run.censored.tobytes(), run.total]
    if isinstance(run, ExponentSamples):
        out += [run.exceedance(0.1), run.summary() if run.censored_fraction <= 0.01 else None]
    elif isinstance(run, SurvivalExperiment):
        out += [run.times.tobytes(), run.curve.m.tobytes(), run.curve.values.tobytes(),
                run.curve.exactness, run.ks, run.mean_time]
    else:
        out += [run.estimate, run.std_error]
    return out


@functools.cache
def _one_pass(name):
    function, kwargs = ENSEMBLES[name]
    return _fingerprint(function(**kwargs))


@pytest.mark.parametrize("name", list(ENSEMBLES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_any_split_merges_to_the_one_pass_ensemble(name, data):
    function, kwargs = ENSEMBLES[name]
    N = kwargs.get("N", kwargs.get("n_outer"))
    # up to N + 3 cuts: empty chunks, and more chunks than samples
    cuts = sorted(data.draw(st.lists(st.integers(0, N), max_size=N + 3)))
    bounds = [0, *cuts, N]
    chunks = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    order = data.draw(st.permutations(range(len(chunks))))
    parts = [function(**kwargs, indices=chunks[i]) for i in order]
    merged = functools.reduce(lambda a, b: a.merge(b), parts)
    assert _fingerprint(merged) == _one_pass(name)


@pytest.mark.parametrize("name", list(ENSEMBLES))
def test_every_sampler_reaches_the_names_a_tracer_patches(monkeypatch, name):
    # perfbench/tracing.py counts generation at OrbitStream.take and scans at
    # montecarlo.entrance_time and montecarlo.w_sum: a sampler that bypassed
    # them would read as generating and scanning nothing
    counts = collections.Counter()
    for owner, attr in ((montecarlo, "entrance_time"), (montecarlo, "w_sum"), (OrbitStream, "take")):
        def counting(*args, _original=getattr(owner, attr), _attr=attr, **kwargs):
            counts[_attr] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counting)
    function, kwargs = ENSEMBLES[name]
    run = function(**kwargs)
    scan = {"tail-integral": None, "orbit-sum": "w_sum", "diagonal-orbit-sum": "w_sum"}.get(name, "entrance_time")
    assert run.total > 0 and counts["take"] >= run.total
    if scan:
        assert counts[scan] >= run.total


@pytest.mark.parametrize("name", ["entrance", "recurrence", "orbit-sum", "diagonal-orbit-sum"])
def test_each_exponent_sample_measures_its_word_once(monkeypatch, name):
    # one rule gates a target and gives its cap inside the scan, so a sample
    # measures its word once, wherever the name is imported
    original = models.log_cylinder_measure
    calls = []

    def counting(model, word):
        calls.append(word)
        return original(model, word)

    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "hitstat" and getattr(module, "log_cylinder_measure", None) is original:
            monkeypatch.setattr(module, "log_cylinder_measure", counting)
    function, kwargs = ENSEMBLES[name]
    run = function(**kwargs)
    assert run.total == kwargs["N"] and len(calls) == run.total


@pytest.mark.parametrize("name", ["survival", "return-survival"])
def test_a_survival_part_measures_its_word_once(monkeypatch, name):
    # every sample of a survival part scans for one word: it is gated and
    # measured once per part, however many samples the part holds
    original = models.log_cylinder_measure
    calls = []

    def counting(model, word):
        calls.append(word)
        return original(model, word)

    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "hitstat" and getattr(module, "log_cylinder_measure", None) is original:
            monkeypatch.setattr(module, "log_cylinder_measure", counting)
    function, kwargs = ENSEMBLES[name]
    run = function(**kwargs)
    assert run.total == kwargs["N"] and len(calls) == 1
    calls.clear()
    parts = [function(**kwargs, indices=range(a, b)) for a, b in ((0, 17), (17, 60))]
    assert parts[0].merge(parts[1]).total == kwargs["N"] and len(calls) == 2


@pytest.mark.parametrize("function", [empirical_survival, empirical_return_survival])
def test_survival_of_a_word_whose_measure_underflows_is_refused(function):
    with pytest.raises(MeasureUnderflow, match="underflows"):
        function(FAIR, "1" * 1100, 2, [0.5, 1.0], seed=1)


def test_survival_of_a_word_past_the_step_ceiling_is_refused_before_any_scan(monkeypatch):
    # mu(1^1000) is about 9.3e-302, not 0.0, but its cap of about 7.4e301 passes 2**62
    def scan(*args, **kwargs):
        raise AssertionError("no sample may scan for this word")

    monkeypatch.setattr(montecarlo, "entrance_time", scan)
    with pytest.raises(MeasureUnderflow, match="underflows"):
        empirical_survival(FAIR, "1" * 1000, 2, [0.0], seed=1)


def _lone_value(name, kwargs, j):
    """Sample ``j`` as its own substreams give it, each built by ``rng.substream``."""
    model, seed = kwargs["model"], kwargs["seed"]
    if name in ("survival", "return-survival"):
        word = as_word(kwargs["z_word"])
        cap = CapPolicy(multiplier=-math.log(montecarlo.SURVIVAL_CENSOR_MASS)).cap_for(model, word)
        start = word if name == "return-survival" else None
        t = entrance_time(OrbitStream(model, (seed, j, 1), start=start), word, cap=cap)
        return None if t.censored else t.value
    n = kwargs["n"]
    word = tuple(sample_orbit(model, (seed, j, 0), n).tolist())
    cap = kwargs.get("cap_policy", CapPolicy()).cap_for(model, word)
    if name == "entrance":
        t = entrance_time(OrbitStream(model, (seed, j, 1)), word, cap=cap)
    elif name == "recurrence":
        t = entrance_time(OrbitStream(model, (seed, j, 0)), word, cap=cap)
    elif name == "orbit-sum":
        res = w_sum(OrbitStream(model, (seed, j, 1)), target=word, s=kwargs["s"], cap=cap)
        return None if res.time.censored else res.log_value / n
    else:
        res = w_sum(OrbitStream(model, (seed, j, 0)), target=word, s=kwargs["s"], cap=cap)
        return None if res.time.censored else res.log_value / n
    return None if t.censored else math.log(t.value) / n


@pytest.mark.parametrize("name", [name for name in ENSEMBLES if name != "tail-integral"])
def test_a_part_keyed_in_one_pass_reads_each_samples_own_substreams(name):
    function, kwargs = ENSEMBLES[name]
    run = function(**kwargs)
    N = kwargs["N"]
    lone = [_lone_value(name, kwargs, j) for j in range(N)]
    assert run.censored.tolist() == [j for j in range(N) if lone[j] is None]
    assert run.values.tolist() == [v for v in lone if v is not None]


@pytest.mark.parametrize("name", list(ENSEMBLES))
def test_duplicate_indices_are_rejected(name):
    function, kwargs = ENSEMBLES[name]
    with pytest.raises(ValueError, match="duplicate"):
        function(**kwargs, indices=[3, 3])


def test_repeat_runs_are_bitwise_identical():
    a = recurrence_exponent_samples(CHAIN, n=10, N=40, seed=5)
    b = recurrence_exponent_samples(CHAIN, n=10, N=40, seed=5)
    np.testing.assert_array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# exponent laws
# ---------------------------------------------------------------------------

def test_entrance_exponents_concentrate_at_the_entropy():
    run = entrance_exponent_samples(FAIR, n=14, N=200, seed=101)
    assert run.target == pytest.approx(LN2)
    assert len(run.censored) == 0
    s = run.summary()
    # finite-n offsets (Euler-Mascheroni for the mean, log log 2 for the
    # median) are ~0.03 at n=14; keep room for sampling noise on top
    assert abs(s["mean"] - LN2) < 0.06
    assert abs(s["median"] - LN2) < 0.06


def test_recurrence_exponents_track_entrance_exponents():
    ent = entrance_exponent_samples(CHAIN, n=12, N=150, seed=21)
    rec = recurrence_exponent_samples(CHAIN, n=12, N=150, seed=21)
    assert ent.target == rec.target == pytest.approx(shannon_entropy(CHAIN))
    assert abs(ent.summary()["mean"] - rec.summary()["mean"]) < 0.08


def test_one_symbol_alphabet_returns_immediately():
    degenerate = BernoulliModel(p=np.array([1.0]))
    run = entrance_exponent_samples(degenerate, n=9, N=25, seed=3)
    assert run.target == 0.0
    np.testing.assert_array_equal(run.values, np.zeros(25))  # tau = 1 always


def test_diagonal_orbit_sum_at_s_zero_is_the_recurrence_ensemble():
    rec = recurrence_exponent_samples(FAIR, n=12, N=100, seed=77)
    w0 = orbit_sum_exponent_samples(FAIR, n=12, s=0.0, N=100, seed=77, diagonal=True)
    assert w0.target == rec.target
    np.testing.assert_array_equal(w0.indices, rec.indices)
    np.testing.assert_array_equal(w0.values, rec.values)


def test_fair_coin_orbit_sums_shift_entrance_exponents_by_s_log2():
    # every fair-coin window has measure exactly 2^-n, so
    # log W = log tau - s n log 2 sample by sample
    ent = entrance_exponent_samples(FAIR, n=12, N=100, seed=42)
    for s in (0.5, 1.0, 2.0):
        w = orbit_sum_exponent_samples(FAIR, n=12, s=s, N=100, seed=42)
        np.testing.assert_array_equal(w.indices, ent.indices)
        np.testing.assert_allclose(w.values, ent.values - s * LN2, atol=1e-12)
        assert w.target == pytest.approx((1.0 - s) * LN2)


def test_summary_fails_hard_past_the_censoring_budget():
    tight = CapPolicy(multiplier=0.05)
    run = entrance_exponent_samples(FAIR, n=8, N=80, seed=9, cap_policy=tight)
    assert run.censored_fraction > 0.5
    with pytest.raises(CensoringExceeded):
        run.summary()
    # exceedance stays usable on whatever survived
    exc = run.exceedance(0.1)
    assert 0.0 <= exc["two_sided"] <= 1.0


def test_an_exceedance_of_no_samples_raises():
    # a cap below one step censors every sample: no fraction lies outside the band, or inside it
    run = entrance_exponent_samples(FAIR, n=10, N=50, seed=1, cap_policy=CapPolicy(multiplier=1e-9))
    assert run.censored_fraction == 1.0
    with pytest.raises(ValueError, match="no samples"):
        run.exceedance(0.15)


def test_exceedance_counts_both_tails():
    run = ExponentSamples(
        kind="entrance", n=4, s=None, target=0.6,
        indices=np.arange(4), values=np.array([0.40, 0.58, 0.62, 0.80]),
        censored=np.empty(0, dtype=np.int64),
    )
    exc = run.exceedance(0.05)
    assert exc["lower"] == pytest.approx(0.25)
    assert exc["upper"] == pytest.approx(0.25)
    assert exc["two_sided"] == pytest.approx(0.5)
    for eps in (0.0, -0.1):
        with pytest.raises(ValueError):
            run.exceedance(eps)


# ---------------------------------------------------------------------------
# empirical survival
# ---------------------------------------------------------------------------

def test_empirical_survival_matches_the_exact_curve():
    grid = np.linspace(0.25, 2.5, 10)
    exp = empirical_survival(FAIR, "11", N=3000, t_grid=grid, seed=13)
    exact = exact_survival(build_product_chain(FAIR, "11", ENTRANCE), m_max=int(exp.curve.m.max()))
    eps = dkw_epsilon(3000, alpha=0.001)
    for m, value in zip(exp.curve.m, exp.curve.values):
        assert abs(value - exact.values[m]) < eps
    assert exp.curve.exactness == "empirical(3000)"
    assert len(exp.censored) <= 12  # 1e-3 nominal censor mass


def test_ks_statistic_shrinks_for_longer_words():
    grid = [0.5, 1.0]
    short = empirical_survival(FAIR, "1", N=400, t_grid=grid, seed=19)
    # 1 then eleven 0s: no self-overlap, so the rescaled law is a clean
    # unit exponential (a run word would carry extremal index 1/2)
    word = (1,) + (0,) * 11
    long = empirical_survival(FAIR, word, N=400, t_grid=grid, seed=19)
    assert long.ks < short.ks
    assert long.ks < 0.08


@given(st.lists(st.integers(1, 40), max_size=300), st.floats(1e-6, 1.0))
@example([], 0.5)
@example([3] * 50 + [7] * 20 + [1], 1 / 3)
@settings(max_examples=200, deadline=None)
def test_ks_statistic_equals_scipy_kstest(times, mu):
    # small integer times, so most samples share their value with others
    from scipy import stats

    exp = SurvivalExperiment(indices=np.arange(len(times)), values=np.array(times, dtype=float),
                             censored=np.empty(0, dtype=np.int64), kind=ENTRANCE, word=(1,),
                             t_grid=(1.0,), mu=mu, cap=100)
    expect = float(stats.kstest(exp.times * exp.mu, "expon").statistic) if times else 1.0
    assert exp.ks == expect


@given(st.lists(st.one_of(st.floats(max_value=0.0, allow_nan=False), st.floats(-40.0, 0.0)),
                max_size=50))
@example([0.5, -0.5, 0.0, -0.0, -5e-324, -1e-310, -2.2250738585072014e-308,
          math.nextafter(-0.5, -1.0), math.nextafter(-0.5, 0.0), -745.2, -math.inf])
@example(np.linspace(-40.0, 0.5, 200_001))  # np.exp - 1 misses on about 0.1 % of these
@settings(max_examples=300, deadline=None)
def test_expm1_equals_scipy_bit_for_bit(xs):
    # the oracle: scipy.special.expm1, which the package no longer imports
    from scipy.special import expm1

    x = np.asarray(xs, dtype=float)
    assert montecarlo._expm1(x).tobytes() == expm1(x).tobytes()


def test_return_ensemble_obeys_the_mean_return_identity():
    exp = empirical_return_survival(CHAIN, "01", N=2000, t_grid=[0.5, 1.0], seed=29)
    mean_exact = exact_mean_return(CHAIN, "01")
    assert mean_exact == pytest.approx(15.0, rel=1e-9)
    se = exp.times.std(ddof=1) / math.sqrt(len(exp.times))
    assert abs(exp.mean_time - mean_exact) < 4.0 * se


def test_return_ensemble_matches_the_exact_return_curve():
    word = (0, 1)
    exact = exact_survival(build_product_chain(CHAIN, word, RETURN), m_max=40)
    exp = empirical_return_survival(CHAIN, word, N=2000, t_grid=[0.2, 0.5, 1.0, 2.0], seed=31)
    for m, value in zip(exp.curve.m, exp.curve.values):
        p = exact.values[m]
        sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / 2000)
        assert abs(value - p) < 4.0 * sigma + 1e-9


def test_a_grid_step_past_the_survival_cap_is_rejected_before_sampling(monkeypatch):
    # 0110 has cap ceil(-log(1e-3) * 16) = 111; t = 7 is step 111 and t = 8 step 127, where every
    # sampled curve would read 0.0 against an exact 1.57e-4
    target, mu, t = montecarlo.survival_target(FAIR, "0110", [1.0, 7.0])
    assert (target.cap, mu, int(step_at(t[-1], mu))) == (111, 1 / 16, 111)
    assert empirical_survival(FAIR, "0110", N=20, t_grid=[1.0, 7.0], seed=1).curve.m.tolist() == [15, 111]
    monkeypatch.setattr(montecarlo, "entrance_time", None)  # any scan would fail
    for sampler in (empirical_survival, empirical_return_survival):
        with pytest.raises(ValueError, match="t grid ends at step 127, past the survival scan's cap 111"):
            sampler(FAIR, "0110", N=10, t_grid=[1.0, 6.0, 7.0, 8.0], seed=1)


def test_bad_time_grids_are_rejected():
    with pytest.raises(ValueError):
        empirical_survival(FAIR, "11", N=10, t_grid=[1.0, 0.5], seed=0)
    with pytest.raises(ValueError):
        empirical_survival(FAIR, "11", N=10, t_grid=[], seed=0)
    for last in (math.nan, math.inf):  # would map to the step 2**63 - 1
        with pytest.raises(ValueError):
            empirical_survival(FAIR, "11", N=10, t_grid=[0.5, last], seed=0)


# ---------------------------------------------------------------------------
# tail integral
# ---------------------------------------------------------------------------

def test_tail_integral_decays_in_n_and_in_epsilon():
    small = survival_tail_integral(FAIR, n=6, epsilon=0.1, n_outer=300, seed=7)
    large = survival_tail_integral(FAIR, n=10, epsilon=0.1, n_outer=300, seed=7)
    assert 0.0 < large.estimate < small.estimate < 1.0
    assert small.std_error > 0.0 and large.std_error > 0.0
    wide = survival_tail_integral(FAIR, n=8, epsilon=0.05, n_outer=300, seed=7)
    narrow = survival_tail_integral(FAIR, n=8, epsilon=0.2, n_outer=300, seed=7)
    # same words, larger threshold: survival smaller word by word
    assert np.all(narrow.values <= wide.values)
    assert narrow.estimate < wide.estimate


TAIL_MODELS = {"fair": FAIR, "biased": BIASED, "chain": CHAIN, "geometric": geometric(0.5)}


@pytest.mark.parametrize("name", list(TAIL_MODELS))
def test_tail_integral_values_are_the_lone_chain_values(name):
    model = TAIL_MODELS[name]
    run = survival_tail_integral(model, n=8, epsilon=0.1, n_outer=40, seed=9)
    threshold = math.exp(8 * 0.1)
    lone = []
    for j in range(40):
        word = tuple(sample_orbit(model, (9, j, 0), 8).tolist())
        m = int(step_at(threshold, cylinder_measure(model, word)))
        lone.append(survival_at(build_product_chain(model, word, ENTRANCE), m))
    assert run.values.tolist() == lone


@pytest.mark.filterwarnings("error")
def test_a_tail_threshold_past_int64_raises():
    # e^(40 * 0.5) / 2**-40 is about 5e20 steps; the cast used to wrap and give 1.0 for every word
    with pytest.raises(ValueError, match="2\\*\\*62"):
        survival_tail_integral(FAIR, 40, 0.5, n_outer=4, seed=1)


def test_a_tail_threshold_past_float_range_raises_before_any_word(monkeypatch):
    # e^(800 * 1.0) overflows a float; the ceiling is compared in log space first
    def drawn(*args, **kwargs):
        raise AssertionError("a word was drawn")

    monkeypatch.setattr(montecarlo, "_prefix", drawn)
    with pytest.raises(MeasureUnderflow, match="2\\*\\*62"):
        survival_tail_integral(FAIR, 800, 1.0, n_outer=2, seed=1)


# recorded from the per-word path that built one chain per word
TAIL_PINS = {
    "fair": (0.11055896502607025, 0.005473532282925171),
    "biased": (0.125570860762037, 0.014528793625243485),
    "chain": (0.18976132910910487, 0.033408315660884466),
    "geometric": (0.11338307081614465, 0.005358819668743876),
}


@pytest.mark.parametrize("name", list(TAIL_MODELS))
def test_tail_integral_estimates_are_pinned(name):
    run = survival_tail_integral(TAIL_MODELS[name], n=8, epsilon=0.1, n_outer=40, seed=9)
    assert (run.estimate, run.std_error) == TAIL_PINS[name]


@pytest.mark.parametrize("name", list(TAIL_MODELS))
def test_tail_integral_parts_merge_to_the_one_pass_rows(name):
    model = TAIL_MODELS[name]
    kwargs = dict(model=model, n=6, epsilon=0.1, n_outer=30, seed=4)
    whole = _fingerprint(survival_tail_integral(**kwargs))
    for cuts in ([15], [1, 12], [0, 0, 7, 30, 30]):  # halves, uneven thirds, empty parts
        bounds = [0, *cuts, 30]
        parts = [survival_tail_integral(**kwargs, indices=range(a, b)) for a, b in zip(bounds, bounds[1:])]
        assert _fingerprint(functools.reduce(lambda a, b: a.merge(b), parts)) == whole


def test_a_cut_stack_gives_the_uncut_values(monkeypatch):
    whole = {name: survival_tail_integral(model, n=10, epsilon=0.1, n_outer=25, seed=2).values.tobytes()
             for name, model in TAIL_MODELS.items()}
    for size in (1, 8 * 10 * 10 * 3, 8 * 20 * 20 * 7):  # one word, three and seven i.i.d. or chain words
        monkeypatch.setattr(exact, "STACK_BYTES", size)
        for name, model in TAIL_MODELS.items():
            run = survival_tail_integral(model, n=10, epsilon=0.1, n_outer=25, seed=2)
            assert run.values.tobytes() == whole[name]


@pytest.mark.filterwarnings("error")
def test_an_empty_tail_part_has_no_estimate():
    part = survival_tail_integral(FAIR, n=6, epsilon=0.1, n_outer=10, seed=1, indices=[])
    assert part.total == 0 and part.std_error is None
    with pytest.raises(ValueError, match="empty"):
        part.estimate


@pytest.mark.filterwarnings("error")
def test_no_statistic_of_an_empty_part_is_nan():
    with pytest.raises(ValueError, match="empty"):
        entrance_exponent_samples(FAIR, 4, 10, 1, indices=[]).summary()
    for sampler in (empirical_survival, empirical_return_survival):
        part = sampler(FAIR, "101", 10, [0.5, 1.0], 1, indices=[])
        with pytest.raises(ValueError, match="empty"):
            part.curve
        with pytest.raises(ValueError, match="empty"):
            part.mean_time
        # a part whose every sample hit the cap has a curve but no mean time
        whole = sampler(FAIR, "101", 10, [0.5, 1.0], 1)
        censored = dataclasses.replace(whole, indices=whole.indices[:0], values=whole.values[:0],
                                       censored=np.arange(10))
        assert censored.curve.values.tolist() == [1.0, 1.0]
        with pytest.raises(ValueError, match="all censored"):
            censored.mean_time


def test_tail_integral_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError):
        survival_tail_integral(FAIR, n=4, epsilon=0.0, n_outer=5, seed=1)
