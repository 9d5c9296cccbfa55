"""The four benchmark workloads.

Each workload makes its inputs from the run seed (``inputs``), builds
the program's models (``construct``), runs one fixed unit of work
(``round``), checks the outputs of one round against computations made
in ``checks`` (``check``), and turns the rounds of a run into figures
(``figures``).  Rounds reuse identical inputs and build their models
and configs afresh, so only a cache kept across calls could make a
later round cheaper than the first.

Operations named in ``KNOWN_FAULTS`` fail on every run because of a
fault in hitstat; they run on fixed inputs that do not depend on the
seed and are counted as failed, not as wrong.
"""
from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hitstat
from hitstat import cli, exact, models, montecarlo, orbits, streams

import checks
from gauge import scale_between

ALPHA = 1e-9  # per-check false-alarm probability of the frequency bands
FAULT_SEED = 20130618  # fixed inputs of the known-fault operations
KAC_REL_TOL = 1e-10  # the tolerance exact_mean_return promises


def derive(seed: int, *path: int) -> int:
    """A 31-bit seed for one input, derived from the run seed."""
    return int(np.random.default_rng((int(seed),) + path).integers(1, 2**31 - 1))


@dataclass
class Round:
    """Timings and outputs of one unit of work."""

    wall: float = 0.0
    parts: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    attempted: int = 0
    failed: list = field(default_factory=list)  # names of known-fault operations that failed
    traced: bool = False
    factors: dict = field(default_factory=dict)  # part -> machine-speed rescaling (see gauge.py)
    gauge: object = None

    def timed(self, part: str, fn, *args, **kwargs):
        """Call ``fn`` as one operation, adding its time to ``part`` even if it raises."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.parts[part] = self.parts.get(part, 0.0) + time.perf_counter() - t0

    @contextmanager
    def gauged(self, part: str, component: str = "py"):
        """Time ``part`` inside this block, rescaled by gauge readings taken around it.

        Gauging each part apart follows the drift closer than gauging the
        round, and lets parts that load the machine differently use the
        matching gauge component.
        """
        before = self.gauge()
        yield
        self.factors[part] = scale_between(before, self.gauge())[component]

    def scaled(self, part: str) -> float:
        return self.parts[part] * self.factors.get(part, 1.0)

    def unit(self) -> float:
        """The round's rescaled time: the sum of its parts."""
        return sum(self.scaled(part) for part in self.parts)


def median_part(rounds, part: str) -> float:
    """Median over rounds of a part's rescaled time."""
    return float(np.median([r.scaled(part) for r in rounds]))


# ---------------------------------------------------------------------------
# mc-ensembles
# ---------------------------------------------------------------------------

class McEnsembles:
    """Seeded exponent ensembles: generation and block scans do the work.

    The ensembles sample the words the CLI samples: the sampler seed's
    indices in order, skipping the rare index whose word has
    ``mu(w) < MIN_MASS``.  Such a word's scan runs to ``tau ~ 1/mu(w)``,
    10^6 symbols or more, and one of them made a round last 4.6 s instead
    of 0.8 s; the words skipped carry 0.18 % of the two-state chain's mass
    at n = 14 and 0.7 % of the biased coin's at n = 16.

    A sample's cost grows with its entrance time ``tau``, and ``tau`` of a
    drawn word is heavy-tailed (``1/mu(w)`` is log-normal), so the sum over
    one seed's ``N`` words moves with the seed far more than with the code.
    Each sample is therefore timed on its own (a one-index call), and so
    are the model's construction and an empty call, which hold the costs
    the CLI pays once per ensemble.  Per-sample and per-symbol costs are
    fitted by least squares over the per-sample medians, and an ensemble is
    costed as one build, one call and ``N`` samples at the ensemble's mean
    scan length.  By Kac's lemma the mean return time, averaged over words
    drawn from ``mu``, is the number of positive-measure n-words, ``k^n``;
    the entrance time into an independent word has the same mean up to
    self-overlap terms.
    """

    name = "mc-ensembles"
    # (label, sampler, model, n, s, N)
    ENSEMBLES = (
        ("entrance.fair-coin", "entrance", "fair-coin", 14, None, 40),
        ("entrance.biased-coin", "entrance", "biased-coin", 14, None, 40),
        ("entrance.two-state-chain", "entrance", "two-state-chain", 14, None, 40),
        ("recurrence.two-state-chain", "recurrence", "two-state-chain", 14, None, 40),
        ("orbit-sum.biased-coin", "orbit-sum", "biased-coin", 16, 1.0, 16),
    )
    MIN_MASS = 1e-6
    EXCEEDANCE_EPS = 0.15
    FREQ_LENGTH = 200_000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def inputs(self):
        self.seeds = {e[0]: derive(self.seed, 1, i) for i, e in enumerate(self.ENSEMBLES)}
        built = self.construct()
        self.indices = {}
        for label, kind, model_name, n, s, N in self.ENSEMBLES:
            model = built[model_name]
            chosen, j = [], 0
            while len(chosen) < N:
                word = orbits.sample_orbit(model, (self.seeds[label], j, 0), n)
                if checks.cylinder_mass(word, **self._law(model)) >= self.MIN_MASS:
                    chosen.append(j)
                j += 1
            self.indices[label] = chosen

    @staticmethod
    def _law(model) -> dict:
        if isinstance(model, models.BernoulliModel):
            return {"p": model.p}
        return {"P": model.P, "pi": checks.stationary(model.P)}

    def materialize(self):
        pass

    def construct(self):
        return {name: models.builtin_model(name) for name in models.BUILTIN_FINITE}

    def _sampler(self, kind):
        return {
            "entrance": montecarlo.entrance_exponent_samples,
            "recurrence": montecarlo.recurrence_exponent_samples,
            "orbit-sum": montecarlo.orbit_sum_exponent_samples,
        }[kind]

    def round(self) -> Round:
        r = Round(gauge=self.gauge)
        t_round = time.perf_counter()
        for label, kind, model_name, n, s, N in self.ENSEMBLES:
            sampler = self._sampler(kind)
            extra = {} if s is None else {"s": s}
            seed = self.seeds[label]
            top = self.indices[label][-1] + 1
            times, values = [], []
            with r.gauged(label):
                t0 = time.perf_counter()
                model = models.builtin_model(model_name)
                t1 = time.perf_counter()
                sampler(model, n=n, N=top, seed=seed, indices=[], **extra)
                per_call = time.perf_counter() - t1
                build = t1 - t0
                for j in self.indices[label]:
                    t0 = time.perf_counter()
                    res = sampler(model, n=n, N=top, seed=seed, indices=[j], **extra)
                    times.append(time.perf_counter() - t0)
                    values.append(float(res.values[0]) if len(res.values) else None)
            r.attempted += N
            r.parts[label] = build + per_call + float(sum(times))
            r.outputs[label] = {"build": build, "per_call": per_call, "times": times, "values": values}
        r.wall = time.perf_counter() - t_round
        return r

    def same(self, first: Round, other: Round) -> list[str]:
        return [f"{label}: exponents differ between rounds"
                for label in first.outputs
                if first.outputs[label]["values"] != other.outputs[label]["values"]]

    def _entropy(self, model) -> float:
        if isinstance(model, models.BernoulliModel):
            return float(-(model.p * np.log(model.p)).sum())
        P = model.P
        return float(-(checks.stationary(P)[:, None] * P * np.log(P)).sum())

    def check(self, first: Round) -> list[str]:
        out = []
        self.taus = {}
        built = self.construct()
        for label, kind, model_name, n, s, N in self.ENSEMBLES:
            model = built[model_name]
            seed = self.seeds[label]
            taus = []
            for j, value in zip(self.indices[label], first.outputs[label]["values"]):
                tag = f"{label}[{j}]"
                if value is None:
                    out.append(f"{tag}: censored at the default cap")
                    taus.append(None)
                    continue
                word_path = orbits.sample_orbit(model, (seed, j, 0), n)
                word = [int(x) for x in word_path]
                if kind == "orbit-sum":
                    cap = orbits.CapPolicy().cap_for(model, tuple(word))
                    res = orbits.w_sum(orbits.OrbitStream(model, (seed, j, 1)),
                                       target=tuple(word), s=s, cap=cap)
                    tau = res.time.value
                    if res.log_value / n != value:
                        out.append(f"{tag}: sampler value differs from w_sum")
                    orbit = orbits.sample_orbit(model, (seed, j, 1), tau + n)
                    out += checks.check_entrance_time(orbit, word, tau, tag)
                    out += checks.check_orbit_sum(orbit, word, np.log(model.p), s,
                                                  res.log_value, res.terms, tau, tag)
                else:
                    tau = int(round(math.exp(value * n)))
                    out += checks.check_exponent_value(value, tau, n, tag)
                    role = 0 if kind == "recurrence" else 1
                    orbit = orbits.sample_orbit(model, (seed, j, role), tau + n)
                    if kind == "recurrence":
                        word = [int(x) for x in orbit[:n]]
                    out += checks.check_entrance_time(orbit, word, tau, tag)
                taus.append(tau)
            self.taus[label] = taus
            if kind == "entrance":
                out += self._check_exceedance(label, model, n, seed, self.indices[label],
                                              first.outputs[label]["values"])
        for i, name in enumerate(models.BUILTIN_FINITE):
            model = built[name]
            orbit = orbits.sample_orbit(model, (derive(self.seed, 9, i),), self.FREQ_LENGTH)
            if isinstance(model, models.BernoulliModel):
                out += checks.check_symbol_frequencies(orbit, model.p, ALPHA, f"freq.{name}")
            else:
                lam = sorted(np.abs(np.linalg.eigvals(model.P)))[-2]
                out += checks.check_symbol_frequencies(orbit, checks.stationary(model.P), ALPHA, f"freq.{name}",
                                                       inflation=(1 + lam) / (1 - lam))
                out += checks.check_transition_frequencies(orbit, model.P, ALPHA, f"trans.{name}")
        return out

    def _check_exceedance(self, label, model, n, seed, indices, values) -> list[str]:
        """Empirical exceedance against the exact law averaged over the same words."""
        h = self._entropy(model)
        eps = self.EXCEEDANCE_EPS
        m_lower = math.ceil(math.exp(n * (h - eps))) - 1
        m_upper = math.floor(math.exp(n * (h + eps)))
        pred_lower = pred_upper = 0.0
        for j in indices:
            word = tuple(int(x) for x in orbits.sample_orbit(model, (seed, j, 0), n))
            chain = exact.build_product_chain(model, word, exact.ENTRANCE)
            pred_lower += 1.0 - exact.survival_at(chain, m_lower)
            pred_upper += exact.survival_at(chain, m_upper)
        v = np.array(values, dtype=float)
        N = len(values)
        return checks.check_exceedance(
            float((v < h - eps).mean()), float((v > h + eps).mean()),
            pred_lower / N, pred_upper / N, montecarlo.dkw_epsilon(N, 0.001), f"{label}.exceedance")

    def figures(self, rounds) -> dict:
        built = self.construct()
        fig = {"fits": {}}
        cost = {}
        for label, kind, model_name, n, s, N in self.ENSEMBLES:
            factors = [r.factors.get(label, 1.0) for r in rounds]
            t = np.median([np.array(r.outputs[label]["times"]) * f for r, f in zip(rounds, factors)], axis=0)
            build, per_call = (float(np.median([r.outputs[label][key] * f for r, f in zip(rounds, factors)]))
                               for key in ("build", "per_call"))
            x = np.array(self.taus[label], dtype=float) + n  # symbols a scan must read
            per_symbol, per_sample = np.polyfit(x, t - per_call, 1)
            mean_tau = float(built[model_name].k) ** n
            cost[label] = build + per_call + N * (per_sample + per_symbol * (mean_tau + n))
            fig["fits"][label] = {"build_us": build * 1e6,
                                  "per_call_us": per_call * 1e6,
                                  "us_per_sample": per_sample * 1e6,
                                  "ns_per_symbol": per_symbol * 1e9,
                                  "mean_tau": mean_tau,
                                  "sampled_mean_tau": float(np.mean(self.taus[label])),
                                  "measured_s": build + per_call + float(t.sum()),
                                  "ensemble_s_at_mean_tau": cost[label]}
        entr = [e for e in self.ENSEMBLES if e[1] != "orbit-sum"]
        orb = [e for e in self.ENSEMBLES if e[1] == "orbit-sum"]
        fig["entrance_samples_per_s"] = sum(e[5] for e in entr) / sum(cost[e[0]] for e in entr)
        fig["orbit_sum_samples_per_s"] = sum(e[5] for e in orb) / sum(cost[e[0]] for e in orb)
        fig["unit_s"] = sum(cost.values())
        return fig


# ---------------------------------------------------------------------------
# exact-chains
# ---------------------------------------------------------------------------

class ExactChains:
    """Product chains of a seeded 16-state model, the exact CLI kinds, the
    tail integral and the known-fault small-mu operations.

    A few large chains (S = 512) and many small ones (one per tail-integral
    word) load the exact layer in opposite ways.
    """

    name = "exact-chains"
    LADDER = (16, 128, 512)
    CURVE_M = 64
    GRID_M = (1, 8, 64, 4096, 10**6)
    SHORT_WORDS = (1, 2, 3)
    TAIL_N = (6, 8, 10, 12)  # theorem2.json's n-ladder
    TAIL_EPS = 0.1
    TAIL_WORDS = 100
    FAIR_RUNS = (10, 20, 30, 40, 50, 56)  # 1^n words on the fair coin
    FIXED_LENGTHS = (8, 12, 16, 32)  # words on the fixed 16-state model: S = 128, 192, 256, 512
    EPSILONS = (1e-2, 1e-3, 1e-4)
    RENYI_S = (0.5, 1.0, 2.0)
    # operations that fail until their faults are mended, with the fault
    KNOWN_FAULTS = {
        **{f"exact_mean_return.fair-coin.1^{n}": "exact._certified_survival_total certifies a rounded matrix power"
           for n in (30, 40, 50, 56)},
        **{f"exact_mean_return.fixed16.S{16 * L}": "exact._certified_survival_total certifies a rounded matrix power"
           for L in (8, 12, 16, 32)},
        **{f"renyi_entropy.eps{eps:g}": "models._perron_root stops on stagnation, not convergence"
           for eps in (1e-2, 1e-3, 1e-4)},
    }

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def inputs(self):
        rng = np.random.default_rng((self.seed, 2))
        self.P16 = rng.dirichlet(np.ones(16), size=16)
        self.ladder_words = {S: tuple(int(a) for a in rng.integers(0, 16, S // 16)) for S in self.LADDER}
        self.short_words = [tuple(int(a) for a in rng.integers(0, 16, n)) for n in self.SHORT_WORDS]
        P3 = 0.5 * rng.dirichlet(np.ones(3), size=3) + 0.5 / 3
        P3 /= P3.sum(axis=1, keepdims=True)
        self.P3 = P3
        binary = lambda n: "".join(str(int(a)) for a in rng.integers(0, 2, n))
        self.configs = {
            "kac": {"kind": "kac", "model": "two-state-chain", "seed": derive(self.seed, 2, 1),
                    "words": [binary(6) for _ in range(4)],
                    "tolerance": {"max_residual": 1e-9}},
            "hlv": {"kind": "hlv", "model": "two-state-chain", "seed": derive(self.seed, 2, 2),
                    "words": [binary(n) for n in (1, 2, 3, 4)], "m_max": 500,
                    "tolerance": {"max_residual": 1e-9}},
            "abadi-shape": {"kind": "abadi-shape", "model": "fair-coin",
                            "seed": derive(self.seed, 2, 3), "word": binary(3),
                            "t_grid": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]},
            "renyi-exact": {"kind": "renyi-exact",
                            "model": {"kind": "markov", "P": P3.tolist()},
                            "seed": derive(self.seed, 2, 4), "s_list": list(self.RENYI_S),
                            "n_list": list(range(4, 15))},
        }
        self.tail_seed = derive(self.seed, 2, 5)
        frng = np.random.default_rng(FAULT_SEED)
        self.P_fixed = frng.dirichlet(np.ones(16), size=16)
        self.fixed_words = {L: tuple(int(a) for a in frng.integers(0, 16, L)) for L in self.FIXED_LENGTHS}

    def materialize(self):
        self.config_paths = {}
        for kind, cfg in self.configs.items():
            path = self.workdir / f"{kind}.json"
            path.write_text(json.dumps(cfg))
            self.config_paths[kind] = path

    def _eps_chain(self, eps):
        return np.array([[1 - eps, eps], [2 * eps, 1 - 2 * eps]])

    def construct(self):
        return {
            "m16": models.markov(self.P16),
            "fixed": models.markov(self.P_fixed),
            "fair": models.builtin_model("fair-coin"),
            # the exact stationary vector (2/3, 1/3) is supplied: computing it is
            # the separate stationary_distribution fault, left out of the run
            "eps": {eps: models.markov(self._eps_chain(eps), pi=[2 / 3, 1 / 3]) for eps in self.EPSILONS},
        }

    def round(self) -> Round:
        r = Round(gauge=self.gauge)
        t_round = time.perf_counter()
        with r.gauged("ladder"):
            built = r.timed("ladder", self.construct)
            m16 = built["m16"]
            ladder = {}
            for S in self.LADDER:
                chain = r.timed("ladder", exact.build_product_chain, m16, self.ladder_words[S], exact.ENTRANCE)
                curve = r.timed("ladder", exact.exact_survival, chain, self.CURVE_M)
                grid = [r.timed("ladder", exact.survival_at, chain, m) for m in self.GRID_M]
                ladder[S] = {"states": chain.Q.shape[0], "curve": curve.values.tolist(), "grid": grid}
            ladder["mean16"] = r.timed("ladder", exact.exact_mean_return, m16, self.ladder_words[16])
            r.outputs["faults"] = self._faults(r, built)
        r.outputs["ladder"] = ladder
        kinds = {}
        with r.gauged("kinds"):
            for kind, path in self.config_paths.items():
                outdir = self.workdir / f"out-{kind}"
                code = r.timed("kinds", cli.main, ["--config", str(path), "--outdir", str(outdir)])
                kinds[kind] = {"code": code,
                               "summary": (outdir / "summary.json").read_text(),
                               "report": (outdir / "report.csv").read_text()}
        r.outputs["kinds"] = kinds
        tail = []
        with r.gauged("tail"):
            t0 = time.perf_counter()
            fair = models.builtin_model("fair-coin")
            for n in self.TAIL_N:
                res = montecarlo.survival_tail_integral(fair, n, self.TAIL_EPS, n_outer=self.TAIL_WORDS,
                                                        seed=self.tail_seed)
                tail.append(res.estimate)
            r.parts["tail"] = time.perf_counter() - t0
        r.attempted += len(self.TAIL_N) * self.TAIL_WORDS
        r.outputs["tail"] = tail
        r.wall = time.perf_counter() - t_round
        return r

    def _faults(self, r: Round, built) -> dict:
        """The small-mu operations; known faults are recorded in ``r.failed``."""
        out = {}
        fair = built["fair"]
        for n in self.FAIR_RUNS:
            name = f"exact_mean_return.fair-coin.1^{n}"
            value = self._guarded(r, exact.exact_mean_return, fair, (1,) * n)
            ok = value is not None and not checks.check_kac(value, (1,) * n, p=fair.p, rel_tol=KAC_REL_TOL)
            out[name] = value
            if not ok:
                r.failed.append(name)
        fixed = built["fixed"]
        for L, word in self.fixed_words.items():
            name = f"exact_mean_return.fixed16.S{16 * L}"
            value = self._guarded(r, exact.exact_mean_return, fixed, word)
            ok = value is not None and not checks.check_kac(value, word, P=self.P_fixed,
                                                            pi=checks.stationary(self.P_fixed),
                                                            rel_tol=KAC_REL_TOL)
            out[name] = value
            if not ok:
                r.failed.append(name)
        for eps, model in built["eps"].items():
            name = f"renyi_entropy.eps{eps:g}"
            value = self._guarded(r, models.renyi_entropy, model, 1.0)
            ok = value is not None and not checks.check_renyi(value, model.P, 1.0, 1e-12, name)
            out[name] = value
            if not ok:
                r.failed.append(name)
        return out

    @staticmethod
    def _guarded(r: Round, fn, *args):
        try:
            return r.timed("ladder", fn, *args)
        except hitstat.HitstatError:
            return None

    def same(self, first: Round, other: Round) -> list[str]:
        return [f"{key}: output differs between rounds"
                for key in ("ladder", "faults", "kinds", "tail")
                if first.outputs[key] != other.outputs[key]]

    def check(self, first: Round) -> list[str]:
        out = []
        built = self.construct()
        m16 = built["m16"]
        ladder = first.outputs["ladder"]
        for S in self.LADDER:
            tag = f"ladder.S{S}"
            rec = ladder[S]
            if rec["states"] != S:
                out.append(f"{tag}: {rec['states']} states")
            curve = np.array(rec["curve"])
            out += checks.check_survival_curve(curve, tag)
            out += checks.check_survival_curve(np.array(rec["grid"]), f"{tag}.grid")
            on_curve = [i for i, m in enumerate(self.GRID_M) if m <= self.CURVE_M]
            out += checks.check_close([rec["grid"][i] for i in on_curve],
                                      [curve[self.GRID_M[i]] for i in on_curve], 1e-12, f"{tag}.survival_at")
        out += checks.check_kac(ladder["mean16"], self.ladder_words[16], P=self.P16,
                                pi=checks.stationary(self.P16), rel_tol=KAC_REL_TOL, label="ladder.S16.kac")
        for word in self.short_words:
            chain = exact.build_product_chain(m16, word, exact.ENTRANCE)
            curve = exact.exact_survival(chain, self.CURVE_M).values
            ref = checks.transfer_survival(self.P16, checks.stationary(self.P16), word, self.CURVE_M)
            out += checks.check_close(curve, ref, 1e-12, f"transfer.n{len(word)}")
        for name in first.failed:
            if name not in self.KNOWN_FAULTS:
                out.append(f"{name}: failed, and is not a known fault")
        out += self._check_kinds(first.outputs["kinds"])
        out += checks.check_tail_estimates(first.outputs["tail"], "tail")
        return out

    def _check_kinds(self, kinds) -> list[str]:
        out = []
        for kind, rec in kinds.items():
            if rec["code"] != 0:
                out.append(f"cli.{kind}: exit code {rec['code']}")
        summaries = {k: json.loads(v["summary"]) for k, v in kinds.items()}
        P2 = np.array([[0.9, 0.1], [0.2, 0.8]])
        pi2 = checks.stationary(P2)
        for line in kinds["kac"]["report"].splitlines()[1:]:
            word, _, mean, _ = line.split(",")
            out += checks.check_kac(float(mean), [int(c) for c in word], P=P2, pi=pi2,
                                    rel_tol=KAC_REL_TOL, label=f"cli.kac.{word}")
        residual = summaries["hlv"]["results"]["max_residual"]
        if not residual <= 1e-9:
            out.append(f"cli.hlv: residual {residual:.3g} > 1e-9")
        shape = summaries["abadi-shape"]
        values = [float(line.split(",")[1]) for line in kinds["abadi-shape"]["report"].splitlines()[1:]]
        out += checks.check_survival_curve(np.array(values), "cli.abadi-shape")
        if not shape["results"]["rate"] > 0.0:
            out.append("cli.abadi-shape: non-positive rate")
        renyi = summaries["renyi-exact"]["results"]["per_s"]
        rows = [line.split(",") for line in kinds["renyi-exact"]["report"].splitlines()[1:]]
        for s in self.RENYI_S:
            value = renyi[repr(float(s))]["renyi"]
            out += checks.check_renyi(value, self.P3, s, 1e-10, f"cli.renyi-exact.s{s}")
            log_z = [float(row[2]) for row in rows if float(row[0]) == s]
            out += checks.check_partition_increments(log_z, value, s, 1e-3, f"cli.renyi-exact.s{s}")
        return out

    def figures(self, rounds) -> dict:
        unit = [r.unit() for r in rounds]
        return {
            "exact_ladder_s": median_part(rounds, "ladder"),
            "exact_kinds_s": median_part(rounds, "kinds"),
            "tail_words_per_s": len(self.TAIL_N) * self.TAIL_WORDS / median_part(rounds, "tail"),
            "unit_s": float(np.median(unit)),
        }


# ---------------------------------------------------------------------------
# stream-bytes
# ---------------------------------------------------------------------------

class StreamBytes:
    """A seeded file of packed biased-coin bits through the stream estimators.

    OW recurrence scans are as heavy-tailed as entrance times: over twelve
    seeds the 400 bit-map starts scanned 4.0 to 8.3 M symbols.  The measured
    OW time is therefore divided by the symbols the scans consumed (counted
    by an independent search) and costed at the mean recurrence time over
    starts, which by Kac's lemma is the number of n-words, ``k^n``.
    """

    name = "stream-bytes"
    GAUGE = ("py", "mem")  # the plug-in part is gauged by ``mem``
    FILE_BYTES = 1 << 20
    P_ONE = 0.3  # biased coin (0.7, 0.3)
    S = 1.0
    PLUGIN = (("bit", 14), ("nibble", 4))
    # nibble n = 3, not 4: at n = 4 the 2 Mi-symbol nibble sequence leaves more
    # than 5 % of starts without a repeat on 5 of 40 seeds, and the estimator
    # rightly refuses (CensoringExceeded); at n = 3 the worst seed censors 1 %
    OW = (("bit", 14), ("nibble", 3))
    OW_STARTS = 400
    MAPS = ("byte", "nibble", "bit")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def inputs(self):
        self.ow_seed = derive(self.seed, 3, 1)

    def materialize(self):
        rng = np.random.default_rng((self.seed, 3))
        bits = rng.random(8 * self.FILE_BYTES) < self.P_ONE
        self.raw = np.packbits(bits).tobytes()
        self.path = self.workdir / "stream.bin"
        self.path.write_bytes(self.raw)

    def construct(self):
        return {name: streams.named_map(name) for name in self.MAPS}

    def round(self) -> Round:
        r = Round(gauge=self.gauge)
        t_round = time.perf_counter()
        with r.gauged("plugin", "mem"):
            maps = r.timed("plugin", self.construct)
            seqs = {name: r.timed("plugin", streams.ingest, self.path, maps[name]) for name in self.MAPS}
            plugin = {f"{m}.n{n}": r.timed("plugin", streams.plugin_renyi_estimate, seqs[m], n, self.S)
                      for m, n in self.PLUGIN}
        ow = {}
        for m, n in self.OW:
            with r.gauged(f"ow.{m}"):
                series = r.timed(f"ow.{m}", streams.ow_entropy_estimate, seqs[m], [n],
                                 starts_per_n=self.OW_STARTS, seed=self.ow_seed)
            ow[f"{m}.n{n}"] = series.rows[0]
        r.outputs = {"plugin": plugin, "ow": ow}
        r.wall = time.perf_counter() - t_round
        return r

    def same(self, first: Round, other: Round) -> list[str]:
        return [] if first.outputs == other.outputs else ["stream estimates differ between rounds"]

    def _h_bit(self) -> float:
        p = np.array([1 - self.P_ONE, self.P_ONE])
        return float(-(p * np.log(p)).sum())

    def _renyi_bit(self, s: float) -> float:
        p = np.array([1 - self.P_ONE, self.P_ONE])
        return float(-math.log((p ** (1 + s)).sum()) / s)

    def _per_symbol_bits(self, m: str) -> int:
        return {"bit": 1, "nibble": 4, "byte": 8}[m]

    def check(self, first: Round) -> list[str]:
        maps = self.construct()
        seqs = {name: streams.ingest(self.path, maps[name]) for name in self.MAPS}
        out = checks.check_repack(self.raw, seqs["byte"], seqs["nibble"], seqs["bit"], "ingest")
        self.scanned = {}
        for m, n in self.PLUGIN:
            k = 2 ** self._per_symbol_bits(m)
            counts = streams.window_counts(seqs[m], n)
            out += checks.check_window_counts(counts, seqs[m], n, k, f"window_counts.{m}.n{n}")
            expect = self._per_symbol_bits(m) * self._renyi_bit(self.S)
            out += checks.check_within(first.outputs["plugin"][f"{m}.n{n}"], expect, 0.05,
                                       f"plugin.{m}.n{n}")
        for m, n in self.OW:
            k = 2 ** self._per_symbol_bits(m)
            codes = checks.window_codes(seqs[m], n, k)
            starts = checks.ow_starts(len(seqs[m]), n, self.OW_STARTS, self.ow_seed)
            taus = checks.next_repeats(codes, starts)
            row = first.outputs["ow"][f"{m}.n{n}"]
            out += checks.check_ow(row, taus, n, f"ow.{m}.n{n}")
            self.scanned[m] = sum(t + n for t in taus if t is not None) + sum(
                len(seqs[m]) - int(i) for i, t in zip(starts, taus) if t is None)
        row = first.outputs["ow"]["bit.n14"]
        out += checks.check_within(row.estimate_nats, self._h_bit(), 0.08, "ow.bit.n14.vs_h")
        return out

    def figures(self, rounds) -> dict:
        plugin_s = median_part(rounds, "plugin")
        ow_s = 0.0
        fits = {}
        for m, n in self.OW:
            measured = median_part(rounds, f"ow.{m}")
            per_symbol = measured / self.scanned[m]
            mean_tau = float(2 ** self._per_symbol_bits(m)) ** n
            ow_s += per_symbol * self.OW_STARTS * (mean_tau + n)
            fits[m] = {"measured_s": measured, "ns_per_symbol": per_symbol * 1e9, "mean_tau": mean_tau,
                       "symbols_scanned": self.scanned[m]}
        return {
            "plugin_bytes_per_s": self.FILE_BYTES / plugin_s,
            "ow_starts_per_s": len(self.OW) * self.OW_STARTS / ow_s,
            "ow": fits,
            "unit_s": plugin_s + ow_s,
        }


# ---------------------------------------------------------------------------
# cli-sharded
# ---------------------------------------------------------------------------

class CliSharded:
    """The CLI at two workers: the only path through the process pool."""

    name = "cli-sharded"
    WORKERS = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def inputs(self):
        rng = np.random.default_rng((self.seed, 4))
        word = "".join(str(int(a)) for a in rng.integers(0, 2, 10))
        self.configs = {
            "entrance-exponent": {"kind": "entrance-exponent", "model": "fair-coin",
                                  "seed": derive(self.seed, 4, 1), "n": 11, "N": 800,
                                  "epsilon": 0.15, "tolerance": {"median_within": 0.1}},
            "survival": {"kind": "survival", "model": "fair-coin", "seed": derive(self.seed, 4, 2),
                         "word": word, "N": 2000, "t_grid": [0.25, 0.5, 1.0, 1.5, 2.0, 3.0],
                         "tolerance": {"dkw_alpha": 1e-6}},
            "theorem2": {"kind": "theorem2", "model": "fair-coin", "seed": derive(self.seed, 4, 3),
                         "n_list": [6, 8, 10, 12], "epsilon": 0.1, "N": 300,
                         "tolerance": {"require_decreasing": True}},
        }

    def materialize(self):
        self.config_paths = {}
        for kind, cfg in self.configs.items():
            path = self.workdir / f"{kind}.json"
            path.write_text(json.dumps(cfg))
            self.config_paths[kind] = path

    def construct(self):
        return {name: models.builtin_model(name) for name in ("fair-coin",)}

    def _run(self, r: Round | None, workers: int, tag: str) -> dict:
        """Each kind once; with a round, each kind's time is gauged on its own.

        The kinds differ in how they load the two cores, so each is gauged
        on its own.
        """
        out = {}
        for kind, path in self.config_paths.items():
            outdir = self.workdir / f"{tag}-{kind}"
            argv = ["--config", str(path), "--workers", str(workers), "--outdir", str(outdir)]
            t0 = time.perf_counter()
            if r is None:
                code = cli.main(argv)
            else:
                with r.gauged(f"kind.{kind}"):
                    code = r.timed(f"kind.{kind}", cli.main, argv)
            elapsed = time.perf_counter() - t0
            out[kind] = {"code": code, "seconds": elapsed,
                         "report": (outdir / "report.csv").read_bytes(),
                         "summary": (outdir / "summary.json").read_bytes()}
        return out

    def round(self) -> Round:
        r = Round(gauge=self.gauge)
        t_round = time.perf_counter()
        runs = self._run(r, self.WORKERS, "w2")
        r.outputs = {k: {key: v[key] for key in ("code", "report", "summary")} for k, v in runs.items()}
        r.wall = time.perf_counter() - t_round
        return r

    def same(self, first: Round, other: Round) -> list[str]:
        return [] if first.outputs == other.outputs else ["CLI outputs differ between rounds"]

    def check(self, first: Round) -> list[str]:
        out = []
        self.single = self._run(None, 1, "w1")
        for kind, rec in first.outputs.items():
            if rec["code"] != 0:
                out.append(f"cli.{kind}: exit code {rec['code']} at {self.WORKERS} workers")
            for key in ("report", "summary"):
                if rec[key] != self.single[kind][key]:
                    out.append(f"cli.{kind}: {key} differs between 1 and {self.WORKERS} workers")
            summary = json.loads(rec["summary"])
            if summary.get("tolerance_check", {}).get("passed") is not True:
                out.append(f"cli.{kind}: declared tolerance not met")
        return out

    def figures(self, rounds) -> dict:
        unit = float(np.median([r.unit() for r in rounds]))
        return {
            **{f"kind_s.{k}": median_part(rounds, f"kind.{k}") for k in self.configs},
            "sharded_kinds_s": unit,
            "workers1_kinds_s": sum(v["seconds"] for v in self.single.values()),
            "unit_s": unit,
        }


WORKLOADS = {w.name: w for w in (McEnsembles, ExactChains, StreamBytes, CliSharded)}
