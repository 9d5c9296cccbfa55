"""Configuration-driven experiment runner.

``hitstat --config exp.json [--workers N] [--outdir PATH]`` reads one
experiment description, dispatches to the owning module, and writes
``report.csv`` plus ``summary.json`` into the output directory.  Files
contain no timestamps and all floats are written with ``repr``, so a
config and seed reproduce their outputs byte for byte -- including
across worker counts: every Monte Carlo kind shards its sample indices
across the workers, and the parts merge into exactly the one-process
ensemble.  The exact and stream kinds run in one process.

Exit codes: 0 success, 2 invalid config (nothing written), 3 runtime
failure, 4 a declared tolerance was not met (report still written).
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CensoringExceeded, HitstatError
from .exact import (
    build_product_chain,
    entrance_return_residual,
    exact_mean_return,
    fit_survival_shape,
    survival_at,
)
from .models import (
    BUILTIN_MODELS,
    builtin_model,
    cylinder_measure,
    load_model,
    model_fingerprint,
    model_from_dict,
    partition_slope,
    partition_sum_exact,
    renyi_entropy,
    shannon_entropy,
)
from .montecarlo import (
    dkw_epsilon,
    empirical_return_survival,
    empirical_survival,
    entrance_exponent_samples,
    orbit_sum_exponent_samples,
    recurrence_exponent_samples,
    survival_tail_integral,
)
from .orbits import CapPolicy, OrbitStream
from .streams import (
    EstimateRow,
    EstimateSeries,
    PLUGIN_METHOD,
    ingest,
    named_map,
    ow_entropy_estimate,
    plugin_renyi_estimate,
)
from .words import as_word, word_str


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _resolve_model(spec):
    if isinstance(spec, dict):
        return model_from_dict(spec)
    if isinstance(spec, str):
        if spec in BUILTIN_MODELS:
            return builtin_model(spec)
        return load_model(spec)
    raise ConfigError(f"model must be a name, file path or inline object, got {spec!r}")


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config key {key!r} is required for kind {cfg.get('kind')!r}")
    return cfg[key]


def _positive_int(cfg: dict, key: str) -> int:
    value = _require(cfg, key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{key} must be a positive integer, got {value!r}")
    return value


def _cap_policy(cfg: dict) -> CapPolicy:
    mult = cfg.get("cap_multiplier", 100.0)
    if not isinstance(mult, (int, float)) or mult <= 0:
        raise ConfigError(f"cap_multiplier must be positive, got {mult!r}")
    return CapPolicy(multiplier=float(mult))


def _fmt(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# sharding: every Monte Carlo kind splits its sample indices across the
# workers; the exact and stream kinds run in one process
# ---------------------------------------------------------------------------

# workers receive a sampler's name, never the function, so a function
# patched in place (a tracer's wrapper, say) need not pickle
_SAMPLERS = {
    "entrance": entrance_exponent_samples,
    "recurrence": recurrence_exponent_samples,
    "orbit-sum": orbit_sum_exponent_samples,
    "survival": empirical_survival,
    "return-survival": empirical_return_survival,
    "tail-integral": survival_tail_integral,
}


def _shard_task(args):
    name, kwargs, chunk = args
    return _SAMPLERS[name](indices=chunk, **kwargs)


def _sharded_samples(jobs, workers: int) -> list:
    """One ensemble per ``(sampler name, kwargs)`` job, from one pool for all of them."""
    if workers <= 1:
        return [_SAMPLERS[name](**kwargs) for name, kwargs in jobs]
    tasks = []
    for name, kwargs in jobs:
        N = kwargs["n_outer" if name == "tail-integral" else "N"]
        tasks += [(name, kwargs, c.tolist()) for c in np.array_split(np.arange(N), workers)]
    with multiprocessing.Pool(workers) as pool:
        parts = pool.map(_shard_task, tasks)
    return [functools.reduce(lambda a, b: a.merge(b), parts[i:i + workers])
            for i in range(0, len(parts), workers)]


# ---------------------------------------------------------------------------
# kind runners: each returns (columns, rows, results, tolerance_ok)
# ---------------------------------------------------------------------------

def _ensemble_rows(run):
    values = dict(zip(run.indices.tolist(), run.values.tolist()))
    return [[j, _fmt(values[j]), 0] if j in values else [j, "", 1] for j in range(run.total)]


def _check_exponent_tolerance(run, tol):
    if tol is None:
        return None, {}
    eps = float(tol.get("eps", 0.15))
    exc = run.exceedance(eps)
    ok = True
    if "max_two_sided" in tol:
        ok = ok and exc["two_sided"] <= float(tol["max_two_sided"])
    if "max_lower" in tol:
        ok = ok and exc["lower"] <= float(tol["max_lower"])
    if "median_within" in tol:
        med = float(np.median(run.values))
        ok = ok and abs(med - run.target) <= float(tol["median_within"])
    return ok, {"exceedance": exc}


def _run_exponent(cfg, model, workers, sampler_name):
    n = _positive_int(cfg, "n")
    N = _positive_int(cfg, "N")
    kwargs = dict(n=n, N=N, seed=cfg["seed"], cap_policy=_cap_policy(cfg))
    if sampler_name == "orbit-sum":
        s = float(_require(cfg, "s"))
        kwargs.update(s=s, diagonal=bool(cfg.get("diagonal", False)))
    run, = _sharded_samples([(sampler_name, dict(model=model, **kwargs))], workers)
    results = {"target": run.target, "censored_fraction": run.censored_fraction}
    try:
        results["summary"] = run.summary()
    except CensoringExceeded as exc:  # a biased summary is withheld, with the reason
        results["summary"] = None
        results["summary_withheld"] = str(exc)
    eps = cfg.get("epsilon")
    if eps is not None:
        results["exceedance"] = run.exceedance(float(eps))
    ok, extra = _check_exponent_tolerance(run, cfg.get("tolerance"))
    results.update(extra)
    return ["sample", "exponent", "censored"], _ensemble_rows(run), results, ok


def _run_survival(cfg, model, workers, sampler_name):
    """The sampled curve against the exact one: (experiment, rows, worst error)."""
    word = as_word(_require(cfg, "word"))
    exp, = _sharded_samples([(sampler_name, dict(model=model, z_word=word, N=_positive_int(cfg, "N"),
                                                 t_grid=_require(cfg, "t_grid"), seed=cfg["seed"]))],
                            workers)
    chain = build_product_chain(model, word, exp.kind)
    rows = []
    worst = 0.0
    curve = exp.curve
    for m, t, value in zip(curve.m, curve.t, curve.values):
        exact = survival_at(chain, int(m))
        worst = max(worst, abs(value - exact))
        rows.append([int(m), _fmt(t), _fmt(value), _fmt(exact), _fmt(abs(value - exact))])
    return exp, rows, worst


def run_survival(cfg, model, workers):
    exp, rows, worst = _run_survival(cfg, model, workers, "survival")
    tol = cfg.get("tolerance")
    alpha = float(tol.get("dkw_alpha", 0.001)) if tol else 0.001
    band = dkw_epsilon(exp.total, alpha)
    results = {
        "ks_statistic": exp.ks.statistic,
        "ks_samples": exp.ks.sample_count,
        "censored": exp.censored_count,
        "cap": exp.cap,
        "max_abs_error": worst,
        "dkw_band": band,
    }
    ok = None
    if tol is not None:
        ok = worst <= band
        if "max_ks" in tol:
            ok = ok and exp.ks.statistic <= float(tol["max_ks"])
    return ["m", "t", "empirical", "exact", "abs_error"], rows, results, ok


def run_return_survival(cfg, model, workers):
    exp, rows, worst = _run_survival(cfg, model, workers, "return-survival")
    exact_mean = exact_mean_return(model, exp.word)
    results = {
        "mean_time": exp.mean_time,
        "exact_mean_return": exact_mean,
        "censored": exp.censored_count,
        "max_abs_error": worst,
    }
    tol = cfg.get("tolerance")
    ok = None
    if tol is not None:
        ok = True
        if "max_mean_error" in tol:
            ok = ok and abs(exp.mean_time - exact_mean) <= float(tol["max_mean_error"])
        if "max_abs_error" in tol:
            ok = ok and worst <= float(tol["max_abs_error"])
    return ["m", "t", "empirical", "exact", "abs_error"], rows, results, ok


def _word_list(cfg) -> list:
    if "words" in cfg:
        return [as_word(w) for w in cfg["words"]]
    return [as_word(_require(cfg, "word"))]


def _max_residual_ok(cfg, worst):
    """``worst <= max_residual`` when declared; None without a tolerance."""
    tol = cfg.get("tolerance")
    if tol is None:
        return None
    return worst <= float(tol["max_residual"]) if tol and "max_residual" in tol else True


def run_kac(cfg, model, workers):
    words = _word_list(cfg)
    rows = []
    worst = 0.0
    means = []
    for word in words:
        mu = cylinder_measure(model, word)
        mean = exact_mean_return(model, word)
        residual = abs(mean * mu - 1.0)
        worst = max(worst, residual)
        means.append(mean)
        rows.append([word_str(word), _fmt(mu), _fmt(mean), _fmt(residual)])
    results = {"kac_residual": worst, "word_count": len(words)}
    if len(words) == 1:
        results["expected_return"] = means[0]
    return ["word", "mu", "mean_return", "kac_residual"], rows, results, _max_residual_ok(cfg, worst)


def run_hlv(cfg, model, workers):
    words = _word_list(cfg)
    m_max = _positive_int(cfg, "m_max")
    rows = []
    worst = 0.0
    for word in words:
        residual = entrance_return_residual(model, word, m_max)
        worst = max(worst, residual)
        rows.append([word_str(word), _fmt(residual)])
    results = {"max_residual": worst, "m_max": m_max}
    return ["word", "residual"], rows, results, _max_residual_ok(cfg, worst)


def run_abadi_shape(cfg, model, workers):
    word = as_word(_require(cfg, "word"))
    report = fit_survival_shape(model, word, _require(cfg, "t_grid"))
    rows = [
        [_fmt(t), _fmt(f), _fmt(math.exp(-report.rate * t) + report.floor)]
        for t, f in zip(report.t, report.survival)
    ]
    results = {
        "rate": report.rate,
        "intercept": report.intercept,
        "floor": report.floor,
        "bound_holds": report.bound_holds,
        "fit_points": report.fit_points,
    }
    tol = cfg.get("tolerance")
    ok = None
    if tol is not None:
        ok = report.bound_holds if tol.get("require_bound", True) else True
    return ["t", "survival", "fitted_bound"], rows, results, ok


def run_theorem2(cfg, model, workers):
    n_list = [int(n) for n in _require(cfg, "n_list")]
    epsilon = float(_require(cfg, "epsilon"))
    N = _positive_int(cfg, "N")
    runs = _sharded_samples([("tail-integral", dict(model=model, n=n, epsilon=epsilon, n_outer=N,
                                                    seed=cfg["seed"])) for n in n_list], workers)
    estimates = [res.estimate for res in runs]
    rows = [[n, _fmt(res.estimate), _fmt(res.std_error), N] for n, res in zip(n_list, runs)]
    decreasing = all(a > b for a, b in zip(estimates, estimates[1:]))
    results = {"estimates": estimates, "strictly_decreasing": decreasing, "epsilon": epsilon}
    tol = cfg.get("tolerance")
    ok = None
    if tol is not None:
        ok = decreasing if tol.get("require_decreasing", True) else True
    return ["n", "estimate", "std_error", "samples"], rows, results, ok


def run_renyi_exact(cfg, model, workers):
    s_list = [float(s) for s in (cfg["s_list"] if "s_list" in cfg else [_require(cfg, "s")])]
    n_list = [int(n) for n in _require(cfg, "n_list")]
    rows = []
    per_s = {}
    for s in s_list:
        r = renyi_entropy(model, s)
        gaps = []
        for n in n_list:
            slope = partition_slope(model, n, s)
            log_z = partition_sum_exact(model, n, s)
            gaps.append(abs(slope - r))
            rows.append([_fmt(s), n, _fmt(log_z), _fmt(slope), _fmt(r), _fmt(gaps[-1])])
        per_s[repr(float(s))] = {
            "renyi": r,
            "final_gap": gaps[-1],
            "monotone_gaps": all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:])),
        }
    results = {"per_s": per_s}
    if len(s_list) == 1:
        results["renyi"] = per_s[repr(float(s_list[0]))]["renyi"]
    tol = cfg.get("tolerance")
    ok = None
    if tol is not None:
        ok = True
        for stats in per_s.values():
            if "max_final_gap" in tol:
                ok = ok and stats["final_gap"] <= float(tol["max_final_gap"])
            if tol.get("require_monotone"):
                ok = ok and stats["monotone_gaps"]
    return ["s", "n", "log_partition", "slope", "renyi", "gap"], rows, results, ok


def run_stream_estimate(cfg, model, workers):
    if "data_file" in cfg:
        seq = ingest(cfg["data_file"], named_map(cfg.get("map", "byte")))
    else:
        if model is None:
            raise ConfigError("stream-estimate needs a model or a data_file")
        length = _positive_int(cfg, "generate_length")
        seq = OrbitStream(model, (cfg["seed"], 0)).take(length)
    rows = []
    results = {"length": int(len(seq))}
    series_rows = []
    if "ow" in cfg:
        ow = cfg["ow"]
        series = ow_entropy_estimate(
            seq, [int(n) for n in _require(ow, "n_list")],
            starts_per_n=int(ow.get("starts_per_n", 200)), seed=cfg["seed"],
        )
        series_rows.extend(series.rows)
        results["ow"] = {
            repr(int(r.n)): {"estimate": r.estimate_nats, "stderr": r.stderr,
                             "censored_fraction": r.censored_fraction}
            for r in series.rows
        }
    if "plugin" in cfg:
        pg = cfg["plugin"]
        n, s = int(_require(pg, "n")), float(_require(pg, "s"))
        est = plugin_renyi_estimate(seq, n, s)
        series_rows.append(EstimateRow(
            method=PLUGIN_METHOD, n=n, s=s, estimate_nats=est, stderr=0.0,
            censored_fraction=0.0, sample_count=int(len(seq)) - n + 1,
        ))
        results["plugin"] = {"n": n, "s": s, "estimate": est}
    if not series_rows:
        raise ConfigError("stream-estimate needs an 'ow' or 'plugin' section")
    for r in series_rows:
        rows.append([r.method, r.n, "" if r.s is None else _fmt(r.s),
                     _fmt(r.estimate_nats), _fmt(r.stderr),
                     _fmt(r.censored_fraction), r.sample_count])
    tol = cfg.get("tolerance")
    ok = None
    if tol is not None and model is not None:
        ok = True
        if "max_ow_error" in tol and "ow" in results:
            h = shannon_entropy(model)
            ok = ok and all(
                abs(v["estimate"] - h) <= float(tol["max_ow_error"])
                for v in results["ow"].values()
            )
        if "max_plugin_error" in tol and "plugin" in results:
            r_exact = renyi_entropy(model, results["plugin"]["s"])
            ok = ok and abs(results["plugin"]["estimate"] - r_exact) <= float(
                tol["max_plugin_error"])
    EstimateSeries(rows=tuple(series_rows))  # enforce the >= 0 invariant
    return ["method", "n", "s", "estimate_nats", "stderr",
            "censored_fraction", "sample_count"], rows, results, ok


RUNNERS = {
    "entrance-exponent": functools.partial(_run_exponent, sampler_name="entrance"),
    "recurrence-exponent": functools.partial(_run_exponent, sampler_name="recurrence"),
    "survival": run_survival,
    "return-survival": run_return_survival,
    "kac": run_kac,
    "hlv": run_hlv,
    "abadi-shape": run_abadi_shape,
    "theorem2": run_theorem2,
    "wns": functools.partial(_run_exponent, sampler_name="orbit-sum"),
    "renyi-exact": run_renyi_exact,
    "stream-estimate": run_stream_estimate,
}

KINDS = tuple(RUNNERS)
MODEL_OPTIONAL = {"stream-estimate"}


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _constants(cfg, model) -> dict:
    if model is None:
        return {}
    constants = {"h_mu": shannon_entropy(model)}
    s = cfg.get("s")
    if s is not None and float(s) > 0:
        constants["renyi_s"] = renyi_entropy(model, float(s))
    word = cfg.get("word")
    if word is not None:
        constants["mu_word"] = cylinder_measure(model, as_word(word))
    return constants


def _jsonify(obj):
    """Plain-Python view of a summary tree (numpy scalars -> builtins)."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _write_report(outdir: Path, cfg, model, columns, rows, results, tol_ok):
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "report.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    summary = {
        "header": {
            "config": cfg,
            "version": __version__,
            "model_fingerprint": None if model is None else model_fingerprint(model),
            "constants": _constants(cfg, model),
        },
        "results": results,
    }
    if cfg.get("tolerance") is not None:
        summary["tolerance_check"] = {"declared": cfg["tolerance"], "passed": tol_ok}
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(_jsonify(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_workers(args) -> int:
    if args.workers is not None:
        workers = args.workers
    else:
        env = os.environ.get("HITSTAT_WORKERS", "")
        try:
            workers = int(env) if env else 1
        except ValueError as exc:
            raise ConfigError(f"HITSTAT_WORKERS must be an integer, got {env!r}") from exc
    if workers < 1:
        raise ConfigError(f"worker count must be >= 1, got {workers}")
    return workers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hitstat",
        description="Run one entrance-time / entropy experiment from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="experiment JSON file")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel workers (default: HITSTAT_WORKERS or 1)")
    parser.add_argument("--outdir", default=None, help="output directory override")
    args = parser.parse_args(argv)

    # validation phase: nothing on disk until this block succeeds
    try:
        workers = _resolve_workers(args)
        cfg = _load_config(args.config)
        kind = cfg.get("kind")
        if kind not in KINDS:
            raise ConfigError(f"unknown kind {kind!r}; expected one of {KINDS}")
        if "seed" not in cfg or isinstance(cfg["seed"], bool) or not isinstance(cfg["seed"], int):
            raise ConfigError("an integer 'seed' is mandatory")
        model = None
        if "model" in cfg:
            model = _resolve_model(cfg["model"])
        elif kind not in MODEL_OPTIONAL:
            raise ConfigError(f"kind {kind!r} requires a 'model'")
        outdir = Path(args.outdir or cfg.get("outdir") or "hitstat-out")
    except (ConfigError, HitstatError, ValueError, TypeError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        columns, rows, results, tol_ok = RUNNERS[kind](cfg, model, workers)
        if tol_ok is not None:
            tol_ok = bool(tol_ok)
        _write_report(outdir, cfg, model, columns, rows, results, tol_ok)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (HitstatError, ValueError, ArithmeticError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3

    if tol_ok is False:
        print("tolerance check failed", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
