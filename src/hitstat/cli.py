"""Configuration-driven experiment runner.

``hitstat --config exp.json [--workers N] [--outdir PATH]`` reads one
experiment description, dispatches to the owning module, and writes
``report.csv`` plus ``summary.json`` into the output directory.  Files
contain no timestamps and all floats are written with ``repr``, so a
config and seed reproduce their outputs byte for byte -- including
across worker counts: every Monte Carlo kind shards its sample indices
across the workers, and the parts merge into exactly the one-process
ensemble.  The exact and stream kinds run in one process.

An optional ``tolerance`` block, with the keys ``TOLERANCES`` lists for
its kind, turns a run into a check.  Exit codes: 0 success, 2 invalid
config or tolerance block (nothing written), 3 runtime failure, 4 a
declared tolerance was not met (report still written).
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


def _list(cfg: dict, key: str, convert) -> list:
    """The JSON array ``cfg[key]`` with ``convert`` applied to each entry."""
    value = _require(cfg, key)
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a JSON array, got {value!r}")
    try:
        return [convert(v) for v in value]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} has an invalid entry: {exc}") from exc


def _section(cfg: dict, key: str):
    """The optional object ``cfg[key]``, or None when the key is absent."""
    if key in cfg and not isinstance(cfg[key], dict):
        raise ConfigError(f"{key} must be an object, got {cfg[key]!r}")
    return cfg.get(key)


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
# tolerance checks: one table for every kind
# ---------------------------------------------------------------------------

# Each kind's tolerance keys and defaults.  A bound (default None) caps a
# measured value, or every value of a measured list; a flag (a boolean
# default) requires a measured truth; with any tolerance, survival's curve
# must lie in the DKW band at the parameter ``dkw_alpha``.
_EXPONENT_TOLERANCE = {"max_two_sided": None, "max_lower": None, "median_within": None}
TOLERANCES = {
    "entrance-exponent": _EXPONENT_TOLERANCE,
    "recurrence-exponent": _EXPONENT_TOLERANCE,
    "survival": {"max_ks": None, "dkw_alpha": 0.001},
    "return-survival": {"max_mean_error": None, "max_abs_error": None},
    "kac": {"max_residual": None},
    "hlv": {"max_residual": None},
    "abadi-shape": {"require_bound": True},
    "theorem2": {"require_decreasing": True},
    "wns": _EXPONENT_TOLERANCE,
    "renyi-exact": {"max_final_gap": None, "require_monotone": False},
    "stream-estimate": {"max_ow_error": None, "max_plugin_error": None},
}
# the config section a bound is measured on, beyond the model
_MEASURED_ON = {"max_ow_error": "ow", "max_plugin_error": "plugin"}


def _check_tolerance(cfg, kind, model) -> None:
    """Reject a declared tolerance block that the kind's table cannot check."""
    tol = cfg["tolerance"]
    if not isinstance(tol, dict):
        raise ConfigError(f"tolerance must be an object, got {tol!r}")
    if model is None:
        raise ConfigError("a tolerance needs a model: every bound is measured against it")
    table = TOLERANCES[kind]
    for key, value in tol.items():
        if key not in table:
            raise ConfigError(f"unknown tolerance key {key!r}; {kind} takes {sorted(table)}")
        default = table[key]
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if default is None and not (number and 0 <= value < math.inf):
            raise ConfigError(f"tolerance {key} must be a finite number >= 0, got {value!r}")
        if isinstance(default, bool) and not isinstance(value, bool):
            raise ConfigError(f"tolerance {key} must be true or false, got {value!r}")
        if isinstance(default, float) and not (number and 0 < value < 1):
            raise ConfigError(f"tolerance {key} must lie in (0, 1), got {value!r}")
        if key in _MEASURED_ON and _MEASURED_ON[key] not in cfg:
            raise ConfigError(f"tolerance {key} is measured on a missing {_MEASURED_ON[key]!r} section")


def _verdict(cfg, kind, measured) -> bool:
    """Whether the measured quantities meet the declared tolerance."""
    ok = True
    for key, value in {**TOLERANCES[kind], **cfg["tolerance"]}.items():
        if TOLERANCES[kind][key] is not None:  # a flag, or the band at dkw_alpha
            ok = ok and (value is False or measured[key])
        elif value is not None:  # a declared bound; a function is measured only now
            got = measured[key]() if callable(measured[key]) else measured[key]
            ok = ok and all(x <= value for x in (got if isinstance(got, list) else [got]))
    return bool(ok)


# ---------------------------------------------------------------------------
# kind runners: each returns (columns, rows, results, measured by tolerance key)
# ---------------------------------------------------------------------------

def _ensemble_rows(run):
    values = dict(zip(run.indices.tolist(), run.values.tolist()))
    return [[j, _fmt(values[j]), 0] if j in values else [j, "", 1] for j in range(run.total)]


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
    exc = run.exceedance(0.15 if eps is None else float(eps))
    if eps is not None or cfg.get("tolerance") is not None:
        results["exceedance"] = exc
    # an all-censored ensemble has no median: take it only when it is bounded
    measured = {"max_two_sided": exc["two_sided"], "max_lower": exc["lower"],
                "median_within": lambda: abs(float(np.median(run.values)) - run.target)}
    return ["sample", "exponent", "censored"], _ensemble_rows(run), results, measured


def _run_survival(cfg, model, workers, sampler_name):
    """The sampled curve against the exact one: (experiment, rows, worst error)."""
    word = as_word(_require(cfg, "word"))
    exp, = _sharded_samples([(sampler_name, dict(model=model, z_word=word, N=_positive_int(cfg, "N"),
                                                 t_grid=_list(cfg, "t_grid", float), seed=cfg["seed"]))],
                            workers)
    chain = build_product_chain(model, word, exp.kind)
    rows = []
    worst = 0.0
    curve = exp.curve
    for m, t, value, exact in zip(curve.m, curve.t, curve.values, survival_at(chain, curve.m).tolist()):
        worst = max(worst, abs(value - exact))
        rows.append([int(m), _fmt(t), _fmt(value), _fmt(exact), _fmt(abs(value - exact))])
    return exp, rows, worst


def run_survival(cfg, model, workers):
    exp, rows, worst = _run_survival(cfg, model, workers, "survival")
    alpha = (cfg.get("tolerance") or {}).get("dkw_alpha", TOLERANCES["survival"]["dkw_alpha"])
    band = dkw_epsilon(exp.total, alpha)
    results = {
        "ks_statistic": exp.ks.statistic,
        "ks_samples": exp.ks.sample_count,
        "censored": exp.censored_count,
        "cap": exp.cap,
        "max_abs_error": worst,
        "dkw_band": band,
    }
    measured = {"max_ks": exp.ks.statistic, "dkw_alpha": worst <= band}
    return ["m", "t", "empirical", "exact", "abs_error"], rows, results, measured


def run_return_survival(cfg, model, workers):
    exp, rows, worst = _run_survival(cfg, model, workers, "return-survival")
    exact_mean = exact_mean_return(model, exp.word)
    results = {
        "mean_time": exp.mean_time,
        "exact_mean_return": exact_mean,
        "censored": exp.censored_count,
        "max_abs_error": worst,
    }
    measured = {"max_mean_error": abs(exp.mean_time - exact_mean), "max_abs_error": worst}
    return ["m", "t", "empirical", "exact", "abs_error"], rows, results, measured


def _word_list(cfg) -> list:
    if "words" in cfg:
        return _list(cfg, "words", as_word)
    return [as_word(_require(cfg, "word"))]


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
    return ["word", "mu", "mean_return", "kac_residual"], rows, results, {"max_residual": worst}


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
    return ["word", "residual"], rows, results, {"max_residual": worst}


def run_abadi_shape(cfg, model, workers):
    word = as_word(_require(cfg, "word"))
    report = fit_survival_shape(model, word, _list(cfg, "t_grid", float))
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
    return ["t", "survival", "fitted_bound"], rows, results, {"require_bound": report.bound_holds}


def run_theorem2(cfg, model, workers):
    n_list = _list(cfg, "n_list", int)
    epsilon = float(_require(cfg, "epsilon"))
    N = _positive_int(cfg, "N")
    runs = _sharded_samples([("tail-integral", dict(model=model, n=n, epsilon=epsilon, n_outer=N,
                                                    seed=cfg["seed"])) for n in n_list], workers)
    estimates = [res.estimate for res in runs]
    rows = [[n, _fmt(res.estimate), _fmt(res.std_error), N] for n, res in zip(n_list, runs)]
    decreasing = all(a > b for a, b in zip(estimates, estimates[1:]))
    results = {"estimates": estimates, "strictly_decreasing": decreasing, "epsilon": epsilon}
    return ["n", "estimate", "std_error", "samples"], rows, results, {"require_decreasing": decreasing}


def run_renyi_exact(cfg, model, workers):
    s_list = _list(cfg, "s_list", float) if "s_list" in cfg else [float(_require(cfg, "s"))]
    n_list = _list(cfg, "n_list", int)
    rows = []
    per_s = {}
    for s in s_list:
        r = renyi_entropy(model, s)
        gaps = []
        for n in n_list:
            log_z = partition_sum_exact(model, n, s)
            slope = abs(log_z) / (s * n)
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
    measured = {"max_final_gap": [stats["final_gap"] for stats in per_s.values()],
                "require_monotone": all(stats["monotone_gaps"] for stats in per_s.values())}
    return ["s", "n", "log_partition", "slope", "renyi", "gap"], rows, results, measured


def run_stream_estimate(cfg, model, workers):
    ow, pg = _section(cfg, "ow"), _section(cfg, "plugin")
    if ow is None and pg is None:
        raise ConfigError("stream-estimate needs an 'ow' or 'plugin' section")
    ow_n_list = None if ow is None else _list(ow, "n_list", int)
    if "data_file" in cfg:
        seq = ingest(cfg["data_file"], named_map(cfg.get("map", "byte")))
    else:
        if model is None:
            raise ConfigError("stream-estimate needs a model or a data_file")
        length = _positive_int(cfg, "generate_length")
        seq = OrbitStream(model, (cfg["seed"], 0)).take(length)
    results = {"length": int(len(seq))}
    series_rows = []
    if ow is not None:
        series = ow_entropy_estimate(
            seq, ow_n_list,
            starts_per_n=int(ow.get("starts_per_n", 200)), seed=cfg["seed"],
        )
        series_rows.extend(series.rows)
        results["ow"] = {
            repr(int(r.n)): {"estimate": r.estimate_nats, "stderr": r.stderr,
                             "censored_fraction": r.censored_fraction}
            for r in series.rows
        }
    if pg is not None:
        n, s = int(_require(pg, "n")), float(_require(pg, "s"))
        est = plugin_renyi_estimate(seq, n, s)
        series_rows.append(EstimateRow(
            method=PLUGIN_METHOD, n=n, s=s, estimate_nats=est, stderr=0.0,
            censored_fraction=0.0, sample_count=int(len(seq)) - n + 1,
        ))
        results["plugin"] = {"n": n, "s": s, "estimate": est}
    # both bounds are errors against the model, declared only with one
    measured = {"max_ow_error": lambda: [abs(v["estimate"] - shannon_entropy(model))
                                         for v in results["ow"].values()],
                "max_plugin_error": lambda: abs(results["plugin"]["estimate"]
                                                - renyi_entropy(model, results["plugin"]["s"]))}
    rows = EstimateSeries(rows=tuple(series_rows)).csv_rows()  # enforces the >= 0 invariant
    return EstimateSeries.COLUMNS, rows, results, measured


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
        if cfg.get("tolerance") is not None:
            _check_tolerance(cfg, kind, model)
        outdir = Path(args.outdir or cfg.get("outdir") or "hitstat-out")
    except (ConfigError, HitstatError, ValueError, TypeError, KeyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        columns, rows, results, measured = RUNNERS[kind](cfg, model, workers)
        tol_ok = None if cfg.get("tolerance") is None else _verdict(cfg, kind, measured)
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
