"""Configuration-driven experiment runner.

``hitstat --config exp.json [--workers N] [--outdir PATH]`` reads one
experiment description, runs it and writes ``report.csv`` plus
``summary.json`` into the output directory.  Every key of the config is
read before the run by its one reader (``READERS``), as its kind's row of
``KINDS`` lists it among the kind's keys or tolerance keys; a key no row
lists is rejected.  Files contain no timestamps and all floats are written
with ``repr``, so a config and seed reproduce their outputs byte for byte,
at any worker count.

An optional ``tolerance`` block turns a run into a check.  Exit codes: 0
success, 2 invalid config (nothing written), 3 runtime failure, 4 a
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
    _time_grid,
    build_product_chain,
    entrance_return_residual,
    exact_mean_return,
    fit_survival_shape,
    step_at,
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
    plain_measure,
    renyi_entropy,
    shannon_entropy,
    target_log_measure,
)
from .montecarlo import (
    dkw_epsilon,
    empirical_return_survival,
    empirical_survival,
    entrance_exponent_samples,
    orbit_sum_exponent_samples,
    recurrence_exponent_samples,
    survival_tail_integral,
    survival_target,
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
    raise ConfigError(f"must be a name, file path or inline object, got {spec!r}")


def _checked(what: str, ok, convert=None):
    """A reader that returns a value ``ok`` accepts, converted, and rejects any other."""
    def read(value):
        if not ok(value):
            raise ConfigError(f"must be {what}, got {value!r}")
        return value if convert is None else convert(value)
    return read


def _array(item):
    """A reader of a JSON array whose every entry ``item`` reads."""
    return _checked("a JSON array", lambda v: type(v) is list, lambda v: [item(x) for x in v])


def _finite(what: str, ok):
    """A reader of a finite JSON number that ``ok`` accepts, as a float."""
    return _checked(what, lambda v: type(v) in (int, float) and math.isfinite(v) and ok(v), float)


# JSON gives exact types, so ``type(v) is int`` also rejects true and false;
# a count sizes numpy arrays and loops, so it must fit in an index
_MAX_COUNT = int(np.iinfo(np.intp).max)
_count = _checked(f"a positive integer <= {_MAX_COUNT}",
                  lambda v: type(v) is int and 1 <= v <= _MAX_COUNT)
_positive = _finite("a finite number > 0", lambda v: v > 0)
_nonnegative = _finite("a finite number >= 0", lambda v: v >= 0)
_flag = _checked("true or false", lambda v: type(v) is bool)
_path = _checked("a non-empty path", lambda v: type(v) is str and v != "", Path)
# a key every kind must give; every other key has its default beside it
REQUIRED = object()
# 'word' stands for a one-entry 'words', and 's' for a one-entry 's_list'
_ONE_ENTRY = {"words": "word", "s_list": "s"}
# what ``_read`` catches from a reader, and ``main`` from the whole validation
_INVALID = (HitstatError, ValueError, TypeError, KeyError, OSError, OverflowError)


def _read(cfg, keys: dict) -> dict:
    """Each key of ``keys`` read from the object ``cfg``, or its default; any other key is rejected."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"must be an object, got {cfg!r}")
    listed = {*keys, *map(_ONE_ENTRY.get, keys)}
    for key in cfg:
        if key not in listed:
            raise ConfigError(f"unknown key {key!r}; expected one of {sorted(keys)}")
    params = {}
    for key, default in keys.items():
        one = _ONE_ENTRY.get(key)
        if key in cfg or one in cfg:
            try:
                params[key] = READERS[key](cfg[key] if key in cfg else [cfg[one]])
            except _INVALID as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        elif default is REQUIRED:
            raise ConfigError(f"missing key {key!r}")
        else:
            params[key] = default
    return params


# one reader per key name: a key means the same in every kind, section and tolerance block
READERS = {
    "kind": _checked("a kind", lambda v: v in KINDS),
    "model": _resolve_model,
    "seed": _checked("a non-negative integer", lambda v: type(v) is int and v >= 0),
    **dict.fromkeys(("n", "N", "m_max", "generate_length", "starts_per_n"), _count),
    "s": _nonnegative,
    **dict.fromkeys(("epsilon", "cap_multiplier"), _positive),
    **dict.fromkeys(("diagonal", "require_bound", "require_decreasing", "require_monotone"), _flag),
    "word": as_word,
    "words": _array(as_word),
    "n_list": _array(_count),
    "s_list": _array(_positive),
    "t_grid": lambda v: _time_grid(_array(_nonnegative)(v)).tolist(),
    **dict.fromkeys(("data_file", "outdir"), _path),
    "map": named_map,
    "ow": functools.partial(_read, keys={"n_list": REQUIRED, "starts_per_n": 200}),
    "plugin": functools.partial(_read, keys={"n": REQUIRED, "s": REQUIRED}),
    "tolerance": _checked("an object", lambda v: type(v) is dict),
    **dict.fromkeys(("max_two_sided", "max_lower", "median_within", "max_ks", "max_mean_error",
                     "max_abs_error", "max_residual", "max_final_gap", "max_ow_error",
                     "max_plugin_error"), _nonnegative),
    "dkw_alpha": _finite("a number in (0, 1)", lambda v: 0 < v < 1),
}


def _fmt(x) -> str:
    """A float by ``repr``; ``None``, a value not known, as an empty cell."""
    return "" if x is None else repr(float(x))


# ---------------------------------------------------------------------------
# sharding: every Monte Carlo kind splits its sample indices across the
# workers, whose chunks run in at most one lane per CPU; the caller is lane 0,
# the others are forked children. The exact and stream kinds run in one process
# ---------------------------------------------------------------------------

# each Monte Carlo kind's sampler; a task names the kind, and a forked lane
# inherits this table, so a function patched in place (a tracer's wrapper, say) runs there too
_SAMPLERS = {
    "entrance-exponent": entrance_exponent_samples,
    "recurrence-exponent": recurrence_exponent_samples,
    "wns": orbit_sum_exponent_samples,
    "survival": empirical_survival,
    "return-survival": empirical_return_survival,
    "theorem2": survival_tail_integral,
}


def _lane(tasks) -> list:
    """One lane's parts: its ``(kind, kwargs, chunk)`` tasks run in order."""
    return [_SAMPLERS[name](indices=chunk, **kwargs) for name, kwargs, chunk in tasks]


def _forked_lane(send, tasks):
    """A child lane: sends ``(True, parts)``, or ``(False, the exception)`` it raised."""
    try:
        result = True, _lane(tasks)
    except Exception as exc:
        result = False, exc
    send.send(result)


def _sharded_samples(jobs, workers: int) -> list:
    """One ensemble per ``(kind, kwargs)`` job, its indices cut in ``workers`` chunks.

    Lane ``r`` runs the chunks at positions ``r`` mod the lane count, at most
    one lane per CPU counting the caller, which runs lane 0 itself. A lane's
    exception is raised here as the lane raised it; a child that dies without
    sending raises ``HitstatError``. No child outlives the call.
    """
    if workers <= 1:
        return [_SAMPLERS[name](**kwargs) for name, kwargs in jobs]
    tasks = []
    for name, kwargs in jobs:
        N = kwargs["n_outer" if name == "theorem2" else "N"]
        tasks += [(name, kwargs, c.tolist()) for c in np.array_split(np.arange(N), workers)]
    lanes = min(workers, os.cpu_count() or 1)
    # fork, not the platform default: a forkserver or spawned lane re-imports numpy and hitstat
    fork = multiprocessing.get_context("fork")
    parts = [None] * len(tasks)
    children = []
    try:
        for r in range(1, lanes):
            receive, send = fork.Pipe(duplex=False)
            child = fork.Process(target=_forked_lane, args=(send, tasks[r::lanes]))
            child.start()
            send.close()  # the child holds the only send end: its death reads as EOF
            children.append((child, receive))
        parts[0::lanes] = _lane(tasks[0::lanes])
        for r, (child, receive) in enumerate(children, 1):
            try:
                ok, got = receive.recv()
            except EOFError:
                child.join()
                raise HitstatError(f"shard lane {r} exited with code {child.exitcode} "
                                   "without sending its samples") from None
            if not ok:
                raise got
            parts[r::lanes] = got
    finally:
        for child, receive in children:
            if child.is_alive():
                child.terminate()
            child.join()
            receive.close()
    return [functools.reduce(lambda a, b: a.merge(b), parts[i:i + workers])
            for i in range(0, len(parts), workers)]


# ---------------------------------------------------------------------------
# tolerance checks: one verdict for every kind
# ---------------------------------------------------------------------------

# A kind's tolerance keys and defaults, the third entry of its ``KINDS`` row.  A bound
# (default None) caps a measured value, or every value of a measured list; a flag (a boolean
# default) requires a measured truth; with any tolerance, survival's curve must lie in the
# DKW band at the parameter ``dkw_alpha``.
_EXPONENT_TOLERANCE = {"max_two_sided": None, "max_lower": None, "median_within": None}
# the config section a bound is measured on, beyond the model
_MEASURED_ON = {"max_ow_error": "ow", "max_plugin_error": "plugin"}


def _verdict(tolerance, kind, measured) -> bool:
    """Whether the measured quantities meet the tolerance block, as read."""
    ok = True
    for key, value in tolerance.items():
        if KINDS[kind][2][key] is not None:  # a flag, or the band at dkw_alpha
            ok = ok and (value is False or measured[key])
        elif value is not None:  # a declared bound; a function is measured only now
            got = measured[key]() if callable(measured[key]) else measured[key]
            ok = ok and all(x <= value for x in (got if isinstance(got, list) else [got]))
    return bool(ok)


# ---------------------------------------------------------------------------
# kind runners: each returns (columns, rows, results, measured by tolerance key)
# ---------------------------------------------------------------------------

def _run_exponent(params, workers):
    kwargs = dict(model=params["model"], n=params["n"], N=params["N"], seed=params["seed"],
                  cap_policy=CapPolicy(multiplier=params["cap_multiplier"]))
    if params["kind"] == "wns":
        kwargs.update(s=params["s"], diagonal=params["diagonal"])
    run, = _sharded_samples([(params["kind"], kwargs)], workers)
    results = {"target": run.target, "censored_fraction": run.censored_fraction}
    try:
        summary = results["summary"] = run.summary()
    except CensoringExceeded as exc:  # a biased summary is withheld, with the reason
        summary = results["summary"] = None
        results["summary_withheld"] = str(exc)
    # past the censoring budget the uncensored mass is biased: no exceedance, every bound measures inf
    eps = params["epsilon"]
    exc = None if summary is None else run.exceedance(0.15 if eps is None else eps)
    if eps is not None or params["tolerance"] is not None:
        results["exceedance"] = exc
    measured = dict.fromkeys(_EXPONENT_TOLERANCE, math.inf) if summary is None else {
        "max_two_sided": exc["two_sided"], "max_lower": exc["lower"],
        "median_within": abs(summary["median"] - run.target)}
    values = dict(zip(run.indices.tolist(), run.values.tolist()))
    rows = [[j, _fmt(values[j]), 0] if j in values else [j, "", 1] for j in range(run.total)]
    return ["sample", "exponent", "censored"], rows, results, measured


def _run_survival(params, workers):
    """The sampled curve against the exact one; only the results of its kind differ."""
    model, word = params["model"], params["word"]
    exp, = _sharded_samples([(params["kind"], dict(model=model, z_word=word, N=params["N"],
                                                   t_grid=params["t_grid"], seed=params["seed"]))],
                            workers)
    curve = exp.curve
    exact = survival_at(build_product_chain(model, word, exp.kind), curve.m)
    errors = np.abs(curve.values - exact)
    rows = [[m, _fmt(t), _fmt(value), _fmt(x), _fmt(err)] for m, t, value, x, err in zip(
        curve.m.tolist(), curve.t, curve.values, exact, errors)]
    worst = float(errors.max())
    results = {"censored": len(exp.censored), "max_abs_error": worst}
    if params["kind"] == "survival":
        band = dkw_epsilon(exp.total, (params["tolerance"] or KINDS["survival"][2])["dkw_alpha"])
        results.update(ks_statistic=exp.ks, ks_samples=len(exp.values), cap=exp.cap, dkw_band=band)
        measured = {"max_ks": exp.ks, "dkw_alpha": worst <= band}
    else:
        exact_mean = exact_mean_return(model, exp.word)
        results.update(mean_time=exp.mean_time, exact_mean_return=exact_mean)
        measured = {"max_mean_error": abs(exp.mean_time - exact_mean), "max_abs_error": worst}
    return ["m", "t", "empirical", "exact", "abs_error"], rows, results, measured


def run_kac(params, workers):
    model, words = params["model"], params["words"]
    rows = []
    worst = 0.0
    for word in words:
        mu = cylinder_measure(model, word)
        mean = exact_mean_return(model, word)
        residual = abs(mean * mu - 1.0)
        worst = max(worst, residual)
        rows.append([word_str(word), _fmt(mu), _fmt(mean), _fmt(residual)])
    results = {"kac_residual": worst, "word_count": len(words)}
    if len(words) == 1:
        results["expected_return"] = mean
    return ["word", "mu", "mean_return", "kac_residual"], rows, results, {"max_residual": worst}


def run_hlv(params, workers):
    m_max = params["m_max"]
    rows = []
    worst = 0.0
    for word in params["words"]:
        residual = entrance_return_residual(params["model"], word, m_max)
        worst = max(worst, residual)
        rows.append([word_str(word), _fmt(residual)])
    results = {"max_residual": worst, "m_max": m_max}
    return ["word", "residual"], rows, results, {"max_residual": worst}


def run_abadi_shape(params, workers):
    report = fit_survival_shape(params["model"], params["word"], params["t_grid"])
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


def run_theorem2(params, workers):
    model, n_list, epsilon, N = params["model"], params["n_list"], params["epsilon"], params["N"]
    runs = _sharded_samples([("theorem2", dict(model=model, n=n, epsilon=epsilon, n_outer=N,
                                                seed=params["seed"])) for n in n_list], workers)
    estimates = [res.estimate for res in runs]
    rows = [[n, _fmt(res.estimate), _fmt(res.std_error), N] for n, res in zip(n_list, runs)]
    decreasing = all(a > b for a, b in zip(estimates, estimates[1:]))
    results = {"estimates": estimates, "strictly_decreasing": decreasing, "epsilon": epsilon}
    return ["n", "estimate", "std_error", "samples"], rows, results, {"require_decreasing": decreasing}


def run_renyi_exact(params, workers):
    model, s_list = params["model"], params["s_list"]
    rows = []
    per_s = {}
    for s in s_list:
        r = renyi_entropy(model, s)
        gaps = []
        for n, log_z in zip(params["n_list"], partition_sum_exact(model, params["n_list"], s)):
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


def run_stream_estimate(params, workers):
    model, ow, pg = params["model"], params["ow"], params["plugin"]
    if params["data_file"] is not None:
        seq = ingest(params["data_file"], params["map"])
    else:
        seq = OrbitStream(model, (params["seed"], 0)).take(params["generate_length"])
    results = {"length": int(len(seq))}
    series_rows = []
    if ow is not None:
        series = ow_entropy_estimate(seq, ow["n_list"], starts_per_n=ow["starts_per_n"],
                                     seed=params["seed"])
        series_rows.extend(series.rows)
        results["ow"] = {
            repr(int(r.n)): {"estimate": r.estimate_nats, "stderr": r.stderr,
                             "censored_fraction": r.censored_fraction}
            for r in series.rows
        }
    if pg is not None:
        n, s = pg["n"], pg["s"]
        est = plugin_renyi_estimate(seq, n, s)
        series_rows.append(EstimateRow(
            method=PLUGIN_METHOD, n=n, s=s, estimate_nats=est, stderr=None,
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


# each kind's runner, keys and tolerance keys, with their defaults; ``word`` and ``s`` feed the constants
_HEADER = {"kind": REQUIRED, "model": REQUIRED, "seed": REQUIRED, "word": None, "s": None,
           "tolerance": None, "outdir": None}
_EXPONENT = {"n": REQUIRED, "N": REQUIRED, "epsilon": None, "cap_multiplier": 100.0}
_SURVIVAL = {"word": REQUIRED, "N": REQUIRED, "t_grid": REQUIRED}
KINDS = {kind: (runner, {**_HEADER, **keys}, tolerance) for kind, runner, keys, tolerance in (
    ("entrance-exponent", _run_exponent, _EXPONENT, _EXPONENT_TOLERANCE),
    ("recurrence-exponent", _run_exponent, _EXPONENT, _EXPONENT_TOLERANCE),
    ("survival", _run_survival, _SURVIVAL, {"max_ks": None, "dkw_alpha": 0.001}),
    ("return-survival", _run_survival, _SURVIVAL, {"max_mean_error": None, "max_abs_error": None}),
    ("kac", run_kac, {"words": REQUIRED}, {"max_residual": None}),
    ("hlv", run_hlv, {"words": REQUIRED, "m_max": REQUIRED}, {"max_residual": None}),
    ("abadi-shape", run_abadi_shape, {"word": REQUIRED, "t_grid": REQUIRED}, {"require_bound": True}),
    ("theorem2", run_theorem2, {"n_list": REQUIRED, "epsilon": REQUIRED, "N": REQUIRED},
     {"require_decreasing": True}),
    ("wns", _run_exponent, {**_EXPONENT, "s": REQUIRED, "diagonal": False}, _EXPONENT_TOLERANCE),
    ("renyi-exact", run_renyi_exact, {"s_list": REQUIRED, "n_list": REQUIRED},
     {"max_final_gap": None, "require_monotone": False}),
    # map None is ingest's default, the 'byte' map
    ("stream-estimate", run_stream_estimate, {"model": None, "data_file": None, "map": None,
                                              "generate_length": None, "ow": None, "plugin": None},
     {"max_ow_error": None, "max_plugin_error": None}),
)}


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _constants(params) -> dict:
    model, s, word = params["model"], params["s"], params["word"]
    if model is None:
        return {}
    constants = {"h_mu": shannon_entropy(model)}
    if s is not None and s > 0:
        constants["renyi_s"] = renyi_entropy(model, s)
    if word is not None:
        constants["mu_word"] = cylinder_measure(model, word)
    return constants


def _write_report(outdir: Path, cfg, params, columns, rows, results, tol_ok):
    model = params["model"]
    summary = {
        "header": {
            "config": cfg,
            "version": __version__,
            "model_fingerprint": None if model is None else model_fingerprint(model),
            "constants": _constants(params),
        },
        "results": results,
    }
    if params["tolerance"] is not None:
        summary["tolerance_check"] = {"declared": cfg["tolerance"], "passed": tol_ok}
    # the whole summary is built before either file; a numpy value is written as its builtin
    text = json.dumps(summary, indent=2, sort_keys=True, default=lambda obj: obj.tolist()) + "\n"
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "report.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    with open(outdir / "summary.json", "w", encoding="utf-8") as fh:
        fh.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hitstat",
        description="Run one entrance-time / entropy experiment from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="experiment JSON file")
    parser.add_argument("--workers", type=int, default=1, help="parallel workers (default: 1)")
    parser.add_argument("--outdir", default=None, help="output directory override")
    args = parser.parse_args(argv)

    # validation phase: every key is read, and nothing is on disk, until this block succeeds
    try:
        if args.workers < 1:
            raise ConfigError(f"worker count must be >= 1, got {args.workers}")
        cfg = _load_config(args.config)
        kind = cfg.get("kind")
        if kind not in KINDS:
            raise ConfigError(f"unknown kind {kind!r}; expected one of {tuple(KINDS)}")
        run, keys, tolerance = KINDS[kind]
        params = _read(cfg, keys)
        if params["model"] is not None:
            # every word's mu must not underflow, as every chain build takes it
            mu = {word: plain_measure(target_log_measure(params["model"], word))
                  for word in filter(None, [params["word"], *params.get("words", ())])}
            if "t_grid" in params:  # and every time's step count must fit in int64
                step_at(params["t_grid"], mu[params["word"]])
            if kind in ("survival", "return-survival"):  # and the scan cap fit, the grid inside it
                survival_target(params["model"], params["word"], params["t_grid"])
        if kind == "stream-estimate":
            if params["ow"] is None and params["plugin"] is None:
                raise ConfigError("stream-estimate needs an 'ow' or 'plugin' section")
            if params["data_file"] is None and (params["model"] is None
                                                or params["generate_length"] is None):
                raise ConfigError("stream-estimate needs a data_file, or a model and a generate_length")
        if params["tolerance"] is not None:
            tol = params["tolerance"] = _read(params["tolerance"], tolerance)
            # beyond its keys, a tolerance needs a model, and a bound the section it is measured on
            if params["model"] is None:
                raise ConfigError("a tolerance needs a model: every bound is measured against it")
            for key, section in _MEASURED_ON.items():
                if tol.get(key) is not None and params[section] is None:
                    raise ConfigError(f"tolerance {key} is measured on a missing {section!r} section")
        outdir = Path(args.outdir or params["outdir"] or "hitstat-out")
    except _INVALID as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        columns, rows, results, measured = run(params, args.workers)
        tol_ok = None if params["tolerance"] is None else _verdict(params["tolerance"], kind, measured)
        _write_report(outdir, cfg, params, columns, rows, results, tol_ok)
    except (HitstatError, ValueError, ArithmeticError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3

    if tol_ok is False:
        print("tolerance check failed", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
