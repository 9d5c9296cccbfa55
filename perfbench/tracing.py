"""Spans around hitstat's public functions, patched where each is looked up.

The tracer replaces a name in the module (or class, or dict) that the
caller reads it from, so the program itself is unchanged.  A span is
``(id, parent, name, start_ns, end_ns, attrs)``; spans stay in memory and
are written out when the run ends.  Per-layer metrics come from span
counts and self times (a span's duration minus its children's).
"""
from __future__ import annotations

import itertools
import json
import os
import time
from collections import defaultdict

from hitstat import cli, exact, models, montecarlo, orbits, streams


def _family(stream):
    return type(stream.model).__name__.replace("Model", "").lower()


def _position(args, kwargs):
    return args[0].position


def _moved(before, args, kwargs, result):
    return {"symbols": args[0].position - before}


def _take(before, args, kwargs, result):
    return {"family": _family(args[0]), "symbols": len(result)}


def _samples(before, args, kwargs, result):
    if hasattr(result, "censored_count"):
        return {"samples": len(result.times) + result.censored_count, "censored": result.censored_count}
    return {"samples": result.total, "censored": len(result.censored)}


def _states(before, args, kwargs, result):
    return {"S": result.Q.shape[0]}


def _chain_states(before, args, kwargs, result):
    return {"S": args[0].Q.shape[0]}


def _survival(before, args, kwargs, result):
    chain = args[0]
    m_max = args[1] if len(args) > 1 else kwargs["m_max"]
    return {"S": chain.Q.shape[0], "steps": chain.steps_for(m_max)}


def _words(before, args, kwargs, result):
    return {"words": len(result.values)}


def _ingest(before, args, kwargs, result):
    source = args[0]
    symbol_map = args[1] if len(args) > 1 else kwargs.get("symbol_map")
    size = len(source) if isinstance(source, (bytes, bytearray)) else os.path.getsize(source)
    return {"mode": symbol_map.mode if symbol_map else "byte", "in_bytes": size,
            "out_bytes": int(result.nbytes)}


def _windows(before, args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs["n"]
    return {"windows": len(args[0]) - n + 1}


def _starts(before, args, kwargs, result):
    return {"starts": sum(row.sample_count for row in result.rows)}


def _cli_kind(before, args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    with open(argv[argv.index("--config") + 1], encoding="utf-8") as fh:
        kind = json.load(fh)["kind"]
    workers = int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1
    return {"kind": kind, "workers": workers}


# (owner, attribute, span name, function run before the call, function giving attributes)
PATCHES = [
    (orbits.OrbitStream, "take", "orbits.take", None, _take),
    (montecarlo, "entrance_time", "orbits.entrance_time", _position, _moved),
    (montecarlo, "w_sum", "orbits.w_sum", _position, _moved),
    (streams, "recurrence_time", "orbits.recurrence_time", _position, _moved),
    (orbits, "build_automaton", "automata.build", None, None),
    (exact, "build_automaton", "automata.build", None, None),
    *[(owner, name, "montecarlo.sampler", None, _samples)
      for owner in (montecarlo,)
      for name in ("entrance_exponent_samples", "recurrence_exponent_samples",
                   "orbit_sum_exponent_samples")],
    *[(cli._SAMPLERS, key, "montecarlo.sampler", None, _samples) for key in list(cli._SAMPLERS)],
    (cli, "empirical_survival", "montecarlo.sampler", None, _samples),
    (cli, "empirical_return_survival", "montecarlo.sampler", None, _samples),
    (montecarlo, "survival_tail_integral", "montecarlo.tail_integral", None, _words),
    (cli, "survival_tail_integral", "montecarlo.tail_integral", None, _words),
    *[(owner, "build_product_chain", "exact.build", None, _states) for owner in (exact, montecarlo, cli)],
    (exact, "exact_survival", "exact.survival", None, _survival),
    *[(owner, "survival_at", "exact.survival_at", None, _chain_states) for owner in (exact, montecarlo, cli)],
    *[(owner, "exact_mean_return", "exact.mean_return", None, None) for owner in (exact, cli)],
    *[(owner, "entrance_return_residual", "exact.residual", None, None) for owner in (exact, cli)],
    *[(owner, "renyi_entropy", "models.renyi_entropy", None, None) for owner in (models, montecarlo, cli)],
    *[(owner, "partition_sum_exact", "models.partition_sum", None, None) for owner in (models, cli)],
    *[(owner, "ingest", "streams.ingest", None, _ingest) for owner in (streams, cli)],
    (streams, "window_counts", "streams.window_counts", None, _windows),
    *[(owner, "ow_entropy_estimate", "streams.ow", None, _starts) for owner in (streams, cli)],
    (cli, "main", "cli.main", None, _cli_kind),
]


class Tracer:
    """Records spans between ``install`` and ``close``; outside, the program runs unpatched."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._ids = itertools.count()
        self._undo = []

    def install(self):
        for owner, attr, name, before, describe in PATCHES:
            self._patch(owner, attr, name, before, describe)

    def _patch(self, owner, attr, name, before, describe):
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else None
            pre = before(args, kwargs) if before else None
            tracer._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
            attrs = describe(pre, args, kwargs, result) if describe else {}
            tracer.spans.append((span_id, parent, name, start, end, attrs))
            return result

        wrapper.__wrapped__ = original
        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original, is_dict))

    def close(self):
        for owner, attr, original, is_dict in reversed(self._undo):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([list(s) for s in self.spans], fh)


LADDER_S = (16, 128, 512)
CLI_KINDS = ("kac", "hlv", "abadi-shape", "renyi-exact", "entrance-exponent", "survival", "theorem2")
GEN_FAMILIES = ("bernoulli", "markov")
INGEST_MODES = ("byte", "nibble", "bit")

# name -> unit of every per-layer metric, in report order
PER_LAYER = {
    **{f"orbits.gen_ns_per_symbol.{f}": "ns/symbol" for f in GEN_FAMILIES},
    "orbits.symbols_generated": "count",
    "orbits.entrance_scan_ns_per_symbol": "ns/symbol",
    "orbits.w_sum_ns_per_symbol": "ns/symbol",
    "orbits.replay_scan_ns_per_symbol": "ns/symbol",
    "orbits.symbols_scanned": "count",
    "automata.builds": "count",
    "automata.build_us": "us/call",
    "montecarlo.samples": "count",
    "montecarlo.censored_samples": "count",
    "montecarlo.sampler_self_us_per_sample": "us/sample",
    "montecarlo.tail_integral_us_per_word": "us/word",
    "exact.states_built": "count",
    **{f"exact.build_ms.S{S}": "ms/call" for S in LADDER_S},
    **{f"exact.survival_step_us.S{S}": "us/step" for S in LADDER_S},
    **{f"exact.survival_at_ms.S{S}": "ms/call" for S in LADDER_S},
    **{f"exact.mean_return_ms.S{S}": "ms/call" for S in (16, 128)},
    "exact.residual_ms": "ms/call",
    "models.renyi_entropy_us": "us/call",
    "models.partition_sum_ms": "ms/call",
    **{f"streams.ingest_ns_per_byte.{m}": "ns/byte" for m in INGEST_MODES},
    "streams.symbol_bytes_per_input_byte.bit": "B/B",
    "streams.window_counts_ns_per_window": "ns/window",
    "streams.ow_ms_per_start": "ms/start",
    **{f"cli.kind_s.{k}": "s/run" for k in CLI_KINDS},
    "cli.shard_efficiency": "ratio",
    "trace.overhead_pct": "%",
}


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer metrics per traced round, from span counts and self times."""
    child_ns = defaultdict(int)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    by_name = defaultdict(list)
    for span_id, parent, name, start, end, attrs in spans:
        by_name[name].append((end - start, end - start - child_ns[span_id], attrs))
    build_states = {}
    for span_id, parent, name, start, end, attrs in spans:
        if name == "exact.build" and parent is not None:
            build_states[parent] = attrs["S"]

    def total(name, key=None, where=None, self_time=False):
        out_t = out_n = 0
        for dur, own, attrs in by_name[name]:
            if where and any(attrs.get(k) != v for k, v in where.items()):
                continue
            out_t += own if self_time else dur
            out_n += attrs[key] if key else 1
        return out_t, out_n

    m = {}
    for f in GEN_FAMILIES:
        t, n = total("orbits.take", "symbols", {"family": f})
        m[f"orbits.gen_ns_per_symbol.{f}"] = _ratio(t, n)
    m["orbits.symbols_generated"] = total("orbits.take", "symbols")[1] / rounds
    scanned = 0
    for key, name in (("entrance_scan", "orbits.entrance_time"), ("w_sum", "orbits.w_sum"),
                      ("replay_scan", "orbits.recurrence_time")):
        t, n = total(name, "symbols", self_time=True)
        m[f"orbits.{key}_ns_per_symbol"] = _ratio(t, n)
        scanned += n
    m["orbits.symbols_scanned"] = scanned / rounds
    t, n = total("automata.build")
    m["automata.builds"] = n / rounds
    m["automata.build_us"] = _ratio(t, n, 1e-3)
    t, n = total("montecarlo.sampler", "samples", self_time=True)
    m["montecarlo.samples"] = n / rounds
    m["montecarlo.censored_samples"] = total("montecarlo.sampler", "censored")[1] / rounds
    m["montecarlo.sampler_self_us_per_sample"] = _ratio(t, n, 1e-3)
    t, n = total("montecarlo.tail_integral", "words")
    m["montecarlo.tail_integral_us_per_word"] = _ratio(t, n, 1e-3)
    m["exact.states_built"] = total("exact.build", "S")[1] / rounds
    for S in LADDER_S:
        m[f"exact.build_ms.S{S}"] = _ratio(*total("exact.build", where={"S": S}), 1e-6)
        m[f"exact.survival_step_us.S{S}"] = _ratio(*total("exact.survival", "steps", {"S": S}), 1e-3)
        m[f"exact.survival_at_ms.S{S}"] = _ratio(*total("exact.survival_at", where={"S": S}), 1e-6)
    for S in (16, 128):
        durs = [end - start for span_id, _, name, start, end, _ in spans
                if name == "exact.mean_return" and build_states.get(span_id) == S]
        m[f"exact.mean_return_ms.S{S}"] = _ratio(sum(durs), len(durs), 1e-6)
    m["exact.residual_ms"] = _ratio(*total("exact.residual"), 1e-6)
    m["models.renyi_entropy_us"] = _ratio(*total("models.renyi_entropy"), 1e-3)
    m["models.partition_sum_ms"] = _ratio(*total("models.partition_sum"), 1e-6)
    for mode in INGEST_MODES:
        m[f"streams.ingest_ns_per_byte.{mode}"] = _ratio(*total("streams.ingest", "in_bytes", {"mode": mode}))
    out_b = total("streams.ingest", "out_bytes", {"mode": "bit"})[1]
    in_b = total("streams.ingest", "in_bytes", {"mode": "bit"})[1]
    m["streams.symbol_bytes_per_input_byte.bit"] = _ratio(out_b, in_b)
    m["streams.window_counts_ns_per_window"] = _ratio(*total("streams.window_counts", "windows"))
    m["streams.ow_ms_per_start"] = _ratio(*total("streams.ow", "starts"), 1e-6)
    for kind in CLI_KINDS:
        m[f"cli.kind_s.{kind}"] = _ratio(*total("cli.main", where={"kind": kind}), 1e-9)
    return m
