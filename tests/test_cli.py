"""End-to-end CLI runs: exit codes, report layout, determinism."""
import hashlib
import json
import math
import os
import pprint
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hitstat
from hitstat import cli, orbits, rng, streams
from hitstat.cli import KINDS, _load_config, _read, main
from hitstat.errors import ToleranceNotCertified
from hitstat.montecarlo import CENSOR_SUMMARY_LIMIT

ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIGS = ROOT / "demos" / "configs"


def run_cli(tmp_path, cfg, name="exp.json", extra=()):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    outdir = tmp_path / f"out-{name}"
    code = main(["--config", str(path), "--outdir", str(outdir), *extra])
    return code, outdir


def read_summary(outdir):
    return json.loads((outdir / "summary.json").read_text(encoding="utf-8"))


def test_kac_run_reports_the_expected_return(tmp_path):
    cfg = {
        "kind": "kac", "model": "fair-coin", "seed": 1, "word": "111",
        "tolerance": {"max_residual": 1e-9},
    }
    code, outdir = run_cli(tmp_path, cfg)
    assert code == 0
    summary = read_summary(outdir)
    assert summary["results"]["expected_return"] == pytest.approx(8.0, abs=1e-9)
    assert summary["results"]["kac_residual"] <= 1e-9
    assert summary["tolerance_check"]["passed"] is True
    assert summary["header"]["config"] == cfg
    assert summary["header"]["constants"]["mu_word"] == pytest.approx(0.125)
    lines = (outdir / "report.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "word,mu,mean_return,kac_residual"
    word, mu, mean, _ = lines[1].split(",")
    assert word == "111"
    assert float(mu) == pytest.approx(0.125, abs=1e-15)
    assert float(mean) == pytest.approx(8.0, abs=1e-9)


def test_renyi_exact_uniform_reports_log_k(tmp_path):
    cfg = {
        "kind": "renyi-exact", "seed": 1, "s": 2.0, "n_list": [2, 4, 6, 30],
        "model": {"kind": "bernoulli", "p": [0.25, 0.25, 0.25, 0.25]},
    }
    code, outdir = run_cli(tmp_path, cfg)
    assert code == 0
    summary = read_summary(outdir)
    assert summary["results"]["renyi"] == pytest.approx(math.log(4.0), abs=1e-12)


def test_import_loads_no_scipy():
    # a fresh interpreter: this one has loaded scipy for other tests
    env = {**os.environ, "PYTHONPATH": str(Path(hitstat.__file__).resolve().parents[1])}
    probe = ("import sys, hitstat, hitstat.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_survival_renyi_and_stream_runs_load_no_scipy(tmp_path):
    # a fresh interpreter: this one has loaded scipy for other tests
    configs = {
        "survival": {"kind": "survival", "model": "fair-coin", "seed": 1, "word": "0110",
                     "N": 200, "t_grid": [0.5, 1.0], "tolerance": {"max_ks": 1.0}},
        "renyi": {"kind": "renyi-exact", "model": "two-state-chain", "seed": 1,
                  "s_list": [0.5, 1.0], "n_list": [4, 6, 5]},
        "stream": {"kind": "stream-estimate", "model": "biased-coin", "seed": 1,
                   "generate_length": 20000, "plugin": {"n": 4, "s": 1.0}},
    }
    runs = []
    for name, cfg in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        runs.append(["--config", str(path), "--outdir", str(tmp_path / name)])
    env = {**os.environ, "PYTHONPATH": str(Path(hitstat.__file__).resolve().parents[1])}
    probe = ("import sys; from hitstat.cli import main; "
             f"codes = [main(argv) for argv in {runs!r}]; "
             "print(codes, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[0, 0, 0] []"
    survival = read_summary(tmp_path / "survival")["results"]
    # the KS distance is taken over the uncensored samples
    assert "ks_statistic" in survival and survival["ks_samples"] == 200 - survival["censored"]
    assert set(read_summary(tmp_path / "renyi")["results"]["per_s"]) == {"0.5", "1.0"}
    assert "plugin" in read_summary(tmp_path / "stream")["results"]


def test_every_kind_has_a_loadable_demo_config():
    # reads the configs through their kinds' key tables only; running all of them takes about 20 s
    for kind, (_, keys, _) in KINDS.items():
        cfg = _load_config(str(DEMO_CONFIGS / f"{kind.replace('-', '_')}.json"))
        assert cfg["kind"] == kind
        _read(cfg, keys)


def _readme_table(header: str) -> list:
    """The body rows of the README table under ``header``, as lists of cells."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(header) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            return rows
        rows.append([cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]])


def _names(cell: str) -> list:
    return re.findall(r"`([^`]+)`", cell)


def _defaults(required: str, optional: str) -> dict:
    keys = dict.fromkeys(_names(required), cli.REQUIRED)
    for key, default in re.findall(r"`([^`]+)`(?: \(([^)]*)\))?", optional):
        keys[key] = json.loads(default) if default else None
    return keys


def test_readme_key_tables_match_the_cli():
    rows = _readme_table("| kind | required | optional (default) |")
    assert rows[0][0] == "every kind"
    common = _defaults(*rows[0][1:])
    tables = {}
    for cell, required, optional in rows[1:]:
        for name in _names(cell):
            tables[name] = _defaults(required, optional)
    assert set(tables) == {*KINDS, "ow", "plugin"}
    for kind, (_, keys, _) in KINDS.items():
        assert keys == {**common, **tables[kind]}, kind
    for section in ("ow", "plugin"):
        assert cli.READERS[section].keywords["keys"] == tables[section]
    # one row of the type table names keys that share one reader, and every key is named once
    typed = [_names(row[0]) for row in _readme_table("| key | type |")]
    assert sorted(k for keys in typed for k in keys) == sorted(cli.READERS)
    for keys in typed:
        assert len({id(cli.READERS[k]) for k in keys}) == 1, keys
    tolerances = {}
    kinds = []
    for cell, key, default, _ in _readme_table("| kind | key | default | checks |"):
        kinds = _names(cell) or kinds
        for kind in kinds:
            value = None if default == "—" else json.loads(default)
            tolerances.setdefault(kind, {})[_names(key)[0]] = value
    assert tolerances == {kind: tolerance for kind, (_, _, tolerance) in KINDS.items()}


def test_malformed_model_exits_2_without_outputs(tmp_path):
    bad_model = tmp_path / "model.json"
    bad_model.write_text('{"kind": "bernoulli", "p": [0.9, 0.3]}', encoding="utf-8")
    cfg = {"kind": "kac", "model": str(bad_model), "seed": 1, "word": "1"}
    code, outdir = run_cli(tmp_path, cfg)
    assert code == 2
    assert not outdir.exists()


def test_config_validation_failures_exit_2(tmp_path):
    for cfg in (
        {"kind": "no-such-kind", "model": "fair-coin", "seed": 1},
        {"kind": "kac", "model": "fair-coin", "word": "1"},          # no seed
        {"kind": "kac", "model": "fair-coin", "seed": 1.5, "word": "1"},
        {"kind": "kac", "seed": 1, "word": "1"},                     # no model
        {"kind": "hlv", "model": "fair-coin", "seed": 1, "word": "1"},  # no m_max
        # list keys must be JSON arrays, not strings iterated one character at a time
        {"kind": "kac", "model": "fair-coin", "seed": 1, "words": "11"},
        {"kind": "renyi-exact", "model": "fair-coin", "seed": 1, "s": 1.0, "n_list": "12"},
        {"kind": "renyi-exact", "model": "fair-coin", "seed": 1, "s_list": 1.0, "n_list": [2]},
        {"kind": "survival", "model": "fair-coin", "seed": 1, "N": 10, "word": "1", "t_grid": "ab"},
        {"kind": "survival", "model": "fair-coin", "seed": 1, "N": 10, "word": "1", "t_grid": ["a"]},
        {"kind": "theorem2", "model": "fair-coin", "seed": 1, "N": 10, "n_list": 4, "epsilon": 0.1},
        # sections must be objects
        {"kind": "stream-estimate", "model": "fair-coin", "seed": 1, "generate_length": 100,
         "ow": None},
        {"kind": "stream-estimate", "model": "fair-coin", "seed": 1, "generate_length": 100,
         "plugin": [4, 1.0]},
    ):
        code, outdir = run_cli(tmp_path, cfg, name=f"bad{hash(str(cfg)) % 100}.json")
        assert code == 2
        assert not outdir.exists()


def test_the_config_outdir_is_used_without_the_flag(tmp_path):
    outdir = tmp_path / "from-config"
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"kind": "kac", "model": "fair-coin", "seed": 1, "word": "1",
                                "outdir": str(outdir)}), encoding="utf-8")
    assert main(["--config", str(path)]) == 0
    assert (outdir / "summary.json").exists()


def test_unreadable_config_exits_2(tmp_path):
    outdir = tmp_path / "never"
    code = main(["--config", str(tmp_path / "absent.json"), "--outdir", str(outdir)])
    assert code == 2
    assert not outdir.exists()


def test_runtime_failure_exits_3(tmp_path):
    # 8^4 recurrence windows cannot fit in 2000 generated symbols: the
    # estimator censors heavily and fails at runtime, after validation
    cfg = {
        "kind": "stream-estimate", "seed": 3, "generate_length": 2000,
        "model": {"kind": "bernoulli", "p": [0.125] * 8},
        "ow": {"n_list": [4], "starts_per_n": 50},
    }
    code, _ = run_cli(tmp_path, cfg)
    assert code == 3


def test_declared_tolerance_failure_exits_4_but_writes(tmp_path):
    cfgs = [
        # the Markov partition slope at n = 4 sits ~0.1 from R(1): |log C_n| / n
        {"kind": "renyi-exact", "model": "two-state-chain", "seed": 1, "s": 1.0,
         "n_list": [4], "tolerance": {"max_final_gap": 1e-3}},
        # mu('0110') = 0.7**2 * 0.3**2 is rounded, so |E * mu - 1| is about 3e-16
        {"kind": "kac", "model": "biased-coin", "seed": 1, "word": "0110",
         "tolerance": {"max_residual": 1e-17}},
    ]
    for i, cfg in enumerate(cfgs):
        code, outdir = run_cli(tmp_path, cfg, name=f"exp{i}.json")
        assert code == 4
        summary = read_summary(outdir)
        assert summary["tolerance_check"]["passed"] is False
        assert (outdir / "report.csv").exists()


EXPONENT_RUN = {"model": "fair-coin", "seed": 1, "n": 6, "N": 30}
SURVIVAL_RUN = {"model": "two-state-chain", "seed": 5, "N": 60, "word": "01", "t_grid": [0.5, 1.0]}
# P[0][0] = 0: the word 00 has measure zero on this primitive chain
ZERO_00 = {"kind": "markov", "P": [[0.0, 1.0], [0.5, 0.5]]}
STREAM_RUN = {"model": "biased-coin", "seed": 1, "generate_length": 20_000,
              "ow": {"n_list": [6], "starts_per_n": 40}, "plugin": {"n": 4, "s": 1.0}}
EXPONENT_KINDS = ("entrance-exponent", "recurrence-exponent", "wns")
# one run per kind; each tolerance key below fails on it at the value given
TOLERANCE_RUNS = {
    "entrance-exponent": EXPONENT_RUN,
    "recurrence-exponent": EXPONENT_RUN,
    "wns": {**EXPONENT_RUN, "s": 1.0},
    "survival": SURVIVAL_RUN,
    "return-survival": SURVIVAL_RUN,
    "kac": {"model": "biased-coin", "seed": 1, "word": "0110"},
    "hlv": {"model": "two-state-chain", "seed": 1, "words": ["1", "01"], "m_max": 60},
    # a coarse start of the grid leaves the fitted line below F at t = 0.1
    "abadi-shape": {"model": "biased-coin", "seed": 1, "word": "1",
                    "t_grid": [0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 4.0]},
    # n_list runs downward: the tail integral and the gap to R(s) grow along it
    "theorem2": {"model": "fair-coin", "seed": 1, "N": 20, "n_list": [8, 4], "epsilon": 0.1},
    "renyi-exact": {"model": "two-state-chain", "seed": 1, "s": 1.0, "n_list": [6, 4]},
    "stream-estimate": STREAM_RUN,
}
FAILING = [(kind, key, 0.0) for kind in EXPONENT_KINDS
           for key in ("max_two_sided", "max_lower", "median_within")] + [
    ("survival", "max_ks", 0.0),
    ("return-survival", "max_mean_error", 0.0),
    ("return-survival", "max_abs_error", 0.0),
    ("kac", "max_residual", 0.0),
    ("hlv", "max_residual", 0.0),
    ("abadi-shape", "require_bound", True),
    ("theorem2", "require_decreasing", True),
    ("renyi-exact", "max_final_gap", 0.0),
    ("renyi-exact", "require_monotone", True),
    ("stream-estimate", "max_ow_error", 0.0),
    ("stream-estimate", "max_plugin_error", 0.0),
]


@pytest.mark.parametrize("kind,key,failing", FAILING, ids=[f"{k}-{key}" for k, key, _ in FAILING])
def test_every_tolerance_key_can_fail(tmp_path, kind, key, failing):
    # the same run passes with the bound loose or the flag off
    passing = False if isinstance(failing, bool) else 1e6
    for value, code in ((passing, 0), (failing, 4)):
        cfg = {"kind": kind, **TOLERANCE_RUNS[kind], "tolerance": {key: value}}
        got, outdir = run_cli(tmp_path, cfg, name=f"{value}.json")
        assert got == code
        assert read_summary(outdir)["tolerance_check"]["passed"] is (code == 0)


# every kind's result keys, without a tolerance block; the exponent kinds add their exceedance with one
RESULT_KEYS = {
    **dict.fromkeys(EXPONENT_KINDS, {"target", "censored_fraction", "summary"}),
    "survival": {"ks_statistic", "ks_samples", "censored", "cap", "max_abs_error", "dkw_band"},
    "return-survival": {"mean_time", "exact_mean_return", "censored", "max_abs_error"},
    "kac": {"kac_residual", "word_count", "expected_return"},
    "hlv": {"max_residual", "m_max"},
    "abadi-shape": {"rate", "intercept", "floor", "bound_holds", "fit_points"},
    "theorem2": {"estimates", "strictly_decreasing", "epsilon"},
    "renyi-exact": {"per_s", "renyi"},
    "stream-estimate": {"length", "ow", "plugin"},
}


@pytest.mark.parametrize("kind", list(TOLERANCE_RUNS))
def test_each_kind_reports_its_result_keys(tmp_path, kind):
    # every tolerance key of the kind, loose or off, so that the run passes
    loose = {key: False if isinstance(failing, bool) else 1e6 for k, key, failing in FAILING if k == kind}
    for tolerance in (None, loose):
        extra = {} if tolerance is None else {"tolerance": tolerance}
        code, outdir = run_cli(tmp_path, {"kind": kind, **TOLERANCE_RUNS[kind], **extra},
                               name=f"keys-{tolerance is None}.json")
        assert code == 0
        exceedance = {"exceedance"} if tolerance and kind in EXPONENT_KINDS else set()
        assert set(read_summary(outdir)["results"]) == RESULT_KEYS[kind] | exceedance


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", EXPONENT_KINDS)
@pytest.mark.parametrize("key", list(cli.KINDS["wns"][2]))
def test_no_exponent_bound_passes_beyond_the_censoring_budget(tmp_path, kind, key):
    # a cap below one step censors every sample: no exceedance or median is measured
    cfg = {"kind": kind, **TOLERANCE_RUNS[kind], "N": 5, "cap_multiplier": 1e-9,
           "tolerance": {key: 1e300}}
    code, outdir = run_cli(tmp_path, cfg)
    assert code == 4
    summary = read_summary(outdir)
    assert summary["results"]["censored_fraction"] > CENSOR_SUMMARY_LIMIT
    assert summary["results"]["summary"] is None
    # withheld with the summary, not reported as no mass outside the band
    assert summary["results"]["exceedance"] is None
    assert summary["tolerance_check"]["passed"] is False


def test_malformed_tolerance_exits_2_before_the_run(tmp_path):
    data = tmp_path / "data.bin"
    data.write_bytes(bytes(range(256)) * 8)
    kac = {"kind": "kac", "model": "fair-coin", "seed": 1, "word": "111"}
    for i, cfg in enumerate((
        {"kind": "abadi-shape", **TOLERANCE_RUNS["abadi-shape"], "tolerance": [1]},
        {**kac, "tolerance": {"max_residul": 1e-30}},           # unknown key
        {**kac, "tolerance": {"max_residual": "tiny"}},
        {**kac, "tolerance": {"max_residual": -1.0}},
        {**kac, "tolerance": {"max_residual": math.inf}},
        {"kind": "abadi-shape", **TOLERANCE_RUNS["abadi-shape"], "tolerance": {"require_bound": 1}},
        {"kind": "survival", **SURVIVAL_RUN, "tolerance": {"dkw_alpha": 1.0}},
        # no model to measure against
        {"kind": "stream-estimate", "seed": 1, "data_file": str(data),
         "plugin": {"n": 2, "s": 1.0}, "tolerance": {"max_plugin_error": 0.05}},
        # no 'ow' section to measure
        {"kind": "stream-estimate", **{k: v for k, v in STREAM_RUN.items() if k != "ow"},
         "tolerance": {"max_ow_error": 0.1}},
    )):
        code, outdir = run_cli(tmp_path, cfg, name=f"bad{i}.json")
        assert code == 2, cfg
        assert not outdir.exists()
    # the exceedance is measured at the config's epsilon, tolerance or not
    cfg = {"kind": "entrance-exponent", **EXPONENT_RUN, "epsilon": 0.05,
           "tolerance": {"max_two_sided": 1.0}}
    code, outdir = run_cli(tmp_path, cfg)
    assert code == 0
    assert read_summary(outdir)["results"]["exceedance"]["eps"] == 0.05


# the one rule of a time grid, exact._time_grid's
GRID_RULE = "t grid must be non-empty, finite, non-negative and strictly increasing"
# each config is malformed in one key; the stderr fragment names the fault
NEVER_RUN = {
    "theorem2-epsilon": ({"kind": "theorem2", "model": "fair-coin", "seed": 1, "n_list": [6, 8],
                          "epsilon": "x", "N": 20}, "epsilon"),
    "entrance-epsilon": ({"kind": "entrance-exponent", **EXPONENT_RUN, "epsilon": "x"}, "epsilon"),
    "entrance-epsilon-negative": ({"kind": "entrance-exponent", **EXPONENT_RUN, "epsilon": -0.1},
                                  "epsilon: must be a finite number > 0"),
    "wns-s": ({"kind": "wns", **EXPONENT_RUN, "s": "x"}, "s:"),
    "wns-diagonal": ({"kind": "wns", **EXPONENT_RUN, "s": 1.0, "diagonal": "false"}, "diagonal"),
    "plugin-n": ({"kind": "stream-estimate", **STREAM_RUN, "plugin": {"n": "abc", "s": 1.0}},
                 "plugin: n"),
    # any file of bytes will do as data
    "data-map": ({"kind": "stream-estimate", "seed": 1, "data_file": str(DEMO_CONFIGS / "kac.json"),
                  "map": "octal", "plugin": {"n": 2, "s": 1.0}}, "map"),
    "kac-alphabet": ({"kind": "kac", "model": "fair-coin", "seed": 1, "word": "2"}, "out of range"),
    "kac-fractional-word": ({"kind": "kac", "model": "fair-coin", "seed": 1, "word": [1.5, 0.2]},
                            "must be integers"),
    "data-file-empty": ({"kind": "stream-estimate", "seed": 1, "data_file": "",
                         "plugin": {"n": 2, "s": 1.0}}, "data_file: must be a non-empty path"),
    "kac-unused-s": ({"kind": "kac", "model": "fair-coin", "seed": 1, "word": "11", "s": "x"}, "s:"),
    "ow-empty": ({"kind": "stream-estimate", **STREAM_RUN, "ow": {}}, "ow: missing key 'n_list'"),
    # Python's json parses NaN and Infinity, and neither is a finite number
    "theorem2-epsilon-infinite": ({"kind": "theorem2", "model": "fair-coin", "seed": 1,
                                   "n_list": [6, 8], "epsilon": math.inf, "N": 20},
                                  "epsilon: must be a finite number > 0, got inf"),
    "entrance-cap-infinite": ({"kind": "entrance-exponent", **EXPONENT_RUN,
                               "cap_multiplier": math.inf}, "cap_multiplier: must be a finite"),
    "renyi-s-nan": ({"kind": "renyi-exact", "model": "fair-coin", "seed": 1, "s_list": [math.nan],
                     "n_list": [2]}, "s_list: must be a finite number > 0, got nan"),
    "entrance-epsilon-huge": ({"kind": "entrance-exponent", **EXPONENT_RUN, "epsilon": 10**400},
                              "epsilon:"),
    # a key that no table lists, at any level, is rejected rather than ignored
    "entrance-misspelt": ({"kind": "entrance-exponent", **EXPONENT_RUN, "cap_multplier": 0.5,
                           "epsilonn": 0.01}, "unknown key 'cap_multplier'"),
    "ow-misspelt": ({"kind": "stream-estimate", **STREAM_RUN,
                     "ow": {"n_list": [4], "start_per_n": 10}}, "ow: unknown key 'start_per_n'"),
    "kac-tolerance-misspelt": ({"kind": "kac", "model": "fair-coin", "seed": 1, "word": "111",
                                "tolerance": {"max_residul": 1e-30}}, "unknown key 'max_residul'"),
    "kac-model-misspelt": ({"kind": "kac", "seed": 1, "word": "11",
                            "model": {"kind": "markov", "P": [[0.9, 0.1], [0.2, 0.8]],
                                      "pii": [0.5, 0.5]}}, "markov spec: unknown key 'pii'"),
    "outdir-empty": ({"kind": "kac", "model": "fair-coin", "seed": 1, "word": "111", "outdir": ""},
                     "outdir: must be a non-empty path"),
    # a count no numpy index can hold
    "entrance-N-huge": ({"kind": "entrance-exponent", **EXPONENT_RUN, "N": 10**23},
                        "N: must be a positive integer <="),
    "entrance-N-past-intp": ({"kind": "entrance-exponent", **EXPONENT_RUN,
                              "N": cli._MAX_COUNT + 1}, "N: must be a positive integer <="),
    "hlv-m-max-huge": ({"kind": "hlv", "model": "two-state-chain", "seed": 1, "words": ["1"],
                        "m_max": 10**23}, "m_max: must be a positive integer <="),
    # a word of measure zero is no target, wherever it is given
    "kac-zero-measure": ({"kind": "kac", "model": ZERO_00, "seed": 1, "word": "00"},
                         "target (0, 0) has measure zero"),
    "survival-zero-measure": ({"kind": "survival", **SURVIVAL_RUN, "model": ZERO_00, "word": "00"},
                              "target (0, 0) has measure zero"),
    "stream-header-zero-measure": ({"kind": "stream-estimate", **STREAM_RUN, "model": ZERO_00,
                                    "word": "00"}, "target (0, 0) has measure zero"),
    # orders and grids that no kind accepts
    "renyi-s-negative": ({"kind": "renyi-exact", "model": "fair-coin", "seed": 1, "s_list": [-1],
                          "n_list": [2]}, "s_list: must be a finite number > 0, got -1"),
    "renyi-s-zero": ({"kind": "renyi-exact", "model": "fair-coin", "seed": 1, "s": 0,
                      "n_list": [2]}, "s_list: must be a finite number > 0, got 0"),
    "wns-s-negative": ({"kind": "wns", **EXPONENT_RUN, "s": -0.5},
                       "s: must be a finite number >= 0, got -0.5"),
    "kac-s-negative": ({"kind": "kac", "model": "fair-coin", "seed": 1, "word": "11", "s": -1.0},
                       "s: must be a finite number >= 0, got -1.0"),
    "survival-grid-decreasing": ({"kind": "survival", **SURVIVAL_RUN, "t_grid": [2, 1]},
                                 f"t_grid: {GRID_RULE}"),
    "survival-grid-empty": ({"kind": "survival", **SURVIVAL_RUN, "t_grid": []}, f"t_grid: {GRID_RULE}"),
    "survival-grid-negative": ({"kind": "survival", **SURVIVAL_RUN, "t_grid": [-1.0, 1.0]},
                               "t_grid: must be a finite number >= 0, got -1.0"),
    # t / mu(word) steps: past 2**62 no int64 holds them with the word's length
    "survival-grid-past-int64": ({"kind": "survival", **SURVIVAL_RUN, "t_grid": [0.5, 1e30]},
                                 "a step count t/mu must be finite and at most 2**62"),
    "abadi-grid-past-int64": ({"kind": "abadi-shape", "model": "fair-coin", "seed": 1,
                               "word": "1", "t_grid": [0.5, 1e19]}, "at most 2**62"),
    # a word so long that mu(word) is 0.0 in floats has no time t / mu at all
    "survival-measure-underflows": ({"kind": "survival", **SURVIVAL_RUN, "model": "fair-coin",
                                     "word": "1" * 1100}, "target measure underflows"),
    "return-survival-measure-underflows": ({"kind": "return-survival", **SURVIVAL_RUN, "model": "fair-coin",
                                            "word": "1" * 1100}, "target measure underflows"),
    # mu(1^1000) is a float, but a scan for it would need a cap past 2**62
    "survival-cap-past-ceiling": ({"kind": "survival", **SURVIVAL_RUN, "model": "fair-coin",
                                   "word": "1" * 1000, "t_grid": [0.0]}, "passes 2**62"),
    "return-survival-cap-past-ceiling": ({"kind": "return-survival", **SURVIVAL_RUN, "model": "fair-coin",
                                          "word": "1" * 1000, "t_grid": [0.0]}, "passes 2**62"),
    # no sampled time passes the cap ceil(6.91 / mu) = 111 of 0110, so step 127 (t = 8) would read 0.0
    "survival-grid-past-cap": ({"kind": "survival", **SURVIVAL_RUN, "model": "fair-coin", "word": "0110",
                                "t_grid": [1.0, 6.0, 7.0, 8.0]}, "t grid ends at step 127, past"),
    "return-survival-grid-past-cap": ({"kind": "return-survival", **SURVIVAL_RUN, "model": "fair-coin",
                                       "word": "0110", "t_grid": [1.0, 8.0]}, "past the survival scan's cap"),
    "abadi-measure-underflows": ({"kind": "abadi-shape", "model": "fair-coin", "seed": 1,
                                  "word": "1" * 1100, "t_grid": [0.5, 1.0]}, "target measure underflows"),
    # the kinds without a time grid gate the measure as every chain build does
    "kac-measure-underflows": ({"kind": "kac", "model": "fair-coin", "seed": 1, "word": "1" * 1100},
                               "target measure underflows"),
    "hlv-measure-underflows": ({"kind": "hlv", "model": "fair-coin", "seed": 1, "words": ["1" * 1100],
                                "m_max": 3}, "target measure underflows"),
    # a seed keys substreams, and no substream key is negative
    "negative-seed": ({"kind": "entrance-exponent", **EXPONENT_RUN, "seed": -1},
                      "seed: must be a non-negative integer, got -1"),
    # stream-estimate's rules across keys: a section to run, and a source of data
    "stream-no-section": ({"kind": "stream-estimate", "seed": 1, "model": "biased-coin",
                           "generate_length": 20000}, "needs an 'ow' or 'plugin' section"),
    "stream-no-data": ({"kind": "stream-estimate", "seed": 1, "model": "biased-coin",
                        "plugin": {"n": 4, "s": 1.0}},
                       "needs a data_file, or a model and a generate_length"),
}


@pytest.mark.parametrize("case", list(NEVER_RUN), ids=list(NEVER_RUN))
def test_a_malformed_key_exits_2_before_anything_runs(tmp_path, monkeypatch, capsys, case):
    def started(*args, **kwargs):
        raise AssertionError("the run started")

    for name in list(cli._SAMPLERS):
        monkeypatch.setitem(cli._SAMPLERS, name, started)
    for kind, (_, keys, tolerance) in list(cli.KINDS.items()):
        monkeypatch.setitem(cli.KINDS, kind, (started, keys, tolerance))
    monkeypatch.setattr(cli, "OrbitStream", started)
    monkeypatch.setattr(cli, "ingest", started)
    cfg, fragment = NEVER_RUN[case]
    code, outdir = run_cli(tmp_path, cfg)
    assert code == 2
    assert not outdir.exists()
    assert fragment in capsys.readouterr().err


def test_a_failing_constant_leaves_no_lone_report(tmp_path, monkeypatch):
    # the summary's constants are computed before either file is written
    def uncertified(model, s, *args, **kwargs):
        raise ToleranceNotCertified("no certified bound")

    monkeypatch.setattr(cli, "renyi_entropy", uncertified)
    cfg = {"kind": "kac", "model": "fair-coin", "seed": 1, "word": "11", "s": 2.0}
    code, outdir = run_cli(tmp_path, cfg)
    assert code == 3
    assert not outdir.exists()


def test_hlv_and_abadi_kinds_run(tmp_path):
    code, outdir = run_cli(tmp_path, {
        "kind": "hlv", "model": "two-state-chain", "seed": 1,
        "words": ["1", "01"], "m_max": 60,
        "tolerance": {"max_residual": 1e-9},
    }, name="hlv.json")
    assert code == 0
    assert read_summary(outdir)["results"]["max_residual"] <= 1e-9

    code, outdir = run_cli(tmp_path, {
        "kind": "abadi-shape", "model": "fair-coin", "seed": 1, "word": "1",
        "t_grid": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
        "tolerance": {"require_bound": True},
    }, name="abadi.json")
    assert code == 0
    summary = read_summary(outdir)
    assert summary["results"]["rate"] == pytest.approx(2.0 * math.log(2.0), abs=1e-9)
    assert summary["results"]["bound_holds"] is True


def test_survival_kind_checks_band_and_ks(tmp_path):
    cfg = {
        "kind": "survival", "model": "fair-coin", "seed": 5, "N": 800,
        "word": "10011", "t_grid": [0.25, 0.5, 1.0, 1.5, 2.0],
        "tolerance": {"max_ks": 0.08, "dkw_alpha": 0.001},
    }
    code, outdir = run_cli(tmp_path, cfg)
    assert code == 0
    summary = read_summary(outdir)
    assert summary["results"]["max_abs_error"] <= summary["results"]["dkw_band"]
    lines = (outdir / "report.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "m,t,empirical,exact,abs_error"
    assert len(lines) == 6


def test_return_survival_kind_reports_the_mean(tmp_path):
    cfg = {
        "kind": "return-survival", "model": "two-state-chain", "seed": 5,
        "N": 600, "word": "01", "t_grid": [0.5, 1.0],
        "tolerance": {"max_mean_error": 2.0},
    }
    code, outdir = run_cli(tmp_path, cfg)
    assert code == 0
    summary = read_summary(outdir)
    assert summary["results"]["exact_mean_return"] == pytest.approx(15.0, rel=1e-9)


def test_theorem2_kind_checks_decay(tmp_path):
    cfg = {
        "kind": "theorem2", "model": "fair-coin", "seed": 1, "N": 150,
        "n_list": [5, 8, 11], "epsilon": 0.1,
        "tolerance": {"require_decreasing": True},
    }
    code, outdir = run_cli(tmp_path, cfg)
    assert code == 0
    ests = read_summary(outdir)["results"]["estimates"]
    assert ests[0] > ests[1] > ests[2]


def test_theorem2_with_one_word_writes_no_standard_error(tmp_path):
    # the spread of one word is unknown, not zero
    cfg = {"kind": "theorem2", "model": "fair-coin", "seed": 1, "n_list": [6, 8], "epsilon": 0.1, "N": 1}
    code, outdir = run_cli(tmp_path, cfg)
    assert code == 0
    lines = (outdir / "report.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n,estimate,std_error,samples"
    assert [line.split(",")[2] for line in lines[1:]] == ["", ""]


def test_theorem2_past_int64_steps_exits_3(tmp_path, capsys):
    # at n = 40 the threshold e^(40 * 0.5) is about 5e20 steps of a fair-coin word; e^(800 * 1.0)
    # is no float at all, and the run stops on the same ceiling, not on math.exp's overflow
    for name, n_list, epsilon in (("int64.json", [20, 40], 0.5), ("float.json", [800], 1.0)):
        cfg = {"kind": "theorem2", "model": "fair-coin", "seed": 1, "N": 4,
               "n_list": n_list, "epsilon": epsilon}
        code, outdir = run_cli(tmp_path, cfg, name)
        assert code == 3
        assert not outdir.exists()
        assert "2**62" in capsys.readouterr().err


def test_every_cli_name_in_the_readme_exists():
    names = re.findall(r"`cli\.(\w+)`", (ROOT / "README.md").read_text(encoding="utf-8"))
    assert names
    assert [name for name in names if not hasattr(cli, name)] == []


@pytest.mark.filterwarnings("error")
def test_abadi_shape_markov_demo_has_a_floor_below_1(tmp_path):
    # a zero in every column: the contraction certificate never decays, phi(2) = 1/6 does
    code = main(["--config", str(DEMO_CONFIGS / "abadi_shape_markov.json"), "--outdir", str(tmp_path)])
    assert code == 0
    results = read_summary(tmp_path)["results"]
    assert results["floor"] == pytest.approx(2 / 6 + 1 / 6, rel=0, abs=1e-10)
    assert results["floor"] < 1.0
    assert results["bound_holds"] is True


def test_wns_kind_reports_median_against_target(tmp_path):
    cfg = {
        "kind": "wns", "model": "fair-coin", "seed": 2, "n": 10, "N": 150,
        "s": 1.0, "tolerance": {"median_within": 0.2},
    }
    code, outdir = run_cli(tmp_path, cfg)
    assert code == 0
    summary = read_summary(outdir)
    assert summary["results"]["target"] == pytest.approx(0.0, abs=1e-12)
    assert summary["header"]["constants"]["renyi_s"] == pytest.approx(math.log(2.0))


def test_stream_estimate_kind_emits_series_rows(tmp_path):
    cfg = {
        "kind": "stream-estimate", "model": "two-state-chain", "seed": 9,
        "generate_length": 120_000,
        "ow": {"n_list": [8], "starts_per_n": 120},
        "plugin": {"n": 8, "s": 1.0},
        "tolerance": {"max_ow_error": 0.15, "max_plugin_error": 0.1},
    }
    code, outdir = run_cli(tmp_path, cfg)
    assert code == 0
    lines = (outdir / "report.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "method,n,s,estimate_nats,stderr,censored_fraction,sample_count"
    assert len(lines) == 3
    assert lines[1].startswith("OW-recurrence,8,,")
    assert lines[2].startswith("plugin-renyi,8,1.0,")
    assert lines[2].split(",")[4] == ""  # the plug-in has no standard error


def test_stream_estimate_writes_an_unknown_ow_stderr_with_one_start(tmp_path):
    # one start per n has no spread to measure: an empty cell, and null in the summary
    cfg = {"kind": "stream-estimate", "model": "fair-coin", "seed": 3, "generate_length": 4000,
           "ow": {"n_list": [2, 5], "starts_per_n": 1}}
    code, outdir = run_cli(tmp_path, cfg)
    assert code == 0
    lines = (outdir / "report.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[4] for line in lines[1:]] == ["", ""]
    ow = read_summary(outdir)["results"]["ow"]
    assert [ow[n]["stderr"] for n in ("2", "5")] == [None, None]


def test_worker_count_never_changes_the_outputs(tmp_path):
    cfg = {
        "kind": "entrance-exponent", "model": "biased-coin", "seed": 7,
        "n": 8, "N": 90, "epsilon": 0.15,
    }
    path = tmp_path / "det.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    blobs = []
    for workers in ("1", "4"):
        outdir = tmp_path / f"w{workers}"
        assert main(["--config", str(path), "--outdir", str(outdir), "--workers", workers]) == 0
        blobs.append(((outdir / "report.csv").read_bytes(),
                      (outdir / "summary.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_worker_count_never_changes_the_outputs_on_a_chain(tmp_path):
    cfg = {
        "kind": "recurrence-exponent", "model": "two-state-chain", "seed": 5,
        "n": 8, "N": 90, "epsilon": 0.15,
    }
    blobs = []
    for workers in ("1", "4"):
        code, outdir = run_cli(tmp_path, cfg, name=f"chain-w{workers}.json",
                               extra=("--workers", workers))
        assert code == 0
        blobs.append(((outdir / "report.csv").read_bytes(),
                      (outdir / "summary.json").read_bytes()))
    assert blobs[0] == blobs[1]


class SerialPool:
    """Stands in for ``multiprocessing.Pool``: records its size and task count, maps here."""

    sizes = []
    tasks = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, tasks):
        self.tasks.append(len(tasks))
        return list(map(func, tasks))


@pytest.mark.parametrize("cpus, size", [(2, 2), (None, 1)])
def test_pool_starts_at_most_one_process_per_cpu(tmp_path, monkeypatch, cpus, size):
    cfg = {"kind": "entrance-exponent", "model": "fair-coin", "seed": 4, "n": 6, "N": 30}
    code, outdir = run_cli(tmp_path, cfg, name="w1.json", extra=("--workers", "1"))
    assert code == 0
    one = [(outdir / f).read_bytes() for f in ("report.csv", "summary.json")]
    monkeypatch.setattr(cli.multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    SerialPool.sizes.clear()
    SerialPool.tasks.clear()
    code, outdir = run_cli(tmp_path, cfg, name="w5000.json", extra=("--workers", "5000"))
    assert code == 0
    assert SerialPool.sizes == [size]
    # the indices are still split in 5000 chunks, and they merge to the one-worker run
    assert SerialPool.tasks == [5000]
    assert [(outdir / f).read_bytes() for f in ("report.csv", "summary.json")] == one


def test_censored_summary_is_withheld_with_its_reason(tmp_path):
    # cap = ceil(0.5 / mu): about exp(-0.5) of the samples are censored
    cfg = {
        "kind": "entrance-exponent", "model": "two-state-chain", "seed": 2,
        "n": 6, "N": 60, "cap_multiplier": 0.5,
    }
    blobs = []
    for workers in ("1", "2"):
        code, outdir = run_cli(tmp_path, cfg, name=f"cens-w{workers}.json",
                               extra=("--workers", workers))
        assert code == 0
        results = read_summary(outdir)["results"]
        frac = results["censored_fraction"]
        assert frac > 0.01
        assert results["summary"] is None
        assert results["summary_withheld"] == f"censored fraction {frac:.4f} exceeds 1.00%"
        blobs.append(((outdir / "report.csv").read_bytes(),
                      (outdir / "summary.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_a_worker_count_below_one_exits_2_with_nothing_written(tmp_path):
    cfg = {"kind": "recurrence-exponent", "model": "fair-coin", "seed": 3,
           "n": 6, "N": 40}
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    for workers in ("0", "-1"):
        outdir = tmp_path / f"w{workers}"
        assert main(["--config", str(path), "--outdir", str(outdir), "--workers", workers]) == 2
        assert not outdir.exists()
    assert main(["--config", str(path), "--outdir", str(tmp_path / "w2"), "--workers", "2"]) == 0


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """Every demo config run once, in process at ``--workers 1``.

    Returns ``{config name: (exit code, output directory, substream keys read)}``
    and the seeds that keyed a sampler's substreams in one batch.  Lone
    streams are keyed by ``substream``, the samplers' by ``substream_keys``.
    """
    root = tmp_path_factory.mktemp("demos")
    keys, batches, runs = set(), [], {}
    substream, substream_keys = rng.substream, rng.substream_keys

    def recording(*key):
        keys.add(tuple(int(k) for k in key))
        return substream(*key)

    def recording_batch(seed, indices, roles):
        batches.append(seed)
        keys.update((int(seed), int(j), int(r)) for j in indices for r in roles)
        return substream_keys(seed, indices, roles)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orbits, "substream", recording)
        patch.setattr(streams, "substream", recording)
        patch.setattr(rng, "substream_keys", recording_batch)
        for path in sorted(DEMO_CONFIGS.glob("*.json")):
            keys.clear()
            code = main(["--config", str(path), "--outdir", str(root / path.stem), "--workers", "1"])
            runs[path.name] = (code, root / path.stem, set(keys))
    return runs, batches


def test_no_demo_experiment_reads_two_aliased_substreams(demo_runs):
    # SeedSequence pads its entropy with zeros, so substream keys that differ
    # only by trailing zeros give the same stream: (7,) and (7, 0, 0) alias
    runs, batches = demo_runs
    for name, (code, _, keys) in runs.items():
        assert code == 0, name
        stripped = {}
        for key in keys:
            bare = key
            while len(bare) > 1 and bare[-1] == 0:
                bare = bare[:-1]
            stripped.setdefault(bare, []).append(key)
        aliased = [sorted(group) for group in stripped.values() if len(group) > 1]
        assert not aliased, f"{name}: {aliased[:3]}"
    assert batches, "no sampler keyed its substreams through substream_keys"


# SHA-256 of each demo config's report.csv and summary.json, run at --workers 1
DEMO_DIGESTS = {
    "abadi_shape.json": ("b3ea13a55cb6302038e2add9da8cf01e490d995d9486b804f3f9bc0a152b89d7",
                         "533078e6607b78f5badaeb7d0a5ec284a9e53703cedd97c49ac11da13c4863ae"),
    "abadi_shape_markov.json": ("bea5908a2a02403e86132a2766dd3336cab2cf67770571eb3f13d443210b069f",
                                "c83b666bd647b8fbd292414110ae242f2804ffef76a71cbe44803c87bf1c963f"),
    "entrance_exponent.json": ("1658051a29d101188fd8b434c54c2acf959cf5fddf998aa742878920f6c557d6",
                               "71822b8e426898ae7004a86b47a1c11975825fe16b725187a9bde6aec5b04fef"),
    "hlv.json": ("0163a9d3e8916dccebb318b273d688efa85cb139a832a406549767e24c0b9eee",
                 "9dff938d73bcf65a58d97f71cdb0f9fc20e4ffd5f4c191aa7ddc87650899f9a5"),
    "kac.json": ("3e04788407df0ee6466197122b2138a6a5a7ef9612db2deedce979cf56ef99c7",
                 "59f0a261b0b4e2008af61db040111471c9b89b32c502d4f81ab9cc0b4b7bb624"),
    "recurrence_exponent.json": ("1be2982b776821bfc9d730be0e876412f1333968b8acf65c9c1d6b2ff5a1b814",
                                 "b926972af34a7eb4ef4fd6fb166708104793f6d99b2986d5be737ac01cc2feb4"),
    "renyi_exact.json": ("47a8aa2e59956c6e6e2f81b4959fb4d762edb93c854dd21155d9ec803c9a64ef",
                         "8a0e5d97941fdd9873aaa7017821c17d10b7080b73bec83933d390a09fd264ff"),
    "return_survival.json": ("8b4b6ee9c87ee9ede7fa238a5dd0b9a0a2ada339be48973ceca5b1356379487e",
                             "5fd53d086b2bba61dbed8571e6b5a793be01a5a53a8c154b80aa751a3a1069fd"),
    "stream_estimate.json": ("2271a21373ba2be3b34aea0814cc3d85d7cd7e17de018743b43bd1d238a7c6f0",
                             "5528683176a80a2421efde4b67f3f72b2fb17c8f664114750a0fcc4501a7e9c8"),
    "survival.json": ("b3cf97af3160ffcc2dcafe51565f2ca458c416cc29456a999b346a53b5dafcdc",
                      "58cb0b133086707c6835ee392a1d984f0afd513e66e21b92f66ee75c40f8c816"),
    "survival_markov3.json": ("0ee56da723a832a26124b103a9e3de9ff864145b9a8fec37bf5d137df40b0e28",
                              "7c2a11dcc5e5e95b7ac2cc210ce6405df0fc2ff22210e434969ead4c20a5d7cf"),
    "theorem2.json": ("2f0e4ed20ea6a4eb02186a95795c3bfcea9feb1baf9aa8ab04a529f323b065ae",
                      "77c557835436838f71bf05ee2a43a1b272b789791eb82045cbbe208e11e8283b"),
    "theorem2_geometric.json": ("367cfb6019a1ace0392395393a29742ed9a116671a7ee64445db2598368e682e",
                                "e5b70a27a7c6a66ae52190874fcc386fe18b9b5c02dc8775a1a08abc375683e3"),
    "theorem2_markov.json": ("47496b2727121490989473a9c91a6c161905941c5c11059f7a6a536a01389afc",
                             "5f3abf45607f703234d4a9c605d73e33444d53e4a7a6824f2faa5dad876f7cb5"),
    "wns.json": ("0c16cac5df930d0892e823828c567bf886b99429bb60163d3ccc661f530190c6",
                 "80d0b8bad7b2cd2d3c4c707e5670ee6c6f9f50a2fd375a83b1bc3b0f1e460a9d"),
    "wns_diagonal.json": ("a9bf17e698f93cc2e248b83cf53037a415cdd03add953e8456c5863202295b0d",
                          "fe38adbd7db6b95caea2fbf2f9df390928a8e441397515567de0d58ed7b10681"),
}


def test_every_demo_report_keeps_its_bytes(demo_runs):
    runs, _ = demo_runs
    files = ("report.csv", "summary.json")
    got = {name: tuple(hashlib.sha256((outdir / file).read_bytes()).hexdigest() if (outdir / file).exists()
                       else None for file in files) for name, (_, outdir, _) in runs.items()}
    changed = [f"{name} {file}" for name in sorted(got.keys() | DEMO_DIGESTS.keys())
               for i, file in enumerate(files)
               if got.get(name, (None, None))[i] != DEMO_DIGESTS.get(name, (None, None))[i]]
    assert not changed, f"changed: {changed}; the new table:\n{pprint.pformat(got, width=110)}"
