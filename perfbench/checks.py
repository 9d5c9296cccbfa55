"""Correctness checks computed apart from hitstat.

Every function takes a program output plus the inputs that produced it,
recomputes the expected value with plain numpy (or tests a property the
method must have: monotonicity, a confidence band), and returns a list of
failure messages, empty when the output is right.  Nothing here imports
hitstat; the workloads call hitstat only to regenerate the inputs a
result came from (``sample_orbit``) and, for the exceedance check, to take
the exact entrance law of the sampled words.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import logsumexp

CHUNK = 1 << 20


def window_codes(seq: np.ndarray, n: int, k: int) -> np.ndarray:
    """Base-``k`` codes of every overlapping n-window, built in chunks."""
    seq = np.asarray(seq)
    m = len(seq) - n + 1
    weights = (k ** np.arange(n - 1, -1, -1, dtype=np.uint64)).astype(np.uint64)
    out = np.empty(m, dtype=np.uint64)
    for lo in range(0, m, CHUNK):
        hi = min(m, lo + CHUNK)
        view = sliding_window_view(seq[lo:hi + n - 1], n).astype(np.uint64)
        out[lo:hi] = view @ weights
    return out


def first_match(orbit: np.ndarray, word) -> int | None:
    """Smallest ``i >= 1`` whose n-window of ``orbit`` equals ``word``, searched in chunks."""
    orbit = np.asarray(orbit)
    word = np.asarray(word)
    n = len(word)
    end = len(orbit) - n + 1  # number of windows
    for lo in range(1, end, CHUNK):
        hi = min(end, lo + CHUNK)
        hits = np.flatnonzero((sliding_window_view(orbit[lo:hi + n - 1], n) == word).all(axis=1))
        if len(hits):
            return lo + int(hits[0])
    return None


def check_entrance_time(orbit: np.ndarray, word, tau: int, label: str) -> list[str]:
    """``tau`` is the first entrance of ``orbit`` into ``word``, with no earlier match.

    ``orbit`` must hold at least ``tau + n`` symbols.
    """
    found = first_match(np.asarray(orbit)[:tau + len(word)], word)
    if found != tau:
        return [f"{label}: entrance time {tau}, numpy search finds {found}"]
    return []


def check_exponent_value(value: float, tau: int, n: int, label: str) -> list[str]:
    if value != math.log(tau) / n:
        return [f"{label}: exponent {value!r} is not log({tau})/{n}"]
    return []


def hoeffding(count: int, alpha: float) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * count))


def check_symbol_frequencies(orbit: np.ndarray, p, alpha: float, label: str,
                             inflation: float = 1.0) -> list[str]:
    """Empirical symbol frequencies lie in a Hoeffding band around ``p``.

    ``inflation`` widens the band for dependent (Markov) samples.
    """
    p = np.asarray(p, dtype=float)
    freq = np.bincount(orbit, minlength=len(p))[:len(p)] / len(orbit)
    band = hoeffding(len(orbit), alpha) * math.sqrt(inflation)
    worst = float(np.abs(freq - p).max())
    if worst > band:
        return [f"{label}: symbol frequency off by {worst:.4g} > band {band:.4g}"]
    return []


def check_transition_frequencies(orbit: np.ndarray, P, alpha: float, label: str) -> list[str]:
    """Row-wise transition frequencies lie in a Hoeffding band around ``P``.

    Given the visits to state ``a``, the next symbols are independent
    draws from row ``a`` (strong Markov property), so the band uses the
    visit count of each row.
    """
    P = np.asarray(P, dtype=float)
    k = P.shape[0]
    pairs = np.bincount(orbit[:-1] * k + orbit[1:], minlength=k * k).reshape(k, k)
    out = []
    for a in range(k):
        visits = int(pairs[a].sum())
        if visits == 0:
            out.append(f"{label}: state {a} never visited")
            continue
        worst = float(np.abs(pairs[a] / visits - P[a]).max())
        band = hoeffding(visits, alpha)
        if worst > band:
            out.append(f"{label}: row {a} transition frequency off by {worst:.4g} > {band:.4g}")
    return out


def window_log_measures(orbit: np.ndarray, n: int, log_p: np.ndarray) -> np.ndarray:
    """Log-measures of every n-window of an i.i.d. orbit (prefix-sum differences)."""
    c = np.concatenate([[0.0], np.cumsum(log_p[orbit])])
    return c[n:] - c[:-n]


def check_orbit_sum(orbit: np.ndarray, word, log_p, s: float, log_value: float,
                    terms: int, tau: int, label: str, tol: float = 1e-8) -> list[str]:
    """``log W`` equals a log-sum-exp over the windows ``i = 1 .. tau``."""
    out = []
    if terms != tau:
        out.append(f"{label}: {terms} terms, entrance time {tau}")
    n = len(word)
    lm = window_log_measures(np.asarray(orbit)[:tau + n], n, np.asarray(log_p))[1:tau + 1]
    expect = float(logsumexp(s * lm))
    if abs(expect - log_value) > tol:
        out.append(f"{label}: log W {log_value!r}, recomputed {expect!r}")
    return out


def check_exceedance(lower: float, upper: float, pred_lower: float, pred_upper: float,
                     band: float, label: str) -> list[str]:
    worst = max(abs(lower - pred_lower), abs(upper - pred_upper))
    if worst > band:
        return [f"{label}: exceedance off the exact prediction by {worst:.4f} > {band:.4f}"]
    return []


def check_kac(mean_return: float, word, P=None, pi=None, p=None,
              rel_tol: float = 1e-10, label: str = "kac") -> list[str]:
    """Kac's lemma ``E_B[tau_B] * mu(B) = 1`` with ``mu`` computed here."""
    mu = cylinder_mass(word, P=P, pi=pi, p=p)
    residual = abs(mean_return * mu - 1.0)
    if not residual <= rel_tol:
        return [f"{label}: |E*mu - 1| = {residual:.3g} > {rel_tol:g}"]
    return []


def stationary(P) -> np.ndarray:
    """Stationary vector of an irreducible kernel from a dense linear solve."""
    P = np.asarray(P, dtype=float)
    k = P.shape[0]
    A = np.vstack([(P.T - np.eye(k))[1:], np.ones(k)])
    b = np.zeros(k)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


def cylinder_mass(word, P=None, pi=None, p=None) -> float:
    word = [int(a) for a in word]
    if p is not None:
        return math.exp(float(np.log(np.asarray(p))[word].sum()))
    logmu = math.log(pi[word[0]])
    for a, b in zip(word, word[1:]):
        logmu += math.log(P[a][b])
    return math.exp(logmu)


def transfer_survival(P, pi, word, m_max: int) -> np.ndarray:
    """``P(tau > m)``, ``m = 0..m_max``, by a transfer matrix over the last n-1 symbols.

    The state is the last ``w = max(n-1, 1)`` symbols, coded base ``k``.
    After ``x_0 .. x_{w-1}`` the next symbol completes window ``i = 0``
    when ``n >= 2`` (it never counts); every later symbol completes one
    window ``i >= 1`` and kills the mass that spells ``word``.
    Independent of the product-chain construction.
    """
    P = np.asarray(P, dtype=float)
    k = P.shape[0]
    word = tuple(int(a) for a in word)
    n = len(word)
    w = max(n - 1, 1)
    states = k ** w
    digits = [[(code // k ** (w - 1 - i)) % k for i in range(w)] for code in range(states)]
    v = np.empty(states)
    for code, syms in enumerate(digits):
        prob = pi[syms[0]]
        for a, b in zip(syms, syms[1:]):
            prob *= P[a, b]
        v[code] = prob
    nxt = np.array([[(code * k + b) % states for b in range(k)] for code in range(states)])
    kill = np.array([[tuple(syms + [b])[-n:] == word for b in range(k)] for syms in digits])
    trans = P[[syms[-1] for syms in digits]]

    def step(v, mask):
        out = np.zeros(states)
        np.add.at(out, nxt.ravel(), (v[:, None] * trans * mask).ravel())
        return out

    if n >= 2:
        v = step(v, 1.0)
    out = np.empty(m_max + 1)
    out[0] = 1.0
    for m in range(1, m_max + 1):
        v = step(v, ~kill)
        out[m] = v.sum()
    return out


def check_survival_curve(values: np.ndarray, label: str, tol: float = 1e-12) -> list[str]:
    """Values lie in [0, 1] and do not increase by more than ``tol``.

    ``tol`` admits the last-bit differences between separately rounded
    matrix powers: at S = 512, ``survival_at`` gave 0.9999999999999998 at
    m = 1 and 0.9999999999999999 at m = 8, where the exact values are
    ``1 - 2.6e-45`` and below.
    """
    out = []
    if values.min() < 0.0 or values.max() > 1.0:
        out.append(f"{label}: survival outside [0, 1]")
    rise = float(np.diff(values).max()) if len(values) > 1 else 0.0
    if rise > tol:
        out.append(f"{label}: survival increases by {rise:.3g}")
    return out


def check_close(a, b, tol: float, label: str) -> list[str]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return [f"{label}: shapes {a.shape} and {b.shape} differ"]
    worst = float(np.abs(a - b).max()) if a.size else 0.0
    if not worst <= tol:
        return [f"{label}: off by {worst:.3g} > {tol:g}"]
    return []


def perron_renyi(P, s: float) -> float:
    """``-log lambda_max(P**(1+s)) / s`` from a dense eigensolver."""
    lam = float(np.max(np.abs(np.linalg.eigvals(np.asarray(P, dtype=float) ** (1.0 + s)))))
    return -math.log(lam) / s


def check_renyi(value: float, P, s: float, rel_tol: float, label: str) -> list[str]:
    ref = perron_renyi(P, s)
    err = abs(value - ref) / abs(ref)
    if not err <= rel_tol:
        return [f"{label}: R({s}) relative error {err:.3g} > {rel_tol:g}"]
    return []


def check_partition_increments(log_z: list[float], renyi: float, s: float, tol: float,
                               label: str) -> list[str]:
    """Increments ``(log Z_{n-1} - log Z_n)/s`` approach ``R(s)``."""
    gaps = [abs((a - b) / s - renyi) for a, b in zip(log_z, log_z[1:])]
    out = []
    if gaps[-1] > tol:
        out.append(f"{label}: last increment gap {gaps[-1]:.3g} > {tol:g}")
    if gaps[-1] > gaps[0]:
        out.append(f"{label}: increment gap grew from {gaps[0]:.3g} to {gaps[-1]:.3g}")
    return out


def check_tail_estimates(estimates: list[float], label: str) -> list[str]:
    out = []
    if any(not 0.0 <= e <= 1.0 for e in estimates):
        out.append(f"{label}: estimate outside [0, 1]")
    if not all(a > b for a, b in zip(estimates, estimates[1:])):
        out.append(f"{label}: estimates not strictly decreasing: {estimates}")
    return out


def check_repack(raw: bytes, byte_seq, nibble_seq, bit_seq, label: str) -> list[str]:
    """The three symbol maps re-pack exactly to the input bytes."""
    raw_arr = np.frombuffer(raw, dtype=np.uint8)
    out = []
    if not np.array_equal(np.asarray(byte_seq).astype(np.uint8), raw_arr) or len(byte_seq) != len(raw):
        out.append(f"{label}: byte map does not re-pack")
    nib = np.asarray(nibble_seq)
    if len(nib) != 2 * len(raw) or not np.array_equal(
            (nib[0::2] * 16 + nib[1::2]).astype(np.uint8), raw_arr):
        out.append(f"{label}: nibble map does not re-pack")
    bits = np.asarray(bit_seq)
    if len(bits) != 8 * len(raw) or not np.array_equal(np.packbits(bits.astype(np.uint8)), raw_arr):
        out.append(f"{label}: bit map does not re-pack")
    return out


def check_window_counts(counts: np.ndarray, seq: np.ndarray, n: int, k: int,
                        label: str) -> list[str]:
    """Counts equal ``np.unique`` over the sliding windows and sum to ``L - n + 1``."""
    expect = np.unique(window_codes(seq, n, k), return_counts=True)[1]
    out = []
    if int(np.asarray(counts).sum()) != len(seq) - n + 1:
        out.append(f"{label}: counts sum to {int(np.asarray(counts).sum())}, not {len(seq) - n + 1}")
    if not np.array_equal(np.sort(counts), np.sort(expect)):
        out.append(f"{label}: window counts differ from np.unique")
    return out


def ow_starts(length: int, n: int, starts_per_n: int, seed: int) -> np.ndarray:
    """The start offsets the OW estimator samples: substream ``(seed, n)``."""
    rng = np.random.Generator(np.random.Philox(seed=np.random.SeedSequence((int(seed), int(n)))))
    top = length - 2 * n
    count = min(starts_per_n, top + 1)
    return np.sort(rng.choice(top + 1, size=count, replace=False))


def next_repeats(codes: np.ndarray, starts: np.ndarray) -> list[int | None]:
    """Distance from each start to the next window with the same code, or None."""
    out = []
    for i in starts.tolist():
        c = codes[i]
        found = None
        lo = i + 1
        step = 1 << 14
        while lo < len(codes):
            hi = min(len(codes), lo + step)
            hits = np.flatnonzero(codes[lo:hi] == c)
            if len(hits):
                found = lo + int(hits[0]) - i
                break
            lo = hi
            step = min(step * 4, CHUNK * 8)
        out.append(found)
    return out


def check_ow(row, taus: list[int | None], n: int, label: str) -> list[str]:
    """OW median and censoring equal those of the independent repeat search."""
    vals = [math.log(t) / n for t in taus if t is not None]
    censored = sum(t is None for t in taus)
    out = []
    if row.censored_fraction != censored / len(taus):
        out.append(f"{label}: censored fraction {row.censored_fraction} vs {censored}/{len(taus)}")
    if vals and abs(row.estimate_nats - float(np.median(vals))) > 1e-12:
        out.append(f"{label}: OW estimate {row.estimate_nats!r} vs median {float(np.median(vals))!r}")
    return out


def check_within(value: float, target: float, tol: float, label: str) -> list[str]:
    if not abs(value - target) <= tol:
        return [f"{label}: {value:.6g} is {abs(value - target):.4g} from {target:.6g} (> {tol:g})"]
    return []
