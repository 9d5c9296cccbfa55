"""Show that every benchmark check passes on a true result and fails on a perturbed one.

Usage: python3 perfbench/selftest.py

Perturbations: an entrance time shifted by 1, ``E * mu`` scaled by
1 + 1e-6, one flipped input byte, and a small shift of each other
checked value.  Exits 1 if a check rejects a true result or accepts a
perturbed one.
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from hitstat import exact, models, montecarlo, orbits, streams  # noqa: E402

import checks  # noqa: E402


def cases():
    """(name, failures on the true result, failures on the perturbed result)."""
    fair = models.builtin_model("fair-coin")
    biased = models.builtin_model("biased-coin")
    chain = models.builtin_model("two-state-chain")
    word = (1, 0, 1, 1, 0, 1)
    tau = montecarlo.entrance_time(orbits.OrbitStream(fair, (5, 1)), word).value
    orbit = orbits.sample_orbit(fair, (5, 1), tau + len(word) + 1)
    yield ("entrance time +1", checks.check_entrance_time(orbit, word, tau, "t"),
           checks.check_entrance_time(orbit, word, tau + 1, "t"))
    yield ("entrance time -1", [], checks.check_entrance_time(orbit, word, tau - 1, "t"))
    value = math.log(tau) / len(word)
    yield ("exponent of shifted time", checks.check_exponent_value(value, tau, len(word), "v"),
           checks.check_exponent_value(value, tau + 1, len(word), "v"))

    long_orbit = orbits.sample_orbit(biased, (5, 2), 100_000)
    yield ("symbol band, shifted p", checks.check_symbol_frequencies(long_orbit, biased.p, 1e-9, "f"),
           checks.check_symbol_frequencies(long_orbit, biased.p + [0.02, -0.02], 1e-9, "f"))
    mc_orbit = orbits.sample_orbit(chain, (5, 3), 100_000)
    P_off = chain.P + [[0.02, -0.02], [0.0, 0.0]]
    yield ("transition band, shifted P", checks.check_transition_frequencies(mc_orbit, chain.P, 1e-9, "p"),
           checks.check_transition_frequencies(mc_orbit, P_off, 1e-9, "p"))

    target = (1, 0, 0, 1, 0)
    cap = orbits.CapPolicy().cap_for(biased, target)
    res = orbits.w_sum(orbits.OrbitStream(biased, (5, 4)), target=target, s=1.0, cap=cap)
    t = res.time.value
    w_orbit = orbits.sample_orbit(biased, (5, 4), t + len(target))
    log_p = np.log(biased.p)
    yield ("log W + 1e-7", checks.check_orbit_sum(w_orbit, target, log_p, 1.0, res.log_value, res.terms, t, "w"),
           checks.check_orbit_sum(w_orbit, target, log_p, 1.0, res.log_value + 1e-7, res.terms, t, "w"))
    yield ("orbit-sum terms +1", [],
           checks.check_orbit_sum(w_orbit, target, log_p, 1.0, res.log_value, res.terms + 1, t, "w"))

    yield ("exceedance off by 2 bands", checks.check_exceedance(0.1, 0.2, 0.1, 0.2, 0.05, "e"),
           checks.check_exceedance(0.2, 0.2, 0.1, 0.2, 0.05, "e"))

    kac_word = (1, 1, 0)
    mean = exact.exact_mean_return(chain, kac_word)
    yield ("E*mu scaled by 1 + 1e-6", checks.check_kac(mean, kac_word, P=chain.P, pi=checks.stationary(chain.P)),
           checks.check_kac(mean * (1 + 1e-6), kac_word, P=chain.P, pi=checks.stationary(chain.P)))

    short = (1, 0)
    curve = exact.exact_survival(exact.build_product_chain(chain, short), 20).values
    ref = checks.transfer_survival(chain.P, checks.stationary(chain.P), short, 20)
    bumped = curve.copy()
    bumped[7] += 1e-10
    yield ("survival curve + 1e-10", checks.check_close(curve, ref, 1e-12, "c"),
           checks.check_close(bumped, ref, 1e-12, "c"))
    rising = curve.copy()
    rising[5] = rising[4] + 1e-9
    yield ("survival curve rises", checks.check_survival_curve(curve, "s"),
           checks.check_survival_curve(rising, "s"))

    r1 = models.renyi_entropy(chain, 1.0)
    yield ("R(s) scaled by 1 + 1e-9", checks.check_renyi(r1, chain.P, 1.0, 1e-10, "r"),
           checks.check_renyi(r1 * (1 + 1e-9), chain.P, 1.0, 1e-10, "r"))
    log_z = [models.partition_sum_exact(chain, n, 1.0) for n in range(4, 15)]
    yield ("log Z_n increments off R(s)", checks.check_partition_increments(log_z, r1, 1.0, 2e-3, "z"),
           checks.check_partition_increments(log_z, r1 + 0.01, 1.0, 2e-3, "z"))

    yield ("tail estimates not decreasing", checks.check_tail_estimates([0.3, 0.2, 0.1], "a"),
           checks.check_tail_estimates([0.3, 0.1, 0.2], "a"))

    rng = np.random.default_rng(5)
    raw = np.packbits(rng.random(8 * 4096) < 0.3).tobytes()
    seqs = {m: streams.ingest(raw, streams.named_map(m)) for m in ("byte", "nibble", "bit")}
    flipped = bytearray(raw)
    flipped[100] ^= 0x10
    flipped = bytes(flipped)
    yield ("one flipped input byte (re-pack)",
           checks.check_repack(raw, seqs["byte"], seqs["nibble"], seqs["bit"], "b"),
           checks.check_repack(flipped, seqs["byte"], seqs["nibble"], seqs["bit"], "b"))
    flipped_bits = streams.ingest(flipped, streams.named_map("bit"))
    counts = streams.window_counts(seqs["bit"], 6)
    yield ("one flipped input byte (window counts)",
           checks.check_window_counts(counts, seqs["bit"], 6, 2, "n"),
           checks.check_window_counts(counts, flipped_bits, 6, 2, "n"))

    seq = seqs["bit"]
    n, starts_per_n, seed = 6, 50, 9
    row = streams.ow_entropy_estimate(seq, [n], starts_per_n=starts_per_n, seed=seed).rows[0]
    taus = checks.next_repeats(checks.window_codes(seq, n, 2), checks.ow_starts(len(seq), n, starts_per_n, seed))
    shifted = [t + 1 if t is not None else None for t in taus]
    yield ("OW recurrence times +1", checks.check_ow(row, taus, n, "o"), checks.check_ow(row, shifted, n, "o"))
    yield ("estimate off by more than tol", checks.check_within(0.60, 0.61, 0.05, "x"),
           checks.check_within(0.50, 0.61, 0.05, "x"))


def main() -> int:
    bad = 0
    for name, clean, perturbed in cases():
        ok = not clean and bool(perturbed)
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {name}: true result {'passes' if not clean else clean}; "
              f"perturbed {'fails' if perturbed else 'passes'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
