"""
Entropy from raw data
=====================

Generate symbol streams from known models, then pretend we only have
the data: recurrence times recover the Shannon entropy, n-gram
frequencies recover the Renyi entropy function.
"""
import numpy as np

from hitstat import (
    OrbitStream,
    builtin_model,
    ingest,
    named_map,
    ow_entropy_estimate,
    plugin_renyi_estimate,
    renyi_entropy,
    shannon_entropy,
)

chain = builtin_model("two-state-chain")
h = shannon_entropy(chain)
seq = OrbitStream(chain, (7, 0)).take(500_000)

series = ow_entropy_estimate(seq, [6, 10, 14], starts_per_n=300, seed=1)
print(f"two-state chain, h = {h:.4f} nats, 5*10^5 symbols")
print("n     OW estimate  stderr   censored")
for row in series.rows:
    print(f"{row.n:<5} {row.estimate_nats:<12.4f} {row.stderr:<8.4f} "
          f"{row.censored_fraction:.3f}")
series.to_csv("ow_series.csv")

# the plug-in estimator reads the Renyi entropy from the same data
biased = builtin_model("biased-coin")
seq_b = OrbitStream(biased, (7, 1)).take(500_000)
print("\nbiased coin, plug-in vs exact R(s) at n = 8")
for s in (0.5, 1.0, 2.0):
    est = plugin_renyi_estimate(seq_b, n=8, s=s)
    print(f"s={s:<4} estimate {est:.4f}   exact {renyi_entropy(biased, s):.4f}")

# byte plumbing: pack the bit stream into bytes, read it back through
# the bit map, and the estimator sees the identical sequence
data = np.packbits(seq[:80_000]).tobytes()
symbols = ingest(data, named_map("bit"))
assert np.array_equal(symbols, seq[:80_000])
print(f"\nround trip through bytes: {len(data)} bytes -> {len(symbols)} bit symbols")
est = ow_entropy_estimate(symbols, [12], starts_per_n=200, seed=3).rows[0]
print(f"OW on the repacked stream, n=12: {est.estimate_nats:.4f} (h = {h:.4f})")
