"""
Orbit measure sums meet the Renyi entropy function
==================================================

The running sum W_n^s of mu(window)^s up to the entrance time grows
like exp(n(h - s R(s))).  Exact partition sums show the same R(s) from
the other side.
"""
import numpy as np

from hitstat import (
    builtin_model,
    orbit_sum_exponent_samples,
    partition_sum_exact,
    renyi_entropy,
    shannon_entropy,
)

model = builtin_model("biased-coin")
h = shannon_entropy(model)

print("s      R(s)     h-sR(s)  median (1/n)logW  (n=12, N=500)")
for s in (0.5, 1.0, 2.0):
    r = renyi_entropy(model, s)
    run = orbit_sum_exponent_samples(model, n=12, s=s, N=500, seed=11)
    med = float(np.median(run.values))
    print(f"{s:<6} {r:<8.4f} {h - s * r:<8.4f} {med:+.4f}")

# s = 0 is the plain entrance time: every orbit term contributes 1
run0 = orbit_sum_exponent_samples(model, n=12, s=0.0, N=500, seed=11)
print(f"s=0 target is h itself: {run0.target:.4f}, median {np.median(run0.values):.4f}")

# exact side: the partition slope converges to R(s); for i.i.d. models
# it lands exactly, for Markov kernels a 1/n prefactor gap remains
chain = builtin_model("two-state-chain")
print("\nslope -(1/(sn)) log Z_n(s) vs R(s), s = 1")
print("n     bernoulli gap  markov gap")
r_b = renyi_entropy(model, 1.0)
r_m = renyi_entropy(chain, 1.0)
for n in (4, 8, 12, 16):
    gb = abs(abs(partition_sum_exact(model, n, 1.0)) / n - r_b)
    gm = abs(abs(partition_sum_exact(chain, n, 1.0)) / n - r_m)
    print(f"{n:<5} {gb:<14.2e} {gm:.4f}")
