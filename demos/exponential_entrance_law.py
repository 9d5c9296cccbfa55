"""
The rescaled entrance law is exponential
========================================

Sample entrance times into a fixed word, rescale by the word's measure,
and compare with exp(-t): the exact curve, the empirical curve and a
KS test all tell the same story once the word is long enough.
"""
import numpy as np

from hitstat import (
    ENTRANCE,
    build_product_chain,
    builtin_model,
    dkw_epsilon,
    empirical_survival,
    fit_survival_shape,
    survival_at,
)

fair = builtin_model("fair-coin")
word = (1, 0, 1, 1, 0, 0, 1, 0)   # length 8, mu = 2^-8

grid = np.linspace(0.2, 4.0, 20)
exp8 = empirical_survival(fair, word, N=4000, t_grid=grid, seed=42)
chain = build_product_chain(fair, word, ENTRANCE)

print(f"N=4000 entrance times into {''.join(map(str, word))}, cap={exp8.cap}, "
      f"censored={len(exp8.censored)}")
print(f"KS distance to unit exponential: {exp8.ks:.4f}")
band = dkw_epsilon(4000, alpha=0.001)
print(f"DKW 99.9% band half-width at N=4000: {band:.4f}")

print("\n  t      empirical  exact      e^-t")
curve = exp8.curve
exact = survival_at(chain, curve.m[::4])
for t, v, x in zip(curve.t[::4], curve.values[::4], exact):
    print(f"  {t:<6.2f} {v:<10.4f} {x:<10.4f} {np.exp(-t):.4f}")

# run words are the classic exception: 1111... can re-enter one step
# after itself, which halves the effective decay rate
run_word = (1,) * 8
exp_run = empirical_survival(fair, run_word, N=4000, t_grid=grid, seed=42)
print(f"\nsame experiment on 11111111: KS = {exp_run.ks:.4f} "
      "(the law is exp(-t/2)-like, not exp(-t))")

# the fitted decay rate of the exact curve makes the same point
for w in (word, run_word):
    report = fit_survival_shape(fair, w, np.linspace(0.25, 4.0, 16))
    print(f"fitted rate for {''.join(map(str, w))}: {report.rate:.3f} "
          f"(floor {report.floor:.4f}, bound holds: {report.bound_holds})")

exp8.curve.to_csv("empirical_survival_8.csv")
print("\nwrote empirical_survival_8.csv")
