"""
Exact return-time laws on small words
=====================================

Everything here is computed to machine precision from the absorbing
product chain: no sampling, no asymptotics.
"""
import numpy as np

from hitstat import (
    ENTRANCE,
    RETURN,
    build_product_chain,
    builtin_model,
    cylinder_measure,
    entrance_return_residual,
    exact_mean_return,
    exact_survival,
)

fair = builtin_model("fair-coin")
chain = builtin_model("two-state-chain")

# Kac: the expected return time is exactly 1/mu(B), whatever B is
print("word   model        mu(B)        E_B[tau]     E*mu-1")
for model, name in ((fair, "fair"), (chain, "chain")):
    for word in ("1", "01", "11", "0110", "00000"):
        mu = cylinder_measure(model, word)
        mean = exact_mean_return(model, word)
        print(f"{word:<6} {name:<12} {mu:<12.6f} {mean:<12.6f} {mean * mu - 1:+.2e}")

# entrance and return laws differ for self-overlapping words: "11" can
# return after a single step, so its conditional law front-loads mass
ent = exact_survival(build_product_chain(fair, "11", ENTRANCE), m_max=10)
ret = exact_survival(build_product_chain(fair, "11", RETURN), m_max=10)
print("\nm      P(tau > m)  entrance   return")
for m in range(6):
    print(f"{m:<6} {'':<11} {ent.values[m]:<10.6f} {ret.values[m]:<10.6f}")

# the two laws are tied together by a summation identity at every k;
# the worst defect over k <= 200 is pure floating-point noise
for model, name in ((fair, "fair"), (chain, "chain")):
    r = entrance_return_residual(model, "0110", 200)
    print(f"entrance/return identity defect on '0110' ({name}): {r:.2e}")

ent.to_csv("entrance_11.csv")
ret.to_csv("return_11.csv")
print("\nwrote entrance_11.csv, return_11.csv")
