"""
Why the entrance law works: two tail diagnostics
================================================

First the word-averaged tail integral: the chance that an entrance
takes e^(n*eps) times longer than its measure predicts dies off with n.
Then the per-word exponential envelope with its additive floor.
"""
import numpy as np

from hitstat import builtin_model, fit_survival_shape, survival_tail_integral

fair = builtin_model("fair-coin")
chain = builtin_model("two-state-chain")

print("word-averaged tail P(tau >= e^(n*eps)/mu), eps = 0.1, 1500 words")
print("n     fair      chain")
for n in (6, 8, 10, 12):
    f = survival_tail_integral(fair, n, epsilon=0.1, n_outer=1500, seed=3)
    c = survival_tail_integral(chain, n, epsilon=0.1, n_outer=1500, seed=3)
    print(f"{n:<5} {f.estimate:<9.4f} {c.estimate:.4f}")

# a smaller eps keeps more words above the threshold, so the integrand
# sits higher at every n; the decay in n is what matters
for eps in (0.05, 0.2):
    r = survival_tail_integral(fair, 10, epsilon=eps, n_outer=1500, seed=3)
    print(f"eps={eps:<5} n=10: {r.estimate:.4f} (+- {r.std_error:.4f})")

# the floor n*mu + phi(n): phi(g) is the source's mixing coefficient across g
# transitions, 0 for the fair coin and max_i 1/2 sum_j |P^g[i,j] - pi_j| for the
# chain, (2/3) 0.7^g here; the chain's '01' floor is 2/15 + phi(2) = 0.46
print("\nper-word envelope F(t) <= exp(-rate t) + n*mu + phi(n)")
for model, name, word in ((fair, "fair", "1"), (chain, "chain", "01")):
    rep = fit_survival_shape(model, word, np.linspace(0.3, 5.0, 24))
    print(f"{name} '{word}': rate {rep.rate:.4f}, floor {rep.floor:.4f}, "
          f"holds on grid: {rep.bound_holds}")
