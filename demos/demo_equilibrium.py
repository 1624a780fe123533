"""Finding self-confirming model-policy pairs over a finite conjecture set.

Finds one best response per model, shows the divergence vectors that
decide statistical consistency and the KL margin each model holds over its
nearest rival, and re-checks each hit from the pair (k, pi) alone
(subjective flow, true frequencies, optimality, KL minimality).
"""

import numpy as np

from berknash import (
    SoftPlanConfig,
    benchmark3,
    check_joint_feasibility,
    entropy_bn_select,
    enumerate_equilibria,
    soft_best_response,
)

m, cs = benchmark3()
labels = [q.label for q in cs]
print("conjectures:", labels)

for mode, temp in (("hard", None), ("soft", 0.1)):
    report = enumerate_equilibria(m, cs, mode=mode, temperature=temp)
    print(f"\n--- {mode} mode ---")
    for diag in report.diagnostics:
        divs = ("-" if diag.divergence_vector is None
                else np.array2string(diag.divergence_vector, precision=5))
        margin = "-" if diag.kl_margin is None else f"{diag.kl_margin:.4g}"
        mark = "EQUILIBRIUM" if diag.accepted else diag.reason
        print(f"  model {diag.model_index} ({diag.label}): D={divs}  margin={margin}  -> {mark}")

# the smooth selection objective agrees with the enumeration
best, objective = entropy_bn_select(m, cs, temperature=0.1)
print("\nsmooth selection objective per conjecture:", np.round(objective, 6))
print("argmin:", best, f"({labels[best]})")

# dissect the accepted pair (k, pi): the checker derives the occupation
# measure, the true frequencies and model k's value itself
entry = enumerate_equilibria(m, cs, mode="soft", temperature=0.1).equilibria[0]
k, pi = entry.model_index, entry.policy
feas = check_joint_feasibility(m, cs, k, pi, temperature=0.1)
print(f"\nfeasibility residuals for the accepted pair (model {k}):")
for group, residual in feas.residuals.items():
    print(f"  {group:20s} {residual:.2e}")

# a policy that is not optimal for model k: the softmax of a hotter temperature
hot, _, _ = soft_best_response(m.with_kernel(cs.members[k].kernel), SoftPlanConfig(1.0))
broken = check_joint_feasibility(m, cs, k, hot, temperature=0.1)
print(f"\nmodel {k} with the temperature-1 policy fails:", broken.failed_groups,
      f"(gap {broken.residuals['optimality']:.3g})")

# a model that the data of pi does not favour (nor is pi optimal for it)
worst = len(cs) - 1
broken = check_joint_feasibility(m, cs, worst, pi, temperature=0.1)
print(f"model {worst} with the equilibrium policy fails:", broken.failed_groups)
