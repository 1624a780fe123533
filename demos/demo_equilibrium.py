"""Finding self-confirming model-policy pairs over a finite conjecture set.

Finds one best response per model, shows the divergence vectors that
decide statistical consistency and the KL margin each model holds over its
nearest rival, and verifies each hit through the coupled feasibility system
(subjective flow, true frequencies, policy consistency, KL minimality).
"""

import numpy as np

from berknash import (
    JointCandidate,
    benchmark3,
    check_joint_feasibility,
    entropy_bn_select,
    enumerate_equilibria,
    occupation_of_policy,
    state_action_frequencies,
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

# dissect the accepted pair through the feasibility checker
entry = enumerate_equilibria(m, cs, mode="soft", temperature=0.1).equilibria[0]
cand = JointCandidate(
    model_index=entry.model_index,
    occupation=occupation_of_policy(m.with_kernel(cs.members[entry.model_index].kernel),
                                    entry.policy),
    frequencies=state_action_frequencies(m, entry.policy),
    policy=entry.policy,
)
feas = check_joint_feasibility(m, cs, cand)
print("\nfeasibility residuals for the accepted pair:")
for group, residual in feas.residuals.items():
    print(f"  {group:20s} {residual:.2e}")

# what breaks when the frequencies are tampered with
d_bad = np.array(cand.frequencies, copy=True)
d_bad[0, 0] += 0.01
d_bad /= d_bad.sum()
broken = check_joint_feasibility(
    m, cs, JointCandidate(cand.model_index, cand.occupation, d_bad, cand.policy)
)
print("\nafter perturbing the frequencies:", broken.failed_groups)
