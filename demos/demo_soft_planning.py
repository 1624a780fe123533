"""Entropy-regularized planning across temperatures.

Reproduces the qualitative temperature-sweep pictures: the softmax best
response interpolates from uniform (high temperature) to the deterministic
best response (low temperature), and the reward-only value of the policy
never increases with temperature.
"""

import numpy as np

from berknash import (
    SoftPlanConfig,
    benchmark3,
    best_response_policy,
    policy_value,
    soft_best_response,
)

m, conjectures = benchmark3()
model = conjectures.members[0]  # least misspecified conjecture
m_theta = m.with_kernel(model.kernel)

print(f"planning under {model.label}; reference state 0")
print(f"{'lambda':>10}  {'pi(a=0|0)':>10}  {'pi(a=1|0)':>10}  {'v_soft(0)':>10}  {'v_reward(0)':>11}")

for lam in np.logspace(-4, 4, 17):
    pi, v_soft, _ = soft_best_response(m_theta, SoftPlanConfig(temperature=float(lam)))
    v_reward = policy_value(m_theta, pi)  # entropy bonus excluded
    print(f"{lam:10.1e}  {pi[0, 0]:10.6f}  {pi[0, 1]:10.6f}  "
          f"{v_soft[0]:10.4f}  {v_reward[0]:11.6f}")

br = best_response_policy(m_theta)
print("\ndeterministic best response at state 0:", br[0])
print("softmax converges to it as the temperature vanishes, and to the")
print("uniform row as the temperature explodes; v_soft inflates with the")
print("entropy bonus while the reward-only value decreases monotonically.")
