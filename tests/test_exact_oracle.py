"""Exact re-verification of the benchmark3 duality audit.

Every other check compares floats with floats, so an error that both sides
share would pass. Here each model's optimal values come from Howard policy
iteration in rationals (``fractions.Fraction``) on the float64 data: every
kernel entry, reward, discount and initial weight is read exactly as the
float it is, so the only error left in the comparison is the solvers'.
"""

import csv
from fractions import Fraction

from berknash import build_dual_lp, config_from_dict, run_experiment, simplex_solve

REL_TOL = Fraction(1e-12)


def _solve(matrix, rhs):
    """The solution of a nonsingular linear system, by Gauss-Jordan elimination."""
    n = len(rhs)
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if rows[i][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c] / rows[c][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def exact_optimum(m):
    """Model ``m``'s optimal values v* and greedy action sets, exactly.

    Howard policy iteration from the all-zeros policy: evaluate the policy
    by solving (I - beta P_pi) v = r_pi, then switch each state to its first
    best action unless its current one is also best. It stops when no state
    switches, at most once per deterministic policy.
    """
    S, A = m.num_states, m.num_actions
    P = [[[Fraction(p) for p in m.kernel[x, a].tolist()] for a in range(A)] for x in range(S)]
    r = [[Fraction(v) for v in m.rewards[x].tolist()] for x in range(S)]
    beta = Fraction(m.discount)
    policy = [0] * S
    for _ in range(A**S):
        v = _solve([[int(x == y) - beta * P[x][policy[x]][y] for y in range(S)]
                    for x in range(S)], [r[x][policy[x]] for x in range(S)])
        q = [[r[x][a] + beta * sum(p * vy for p, vy in zip(P[x][a], v)) for a in range(A)]
             for x in range(S)]
        best = [max(qx) for qx in q]
        improved = [a if q[x][a] == best[x] else q[x].index(best[x])
                    for x, a in enumerate(policy)]
        if improved == policy:
            return v, [{a for a in range(A) if q[x][a] == best[x]} for x in range(S)]
        policy = improved
    raise AssertionError("policy iteration cycled")


def _close(value: float, exact: Fraction) -> bool:
    return abs(Fraction(value) - exact) <= REL_TOL * abs(exact)


def test_duality_audit_matches_exact_optimum(tmp_path):
    cfg = config_from_dict({"experiment": "duality-audit", "output_dir": str(tmp_path)})
    artifacts = run_experiment(cfg)
    with open(artifacts.csv_paths["duality"], encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["label"] for row in rows] == [q.label for q in cfg.conjectures]
    mu0 = [Fraction(w) for w in cfg.instance.initial_dist.tolist()]
    S, A = cfg.instance.num_states, cfg.instance.num_actions
    for row, member in zip(rows, cfg.conjectures):
        m_k = cfg.instance.with_kernel(member.kernel)
        v, greedy = exact_optimum(m_k)
        # benchmark3's verdict: every model holds states 0 and 1 and gambles in state 2
        assert greedy == [{0}, {0}, {1}], member.label
        total, weighted = sum(v), sum(w * vx for w, vx in zip(mu0, v))
        for column, exact in (("primal_objective", total), ("vi_sum_values", total),
                              ("dual_objective", weighted), ("vi_mu0_weighted", weighted)):
            assert _close(float(row[column]), exact), (member.label, column)

        # the optimal occupation measure puts mass on exactly greedy pairs only
        eta = simplex_solve(build_dual_lp(m_k)).x.reshape(S, A)
        support = {(x, a) for x in range(S) for a in range(A) if eta[x, a] > 0.0}
        assert support <= {(x, a) for x in range(S) for a in greedy[x]}, member.label
