import numpy as np
import pytest

from berknash import (
    InfeasibleLPError,
    LinearProgram,
    MDPInstance,
    UnboundedLPError,
    mixture_kernel,
    simplex_solve,
    value_iteration,
)
from berknash.planning import build_primal_lp
from _helpers import enumerate_lp_vertices


def test_box_lp():
    lp = LinearProgram(
        objective=[1.0],
        constraints=[[1.0]],
        rhs=[1.0],
        senses=("<=",),
        lower_bounds=[0.0],
        maximize=True,
    )
    sol = simplex_solve(lp)
    assert sol.objective == pytest.approx(1.0, abs=1e-12)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-12)


def test_redundant_equality_rows_terminate():
    # x + y = 1 stated twice, maximize x
    lp = LinearProgram(
        objective=[1.0, 0.0],
        constraints=[[1.0, 1.0], [1.0, 1.0]],
        rhs=[1.0, 1.0],
        senses=("=", "="),
        lower_bounds=[0.0, 0.0],
        maximize=True,
    )
    sol = simplex_solve(lp)
    assert sol.objective == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-12)


def test_degenerate_rhs_zero():
    # feasible region pinched at the origin in one coordinate
    lp = LinearProgram(
        objective=[1.0, 1.0],
        constraints=[[1.0, -1.0], [1.0, 1.0]],
        rhs=[0.0, 2.0],
        senses=("<=", "<="),
        lower_bounds=[0.0, 0.0],
        maximize=True,
    )
    sol = simplex_solve(lp)
    assert sol.objective == pytest.approx(2.0, abs=1e-10)


def test_infeasible_reports_certificate():
    lp = LinearProgram(
        objective=[1.0],
        constraints=[[1.0]],
        rhs=[-1.0],
        senses=("<=",),
        lower_bounds=[0.0],
        maximize=True,
    )
    with pytest.raises(InfeasibleLPError) as err:
        simplex_solve(lp)
    assert err.value.certificate > 0.0


def test_unbounded_reports_ray():
    lp = LinearProgram(
        objective=[1.0, 0.0],
        constraints=[[0.0, 1.0]],
        rhs=[1.0],
        senses=("<=",),
        lower_bounds=[0.0, 0.0],
        maximize=True,
    )
    with pytest.raises(UnboundedLPError) as err:
        simplex_solve(lp)
    assert err.value.ray_index == 0


@pytest.mark.parametrize("eps", np.linspace(0.05, 0.45, 8)[[5, 7]].tolist())
def test_phase1_drift_is_not_unbounded(eps):
    # Bounded value-form LPs whose phase 1 meets an improving column with no
    # positive entry (reduced cost just past OPT_TOL): rounding drift, since
    # the artificial mass cannot fall below 0, not an unbounded ray.
    rng = np.random.default_rng(7)
    S, A = 40, 4
    kernel = np.maximum(rng.dirichlet(np.full(S, 0.3), size=(S, A)), 1e-6)
    kernel /= kernel.sum(axis=2, keepdims=True)
    m = MDPInstance(kernel, rng.uniform(-1, 1, size=(S, A)), 0.95, np.full(S, 1 / S))
    m_k = m.with_kernel(mixture_kernel(m, eps).kernel)
    sol = simplex_solve(build_primal_lp(m_k))
    assert abs(sol.objective - value_iteration(m_k).sum()) <= 1e-7


def test_free_variables_and_minimization():
    # min x + y subject to x + y >= -3 with both variables free
    lp = LinearProgram(
        objective=[1.0, 1.0],
        constraints=[[1.0, 1.0]],
        rhs=[-3.0],
        senses=(">=",),
        lower_bounds=[-np.inf, -np.inf],
        maximize=False,
    )
    sol = simplex_solve(lp)
    assert sol.objective == pytest.approx(-3.0, abs=1e-10)


def test_finite_lower_bounds_shift():
    # min x subject to x >= 2 via the variable bound alone
    lp = LinearProgram(
        objective=[1.0],
        constraints=[[1.0]],
        rhs=[10.0],
        senses=("<=",),
        lower_bounds=[2.0],
        maximize=False,
    )
    sol = simplex_solve(lp)
    assert sol.x[0] == pytest.approx(2.0, abs=1e-12)


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(42)
    solved = 0
    for _ in range(40):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(2, 7))
        A = rng.normal(size=(k, n))
        b = rng.uniform(0.5, 2.0, size=k)  # origin feasible
        cap = np.ones((1, n))
        A_ub = np.vstack([A, cap])
        b_ub = np.concatenate([b, [float(n)]])  # bounded region
        c = rng.normal(size=n)
        lp = LinearProgram(
            objective=c,
            constraints=A_ub,
            rhs=b_ub,
            senses=("<=",) * (k + 1),
            lower_bounds=np.zeros(n),
            maximize=True,
        )
        sol = simplex_solve(lp)
        oracle = enumerate_lp_vertices(c, A_ub, b_ub, maximize=True)
        assert oracle is not None
        assert sol.objective == pytest.approx(oracle, abs=1e-8)
        solved += 1
    assert solved == 40


def test_mixed_senses_against_vertex_oracle():
    rng = np.random.default_rng(7)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        A = rng.normal(size=(3, n))
        b = rng.uniform(0.5, 2.0, size=3)
        cap = np.ones((1, n))
        c = rng.normal(size=n)
        # region {Ax <= b, sum x <= n, x >= 0} with one redundant row restated as >=
        lp = LinearProgram(
            objective=c,
            constraints=np.vstack([A, cap, -A[:1]]),
            rhs=np.concatenate([b, [float(n)], [-b[0]]]),
            senses=("<=",) * 4 + (">=",),
            lower_bounds=np.zeros(n),
            maximize=True,
        )
        sol = simplex_solve(lp)
        oracle = enumerate_lp_vertices(c, np.vstack([A, cap]), np.concatenate([b, [float(n)]]))
        assert sol.objective == pytest.approx(oracle, abs=1e-8)


def test_dimension_validation():
    with pytest.raises(ValueError, match="inconsistent dimensions"):
        LinearProgram(
            objective=[1.0, 2.0],
            constraints=[[1.0]],
            rhs=[1.0],
            senses=("<=",),
            lower_bounds=[0.0, 0.0],
        )
    with pytest.raises(ValueError, match="one sense per constraint row"):
        LinearProgram(
            objective=[1.0],
            constraints=[[1.0]],
            rhs=[1.0],
            senses=("<=", "<="),
            lower_bounds=[0.0],
        )
