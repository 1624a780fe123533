import numpy as np
import pytest

from berknash import (
    InfeasibleLPError,
    LinearProgram,
    MDPInstance,
    UnboundedLPError,
    benchmark3,
    mixture_kernel,
    simplex_solve,
    value_iteration,
)
from berknash.planning import build_dual_lp, build_primal_lp
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


def test_unbounded_ray_along_minus_column_names_the_variable():
    # min x0 subject to x1 <= 1, x0 free: the ray runs down the minus column
    # of x0 (standard column 1), and the error names the original variable 0
    lp = LinearProgram(
        objective=[1.0, 0.0],
        constraints=[[0.0, 1.0]],
        rhs=[1.0],
        senses=("<=",),
        lower_bounds=[-np.inf, 0.0],
    )
    with pytest.raises(UnboundedLPError) as err:
        simplex_solve(lp)
    assert err.value.ray_index == 0


def test_leaving_tie_goes_to_the_smallest_basis_index():
    # max x0 + 2 x1: the last pivot's ratio test ties rows 0 and 1 (ratio 3)
    # while their basic columns are 2 and 0; Bland's rule takes row 1, and
    # taking the first tied row instead costs a fifth pivot
    lp = LinearProgram(
        objective=[1.0, 2.0],
        constraints=[[1.0, 1.0], [2.0, -1.0], [2.0, 1.0]],
        rhs=[2.0, 1.0, 2.0],
        senses=("<=",) * 3,
        lower_bounds=[0.0, 0.0],
        maximize=True,
    )
    sol = simplex_solve(lp)
    assert sol.iterations == 4
    np.testing.assert_array_equal(sol.x, [0.0, 2.0])


def test_zero_row_artificial_is_driven_out():
    # max x0 + x1 subject to x1 = 1, -x0 = 0: phase 1 pivots x1 in for row 0
    # and stops with row 1's artificial basic at level 0; the drive-out loop
    # then pivots x0 into row 1 before phase 2, which needs no pivot
    lp = LinearProgram(
        objective=[1.0, 1.0],
        constraints=[[0.0, 1.0], [-1.0, 0.0]],
        rhs=[1.0, 0.0],
        senses=("=", "="),
        lower_bounds=[0.0, 0.0],
        maximize=True,
    )
    sol = simplex_solve(lp)
    np.testing.assert_array_equal(sol.x, [0.0, 1.0])
    assert sol.objective == 1.0
    assert sol.iterations == 1


def test_benchmark3_pivot_counts():
    # Bland's rule fixes the pivot path, so these counts move only if the
    # pivot rule, the column order or the tableau arithmetic does
    m, conjectures = benchmark3()
    primal, dual = [], []
    for q in conjectures:
        m_k = m.with_kernel(q.kernel)
        primal.append(simplex_solve(build_primal_lp(m_k)).iterations)
        dual.append(simplex_solve(build_dual_lp(m_k)).iterations)
    assert primal == [9, 9, 8, 8]
    assert dual == [4, 4, 4, 4]


DRIFT_EPS = np.linspace(0.05, 0.45, 8)[[5, 7]].tolist()


@pytest.mark.parametrize("eps, pivots", zip(DRIFT_EPS, (1016, 917)), ids=map(str, DRIFT_EPS))
def test_phase1_drift_is_not_unbounded(eps, pivots):
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
    assert sol.iterations == pivots


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
