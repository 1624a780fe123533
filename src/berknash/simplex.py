"""Dense tableau simplex for the small LPs built by the planning module.

Two-phase method with Bland's anti-cycling rule. Instances here are tiny
(tens of variables), so one dense tableau serves both phases, with no
sparsity or revised-simplex machinery. It holds the standard-form columns
only: no artificial may ever enter, so phase 1's basis holds them as indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
OPT_TOL = 1e-9


class InfeasibleLPError(ValueError):
    """Phase 1 terminated with artificials still carrying mass."""

    def __init__(self, certificate: float):
        super().__init__(f"LP infeasible: phase-1 optimum {certificate:.6g} > 0")
        self.certificate = certificate


class UnboundedLPError(ValueError):
    """An improving column admits an unbounded ray."""

    def __init__(self, ray_index: int):
        super().__init__(f"LP unbounded along variable {ray_index}")
        self.ray_index = ray_index


@dataclass(frozen=True)
class LinearProgram:
    """General-form LP: optimize objective @ x subject to row constraints.

    ``senses[i]`` is one of "<=", ">=", "=". ``lower_bounds[j]`` is a finite
    lower bound or ``-inf`` for a free variable; there are no upper bounds.
    """

    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray
    senses: tuple[str, ...]
    lower_bounds: np.ndarray
    maximize: bool = False

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        A = np.atleast_2d(np.asarray(self.constraints, dtype=float))
        b = np.asarray(self.rhs, dtype=float)
        lb = np.asarray(self.lower_bounds, dtype=float)
        senses = tuple(self.senses)
        if A.shape != (b.shape[0], c.shape[0]):
            raise ValueError(
                f"inconsistent dimensions: A{A.shape}, b{b.shape}, c{c.shape}"
            )
        if lb.shape != c.shape:
            raise ValueError("lower_bounds must match the number of variables")
        if len(senses) != b.shape[0]:
            raise ValueError("one sense per constraint row is required")
        bad = set(senses) - {"<=", ">=", "="}
        if bad:
            raise ValueError(f"unknown row senses: {sorted(bad)}")
        if not (
            np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))
        ):
            raise ValueError("LP coefficients must be finite")
        for arr in (c, A, b, lb):
            arr.setflags(write=False)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraints", A)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "senses", senses)
        object.__setattr__(self, "lower_bounds", lb)

    @property
    def num_vars(self) -> int:
        return self.objective.shape[0]

    @property
    def num_rows(self) -> int:
        return self.rhs.shape[0]


@dataclass(frozen=True)
class SimplexSolution:
    x: np.ndarray
    objective: float
    iterations: int


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    # only rows with a nonzero entry in ``col``: subtracting a zero multiple
    # from the others could still turn their -0.0 entries into 0.0
    rows = T[:, col].nonzero()[0]
    rows = rows[rows != row]
    T[rows] -= T[rows, col, None] * T[row]
    basis[row] = col


def _bland_iterate(T: np.ndarray, basis: np.ndarray, ray_map=None) -> int:
    """Run Bland-rule pivots until optimal; return iteration count.

    T[-1, :-1] holds the reduced costs and T[-1, -1] minus the current
    objective value. Every column of T may enter; a basic artificial, which
    may not, is only its index (past T's columns) in ``basis``. ``ray_map``
    maps a standard column to an unbounded ray's variable; phase 1 passes none.
    """
    iterations = 0
    max_iters = 200 * (T.shape[0] + T.shape[1]) + 10_000
    skipped = np.zeros(T.shape[1] - 1, dtype=bool)
    while True:
        improving = (T[-1, :-1] < -OPT_TOL) & ~skipped
        entering = improving.argmax()
        if not improving[entering]:
            return iterations
        col = T[:-1, entering]
        rows = (col > PIVOT_TOL).nonzero()[0]
        # basic values can drift a few ulp below zero; a negative ratio would
        # pivot the tableau infeasible, so clamp before the ratio test
        ratios = np.maximum(T[rows, -1], 0.0) / col[rows]
        best = ratios.min(initial=np.inf)
        if not np.isfinite(best):
            if ray_map is not None:
                raise UnboundedLPError(int(ray_map[entering]))
            # Phase 1's objective (artificial mass) is bounded below by 0, so
            # an improving column with no positive entry is drift: skip it.
            skipped[entering] = True
            continue
        # Leaving rule: minimum ratio, exact ties broken by smallest basis
        # index (the other half of Bland's rule).
        tied = rows[ratios == best]
        _pivot(T, basis, tied[basis[tied].argmin()], entering)
        skipped[:] = False
        iterations += 1
        if iterations > max_iters:
            raise RuntimeError("simplex failed to terminate (pivot cap reached)")


def _objective_row(T: np.ndarray, cost: np.ndarray, basic_cost: np.ndarray) -> None:
    T[-1, :-1] = cost
    T[-1, -1] = 0.0
    # row by row, in row order: a matrix product would sum in another order
    for i in basic_cost.nonzero()[0]:
        T[-1] -= basic_cost[i] * T[i]


def simplex_solve(lp: LinearProgram) -> SimplexSolution:
    """Solve ``lp`` by two-phase dense tableau simplex with Bland's rule.

    Raises InfeasibleLPError / UnboundedLPError, or ValueError on drift;
    otherwise the returned point satisfies all rows within OPT_TOL (relative
    to the largest right-hand side, at least 1) and reduced costs >= -OPT_TOL.
    """
    n = lp.num_vars
    m = lp.num_rows

    # Standard form: shift finite lower bounds to 0, split each free variable
    # into adjacent plus and minus columns (Bland's rule depends on the
    # column order), append one slack/surplus column per inequality row.
    free = ~np.isfinite(lp.lower_bounds)
    shift = np.where(free, 0.0, lp.lower_bounds)
    split = np.repeat(np.arange(n), np.where(free, 2, 1))  # variable of each column
    sign = np.ones(split.size)
    sign[1:][split[1:] == split[:-1]] = -1.0  # the minus column of a free variable
    n_split = split.size
    senses = np.array(lp.senses)
    slack_rows = (senses != "=").nonzero()[0]
    n_std = n_split + slack_rows.size

    b_std = lp.rhs - lp.constraints @ shift
    c_std = np.zeros(n_std)
    c_std[:n_split] = sign * lp.objective[split]
    if lp.maximize:
        c_std = -c_std
    ray_map = np.concatenate([split, np.arange(n_split, n_std)])

    # Phase 1: rows with b >= 0, artificial basis, minimize artificial mass.
    T = np.zeros((m + 1, n_std + 1))
    T[:m, :n_split] = sign * lp.constraints[:, split]
    T[slack_rows, np.arange(n_split, n_std)] = np.where(
        senses[slack_rows] == "<=", 1.0, -1.0
    )
    T[:m, -1] = b_std
    T[:m][b_std < 0.0] *= -1.0
    basis = np.arange(n_std, n_std + m)
    _objective_row(T, np.zeros(n_std), np.ones(m))
    iters = _bland_iterate(T, basis)

    phase1_obj = -T[-1, -1]
    if phase1_obj > OPT_TOL * max(1.0, np.abs(b_std).max()):
        raise InfeasibleLPError(float(phase1_obj))

    # Drive lingering artificials out of the basis; drop redundant rows.
    keep = np.ones(m, dtype=bool)
    for i in (basis >= n_std).nonzero()[0]:
        nonzero = (np.abs(T[i, :-1]) > PIVOT_TOL).nonzero()[0]
        if nonzero.size:
            _pivot(T, basis, i, nonzero[0])
        else:
            keep[i] = False
    if not keep.all():
        T = np.vstack([T[:m][keep], T[-1:]])
        basis = basis[keep]
        m = int(keep.sum())

    # Phase 2 on the original objective.
    _objective_row(T, c_std, c_std[basis])
    iters += _bland_iterate(T, basis, ray_map=ray_map)

    x_std = np.zeros(n_std)
    x_std[basis] = T[:m, -1]
    x = shift.copy()
    # unbuffered and in column order, so x[j] sums its columns as a loop would
    np.add.at(x, split, sign * x_std[:n_split])

    residual = _feasibility_residual(lp, x)
    if residual > OPT_TOL * max(1.0, np.abs(lp.rhs).max()):
        raise ValueError(f"simplex produced residual {residual:.3g} (tableau drift)")
    return SimplexSolution(x=x, objective=float(lp.objective @ x), iterations=iters)


def _feasibility_residual(lp: LinearProgram, x: np.ndarray) -> float:
    gap = lp.constraints @ x - lp.rhs
    senses = np.array(lp.senses)
    violation = np.where(senses == "=", np.abs(gap), np.where(senses == "<=", gap, -gap))
    finite = np.isfinite(lp.lower_bounds)
    bound_gap = lp.lower_bounds[finite] - x[finite]
    return float(max(violation.max(initial=0.0), bound_gap.max(initial=0.0)))
