"""Dense tableau simplex for the small LPs built by the planning module.

Two-phase method with Bland's anti-cycling rule. Instances here are tiny
(tens of variables), so the full dense tableau is the simplest correct
choice; no sparsity or revised-simplex machinery.
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
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def _bland_iterate(T: np.ndarray, basis: np.ndarray, allowed: int, ray_map=None) -> int:
    """Run Bland-rule pivots until optimal; return iteration count.

    T[-1, :-1] holds the reduced costs and T[-1, -1] minus the current
    objective value. Only columns < ``allowed`` may enter the basis, which
    keeps phase-1 artificials out of phase 2. Phase 1 passes no ``ray_map``.
    """
    m = T.shape[0] - 1
    iterations = 0
    max_iters = 200 * (T.shape[0] + T.shape[1]) + 10_000
    skipped: set[int] = set()
    while True:
        red = T[-1, :allowed]
        entering = -1
        for j in range(allowed):
            if red[j] < -OPT_TOL and j not in skipped:
                entering = j
                break
        if entering < 0:
            return iterations
        ratios = np.full(m, np.inf)
        col = T[:m, entering]
        pos = col > PIVOT_TOL
        # basic values can drift a few ulp below zero; a negative ratio would
        # pivot the tableau infeasible, so clamp before the ratio test
        ratios[pos] = np.maximum(T[:m, -1][pos], 0.0) / col[pos]
        # Leaving rule: minimum ratio, exact ties broken by smallest basis
        # index (the other half of Bland's rule).
        best = np.inf
        leave = -1
        for i in range(m):
            if not np.isfinite(ratios[i]):
                continue
            if leave < 0 or ratios[i] < best or (
                ratios[i] == best and basis[i] < basis[leave]
            ):
                best = ratios[i]
                leave = i
        if leave < 0:
            if ray_map is not None:
                raise UnboundedLPError(ray_map(entering))
            # Phase 1's objective (artificial mass) is bounded below by 0, so
            # an improving column with no positive entry is drift: skip it.
            skipped.add(entering)
            continue
        _pivot(T, basis, leave, entering)
        skipped.clear()
        iterations += 1
        if iterations > max_iters:
            raise RuntimeError("simplex failed to terminate (pivot cap reached)")


def _objective_row(T: np.ndarray, basis: np.ndarray, cost: np.ndarray) -> None:
    m = T.shape[0] - 1
    T[-1, :-1] = cost
    T[-1, -1] = 0.0
    for i in range(m):
        cb = cost[basis[i]]
        if cb != 0.0:
            T[-1] -= cb * T[i]


def simplex_solve(lp: LinearProgram) -> SimplexSolution:
    """Solve ``lp`` by two-phase dense tableau simplex with Bland's rule.

    Raises InfeasibleLPError / UnboundedLPError; otherwise the returned point
    satisfies all rows within OPT_TOL (relative to the largest right-hand
    side, at least 1) and reduced costs >= -OPT_TOL.
    """
    n = lp.num_vars
    m = lp.num_rows

    # Standard form: shift finite lower bounds to 0, split free variables,
    # append one slack/surplus column per inequality row.
    shift = np.where(np.isfinite(lp.lower_bounds), lp.lower_bounds, 0.0)
    free = ~np.isfinite(lp.lower_bounds)
    cols = []  # (orig var, sign) per standard column
    for j in range(n):
        cols.append((j, 1.0))
        if free[j]:
            cols.append((j, -1.0))
    n_split = len(cols)
    n_slack = sum(1 for s in lp.senses if s != "=")
    n_std = n_split + n_slack

    A_std = np.zeros((m, n_std))
    for idx, (j, sign) in enumerate(cols):
        A_std[:, idx] = sign * lp.constraints[:, j]
    b_std = lp.rhs - lp.constraints @ shift
    slack_idx = n_split
    for i, sense in enumerate(lp.senses):
        if sense == "<=":
            A_std[i, slack_idx] = 1.0
            slack_idx += 1
        elif sense == ">=":
            A_std[i, slack_idx] = -1.0
            slack_idx += 1

    neg = b_std < 0.0
    A_std[neg] *= -1.0
    b_std = np.where(neg, -b_std, b_std)

    c_std = np.zeros(n_std)
    for idx, (j, sign) in enumerate(cols):
        c_std[idx] = sign * lp.objective[j]
    if lp.maximize:
        c_std = -c_std

    def ray_map(col: int) -> int:
        return cols[col][0] if col < n_split else col

    # Phase 1: artificial basis, minimize total artificial mass.
    T = np.zeros((m + 1, n_std + m + 1))
    T[:m, :n_std] = A_std
    T[:m, n_std:-1] = np.eye(m)
    T[:m, -1] = b_std
    basis = np.arange(n_std, n_std + m)
    cost1 = np.zeros(n_std + m)
    cost1[n_std:] = 1.0
    _objective_row(T, basis, cost1)
    iters = _bland_iterate(T, basis, allowed=n_std)

    phase1_obj = -T[-1, -1]
    if phase1_obj > OPT_TOL * max(1.0, np.abs(b_std).max()):
        raise InfeasibleLPError(float(phase1_obj))

    # Drive lingering artificials out of the basis; drop redundant rows.
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n_std:
            row = T[i, :n_std]
            nonzero = np.flatnonzero(np.abs(row) > PIVOT_TOL)
            if nonzero.size:
                _pivot(T, basis, i, int(nonzero[0]))
            else:
                keep[i] = False
    if not keep.all():
        T = np.vstack([T[:m][keep], T[-1:]])
        basis = basis[keep]
        m = int(keep.sum())

    # Phase 2 on the original objective, artificial columns excluded.
    T = np.hstack([T[:, :n_std], T[:, -1:]])
    _objective_row(T, basis, c_std)
    iters += _bland_iterate(T, basis, allowed=n_std, ray_map=ray_map)

    x_std = np.zeros(n_std)
    x_std[basis] = T[:m, -1]
    x = shift.copy()
    for idx, (j, sign) in enumerate(cols):
        x[j] += sign * x_std[idx]

    residual = _feasibility_residual(lp, x)
    if residual > OPT_TOL * max(1.0, np.abs(lp.rhs).max()):
        raise RuntimeError(f"simplex produced residual {residual:.3g} (tableau drift)")
    return SimplexSolution(x=x, objective=float(lp.objective @ x), iterations=iters)


def _feasibility_residual(lp: LinearProgram, x: np.ndarray) -> float:
    lhs = lp.constraints @ x
    worst = 0.0
    for i, sense in enumerate(lp.senses):
        gap = lhs[i] - lp.rhs[i]
        if sense == "=":
            worst = max(worst, abs(gap))
        elif sense == "<=":
            worst = max(worst, gap)
        else:
            worst = max(worst, -gap)
    finite = np.isfinite(lp.lower_bounds)
    if finite.any():
        worst = max(worst, float(np.max(lp.lower_bounds[finite] - x[finite], initial=0.0)))
    return float(worst)
