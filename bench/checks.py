"""Output checks for one pipeline run.

Every check compares floats with a tolerance; nothing is compared against a
stored byte digest, so a correct numerical change (say, a different planner
that moves values in the 11th digit) still passes. Byte identity is only
required between passes of the same benchmark run.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

GAP_TOL = 1e-8
ROW_SUM_TOL = 1e-9


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def csv_digest(out_dir: Path) -> tuple[str, int]:
    """SHA-256 over the run directory's CSV files, and their total size."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(Path(out_dir).glob("*.csv")):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def _unit_interval(values, what: str) -> list[str]:
    bad = [v for v in values if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
    return [f"{what}: {len(bad)} values outside [0, 1], e.g. {bad[0]!r}"] if bad else []


def _check_case_study(out: Path, cfg: dict, expect: dict) -> list[str]:
    horizon = cfg.get("bandit", {}).get("horizon", 1500)
    freq = _rows(out / "frequencies.csv")
    trace = _rows(out / "loss_trace.csv")
    problems = []
    counts = tuple(int(r["count"]) for r in freq)
    if sum(counts) != horizon:
        problems.append(f"frequencies: counts sum to {sum(counts)}, not {horizon}")
    if len(trace) != horizon:
        problems.append(f"loss_trace: {len(trace)} rows, not {horizon}")
    problems += _unit_interval([float(r["loss"]) for r in trace], "loss_trace.loss")
    problems += _unit_interval([float(r["prob"]) for r in trace], "loss_trace.prob")
    problems += _unit_interval([float(r["oracle_loss"]) for r in freq],
                               "frequencies.oracle_loss")
    if "counts" in expect and counts != tuple(expect["counts"]):
        problems.append(f"frequencies: counts {counts}, frozen {tuple(expect['counts'])}")
    if "top_param" in expect and freq:
        top = max(freq, key=lambda r: int(r["count"]))
        if not math.isclose(float(top["param"]), expect["top_param"]):
            problems.append(f"frequencies: most pulled param {top['param']}, "
                            f"expected {expect['top_param']}")
    return problems


def _check_lambda_sweep(out: Path, cfg: dict, expect: dict) -> list[str]:
    rows = _rows(out / "sweep.csv")
    points = cfg.get("lambda_grid", {}).get("points", 33)
    problems = []
    lambdas = {r["lambda"] for r in rows}
    if len(lambdas) != points:
        problems.append(f"sweep: {len(lambdas)} lambda values, not {points}")
    row_mass: dict = {}
    for r in rows:
        pi = float(r["pi"])
        v_soft, v_reward = float(r["v_soft"]), float(r["v_reward"])
        if not (math.isfinite(v_soft) and math.isfinite(v_reward)):
            problems.append(f"sweep: non-finite value at lambda={r['lambda']}")
            break
        # The soft value adds a nonnegative entropy bonus to the reward value.
        if v_soft < v_reward - 1e-6 * max(1.0, abs(v_soft)):
            problems.append(f"sweep: v_soft < v_reward at lambda={r['lambda']}")
            break
        key = (r["lambda"], r["state"])
        row_mass[key] = row_mass.get(key, 0.0) + pi
    problems += _unit_interval([float(r["pi"]) for r in rows], "sweep.pi")
    off = [k for k, total in row_mass.items() if abs(total - 1.0) > ROW_SUM_TOL]
    if off:
        problems.append(f"sweep: policy row {off[0]} does not sum to 1")
    return problems


def _check_zooming(out: Path, cfg: dict, expect: dict) -> list[str]:
    horizon = cfg.get("bandit", {}).get("horizon", 1500)
    lo, hi = cfg.get("zoom", {}).get("bounds", (0.0, 0.5))
    trace = _rows(out / "param_trace.csv")
    sizes = _rows(out / "set_size.csv")
    final = _rows(out / "final_set.csv")
    problems = []
    if len(trace) != horizon or len(sizes) != horizon:
        problems.append(f"zooming: {len(trace)}/{len(sizes)} trace rows, not {horizon}")
    params = [float(r["param"]) for r in trace]
    if any(not (lo <= p <= hi) for p in params):
        problems.append(f"param_trace: a selected param lies outside [{lo}, {hi}]")
    problems += _unit_interval([float(r["loss"]) for r in trace], "param_trace.loss")
    if not final:
        problems.append("final_set: empty")
    problems += _unit_interval([float(r["weight"]) for r in final], "final_set.weight")
    if any(int(r["num_arms"]) < 1 for r in sizes):
        problems.append("set_size: an empty arm set")
    return problems


def _check_equilibrium_report(out: Path, cfg: dict, expect: dict) -> list[str]:
    rows = _rows(out / "equilibria.csv")
    mode = cfg.get("equilibrium", {}).get("mode", "both")
    modes = ("hard", "soft") if mode == "both" else (mode,)
    tol = cfg.get("equilibrium", {}).get("tol", 1e-7)
    problems = []
    for m in modes:
        mode_rows = [r for r in rows if r["mode"] == m]
        if not mode_rows:
            problems.append(f"equilibria: no rows for mode {m}")
        accepted = {int(r["model_index"]) for r in mode_rows if r["accepted"] == "true"}
        if "only_equilibrium" in expect and accepted != {expect["only_equilibrium"]}:
            problems.append(f"equilibria: mode {m} accepts models {sorted(accepted)}, "
                            f"expected only {expect['only_equilibrium']}")
    for r in rows:
        if r["accepted"] != "true":
            continue
        residuals = [float(r[k]) for k in r if k.startswith("res_")]
        if any(not (math.isfinite(x) and x <= tol) for x in residuals):
            problems.append(f"equilibria: accepted model {r['model_index']} "
                            f"({r['mode']}) has a residual above {tol}")
    return problems


def _check_duality_audit(out: Path, cfg: dict, expect: dict) -> list[str]:
    rows = _rows(out / "duality.csv")
    problems = []
    if not rows:
        problems.append("duality: no rows")
    for r in rows:
        for col in ("primal_gap", "dual_gap"):
            gap = float(r[col])
            if not (math.isfinite(gap) and gap <= GAP_TOL):
                problems.append(f"duality: model {r['model_index']} {col} {gap:.3g} "
                                f"exceeds {GAP_TOL:g}")
        if r["occupation_policy_greedy"] != "true":
            problems.append(f"duality: model {r['model_index']} occupation policy "
                            "is not greedy")
    return problems


CHECKS = {
    "case-study": _check_case_study,
    "lambda-sweep": _check_lambda_sweep,
    "zooming": _check_zooming,
    "equilibrium-report": _check_equilibrium_report,
    "duality-audit": _check_duality_audit,
}


def check_outputs(kind: str, out_dir: Path, cfg: dict, expect: dict) -> list[str]:
    """Problems found in one pipeline's output directory; empty when correct."""
    try:
        return CHECKS[kind](Path(out_dir), cfg, expect)
    except (OSError, KeyError, ValueError) as err:
        return [f"{kind}: unreadable output: {type(err).__name__}: {err}"]
