"""Experiment harness: JSON configs, the frozen benchmark instance, and
seeded end-to-end pipelines that emit CSV artifacts, a ``summary.txt`` and a
manifest.

Every pipeline is deterministic given the config and seed; CSV floats are
written with 17 significant digits so reruns are byte-identical. Each
pipeline also returns its summary lines, built from the values it just
wrote: the file ``berknash report`` prints, so no other module reads the
CSVs back.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import statistics
import time
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .equilibrium import FEAS_TOL, RESIDUAL_GROUPS, enumerate_equilibria
from .learning import BanditConfig, ZoomConfig, run_exp3, run_zoom_exp3
from .mdp import MDPInstance, policy_value, validate_instance
from .models import ConjectureSet, SubjectiveKernel, mixture_family, mixture_kernel
from .planning import (
    build_dual_lp,
    build_primal_lp,
    greedy_sets,
    policy_from_occupation,
    value_iteration,
)
from .simplex import simplex_solve
from .soft_planning import TEMPERATURE_RANGE, SoftPlanConfig, soft_best_response

ENV_OUTPUT_DIR = "BERKNASH_OUTPUT_DIR"

BENCHMARK_EPSILONS = (0.05, 0.15, 0.30, 0.45)


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


def benchmark3() -> tuple[MDPInstance, ConjectureSet]:
    """The frozen 3-state, 2-action benchmark and its mixture conjectures.

    Action 0 is conservative: rows concentrate sharply on the current state
    and rewards are mild. Action 1 is aggressive: rows spread toward state 2
    and rewards swing from a loss to a large payoff there (strictly higher
    variance). All kernel entries are positive, so the chain induced by any
    policy is irreducible and aperiodic; the optimal policy holds states 0
    and 1 conservatively and gambles only in state 2.
    """
    kernel = np.array(
        [
            [[0.998, 0.001, 0.001], [0.25, 0.25, 0.50]],
            [[0.001, 0.998, 0.001], [0.20, 0.30, 0.50]],
            [[0.001, 0.001, 0.998], [0.45, 0.35, 0.20]],
        ]
    )
    rewards = np.array(
        [
            [0.42, -0.60],
            [0.45, -0.50],
            [0.48, 1.40],
        ]
    )
    m = MDPInstance(
        kernel=kernel,
        rewards=rewards,
        discount=0.95,
        initial_dist=np.full(3, 1.0 / 3.0),
    )
    validate_instance(m)
    return m, mixture_family(m, BENCHMARK_EPSILONS)


@dataclass(frozen=True)
class LambdaGridConfig:
    """Log-spaced temperatures of the lambda sweep, planned under one model."""

    min: float = 1e-4
    max: float = 1e4
    points: int = 33
    model_index: int = 0

    def __post_init__(self):
        if self.points < 2 or not 0.0 < self.min < self.max < math.inf:
            raise ValueError("need points >= 2 and 0 < min < max < inf")

    def values(self) -> np.ndarray:
        return np.logspace(np.log10(self.min), np.log10(self.max), self.points)


@dataclass(frozen=True)
class EquilibriumConfig:
    """Enumeration modes of the equilibrium report."""

    mode: str = "both"

    def __post_init__(self):
        if self.mode not in ("hard", "soft", "both"):
            raise ValueError(f"mode must be hard, soft, or both, got {self.mode!r}")


# Config sections, each parsed into its dataclass by _build.
SECTIONS = {"soft": SoftPlanConfig, "bandit": BanditConfig, "zoom": ZoomConfig,
            "lambda_grid": LambdaGridConfig, "equilibrium": EquilibriumConfig}


def _config_fields(cls) -> list[str]:
    """A section's config keys: its fields, less ``rng_seed`` (set by ``seed`` alone)."""
    return [f.name for f in fields(cls) if f.name != "rng_seed"]


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    instance: MDPInstance
    conjectures: ConjectureSet
    soft: SoftPlanConfig
    bandit: BanditConfig
    zoom: ZoomConfig
    lambda_grid: LambdaGridConfig
    equilibrium: EquilibriumConfig
    output_dir: Path
    seed: int
    specs: dict  # the "mdp" and "conjectures" entries as given

    @property
    def resolved(self) -> dict:
        """The config with its defaults filled in, as echoed into the manifest;
        it reloads through :func:`config_from_dict` to an equal config."""
        out = {"experiment": self.kind, "seed": self.seed,
               "output_dir": str(self.output_dir), **self.specs}
        for name, cls in SECTIONS.items():
            section = {key: getattr(getattr(self, name), key) for key in _config_fields(cls)}
            # tuples (zoom.bounds) are echoed as the JSON lists they were read from
            out[name] = {k: list(v) if isinstance(v, tuple) else v for k, v in section.items()}
        return out


@dataclass(frozen=True)
class RunArtifacts:
    output_dir: Path
    manifest_path: Path
    csv_paths: dict[str, Path]


# a pipeline's artifact paths by name, and the lines of its summary.txt
_Output = tuple[dict[str, Path], list[str]]


_KINDS = {int: ("an integer", int), float: ("a number", (int, float)), str: ("a string", str)}


def _typed(value, annotation, field: str):
    """``value``, checked against a field annotation (a JSON list becomes a tuple)."""
    args = typing.get_args(annotation)
    if type(None) in args:  # ``X | None``
        if value is None:
            return None
        annotation = args[0]
    if typing.get_origin(annotation) is tuple:
        items = typing.get_args(annotation)
        if not isinstance(value, (list, tuple)) or len(value) != len(items):
            raise ConfigError(f"{field}: expected a list of {len(items)} values, got {value!r}")
        return tuple(_typed(v, a, field) for v, a in zip(value, items))
    kind, types = _KINDS[annotation]
    # bool is an int subclass, but true/false is never a number here
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{field}: expected {kind}, got {value!r}")
    # JSON as Python reads it admits NaN and Infinity
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{field}: expected a finite number, got {value!r}")
    return value


def _numbers(value, field: str):
    """``value``, a number or nested lists of numbers, checked leaf by leaf."""
    if isinstance(value, list):
        return [_numbers(v, field) for v in value]
    return _typed(value, float, field)


def _reject_unknown(spec: dict, known, prefix: str) -> None:
    unknown = set(spec) - set(known)
    if unknown:
        raise ConfigError(f"unknown fields: {', '.join(f'{prefix}.{k}' for k in sorted(unknown))}")


# a section's field annotations, resolved once per class
_type_hints = functools.cache(typing.get_type_hints)


def _build(data: dict, name: str, **preset):
    """Config section ``name`` as its dataclass, its keys laid over ``preset``.

    Unknown keys are rejected and every value is checked against its field's
    annotation; range checks are the dataclass's own.
    """
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected an object, got {type(section).__name__}")
    cls = SECTIONS[name]
    _reject_unknown(section, _config_fields(cls), name)
    hints = _type_hints(cls)
    for key, value in section.items():
        preset[key] = _typed(value, hints[key], f"{name}.{key}")
    try:
        return cls(**preset)
    except ValueError as err:
        raise ConfigError(f"{name}: {err}") from None


def _instance_from_spec(spec) -> MDPInstance:
    if spec == "benchmark3":
        return benchmark3()[0]
    if not isinstance(spec, dict):
        raise ConfigError(f"mdp: expected 'benchmark3' or inline tables, got {spec!r}")
    fields = {"kernel", "rewards", "discount", "initial_dist"}
    _reject_unknown(spec, fields, "mdp")
    missing = fields - set(spec)
    if missing:
        raise ConfigError(f"mdp: missing fields {sorted(missing)}")
    tables = {key: _numbers(spec[key], f"mdp.{key}")
              for key in ("kernel", "rewards", "initial_dist")}
    discount = _typed(spec["discount"], float, "mdp.discount")
    try:
        m = MDPInstance(discount=discount, **tables)
        validate_instance(m)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"mdp: {err}") from None
    return m


def _conjectures_from_spec(spec, m: MDPInstance) -> ConjectureSet:
    if not isinstance(spec, dict):
        raise ConfigError("conjectures: expected an object")
    _reject_unknown(spec, ("epsilons", "kernels"), "conjectures")
    if "epsilons" in spec and "kernels" in spec:
        raise ConfigError("conjectures: provide either 'epsilons' or 'kernels', not both")
    if "epsilons" in spec:
        epsilons = _numbers(spec["epsilons"], "conjectures.epsilons")
        try:
            return mixture_family(m, epsilons)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"conjectures.epsilons: {err}") from None
    if "kernels" in spec:
        if not isinstance(spec["kernels"], list):
            raise ConfigError("conjectures.kernels: expected a list of {kernel, label, param}")
        members = []
        for i, item in enumerate(spec["kernels"]):
            field = f"conjectures.kernels[{i}]"
            if not isinstance(item, dict):
                raise ConfigError(f"{field}: expected an object, got {item!r}")
            _reject_unknown(item, ("kernel", "label", "param"), field)
            label = _typed(item.get("label", f"model-{i}"), str, f"{field}.label")
            param = _typed(item.get("param"), float | None, f"{field}.param")
            if "kernel" not in item:
                raise ConfigError(f"{field}: missing field 'kernel'")
            try:
                kernel = np.asarray(_numbers(item["kernel"], "kernel"), dtype=float)
                if kernel.shape != m.kernel.shape:
                    raise ValueError(
                        f"kernel shape {kernel.shape} does not match the instance's "
                        f"{m.kernel.shape}"
                    )
                members.append(SubjectiveKernel(kernel=kernel, label=label, param=param))
            except (TypeError, ValueError) as err:
                raise ConfigError(f"{field}: {err}") from None
        try:
            return ConjectureSet(members=tuple(members))
        except ValueError as err:
            raise ConfigError(f"conjectures.kernels: {err}") from None
    raise ConfigError("conjectures: provide either 'epsilons' or 'kernels'")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Validate a parsed config and fill defaults (echoed into the manifest)."""
    if not isinstance(data, dict):
        raise ConfigError(f"top level: expected an object, got {type(data).__name__}")
    known = {"experiment", "seed", "output_dir", "mdp", "conjectures", *SECTIONS}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown top-level fields: {sorted(unknown)}")
    kind = data.get("experiment")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"experiment: must be one of {EXPERIMENT_KINDS}, got {kind!r}"
        )
    seed = _typed(data.get("seed", 11), int, "seed")
    if seed < 0:
        raise ConfigError(f"seed: must be a non-negative integer, got {seed}")

    specs = {
        "mdp": data.get("mdp", "benchmark3"),
        "conjectures": data.get("conjectures", {"epsilons": list(BENCHMARK_EPSILONS)}),
    }
    instance = _instance_from_spec(specs["mdp"])
    conjectures = _conjectures_from_spec(specs["conjectures"], instance)

    presets = {"soft": {"temperature": 0.1}, "bandit": {"rng_seed": seed}}
    sections = {name: _build(data, name, **presets.get(name, {})) for name in SECTIONS}
    lo, hi = TEMPERATURE_RANGE
    for field, value in (("soft.temperature", sections["soft"].temperature),
                         ("lambda_grid.min", sections["lambda_grid"].min),
                         ("lambda_grid.max", sections["lambda_grid"].max)):
        if not lo <= value <= hi:
            raise ConfigError(f"{field}: must lie in the supported range [{lo:g}, {hi:g}], "
                              f"got {value!r}")
    if not (0 <= sections["lambda_grid"].model_index < len(conjectures)):
        raise ConfigError("lambda_grid.model_index: out of range for conjecture set")
    # zooming searches mixture_kernel's weight, which lies in [0, 1]
    lo, hi = sections["zoom"].bounds
    if lo < 0.0 or hi > 1.0:
        raise ConfigError(f"zoom.bounds: must lie in [0, 1], got {[lo, hi]}")

    output_dir = _typed(data.get("output_dir", f"runs/{kind}"), str, "output_dir")
    output_dir = os.environ.get(ENV_OUTPUT_DIR) or output_dir
    if "\0" in output_dir:
        raise ConfigError(f"output_dir: a path cannot hold a NUL character, got {output_dir!r}")
    try:
        os.fsencode(output_dir)
    except UnicodeEncodeError as err:
        raise ConfigError(f"output_dir: the {err.encoding} file system encoding cannot name "
                          f"{output_dir!r}") from None
    return ExperimentConfig(
        kind=kind,
        instance=instance,
        conjectures=conjectures,
        output_dir=Path(output_dir),
        seed=seed,
        specs=specs,
        **sections,
    )


def read_text(path: Path) -> str:
    """The UTF-8 text of ``path``; an unreadable or undecodable file is a ConfigError."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: {err}") from None


def load_config(path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config from disk."""
    path = Path(path)
    text = read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}: parse error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    return config_from_dict(data)


def _fmt(value) -> str:
    """One CSV cell from a Python value; a numpy scalar or None is a TypeError."""
    if type(value) is float:
        return format(value, ".17g")
    if type(value) in (int, str):
        return str(value)
    if type(value) is bool:
        return "true" if value else "false"
    raise TypeError(f"CSV cell must be a Python float, int, bool or str, got {value!r}")


def _escaped(text: str) -> str:
    """``text`` with backslashes and unprintable characters escaped as in a literal."""
    return "".join(c if c.isprintable() and c != "\\" else repr(c)[1:-1] for c in text)


def _quote(cell: str) -> str:
    """``cell`` as one CSV field, quoted with inner quotes doubled if it holds
    a comma, a quote or a line break (``\\n`` or ``\\r``)."""
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _write_csv(path: Path, columns: dict) -> None:
    """Write ``columns``, a dict from name to equal-length sequence, as a CSV.

    The keys in order are the header; numpy arrays become Python values by
    ``.tolist()``. Each row is written through one %-template with a field
    per column, chosen by the column's cell types: ``%.17g`` if every cell
    is a float, ``%d`` if every cell is an int, and ``%s`` otherwise, over
    each distinct string quoted once (an all-str column) or each cell's
    ``_quote(_fmt(v))`` (any other column). Every cell so reads as ``_fmt``
    writes it, and a cell ``_fmt`` rejects raises TypeError. A file has at
    least two columns (a lone blank field would need quotes). Columns of
    unequal length raise ValueError.
    """
    fields, cells = [], []
    for column in columns.values():
        values = column.tolist() if isinstance(column, np.ndarray) else column
        kinds = set(map(type, values))
        if kinds == {float}:
            fields.append("%.17g")
        elif kinds == {int}:
            fields.append("%d")
        else:
            fields.append("%s")
            if kinds == {str}:
                # by value only here: as dict keys, 0.0 == -0.0 and True == 1
                values = map({v: _quote(v) for v in set(values)}.__getitem__, values)
            else:
                values = (_quote(_fmt(v)) for v in values)
        cells.append(values)
    template = ",".join(fields) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(_quote, columns)) + "\n")
        fh.writelines(map(template.__mod__, zip(*cells, strict=True)))


def run_experiment(cfg: ExperimentConfig) -> RunArtifacts:
    """Dispatch to the pipeline for ``cfg.kind`` and write its artifact set:
    the pipeline's CSVs, its summary lines as ``summary.txt``, and the manifest."""
    start = time.perf_counter()
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)

    paths, summary = _PIPELINES[cfg.kind](cfg, out)
    paths["summary"] = out / "summary.txt"
    paths["summary"].write_text("\n".join(summary) + "\n", encoding="utf-8")

    manifest_path = out / "manifest.json"
    manifest = {
        "experiment": cfg.kind,
        "seed": cfg.seed,
        "config": cfg.resolved,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "berknash": __version__,
        },
        "artifacts": {name: path.name for name, path in paths.items()},
        "wall_clock_seconds": time.perf_counter() - start,
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    return RunArtifacts(output_dir=out, manifest_path=manifest_path, csv_paths=paths)


def _run_case_study(cfg: ExperimentConfig, out: Path) -> _Output:
    record = run_exp3(cfg.instance, cfg.conjectures, cfg.bandit, cfg.soft)
    K = len(cfg.conjectures)
    params = ["" if p is None else p for p in record.params]
    freq_path = out / "frequencies.csv"
    _write_csv(freq_path, {
        "arm": range(K), "label": record.labels, "param": params,
        "count": np.bincount(record.arms, minlength=K),
        "frequency": record.selection_frequencies, "oracle_loss": record.oracle_losses,
    })
    arms = record.arms.tolist()
    trace_path = out / "loss_trace.csv"
    _write_csv(trace_path, {
        "t": range(1, len(arms) + 1), "arm": arms,
        "label": [record.labels[k] for k in arms], "param": [params[k] for k in arms],
        "prob": record.probs, "loss": record.losses,
        "running_mean": record.running_mean, "regret": record.regret,
    })
    summary = [f"arm {k} ({_escaped(label)}): frequency {f:.4f}"
               for k, (label, f) in enumerate(zip(record.labels, record.selection_frequencies))]
    if K > 1:
        best, second = sorted(record.oracle_losses.tolist())[:2]
        summary.append(f"oracle-loss gap, best to second-best arm: {second - best:.6g}")
    return {"frequencies": freq_path, "loss_trace": trace_path}, summary


def _run_lambda_sweep(cfg: ExperimentConfig, out: Path) -> _Output:
    member = cfg.conjectures.members[cfg.lambda_grid.model_index]
    m_theta = cfg.instance.with_kernel(member.kernel)
    lams = cfg.lambda_grid.values().tolist()
    pis, v_softs = zip(*(soft_best_response(m_theta, SoftPlanConfig(temperature=lam))[:2]
                         for lam in lams))
    # Reward-only evaluation of the softmax policy under the same
    # kernel it was planned against (no entropy bonus in either term).
    v_rewards = [policy_value(m_theta, pi) for pi in pis]
    # one row per (lambda, state, action), in that nesting order
    S, A, n = cfg.instance.num_states, cfg.instance.num_actions, len(lams)
    sweep_path = out / "sweep.csv"
    _write_csv(sweep_path, {
        "lambda": np.repeat(lams, S * A), "state": np.tile(np.repeat(np.arange(S), A), n),
        "action": np.tile(np.arange(A), n * S), "pi": np.ravel(pis),
        "v_soft": np.repeat(v_softs, A), "v_reward": np.repeat(v_rewards, A),
    })
    summary = [f"lambda {lams[i]:g}: max entropy bonus over states "
               f"{max(s - r for s, r in zip(v_softs[i].tolist(), v_rewards[i].tolist())):.9g}"
               for i in (0, -1)]
    return {"sweep": sweep_path}, summary


def _run_zooming(cfg: ExperimentConfig, out: Path) -> _Output:
    lo, hi = cfg.zoom.bounds
    initial = np.linspace(lo, hi, cfg.zoom.initial_grid).tolist()
    record = run_zoom_exp3(
        cfg.instance,
        lambda eps: mixture_kernel(cfg.instance, float(eps)),
        initial,
        cfg.bandit,
        cfg.zoom,
        cfg.soft,
    )
    t = range(1, record.losses.size + 1)
    set_sizes = record.set_sizes.tolist()
    trace_path = out / "param_trace.csv"
    _write_csv(trace_path, {
        "t": t, "param": record.selected_params, "prob": record.probs, "loss": record.losses,
        "running_mean": record.running_mean, "set_size": set_sizes,
    })
    size_path = out / "set_size.csv"
    _write_csv(size_path, {"t": t, "num_arms": set_sizes})
    final_path = out / "final_set.csv"
    _write_csv(final_path, {
        "param": record.final_params, "mean_loss": record.final_mean_losses,
        "count": record.final_counts, "weight": record.final_weights,
    })
    events = record.events
    events_path = out / "zoom_events.csv"
    _write_csv(events_path, {
        "t": [ev.t for ev in events],
        "incumbent_param": [ev.incumbent_param for ev in events],
        "num_kept": [len(ev.kept) for ev in events],
        "num_pruned_suboptimal": [sum(w == "suboptimal" for _, w in ev.pruned) for ev in events],
        "num_pruned_converged": [sum(w == "converged" for _, w in ev.pruned) for ev in events],
        "num_added": [len(ev.added) for ev in events],
    })
    tail = record.selected_params[-max(1, len(t) // 10):].tolist()
    summary = [f"final params: {[round(p, 6) for p in sorted(record.final_params)]}",
               f"median selected param, last 10%: {statistics.median(tail):.6g}"]
    return {
        "param_trace": trace_path,
        "set_size": size_path,
        "final_set": final_path,
        "zoom_events": events_path,
    }, summary


def _run_equilibrium_report(cfg: ExperimentConfig, out: Path) -> _Output:
    eq = cfg.equilibrium
    modes = ("hard", "soft") if eq.mode == "both" else (eq.mode,)
    rows = []  # (mode, diagnostic), one per CSV row
    summary = []
    for mode in modes:
        report = enumerate_equilibria(
            cfg.instance,
            cfg.conjectures,
            mode=mode,
            temperature=cfg.soft.temperature if mode == "soft" else None,
        )
        rows += [(mode, diag) for diag in report.diagnostics]
        summary.append(f"mode={mode}: {len(report.equilibria)} equilibrium(ia)")
        for e in report.equilibria:
            summary.append(
                f"  model {e.model_index} ({_escaped(e.label)}), kl_margin={e.kl_margin:.6g}, "
                f"divergence={e.divergence:.6g}"
            )
            if e.kl_margin <= FEAS_TOL:
                tied = [f"model {j} ({_escaped(cfg.conjectures.members[j].label)})"
                        for j, d_j in enumerate(e.divergence_vector)
                        if j != e.model_index and abs(d_j - e.divergence) <= FEAS_TOL]
                summary.append(
                    f"    tied in KL with {', '.join(tied)}: "
                    "beliefs mixing the tied models are not searched"
                )
    columns = {"mode": [mode for mode, _ in rows]}
    # kl_margin is None, and written blank, where the true chain is reducible
    for name in ("model_index", "label", "accepted", "kl_margin", "reason"):
        columns[name] = ["" if (v := getattr(diag, name)) is None else v for _, diag in rows]
    for k in range(len(cfg.conjectures)):
        columns[f"divergence_{k}"] = [
            "" if diag.divergence_vector is None else float(diag.divergence_vector[k])
            for _, diag in rows
        ]
    # residual columns stay blank unless the candidate was accepted
    for group in RESIDUAL_GROUPS:
        columns[f"res_{group}"] = [
            diag.feasibility.residuals[group] if diag.accepted else "" for _, diag in rows
        ]
    eq_path = out / "equilibria.csv"
    _write_csv(eq_path, columns)
    return {"equilibria": eq_path}, summary


def _run_duality_audit(cfg: ExperimentConfig, out: Path) -> _Output:
    primal_obj, vi_sum, dual_obj, vi_mu0, slackness, greedy_ok = [], [], [], [], [], []
    for member in cfg.conjectures:
        m_k = cfg.instance.with_kernel(member.kernel)
        v = value_iteration(m_k)
        lp = build_primal_lp(m_k)
        try:
            primal = simplex_solve(lp)
            dual = simplex_solve(build_dual_lp(m_k))
        except ValueError as err:
            raise ValueError(f"model {member.label!r} at discount {m_k.discount!r}: {err}") from err
        eta = dual.x.reshape(cfg.instance.num_states, cfg.instance.num_actions)
        primal_obj.append(primal.objective)
        vi_sum.append(float(v.sum()))
        dual_obj.append(dual.objective)
        vi_mu0.append(float(cfg.instance.initial_dist @ v))

        # complementary slackness: positive occupation mass must sit on
        # tight primal rows (one row per (x, a), x-major like eta)
        slack = lp.constraints @ primal.x - lp.rhs
        slackness.append(float(np.abs(slack[eta.ravel() > 1e-8]).max(initial=0.0)))

        # a state the occupation never visits imposes no greedy condition
        greedy = greedy_sets(m_k, v)
        pi = policy_from_occupation(eta)
        greedy_ok.append(all(
            set(np.flatnonzero(pi[x] > 1e-8)) <= set(greedy[x].tolist())
            for x in np.flatnonzero(eta.sum(axis=1) > 0.0)
        ))
    primal_gap = np.abs(np.subtract(primal_obj, vi_sum)).tolist()
    dual_gap = np.abs(np.subtract(dual_obj, vi_mu0)).tolist()
    path = out / "duality.csv"
    _write_csv(path, {
        "model_index": range(len(cfg.conjectures)),
        "label": [member.label for member in cfg.conjectures],
        "primal_objective": primal_obj, "vi_sum_values": vi_sum,
        "dual_objective": dual_obj, "vi_mu0_weighted": vi_mu0,
        "primal_gap": primal_gap, "dual_gap": dual_gap,
        "max_slackness_violation": slackness, "occupation_policy_greedy": greedy_ok,
    })
    summary = [f"max primal gap:  {max(primal_gap):.3e}",
               f"max dual gap:    {max(dual_gap):.3e}",
               f"max slack abuse: {max(slackness):.3e}"]
    return {"duality": path}, summary


# The pipeline of each experiment kind; config validation accepts these kinds.
_PIPELINES = {
    "case-study": _run_case_study,
    "lambda-sweep": _run_lambda_sweep,
    "zooming": _run_zooming,
    "equilibrium-report": _run_equilibrium_report,
    "duality-audit": _run_duality_audit,
}
EXPERIMENT_KINDS = tuple(_PIPELINES)
