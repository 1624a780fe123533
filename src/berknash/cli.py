"""Command-line entry point for the experiment harness.

Subcommands::

    berknash run <config.json>        execute an experiment config
    berknash benchmark3 [--dump]      show or dump the builtin instance
    berknash report <rundir>          summarize a finished run directory

``report`` adds a per-pipeline summary: arm frequencies and the oracle-loss
gap between the two best arms for a case study, the grid's ends and the
largest entropy bonus max_x (v_soft - v_reward) at each for a lambda sweep,
the final parameters for zooming, the accepted models and their KL margins
per mode for an equilibrium report, and the worst primal, dual and
slackness gaps for a duality audit.

Exit codes: 0 success, 2 config/parse error (a malformed run manifest, or
a summarized CSV without rows or without a column the summary reads,
included), 3 validation error, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
from pathlib import Path

from .harness import ConfigError, benchmark3, load_config, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    artifacts = run_experiment(cfg)
    print(f"experiment: {cfg.kind}")
    print(f"output dir: {artifacts.output_dir}")
    for name, path in artifacts.csv_paths.items():
        print(f"  {name}: {path}")
    print(f"  manifest: {artifacts.manifest_path}")
    return EXIT_OK


def _cmd_benchmark3(args) -> int:
    m, cs = benchmark3()
    if args.dump:
        payload = {
            "mdp": {
                "kernel": m.kernel.tolist(),
                "rewards": m.rewards.tolist(),
                "discount": m.discount,
                "initial_dist": m.initial_dist.tolist(),
            },
            "conjectures": {"epsilons": [q.param for q in cs]},
        }
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        print(f"benchmark3: {m.num_states} states, {m.num_actions} actions, "
              f"discount {m.discount}")
        print(f"conjectures: {[q.label for q in cs]}")
        print("use --dump for the full tables as a config snippet")
    return EXIT_OK


def _escaped(text: str) -> str:
    """``text`` with backslashes and unprintable characters escaped as in a literal."""
    return "".join(c if c.isprintable() and c != "\\" else repr(c)[1:-1] for c in text)


def _cmd_report(args) -> int:
    run_dir = Path(args.rundir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest.json in {run_dir}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{manifest_path}: parse error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    if not isinstance(manifest, dict) or not {"experiment", "seed", "versions"} <= set(manifest):
        raise ConfigError(
            f"{manifest_path}: expected an object with experiment, seed and versions"
        )
    artifacts = manifest.get("artifacts", {})
    if not isinstance(artifacts, dict) or not all(
        isinstance(fname, str) for fname in artifacts.values()
    ):
        raise ConfigError(f"{manifest_path}: artifacts must map names to file names")
    print(f"experiment: {manifest['experiment']}  seed: {manifest['seed']}")
    print(f"versions: {manifest['versions']}")
    for name, fname in artifacts.items():
        path = run_dir / fname
        if path.suffix != ".csv" or not path.is_file():
            print(f"  {name}: {fname}")
            continue
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)

        def column(header, parse=str, of=rows):
            if header not in (reader.fieldnames or ()):
                raise ConfigError(f"{path}: no {header} column")
            if not rows:
                raise ConfigError(f"{path}: no rows")
            try:
                return [parse(r[header]) for r in of]
            except (TypeError, ValueError):  # a short row reads None
                raise ConfigError(f"{path}: unreadable {header} value") from None

        print(f"  {name}: {fname} ({len(rows)} rows)")
        if manifest["experiment"] == "case-study" and name == "frequencies":
            for arm, label, freq in zip(column("arm"), column("label"),
                                        column("frequency", float)):
                print(f"    arm {arm} ({_escaped(label)}): frequency {freq:.4f}")
            if len(rows) > 1:
                best, second = sorted(column("oracle_loss", float))[:2]
                print(f"    oracle-loss gap, best to second-best arm: {second - best:.6g}")
        if manifest["experiment"] == "lambda-sweep" and name == "sweep":
            lams = column("lambda", float)
            bonus = [s - r for s, r in zip(column("v_soft", float), column("v_reward", float))]
            for end in (lams[0], lams[-1]):
                top = max(b for lam, b in zip(lams, bonus) if lam == end)
                print(f"    lambda {end:g}: max entropy bonus over states {top:.9g}")
        if manifest["experiment"] == "zooming" and name == "final_set":
            params = sorted(column("param", float))
            print(f"    final params: {[round(p, 6) for p in params]}")
        if manifest["experiment"] == "zooming" and name == "param_trace":
            tail = column("param", float)[-max(1, len(rows) // 10):]
            print(f"    median selected param, last 10%: {statistics.median(tail):.6g}")
        if manifest["experiment"] == "equilibrium-report" and name == "equilibria":
            modes, flags = column("mode"), column("accepted")
            for mode in dict.fromkeys(modes):
                hits = [r for r, m, ok in zip(rows, modes, flags) if m == mode and ok == "true"]
                print(f"    {mode}: {len(hits)} accepted")
                for k, label, margin in zip(column("model_index", int, hits),
                                            column("label", str, hits),
                                            column("kl_margin", float, hits)):
                    print(f"      model {k} ({_escaped(label)}): kl_margin {margin:.6g}")
        if manifest["experiment"] == "duality-audit" and name == "duality":
            for header, title in (("primal_gap", "max primal gap: "),
                                  ("dual_gap", "max dual gap:   "),
                                  ("max_slackness_violation", "max slack abuse:")):
                print(f"    {title} {max(column(header, float)):.3e}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berknash",
        description="Berk-Nash equilibrium experiments on misspecified MDPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("benchmark3", help="show the builtin benchmark instance")
    p_bench.add_argument("--dump", action="store_true",
                         help="print full tables as a JSON config snippet")
    p_bench.set_defaults(func=_cmd_benchmark3)

    p_report = sub.add_parser("report", help="summarize a run directory")
    p_report.add_argument("rundir", help="directory produced by `berknash run`")
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
