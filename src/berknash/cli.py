"""Command-line entry point for the experiment harness.

Subcommands::

    berknash run <config.json>        execute an experiment config
    berknash benchmark3 [--dump]      show or dump the builtin instance
    berknash report <rundir>          summarize a finished run directory

``report`` lists the artifacts a run's manifest names, then prints the
run's ``summary.txt`` as written: the lines each pipeline builds in
:mod:`berknash.harness` from the values it wrote to its CSVs. Characters
stdout cannot encode are printed as backslash escapes.

Exit codes: 0 success, 2 config/parse error (a malformed or non-UTF-8 run
manifest or summary included), 3 validation error, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import ConfigError, benchmark3, load_config, read_text, run_experiment

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


def _cmd_report(args) -> int:
    run_dir = Path(args.rundir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest.json in {run_dir}")
    try:
        manifest = json.loads(read_text(manifest_path))
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
    text = (f"experiment: {manifest['experiment']}  seed: {manifest['seed']}\n"
            f"versions: {manifest['versions']}\n"
            + "".join(f"  {name}: {fname}\n" for name, fname in artifacts.items()))
    if "summary" in artifacts and (run_dir / artifacts["summary"]).is_file():
        text += read_text(run_dir / artifacts["summary"])
    encoding = sys.stdout.encoding or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding), end="")
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
