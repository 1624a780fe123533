"""Self-test of the benchmark, at a tiny size. Run from the repository root::

    python3 bench/selftest.py

It checks that every workload runs and prints every declared metric with its
unit in both trace modes, that corrupted outputs are caught by the output
checks, that the tracer restores every binding it replaced, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run as bench
import workloads
from tracer import Tracer

TIMEOUT_S = 170


def expect(condition, message) -> None:
    if not condition:
        raise AssertionError(message)


def _invoke(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def check_tiny_runs() -> None:
    declared = bench.load_declared()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = _invoke(bench.ROOT, "--workload", workload, "--seed", "11",
                           "--seconds", "0.5", "--trace", str(trace), "--tiny")
            where = f"{workload} trace {trace}"
            expect(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, where)
            expect(result["correct"] and result["failed"] == 0, f"{where}: {lines[:-1]}")
            expect(result["attempted"] >= 1, where)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == declared[trace], f"{where}: metrics differ from BENCHMARK.json")
            for name, unit in units.items():
                expect(math.isfinite(result["metrics"][name]["value"]), f"{where}: {name}")
                expect(any(name in ln and unit in ln for ln in lines[:-1]),
                       f"{where}: {name} not printed with its unit")
            print(f"ok: {where} reports {len(units)} metrics")


def _edit_csv(path: Path, column: str, value: str, row: int = 0) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = value
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def check_corruption_caught(workdir: Path) -> None:
    cli, jobs = bench.setup("bench3-oracle", 11, True, workdir)
    tally = bench.Tally()
    tally.add(bench.run_pass(cli, jobs), "first pass")
    expect(tally.failed == 0, tally.problems)
    by_kind = {job.pipeline.kind: job for job in jobs}
    corruptions = [
        ("case-study", "loss_trace.csv", "loss", "1.5"),
        ("lambda-sweep", "sweep.csv", "pi", "0.75"),
        ("zooming", "param_trace.csv", "param", "0.9"),
        ("equilibrium-report", "equilibria.csv", "accepted", "false"),
        ("duality-audit", "duality.csv", "primal_gap", "0.001"),
        ("duality-audit", "duality.csv", "occupation_policy_greedy", "false"),
    ]
    for kind, name, column, value in corruptions:
        job = by_kind[kind]
        original = (job.out_dir / name).read_bytes()
        _edit_csv(job.out_dir / name, column, value)
        problems = checks.check_outputs(kind, job.out_dir, job.pipeline.config,
                                        job.pipeline.expect)
        expect(problems, f"corrupted {name}.{column} was not caught")
        (job.out_dir / name).write_bytes(original)
        print(f"ok: corrupted {name}.{column} caught: {problems[0]}")

    # A pass whose CSVs differ from the first pass counts as failed.
    second = bench.run_pass(cli, jobs)
    second["jobs"][0]["digest"] = "0" * 64
    tally.add(second, "second pass")
    expect(tally.failed == 1 and "differ" in tally.problems[0], tally.problems)
    print("ok: a pass with different CSV bytes counts as failed")


def check_tracer_restores() -> None:
    mods = {name: mod for name, mod in sys.modules.items() if name.startswith("berknash")}
    before = {(name, k): v for name, mod in mods.items() for k, v in vars(mod).items()}
    tracer = Tracer()
    tracer.install()
    try:
        harness_solve = sys.modules["berknash.harness"].simplex_solve
        expect(hasattr(harness_solve, "__wrapped__"), "harness binding not traced")
    finally:
        tracer.uninstall()
    after = {(name, k): v for name, mod in mods.items() for k, v in vars(mod).items()}
    expect(all(after[key] is value for key, value in before.items()),
           "tracer left a binding replaced")
    print("ok: tracer rebinds imported names and restores them")


def check_refuses_without_sources(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(bench.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    proc = _invoke(bare, "--workload", "wide-exact", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    expect(proc.returncode != 0, "ran without package sources")
    expect('"metrics"' not in proc.stdout, "printed a result without package sources")
    print(f"ok: without sources the benchmark exits {proc.returncode}: "
          f"{proc.stderr.strip()}")


def main() -> int:
    bench.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT_DIR))
    try:
        check_corruption_caught(workdir / "corrupt")
        check_tracer_restores()
        check_refuses_without_sources(workdir)
        check_tiny_runs()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
