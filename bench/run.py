"""Benchmark for berknash: runs the real `berknash run` pipelines in-process.

Run from the repository root::

    python3 bench/run.py --workload bench3-oracle --seed 11 --seconds 30 --trace 0

Workloads (see NOTES.md): ``bench3-oracle``, ``bench3-rollout``, ``wide-exact``.
Each pass calls ``berknash.cli.main(["run", <config>])`` once per pipeline of
the workload, in a single process and thread, and checks every output.

``--trace 0`` reports the end-to-end metrics: set-up time and cold-pass time
measured in fresh child processes, warm-pass time over ``--seconds`` of warm
passes, and peak memory. ``--trace 1`` alternates untraced and traced warm
passes and reports the per-layer metrics of the outside-in tracer. The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. A run record and the spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import os
import sys

# One thread per process: every workload is a single-threaded closed loop,
# and idle BLAS threads on a small shared machine only add jitter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# This variable would redirect every pipeline into one output directory.
os.environ.pop("BERKNASH_OUTPUT_DIR", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 5  # child processes timed from spawn to ready
COLD_CHILDREN = 3  # of those, how many also run one cold pass
MIN_WARM_PASSES = 2
CHILD_TIMEOUT_S = 170

PIPELINES = ("case-study", "lambda-sweep", "zooming", "equilibrium-report",
             "duality-audit")


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed pipeline)."""


@dataclass(frozen=True)
class Job:
    """A workload pipeline bound to its config file and output directory."""

    pipeline: workloads.Pipeline
    config_path: Path
    out_dir: Path


def setup(workload: str, seed: int, tiny: bool, workdir: Path):
    """Import berknash from the checkout, write the configs and validate them."""
    sys.path.insert(0, str(SRC))
    import berknash.cli
    from berknash.harness import ConfigError, load_config

    if SRC not in Path(berknash.__file__).resolve().parents:
        raise BenchError(f"imported berknash from {berknash.__file__}, not {SRC}")
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    for i, pipe in enumerate(workloads.build(workload, seed, tiny)):
        out = workdir / f"{i}-{pipe.kind}"
        path = workdir / f"{i}-{pipe.kind}.json"
        path.write_text(json.dumps({**pipe.config, "output_dir": str(out)}))
        try:
            load_config(path)
        except ConfigError as err:
            raise BenchError(f"generated config {path.name} is invalid: {err}") from None
        jobs.append(Job(pipe, path, out))
    return berknash.cli, jobs


def run_pass(cli, jobs, tracer: Tracer | None = None) -> dict:
    """One pass over every pipeline: wall times, then output checks."""
    results = []
    for job in jobs:
        stdout, stderr = io.StringIO(), io.StringIO()
        start = perf_counter()
        span = tracer.open(job.pipeline.kind, "harness") if tracer else None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["run", str(job.config_path)])
        if tracer:
            tracer.close(span)
        seconds = perf_counter() - start
        if code == 0:
            problems = checks.check_outputs(job.pipeline.kind, job.out_dir,
                                            job.pipeline.config, job.pipeline.expect)
        else:
            problems = [f"exit code {code}: {stderr.getvalue().strip()}"]
        digest, size = checks.csv_digest(job.out_dir)
        results.append({"kind": job.pipeline.kind, "seconds": seconds,
                        "problems": problems, "digest": digest, "bytes": size})
    return {"pass_s": sum(r["seconds"] for r in results), "jobs": results}


class Tally:
    """Pipeline runs attempted and failed, with byte identity across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference: dict[int, str] = {}
        self.problems: list[str] = []

    def add(self, pass_result: dict, source: str) -> None:
        for i, job in enumerate(pass_result["jobs"]):
            problems = list(job["problems"])
            ref = self.reference.setdefault(i, job["digest"])
            if job["digest"] != ref:
                problems.append("CSVs differ from the first pass of this run")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{source} {job['kind']}: {p}" for p in problems]


def spawn_child(args, role: str, workdir: Path) -> tuple[float, dict | None]:
    """Time a fresh process from spawn to ready; optionally get its cold pass."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--child", role, "--workdir", str(workdir)]
    if args.tiny:
        cmd.append("--tiny")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{role} child exited with {proc.returncode} before a result")
    return setup_s, json.loads(out.splitlines()[-1]) if role == "cold" else None


def child_main(args) -> int:
    cli, jobs = setup(args.workload, args.seed, args.tiny, Path(args.workdir))
    print("ready", flush=True)
    if args.child == "cold":
        print(json.dumps(run_pass(cli, jobs)), flush=True)
    return 0


def _median(values):
    return statistics.median(values) if values else 0.0


def measure_end_to_end(args, workdir: Path, tally: Tally) -> tuple[dict, dict]:
    setup_samples, cold_samples = [], []
    for k in range(SETUP_SAMPLES):
        role = "cold" if k < COLD_CHILDREN else "setup"
        setup_s, cold = spawn_child(args, role, workdir / f"child{k}")
        setup_samples.append(setup_s)
        if cold is not None:
            cold_samples.append(cold["pass_s"])
            tally.add(cold, f"child{k}")
    cli, jobs = setup(args.workload, args.seed, args.tiny, workdir / "main")
    first = run_pass(cli, jobs)
    tally.add(first, "cold pass")
    cold_samples.append(first["pass_s"])
    warm = []
    deadline = perf_counter() + args.seconds
    while len(warm) < MIN_WARM_PASSES or perf_counter() < deadline:
        warm.append(run_pass(cli, jobs))
        tally.add(warm[-1], f"warm pass {len(warm)}")
    metrics = {
        "setup_s": _median(setup_samples),
        "cold_pass_s": _median(cold_samples),
        "pass_s": _median([p["pass_s"] for p in warm]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": setup_samples, "cold_pass_s": cold_samples,
               "pass_s": [p["pass_s"] for p in warm]}
    samples.update(_pipeline_samples(warm))
    return metrics, samples


def _pipeline_samples(passes) -> dict:
    """Per pass, the wall time of each pipeline kind (summed over its runs)."""
    out: dict = {}
    for p in passes:
        per_kind: dict = {}
        for job in p["jobs"]:
            per_kind[job["kind"]] = per_kind.get(job["kind"], 0.0) + job["seconds"]
        for kind, seconds in per_kind.items():
            out.setdefault(f"pipeline.{kind}_s", []).append(seconds)
    return out


def measure_layers(args, workdir: Path, tally: Tally) -> tuple[dict, dict, Tracer]:
    cli, jobs = setup(args.workload, args.seed, args.tiny, workdir / "main")
    tally.add(run_pass(cli, jobs), "cold pass")
    tracer = Tracer()
    untraced, traced = [], []
    deadline = perf_counter() + args.seconds
    while len(traced) < MIN_WARM_PASSES or perf_counter() < deadline:
        untraced.append(run_pass(cli, jobs))
        tally.add(untraced[-1], f"untraced pass {len(untraced)}")
        tracer.install()
        tracer.start_pass(len(traced))
        try:
            traced.append(run_pass(cli, jobs, tracer))
        finally:
            tracer.uninstall()
        tracer.end_pass()
        tally.add(traced[-1], f"traced pass {len(traced)}")

    ids = range(len(traced))
    per_pass = [tracer.pass_metrics(i) for i in ids]
    metrics = {name: _median([m[name] for m in per_pass]) for name in per_pass[0]
               if not name.startswith("trace.")}
    metrics["soft_planning.call_p50_ms"], metrics["soft_planning.call_p90_ms"] = \
        tracer.call_percentiles_ms("soft_best_response", ids)
    metrics["simplex.solve_p50_ms"] = tracer.call_percentiles_ms("simplex_solve", ids)[0]
    metrics["learning.rollout_p50_ms"], metrics["learning.rollout_p90_ms"] = \
        tracer.call_percentiles_ms("rollout_loss", ids)
    metrics["harness.csv_bytes"] = _median([sum(j["bytes"] for j in p["jobs"])
                                            for p in traced])
    traced_s = [p["pass_s"] for p in traced]
    metrics["trace.overhead_frac"] = (_median(traced_s)
                                      / _median([p["pass_s"] for p in untraced]) - 1.0)
    metrics["trace.accounted_frac"] = _median(
        [m["trace.layers_s"] / s for m, s in zip(per_pass, traced_s)])
    pipeline = _pipeline_samples(untraced)
    for kind in PIPELINES:
        metrics[f"pipeline.{kind}_s"] = _median(pipeline.get(f"pipeline.{kind}_s", []))
    metrics["failed_frac"] = tally.failed / tally.attempted
    samples = {"traced_pass_s": traced_s,
               "untraced_pass_s": [p["pass_s"] for p in untraced]}
    return metrics, samples, tracer


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
    }


def load_declared() -> dict:
    """Metric names and units declared in BENCHMARK.json, by trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the warm-pass measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every pipeline (self-test size)")
    parser.add_argument("--child", choices=("setup", "cold"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # Unwind through the finally blocks: they stop the child and remove the workdir.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        if args.child:
            return child_main(args)
        declared = load_declared()
        units = declared[args.trace]
        if not (SRC / "berknash" / "__init__.py").is_file():
            raise BenchError(f"no berknash sources under {SRC}")
        OUT_DIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
        tally = Tally()
        tracer = None
        try:
            if args.trace:
                metrics, samples, tracer = measure_layers(args, workdir, tally)
            else:
                metrics, samples = measure_end_to_end(args, workdir, tally)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2

    record = run_record(args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.jsonl")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"record": record, "result": result, "samples": samples,
         "problems": tally.problems}, indent=1) + "\n")

    print(f"run: {json.dumps(record)}")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    shown = dict(metrics)
    if not args.trace:
        shown.update({name: _median(v) for name, v in samples.items()
                      if name.startswith("pipeline.")})
        shown["failed_frac"] = tally.failed / tally.attempted
    all_units = {**declared[0], **declared[1]}
    for name, value in shown.items():
        unit = all_units[name]
        n = len(samples.get(name, ()))
        print(f"  {name:34s} {value:14.6g} {unit:6s}" + (f" (median of {n})" if n else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
