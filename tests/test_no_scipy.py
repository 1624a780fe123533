import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The package's import contract. Blocks scipy before berknash is imported,
# runs every pipeline at a tiny size, reports the zooming run, and fails if any
# command exits nonzero or any scipy, numpy.ma or numpy.random module got
# loaded (all five pipelines use oracle losses, which draw no rollouts).
SCRIPT = """
import json, sys
sys.modules["scipy"] = None
from berknash.cli import main
for path in json.loads(sys.argv[1]):
    assert main(["run", path]) == 0, path
assert main(["report", sys.argv[2]]) == 0
banned = ("scipy", "numpy.ma", "numpy.random")
loaded = [name for name, mod in sys.modules.items() if mod is not None
          and any(name == b or name.startswith(b + ".") for b in banned)]
assert not loaded, loaded
"""


def test_pipelines_run_without_scipy(tmp_path):
    configs = [
        {"experiment": "case-study", "bandit": {"horizon": 50}},
        {"experiment": "lambda-sweep", "lambda_grid": {"points": 3}},
        {"experiment": "zooming", "bandit": {"horizon": 60}, "zoom": {"zoom_interval": 20}},
        {"experiment": "equilibrium-report"},
        {"experiment": "duality-audit"},
    ]
    paths = []
    for cfg in configs:
        path = tmp_path / f"{cfg['experiment']}.json"
        path.write_text(json.dumps({**cfg, "output_dir": str(tmp_path / cfg["experiment"])}))
        paths.append(str(path))
    env = {k: v for k, v in os.environ.items() if k != "BERKNASH_OUTPUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", SCRIPT, json.dumps(paths),
         str(tmp_path / "zooming")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
