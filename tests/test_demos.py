"""Each demo runs end to end in a fresh directory and prints its first result line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIRST_LINES = {
    "01_search_run.py": "discretized tuning scheme:",
    "02_penalty_ablation.py": "seed   penalty  selected  #finetune  val loss",
    "03_oracle_comparison.py": "seed 0: searched scheme",
    "04_gumbel_sampling.py": "symmetric logits, no noise:",
}


@pytest.mark.parametrize("demo", sorted(FIRST_LINES))
def test_demo_runs(demo, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "NFA_OUTPUT_ROOT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(FIRST_LINES[demo]), proc.stdout[:200]
