"""Every demo runs to completion against the library in this checkout, in
Python's development mode with an unclosed file or a deprecated call as an
error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_tensor_adapters", "02_lifelong_training",
                                  "03_expert_retrieval", "04_degradations",
                                  "05_metrics"])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-X", "dev",
                           "-W", "error::ResourceWarning",
                           "-W", "error::DeprecationWarning",
                           str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    # a warning raised where it cannot propagate, such as an unclosed
    # file's in its finalizer, is printed but leaves the exit code at 0
    assert "Exception ignored" not in done.stderr, done.stderr
