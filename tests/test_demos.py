import os
import subprocess
import sys
from pathlib import Path

import pytest

import kgdelta

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # run as a user would, in a fresh interpreter; demos that write files
    # put them under the temp directory, redirected here to tmp_path
    package_root = Path(kgdelta.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(package_root), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
