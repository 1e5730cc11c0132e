"""Each narrative demo script, and each python block of the README, runs to
completion and prints its story."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def test_demos_are_present():
    assert len(DEMOS) >= 5


def run_python(args):
    """Run the interpreter on ``args`` from the repository root, the package
    taken from ``src``, and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    assert run_python([str(script)]).strip()


def test_readme_python_blocks_run():
    # the quick start cannot go stale unseen
    assert README_BLOCKS
    for block in README_BLOCKS:
        assert run_python(["-c", block]).strip()
