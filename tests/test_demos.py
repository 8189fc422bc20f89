"""The demo scripts run cleanly and reproduce the SVGs committed under
demos/out/ byte for byte."""

import os
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
SCRIPTS = sorted(p.name for p in DEMOS.glob("[0-9]*.py"))
COMMITTED = sorted(p.name for p in (DEMOS / "out").glob("*.svg"))


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    """Run every demo once in a copy of demos/ without its out/ directory."""
    work = tmp_path_factory.mktemp("demos")
    copy = work / "demos"
    shutil.copytree(DEMOS, copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(work)}
    results = {
        name: subprocess.run(
            [sys.executable, name], cwd=copy, env=env, capture_output=True, text=True
        )
        for name in SCRIPTS
    }
    return copy, results


def test_every_demo_is_found():
    assert SCRIPTS and COMMITTED


@pytest.mark.parametrize("name", SCRIPTS)
def test_demo_exits_zero(demo_run, name):
    _, results = demo_run
    assert results[name].returncode == 0, results[name].stderr


@pytest.mark.parametrize("name", COMMITTED)
def test_demo_svg_matches_committed(demo_run, name):
    copy, _ = demo_run
    produced = copy / "out" / name
    assert produced.exists(), f"no demo wrote out/{name}"
    assert produced.read_bytes() == (DEMOS / "out" / name).read_bytes()
