"""The demos run to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["01_quickstart.py", "02_streaming_adaptation.py", "04_bias_anatomy.py"]
)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_walkthrough_runs(tmp_path):
    # the walkthrough calls `umfc`; a shim first on PATH runs this
    # interpreter's umfc.cli on the package in src/
    shim = tmp_path / "umfc"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m umfc.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}")
    proc = subprocess.run(
        ["sh", str(ROOT / "demos" / "03_cli_walkthrough.sh")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("walkthrough complete")
