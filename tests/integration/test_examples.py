"""Smoke tests: every shipped example runs to completion (scaled down)."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2_000:]
    return result.stdout


class TestExamples:
    def test_examples_directory_complete(self):
        names = {path.name for path in EXAMPLES.glob("*.py")}
        assert "quickstart.py" in names
        assert len(names) >= 3

    def test_quickstart(self):
        out = run_example("quickstart.py", "8000")
        assert "Copy-on-Update" in out
        assert "recommended:" in out

    def test_knights_archers_battle(self):
        out = run_example("knights_archers_battle.py", "1024", "60")
        assert "team 0" in out
        assert "avg. number of updates per tick" in out
        assert "Checkpointing the battle" in out

    def test_crash_recovery(self):
        out = run_example("crash_recovery.py", "copy-on-update", "80")
        assert "CRASH" in out
        assert "identical to the crash-free run: True" in out

    def test_crash_recovery_log_algorithm(self):
        out = run_example("crash_recovery.py", "cou-partial-redo", "60")
        assert "identical to the crash-free run: True" in out

    def test_skew_study(self):
        out = run_example("skew_study.py", "4000")
        assert "overhead [ms] vs skew" in out
        assert "legend" in out

    def test_validate_on_this_host(self):
        out = run_example("validate_on_this_host.py", "6")
        assert "Simulation vs the durable engine" in out
        assert "Copy-on-Update" in out

    def test_mmo_shard(self):
        out = run_example("mmo_shard.py", "60")
        assert "SHARD CRASH" in out
        assert "world recovered exactly:   True" in out
        assert "economy recovered exactly: True" in out
