"""The suite's hang watchdog must not hang a forked child.

A child forked while faulthandler's watchdog is armed inherits it without
its thread, and a child that then leaves through interpreter finalization
(``sys.exit``) blocks forever in faulthandler's cancel.  ``tests/conftest``
disarms the watchdog across every fork; this runs that case in a fresh
interpreter, with the conftest's own hooks, under a timeout.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = textwrap.dedent("""
    import os, sys
    from tests.conftest import (
        arm_watchdog, disarm_watchdog, register_watchdog_fork_hooks,
    )
    register_watchdog_fork_hooks()
    arm_watchdog(sys.stderr.fileno())
    pid = os.fork()
    if pid == 0:
        sys.exit(0)
    _, status = os.waitpid(pid, 0)
    disarm_watchdog()
    sys.exit(os.waitstatus_to_exitcode(status))
""")


def test_forked_child_exits_through_finalization():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    process = subprocess.Popen(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        start_new_session=True,
    )
    try:
        assert process.wait(timeout=60) == 0
    except subprocess.TimeoutExpired:
        # The child hangs in its own process group with the parent.
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        pytest.fail("a child forked under the armed watchdog hung at exit")
