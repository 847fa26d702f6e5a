"""The package imports cleanly whichever module a program loads first.

``repro.core.framework`` imports ``repro.net.context``, and the engines
under ``repro.net`` import the framework back.  ``repro.net`` therefore
loads only its cycle-free modules (``context``, ``routing``); the engines
are imported from their own modules or from ``repro``.  A fresh
interpreter proves the order that would expose a cycle works.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_framework_then_net_then_public_api():
    code = ("import repro.core.framework\n"
            "import repro.net\n"
            "from repro import *\n"
            "print(QueryEngine.__module__, run_ripple.__module__)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["repro.net.scheduler",
                                   "repro.core.framework"]
