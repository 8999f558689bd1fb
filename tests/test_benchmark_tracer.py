"""The benchmark's layer tracer installs against the package.

benchmark/layers.py wraps engine functions by name from outside the
package; a target the package no longer defines is recorded as missing
and reads 0.  A rename can still break the install itself, and every
traced benchmark job with it, so the install runs here in a fresh
interpreter, where its wrappers cannot leak into other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_without_error():
    path = [str(ROOT / "src"), str(ROOT / "benchmark")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", "from layers import Tracer; Tracer().install()"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
