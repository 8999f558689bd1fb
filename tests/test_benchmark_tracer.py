"""The benchmark's layer tracer installs against the package.

benchmark/layers.py wraps engine functions by name from outside the
package.  A function or method that the package no longer defines is
recorded as missing, and its layer reads 0; a gone class's ordinary
method is too (`PrimeFieldMatrix.rank` and `.kernel_vectors`, since
that class moved to tests/oracles/linalg.py).  Two removals break
`Tracer.install` itself instead, and every traced benchmark job with
it.  A target module that no longer exists makes `import_module` raise
`ModuleNotFoundError`: `chromadefect.gradedlin.integers` must stay while
the `gradedlin.snf` layer names it, though its `_snf` is long gone.  A
`Class.__init__` target whose class is gone reads `NoneType.__init__`
instead of recording the target as missing, and the install fails
with `AttributeError` (`SubquotientBasis.__init__`, say).  So the
install runs here in a fresh interpreter, where its wrappers cannot
leak into other tests.
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
