"""Backend selection for the F2 elimination kernel.

The compiled extension is preferred; CHROMADEFECT_BACKEND=pure forces
the python reference implementation (used by the benchmark and by the
backend agreement tests).
"""

import os

from . import _pure

_impl = _pure
if os.environ.get("CHROMADEFECT_BACKEND", "").lower() != "pure":
    try:
        from . import _core as _impl  # type: ignore[no-redef]
    except ImportError:
        pass

BACKEND_NAME = "pure" if _impl is _pure else "compiled"

gf2_eliminate = _impl.gf2_eliminate
gf2_reduce = _pure.gf2_reduce
SparseEchelonGF2 = _impl.SparseEchelonGF2


def gf2_rank(rows, ncols):
    return gf2_eliminate(rows, ncols)[0]
