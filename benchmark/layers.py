"""Layer tracing from outside the package.

`Tracer.install` replaces public functions of the engine layers with
timing wrappers, after the package is imported and before the job runs.
Nothing inside `chromadefect` changes.  Wrappers nest, so each layer's
self time is its span's duration minus the spans it called.  Spans are
kept in memory and written out when the job ends.

Only the traced run installs these wrappers; the end-to-end metrics come
from untraced runs.
"""

import importlib
import json
import sys
import weakref
from functools import wraps
from time import perf_counter

# layer name -> [(module, qualified attribute)] wrapped under that name
TARGETS = {
    "ext.ext_ranks": [("chromadefect.ext", "ext_ranks")],
    "ext.evenness_scan": [("chromadefect.ext", "evenness_scan")],
    "ext.words": [("chromadefect.ext", "CobarComplex.words")],
    "ext.differential_matrix": [("chromadefect.ext", "CobarComplex.differential_matrix")],
    "ext.cell_basis": [("chromadefect.ext", "CobarComplex.cell_basis")],
    "steenrod.reduced_coproduct": [("chromadefect.steenrod", "reduced_coproduct")],
    "steenrod.positive_basis": [("chromadefect.steenrod", "Profile.positive_basis")],
    "gradedlin.rank": [("chromadefect.gradedlin.modp", "PrimeFieldMatrix.rank")],
    "gradedlin.kernel": [("chromadefect.gradedlin.modp", "PrimeFieldMatrix.kernel_vectors")],
    "gradedlin.subquotient": [
        ("chromadefect.gradedlin.modp", "SubquotientBasis.__init__"),
        ("chromadefect.gradedlin.modp", "SubquotientBasis.coords"),
    ],
    # every public SNF entry point routes through this one kernel
    "gradedlin.snf": [("chromadefect.gradedlin.integers", "_snf")],
    "ssq.build_e1": [("chromadefect.ssq", "build_e1")],
    "ssq.turn_page": [("chromadefect.ssq", "turn_page")],
    "fgl.honda_fgl": [("chromadefect.fgl", "honda_fgl")],
    "fgl.compositional_inverse": [("chromadefect.fgl", "compositional_inverse")],
    "fgl.substitute": [("chromadefect.fgl", "TruncatedSeries.substitute")],
    "fgl.formal_inverse": [("chromadefect.fgl", "formal_inverse")],
    "fgl.m_series": [("chromadefect.fgl", "m_series")],
    "defect.verdict_ko": [("chromadefect.defect", "verdict_ko")],
    "defect.verdict_tmf": [("chromadefect.defect", "verdict_tmf")],
    "defect.verdict_er": [("chromadefect.defect", "verdict_er")],
    "charts.render_chart": [("chromadefect.charts", "render_chart")],
    # the CLI writes every artifact with Path.write_bytes
    "cli.write": [("pathlib", "Path.write_bytes")],
}

MAX_SPANS = 200_000


def _nnz(mat):
    if mat.p == 2:
        return sum(row.bit_count() for row in mat.rows)
    return sum(len(row) - row.count(0) for row in mat.rows)


class _FirstCall:
    """Tells whether (obj, args) is seen for the first time, so memoised
    methods count their work once.  Dead objects drop out."""

    def __init__(self):
        self._seen = weakref.WeakKeyDictionary()

    def __call__(self, obj, args):
        keys = self._seen.setdefault(obj, set())
        if args in keys:
            return False
        keys.add(args)
        return True


def _counters():
    """Per-layer hooks: (stats, args, result) -> None, run outside the
    timed span."""
    words_first = _FirstCall()
    diff_first = _FirstCall()

    def words(st, args, result):
        if words_first(args[0], args[1:]):
            st["count"] = st.get("count", 0) + len(result)

    def differential(st, args, result):
        if diff_first(args[0], args[1:]):
            st["nnz"] = st.get("nnz", 0) + _nnz(result)

    def rank(st, args, result):
        mat = args[0]
        st["entries"] = st.get("entries", 0) + mat.nrows * mat.ncols
        st["rows"] = st.get("rows", 0) + mat.nrows
        st["rank"] = st.get("rank", 0) + result

    def nbytes(st, args, result):
        data = result if isinstance(result, bytes) else args[1]
        st["bytes"] = st.get("bytes", 0) + len(data)

    return {
        "ext.words": words,
        "ext.differential_matrix": differential,
        "gradedlin.rank": rank,
        "charts.render_chart": nbytes,
        "cli.write": nbytes,
    }


class Tracer:
    def __init__(self):
        self.stats = {layer: {"calls": 0, "s": 0.0} for layer in TARGETS}
        self.spans = []  # (id, parent id, layer, start, end)
        self.dropped = 0
        self.missing = []
        self._stack = []  # [span id, seconds covered by child spans and hooks]
        self._next_id = 0

    def install(self):
        hooks = _counters()
        for layer, targets in TARGETS.items():
            for module_name, qualname in targets:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    # a later engine may drop a layer; its metrics read 0
                    self.missing.append(f"{module_name}:{qualname}")
                    continue
                wrapper = self._wrap(layer, original, hooks.get(layer))
                setattr(owner, attr, wrapper)
                if not path:
                    self._rebind(original, wrapper)

    @staticmethod
    def _rebind(original, wrapper):
        """Replace `from x import f` copies in every loaded package module."""
        for name, module in list(sys.modules.items()):
            if not name.startswith("chromadefect") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _wrap(self, layer, fn, hook):
        stats = self.stats[layer]
        stack = self._stack
        spans = self.spans

        @wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            spent = end - start
            stats["calls"] += 1
            stats["s"] += spent - frame[1]
            if hook is not None:
                hook(stats, args, result)
            if stack:
                # the parent's self time excludes this span and its hook
                stack[-1][1] += perf_counter() - start
            if len(spans) < MAX_SPANS:
                spans.append((span_id, stack[-1][0] if stack else None, layer, start, end))
            else:
                self.dropped += 1
            return result

        return traced

    def layer_stats(self):
        out = {}
        for layer, st in self.stats.items():
            out[layer] = dict(st)
            if "rows" in st:
                out[layer]["yield"] = st["rank"] / st["rows"] if st["rows"] else 0.0
        return out

    def write(self, path, label):
        doc = {
            "job": label,
            "missing": self.missing,
            "dropped_spans": self.dropped,
            "fields": ["id", "parent", "layer", "start", "end"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
