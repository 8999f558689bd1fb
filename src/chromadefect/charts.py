"""Chart documents and deterministic SVG rendering.

A chart is dots on the (stem, filtration) plane with optional
structure lines (multiplication by a named class of stem 1) and
differential arrows.  Documents are built from recomputed engine data,
exported to TSV and rendered; every code path keeps a fixed element
order and fixed numeric formatting so the same document always produces
the same bytes.  This module holds the document type, its TSV and SVG
writers and `json_bytes`, the one JSON artifact encoding every job
shares.  Each chart builder sits beside the engine it draws, so a job
loads only its own: ext.chart_from_ext, may.chart_from_may_page and
ssq.chart_from_snapshot.

`json_bytes` writes exactly the bytes of
`json.dumps(obj, indent=1, sort_keys=True) + "\\n"` (the reference kept
in tests/oracles/json_artifact.py; a property test compares the two
byte for byte).  It is its own writer because CPython 3.11's C encoder
serves only `indent=None`: an indented dump runs the pure-Python
`_make_iterencode` generators, one frame per nesting level per token,
which took about a sixth of a `defect --cap 24` job.
"""

from json.encoder import encode_basestring_ascii

__all__ = [
    "ChartDocument",
    "chart_to_tsv",
    "json_bytes",
    "render_chart",
]

ARROW_RULES = ("page-step", "filtration-step")


class ChartDocument:
    """Dots, structure lines, and differential arrows over fixed axes.

    dots: {(stem, fil): (multiplicity, label)}; lines: (name, source,
    target); arrows: (r, source, target).  Arrow targets obey the shift
    policy: "page-step" moves (stem - 1, fil + r), "filtration-step"
    moves (stem - 1, fil + 1) for every r.  Both endpoints of every
    line and arrow must be dots.
    """

    __slots__ = ("title", "dots", "lines", "arrows", "stem_range", "fil_range", "arrow_rule")

    def __init__(self, title, dots, lines, arrows, stem_range, fil_range,
                 arrow_rule="page-step"):
        if arrow_rule not in ARROW_RULES:
            raise ValueError(f"arrow_rule must be one of {ARROW_RULES}")
        if stem_range[0] > stem_range[1] or fil_range[0] > fil_range[1]:
            raise ValueError("axis ranges must be nonempty")
        self.title = title
        self.dots = dict(dots)
        self.lines = sorted(lines)
        self.arrows = sorted(arrows)
        self.stem_range = tuple(stem_range)
        self.fil_range = tuple(fil_range)
        self.arrow_rule = arrow_rule
        for key, (mult, _label) in self.dots.items():
            if mult < 1:
                raise ValueError(f"dot {key} has multiplicity {mult}")
        for name, src, tgt in self.lines:
            if src not in self.dots or tgt not in self.dots:
                raise ValueError(f"line {name} at {src} has a dangling endpoint")
        for r, src, tgt in self.arrows:
            if src not in self.dots or tgt not in self.dots:
                raise ValueError(f"arrow d{r} at {src} has a dangling endpoint")
            step = 1 if self.arrow_rule == "filtration-step" else r
            if tgt != (src[0] - 1, src[1] + step):
                raise ValueError(f"arrow d{r} at {src} violates the bidegree shift")

    def __repr__(self):
        return (
            f"ChartDocument({self.title!r}: {len(self.dots)} dots, "
            f"{len(self.lines)} lines, {len(self.arrows)} arrows)"
        )


def chart_to_tsv(doc: ChartDocument) -> str:
    """Typed-row TSV encoding of a chart document."""
    lines = [
        f"# chart\t{doc.title}",
        f"# stems\t{doc.stem_range[0]}\t{doc.stem_range[1]}",
        f"# filtrations\t{doc.fil_range[0]}\t{doc.fil_range[1]}",
        f"# arrow-rule\t{doc.arrow_rule}",
        "kind\tname\tstem\tfil\tstem2\tfil2\tmult\tlabel",
    ]
    for (s, f), (mult, label) in sorted(doc.dots.items()):
        lines.append(f"dot\t-\t{s}\t{f}\t-\t-\t{mult}\t{label}")
    for name, (s, f), (s2, f2) in doc.lines:
        lines.append(f"line\t{name}\t{s}\t{f}\t{s2}\t{f2}\t-\t")
    for r, (s, f), (s2, f2) in doc.arrows:
        lines.append(f"arrow\t{r}\t{s}\t{f}\t{s2}\t{f2}\t-\t")
    return "\n".join(lines) + "\n"


DEFAULT_STYLE = {
    "unit": 28,
    "margin": 52,
    "dot_radius": 3.5,
    "dot_color": "#1a1a1a",
    "line_color": "#9aa5b1",
    "arrow_colors": {1: "#b03a2e", 2: "#8e44ad", 3: "#1f618d"},
    "arrow_default": "#444444",
    "grid_color": "#e8e8e8",
    "axis_color": "#333333",
    "font": "10px sans-serif",
}


def _fmt(v) -> str:
    return f"{v:.1f}"


def render_chart(doc: ChartDocument) -> bytes:
    """Deterministic standalone SVG for a chart document."""
    st = DEFAULT_STYLE
    unit = st["unit"]
    margin = st["margin"]
    s_lo, s_hi = doc.stem_range
    f_lo, f_hi = doc.fil_range
    width = 2 * margin + (s_hi - s_lo) * unit
    height = 2 * margin + (f_hi - f_lo) * unit

    def x(stem):
        return margin + (stem - s_lo) * unit

    def y(fil):
        return margin + (f_hi - fil) * unit

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    out.append(
        '<defs><marker id="tip" markerWidth="7" markerHeight="7" refX="6" '
        'refY="3.5" orient="auto"><path d="M0,0 L7,3.5 L0,7 z" '
        f'fill="{st["arrow_default"]}"/></marker></defs>'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')
    if doc.title:
        out.append(
            f'<text x="{_fmt(margin)}" y="{_fmt(margin / 2)}" '
            f'style="font:{st["font"]}" fill="{st["axis_color"]}">{_escape(doc.title)}</text>'
        )
    # grid and tick labels
    tick = 1 if (s_hi - s_lo) <= 40 else 2
    for s in range(s_lo, s_hi + 1):
        out.append(
            f'<line x1="{_fmt(x(s))}" y1="{_fmt(y(f_lo))}" x2="{_fmt(x(s))}" '
            f'y2="{_fmt(y(f_hi))}" stroke="{st["grid_color"]}" stroke-width="1"/>'
        )
        if (s - s_lo) % tick == 0:
            out.append(
                f'<text x="{_fmt(x(s))}" y="{_fmt(y(f_lo) + 16)}" text-anchor="middle" '
                f'style="font:{st["font"]}" fill="{st["axis_color"]}">{s}</text>'
            )
    for f in range(f_lo, f_hi + 1):
        out.append(
            f'<line x1="{_fmt(x(s_lo))}" y1="{_fmt(y(f))}" x2="{_fmt(x(s_hi))}" '
            f'y2="{_fmt(y(f))}" stroke="{st["grid_color"]}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x(s_lo) - 10)}" y="{_fmt(y(f) + 3)}" text-anchor="end" '
            f'style="font:{st["font"]}" fill="{st["axis_color"]}">{f}</text>'
        )
    # axes
    out.append(
        f'<line x1="{_fmt(x(s_lo))}" y1="{_fmt(y(f_lo))}" x2="{_fmt(x(s_hi))}" '
        f'y2="{_fmt(y(f_lo))}" stroke="{st["axis_color"]}" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{_fmt(x(s_lo))}" y1="{_fmt(y(f_lo))}" x2="{_fmt(x(s_lo))}" '
        f'y2="{_fmt(y(f_hi))}" stroke="{st["axis_color"]}" stroke-width="1.5"/>'
    )
    for name, (s1, f1), (s2, f2) in doc.lines:
        out.append(
            f'<line x1="{_fmt(x(s1))}" y1="{_fmt(y(f1))}" x2="{_fmt(x(s2))}" '
            f'y2="{_fmt(y(f2))}" stroke="{st["line_color"]}" stroke-width="1.2">'
            f"<title>{_escape(name)}</title></line>"
        )
    for r, (s1, f1), (s2, f2) in doc.arrows:
        color = st["arrow_colors"].get(r, st["arrow_default"])
        out.append(
            f'<line x1="{_fmt(x(s1))}" y1="{_fmt(y(f1))}" x2="{_fmt(x(s2))}" '
            f'y2="{_fmt(y(f2))}" stroke="{color}" stroke-width="1.4" '
            'marker-end="url(#tip)"/>'
        )
    radius = st["dot_radius"]
    for (s, f), (mult, label) in sorted(doc.dots.items()):
        cx, cy = x(s), y(f)
        if mult <= 4:
            for i in range(mult):
                off = (i - (mult - 1) / 2) * (2.6 * radius)
                out.append(
                    f'<circle cx="{_fmt(cx + off)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
                    f'fill="{st["dot_color"]}"/>'
                )
        else:
            out.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
                f'fill="{st["dot_color"]}"/>'
            )
            out.append(
                f'<text x="{_fmt(cx + 2 * radius)}" y="{_fmt(cy + 3)}" '
                f'style="font:{st["font"]}" fill="{st["dot_color"]}">x{mult}</text>'
            )
        if label:
            out.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(cy - 2.5 * radius)}" text-anchor="middle" '
                f'style="font:{st["font"]}" fill="{st["dot_color"]}">{_escape(label)}</text>'
            )
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def json_bytes(obj) -> bytes:
    """A JSON artifact: sorted keys, one-space indent, final newline.

    The bytes equal `json.dumps(obj, indent=1, sort_keys=True) + "\\n"`,
    written in one pass into one list.  Only the types artifacts hold
    are encoded: str, int, bool and None; lists and tuples; dicts with
    str or int keys, sorted by the key itself before an int key becomes
    a string, as the stdlib sorts.  Anything else raises TypeError.
    """
    out = []
    _write(obj, out.append, "\n")
    out.append("\n")
    return "".join(out).encode("ascii")


def _write(obj, emit, nl):
    """Emit the text of obj; nl is a newline and the indent of obj's line."""
    kind = type(obj)
    if kind is str:
        emit(encode_basestring_ascii(obj))
    elif kind is int:
        emit(int.__repr__(obj))
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif kind is dict:
        if not obj:
            emit("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for key in sorted(obj):
            name = encode_basestring_ascii(key) if type(key) is str else _int_key(key)
            emit(sep + name + ": ")
            _write(obj[key], emit, inner)
            sep = "," + inner
        emit(nl + "}")
    elif kind is list or kind is tuple:
        if not obj:
            emit("[]")
            return
        inner = nl + " "
        sep = "[" + inner
        for item in obj:
            emit(sep)
            _write(item, emit, inner)
            sep = "," + inner
        emit(nl + "]")
    else:
        raise TypeError(f"json_bytes cannot encode a {kind.__name__}")


def _int_key(key) -> str:
    """An int key, quoted; json_bytes sorted it as an int."""
    if type(key) is not int:
        raise TypeError(f"json_bytes cannot encode a {type(key).__name__} key")
    return f'"{int.__repr__(key)}"'
