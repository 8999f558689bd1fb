"""The SVG writer the package had before `render_chart` drew each
element kind with one local helper: the reference for
`chromadefect.charts.render_chart`.

`render_chart` must return these bytes for every chart document.
"""

from chromadefect.charts import DEFAULT_STYLE


def _fmt(v) -> str:
    return f"{v:.1f}"


def render_chart(doc) -> bytes:
    """Deterministic standalone SVG for a chart document."""
    st = DEFAULT_STYLE
    unit = st["unit"]
    margin = st["margin"]
    s_lo, s_hi = doc["stem_range"]
    f_lo, f_hi = doc["fil_range"]
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
    if doc["title"]:
        out.append(
            f'<text x="{_fmt(margin)}" y="{_fmt(margin / 2)}" '
            f'style="font:{st["font"]}" fill="{st["axis_color"]}">{_escape(doc["title"])}</text>'
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
    for name, (s1, f1), (s2, f2) in doc["lines"]:
        out.append(
            f'<line x1="{_fmt(x(s1))}" y1="{_fmt(y(f1))}" x2="{_fmt(x(s2))}" '
            f'y2="{_fmt(y(f2))}" stroke="{st["line_color"]}" stroke-width="1.2">'
            f"<title>{_escape(name)}</title></line>"
        )
    for r, (s1, f1), (s2, f2) in doc["arrows"]:
        color = st["arrow_colors"].get(r, st["arrow_default"])
        out.append(
            f'<line x1="{_fmt(x(s1))}" y1="{_fmt(y(f1))}" x2="{_fmt(x(s2))}" '
            f'y2="{_fmt(y(f2))}" stroke="{color}" stroke-width="1.4" '
            'marker-end="url(#tip)"/>'
        )
    radius = st["dot_radius"]
    for (s, f), (mult, label) in sorted(doc["dots"].items()):
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
