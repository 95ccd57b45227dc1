"""Minimal deterministic SVG output.

Hand-rolled on purpose: every run must produce byte-identical documents, so
coordinates are formatted with fixed precision and nothing here depends on
fonts, system state, or a plotting library.  Each chart has one fixed size:
bars 720 x 320, density curves 480 x 300, scatter plots 480 x 340.
"""

import re

PALETTE = (
    "#1b6ca8", "#c0392b", "#1e8449", "#7d3c98", "#b7950b",
    "#2c3e50", "#ca6f1e", "#148f77", "#884ea0", "#5d6d7e",
)


def _n(value):
    return f"{value:.2f}"


# the characters XML 1.0 cannot hold, even as a character reference
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def escape(text):
    """`text` with &, < and > escaped for XML character data, as
    `xml.sax.saxutils.escape` does (that module imports `urllib.request`
    and with it the network stack), and each character XML cannot hold
    shown as U+FFFD."""
    return _NOT_XML.sub("\ufffd", text.replace("&", "&amp;").replace("<", "&lt;")
                        .replace(">", "&gt;"))


class Canvas:
    """Collects SVG elements and renders a standalone document."""

    def __init__(self, width, height):
        self.width = width
        self.height = height
        self._parts = [
            f'<rect x="0" y="0" width="{_n(width)}" height="{_n(height)}" '
            'fill="#ffffff"/>'
        ]

    def line(self, x1, y1, x2, y2, stroke):
        self._parts.append(
            f'<line x1="{_n(x1)}" y1="{_n(y1)}" x2="{_n(x2)}" y2="{_n(y2)}" '
            f'stroke="{stroke}" stroke-width="1.00"/>')

    def rect(self, x, y, w, h, fill):
        self._parts.append(
            f'<rect x="{_n(x)}" y="{_n(y)}" width="{_n(w)}" height="{_n(h)}" '
            f'fill="{fill}"/>')

    def circle(self, cx, cy):
        self._parts.append(
            f'<circle cx="{_n(cx)}" cy="{_n(cy)}" r="2.50" fill="#1b6ca8"/>')

    def polyline(self, points, stroke):
        coords = " ".join(f"{_n(x)},{_n(y)}" for x, y in points)
        self._parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            'stroke-width="1.50"/>')

    def text(self, x, y, content, fill="#222222", size=11, anchor="start"):
        self._parts.append(
            f'<text x="{_n(x)}" y="{_n(y)}" font-family="monospace" '
            f'font-size="{size}" fill="{fill}" text-anchor="{anchor}">'
            f'{escape(str(content))}</text>')

    def tostring(self):
        body = "\n".join(self._parts)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_n(self.width)}" height="{_n(self.height)}" '
            f'viewBox="0 0 {_n(self.width)} {_n(self.height)}">\n'
            f"{body}\n</svg>\n"
        )


def _frame(canvas, x0, y0, x1, y1, title):
    canvas.line(x0, y1, x1, y1, stroke="#888888")
    canvas.line(x0, y0, x0, y1, stroke="#888888")
    canvas.text((x0 + x1) / 2.0, 16, title, anchor="middle", size=12)


def _span(values):
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    return lo, hi


def grouped_bars(categories, series, title):
    """Grouped bar chart; `series` is a list of (name, values) pairs."""
    width, height = 720, 320
    canvas = Canvas(width, height)
    x0, y0, x1, y1 = 50, 28, width - 20, height - 46
    _frame(canvas, x0, y0, x1, y1, title)
    all_values = [v for _name, vals in series for v in vals]
    top = max(all_values + [0.0]) or 1.0
    slot = (x1 - x0) / max(len(categories), 1)
    bar_w = slot * 0.8 / max(len(series), 1)
    for ci, cat in enumerate(categories):
        base_x = x0 + slot * ci + slot * 0.1
        for si, (_name, vals) in enumerate(series):
            v = vals[ci]
            h = (y1 - y0) * (v / top)
            canvas.rect(base_x + si * bar_w, y1 - h, bar_w, h,
                        fill=PALETTE[si % len(PALETTE)])
        canvas.text(base_x + slot * 0.4, y1 + 14, cat, anchor="middle", size=10)
    for si, (name, _vals) in enumerate(series):
        sx = x0 + 10 + si * 110
        canvas.rect(sx, height - 24, 10, 10, fill=PALETTE[si % len(PALETTE)])
        canvas.text(sx + 14, height - 15, name, size=10)
    canvas.text(x0 - 6, y0 + 8, format(top, ".3g"), anchor="end", size=10, fill="#666666")
    canvas.text(x0 - 6, y1 + 4, "0", anchor="end", size=10, fill="#666666")
    return canvas.tostring()


def curve_plot(xs, ys, title):
    """Single curve with axes, e.g. a density estimate."""
    width, height = 480, 300
    canvas = Canvas(width, height)
    x0, y0, x1, y1 = 50, 28, width - 20, height - 40
    _frame(canvas, x0, y0, x1, y1, title)
    lo_x, hi_x = _span(xs)
    hi_y = max(ys) or 1.0
    points = [
        (x0 + (x - lo_x) / (hi_x - lo_x) * (x1 - x0),
         y1 - (y / hi_y) * (y1 - y0))
        for x, y in zip(xs, ys)
    ]
    canvas.polyline(points, stroke="#1b6ca8")
    canvas.text(x0, y1 + 14, format(lo_x, ".3g"), size=10, fill="#666666")
    canvas.text(x1, y1 + 14, format(hi_x, ".3g"), anchor="end", size=10, fill="#666666")
    canvas.text(x0 - 6, y0 + 8, format(hi_y, ".3g"), anchor="end", size=10, fill="#666666")
    canvas.text(x0 - 6, y1 + 4, "0", anchor="end", size=10, fill="#666666")
    return canvas.tostring()


def scatter_plot(xs, ys, slope, intercept, title, x_label, y_label):
    """Scatter of (x, y) points with the fitted line y = slope * x + intercept."""
    width, height = 480, 340
    canvas = Canvas(width, height)
    x0, y0, x1, y1 = 56, 28, width - 20, height - 52
    _frame(canvas, x0, y0, x1, y1, title)
    lo_x, hi_x = _span(xs)
    lo_y, hi_y = _span(ys)

    def px(x):
        return x0 + (x - lo_x) / (hi_x - lo_x) * (x1 - x0)

    def py(y):
        return y1 - (y - lo_y) / (hi_y - lo_y) * (y1 - y0)

    drawn = [(px(x), py(slope * x + intercept)) for x in (lo_x, hi_x)]
    canvas.polyline(drawn, stroke="#c0392b")
    for x, y in zip(xs, ys):
        canvas.circle(px(x), py(y))
    canvas.text(x0, y1 + 14, format(lo_x, ".3g"), size=10, fill="#666666")
    canvas.text(x1, y1 + 14, format(hi_x, ".3g"), anchor="end", size=10, fill="#666666")
    canvas.text(x0 - 6, y0 + 8, format(hi_y, ".3g"), anchor="end", size=10, fill="#666666")
    canvas.text(x0 - 6, y1 + 4, format(lo_y, ".3g"), anchor="end", size=10, fill="#666666")
    canvas.text((x0 + x1) / 2.0, height - 12, x_label, anchor="middle", size=10)
    canvas.text(14, y0 - 10, y_label, size=10)
    return canvas.tostring()
