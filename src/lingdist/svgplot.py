"""Minimal deterministic SVG output.

Hand-rolled on purpose: every run must produce byte-identical documents, so
coordinates are formatted with fixed precision and nothing here depends on
fonts, system state, or a plotting library.  Each chart has one fixed size:
bars 720 x 320, density curves 480 x 300, scatter plots 480 x 340.  Every
text is kept on its canvas, its width estimated at 0.6 em a character of the
monospace font: one that would run past an edge is moved inward, and one wider
than the canvas widens the document.
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
        self._parts = []

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
        """Draw `content` at (x, y), moved inward when its width, estimated at
        0.6 em a character of the monospace font, would leave [0, width]; a
        text wider than the canvas widens it."""
        content = str(content)
        w = 0.6 * size * len(content)
        before = {"start": 0.0, "middle": w / 2.0, "end": w}[anchor]
        self.width = max(self.width, w)
        if x - before < 0.0:
            x = before
        elif x - before + w > self.width:
            x = self.width - w + before
        self._parts.append(
            f'<text x="{_n(x)}" y="{_n(y)}" font-family="monospace" '
            f'font-size="{size}" fill="{fill}" text-anchor="{anchor}">'
            f'{escape(content)}</text>')

    def tostring(self):
        width, height = _n(self.width), _n(self.height)
        body = "\n".join(
            [f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>']
            + self._parts)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
            f"{body}\n</svg>\n"
        )


def _span(values):
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    return lo, hi


def _chart(width, height, left, bottom, title, x_span, y_span):
    """A `width` x `height` canvas with its two axes and `title` drawn: the
    canvas, the plot box (x0, y0, x1, y1) inside margins of `left`, 28, 20
    and `bottom`, and the map from lists of x and y values over `x_span` and
    `y_span`, each a (lo, hi) pair (None for a chart that maps no values), to
    the box's pixel points."""
    canvas = Canvas(width, height)
    box = x0, y0, x1, y1 = left, 28, width - 20, height - bottom
    canvas.line(x0, y1, x1, y1, stroke="#888888")
    canvas.line(x0, y0, x0, y1, stroke="#888888")
    canvas.text((x0 + x1) / 2.0, 16, title, anchor="middle", size=12)

    def points(xs, ys):
        (lo_x, hi_x), (lo_y, hi_y) = x_span, y_span
        return [(x0 + (x - lo_x) / (hi_x - lo_x) * (x1 - x0),
                 y1 - (y - lo_y) / (hi_y - lo_y) * (y1 - y0)) for x, y in zip(xs, ys)]

    return canvas, box, points


def _value_labels(canvas, box, top, bottom, x_span=None):
    """The grey value labels: `x_span`'s ends under the x axis when given,
    then `top` and `bottom` left of the y axis's ends."""
    x0, y0, x1, y1 = box
    labels = [] if x_span is None else [(x0, y1 + 14, x_span[0], "start"),
                                        (x1, y1 + 14, x_span[1], "end")]
    labels += [(x0 - 6, y0 + 8, top, "end"), (x0 - 6, y1 + 4, bottom, "end")]
    for x, y, value, anchor in labels:
        canvas.text(x, y, format(value, ".3g"), anchor=anchor, size=10, fill="#666666")


def grouped_bars(categories, series, title):
    """Grouped bar chart; `series` is a list of (name, values) pairs."""
    all_values = [v for _name, vals in series for v in vals]
    top = max(all_values + [0.0]) or 1.0
    canvas, box, _points = _chart(720, 320, 50, 46, title, None, None)
    x0, y0, x1, y1 = box
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
        canvas.rect(sx, y1 + 22, 10, 10, fill=PALETTE[si % len(PALETTE)])
        canvas.text(sx + 14, y1 + 31, name, size=10)
    _value_labels(canvas, box, top, 0.0)
    return canvas.tostring()


def curve_plot(xs, ys, title):
    """Single curve with axes, e.g. a density estimate."""
    x_span, y_span = _span(xs), (0.0, max(ys) or 1.0)
    canvas, box, points = _chart(480, 300, 50, 40, title, x_span, y_span)
    canvas.polyline(points(xs, ys), stroke="#1b6ca8")
    _value_labels(canvas, box, y_span[1], 0.0, x_span)
    return canvas.tostring()


def scatter_plot(xs, ys, slope, intercept, title, x_label, y_label):
    """Scatter of (x, y) points with the fitted line y = slope * x + intercept."""
    x_span, y_span = _span(xs), _span(ys)
    canvas, box, points = _chart(480, 340, 56, 52, title, x_span, y_span)
    x0, y0, x1, y1 = box
    canvas.polyline(points(x_span, [slope * x + intercept for x in x_span]), stroke="#c0392b")
    for cx, cy in points(xs, ys):
        canvas.circle(cx, cy)
    _value_labels(canvas, box, y_span[1], y_span[0], x_span)
    canvas.text((x0 + x1) / 2.0, y1 + 40, x_label, anchor="middle", size=10)
    canvas.text(14, y0 - 10, y_label, size=10)
    return canvas.tostring()
