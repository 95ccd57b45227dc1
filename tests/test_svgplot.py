"""The SVG writer's text escaping, and what importing the CLI loads."""

import os
import pathlib
import subprocess
import sys
from xml.sax.saxutils import escape as sax_escape

from hypothesis import given
from hypothesis import strategies as st

import lingdist
from lingdist import svgplot

SRC = pathlib.Path(lingdist.__file__).resolve().parent.parent


@given(st.text(alphabet="&<>\"'a;", max_size=12))
def test_escape_equals_saxutils_escape(text):
    assert svgplot.escape(text) == sax_escape(text)


def test_text_labels_are_escaped():
    canvas = svgplot.Canvas(10, 10)
    canvas.text(0, 0, 'a&b<c>"d\'')
    assert "a&amp;b&lt;c&gt;\"d'</text>" in canvas.tostring()


def test_cli_import_loads_no_network_modules():
    # xml.sax.saxutils imports urllib.request, which loads the network stack
    code = ("import sys, lingdist.cli\n"
            "print(' '.join(m for m in ('ssl', 'urllib.request', 'http.client', 'email')"
            " if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == ""
