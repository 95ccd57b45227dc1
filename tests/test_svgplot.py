"""The SVG writer's text escaping and charts, what importing lingdist and
its CLI loads, and the names the package exports."""

import dataclasses
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape as sax_escape

import pytest
from conftest import FIXTURES
from hypothesis import given, settings
from hypothesis import strategies as st

import lingdist
from lingdist import svgplot
from lingdist.cluster import agglomerate, export_svg
from lingdist.editdist import DistanceMatrix
from lingdist._record import FrozenRecord, Record

SRC = pathlib.Path(lingdist.__file__).resolve().parent.parent

# Each public name and the submodule it comes from, written out so that a
# name dropped from the package's own table fails; `from lingdist import *`
# also gives the seven submodules.
EAGER_EXPORTS = {
    "cluster": ["ClusterAssignment", "Dendrogram", "PurityReport", "SilhouetteReport",
                "agglomerate", "best_cut", "cut", "export_newick", "export_svg", "purity",
                "silhouette", "silhouette_scan"],
    "editdist": ["GAP", "Alignment", "DistanceMatrix", "alignments", "all_to_all_matrix",
                 "concept_matrix", "entry_distance", "language_matrix",
                 "normalized_distance", "raw_distance", "read_oc", "write_oc"],
    "errors": ["LingdistError"],
    "lexicon": ["Lexicon", "WordEntry", "parse_lexicon", "serialize_lexicon",
                "symbols_used", "validate_against_table"],
    "stats": ["DensityCurve", "RegressionResult", "bhatt_distance_matrix", "bhatt_matrix",
              "bhattacharyya", "kde", "linregress", "mean_sd", "tscore"],
    "subst": ["SubstitutionTable", "builtin_table", "parse_table"],
    "svgplot": [],
}


def run_python(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return done.stdout


@given(st.text(alphabet="&<>\"'a;", max_size=12))
def test_escape_equals_saxutils_escape(text):
    assert svgplot.escape(text) == sax_escape(text)


def _xml_char(c):
    """Whether XML 1.0's Char production takes `c`."""
    o = ord(c)
    return o in (0x9, 0xA, 0xD) or 0x20 <= o <= 0xD7FF or 0xE000 <= o <= 0xFFFD or o >= 0x10000


@given(st.text(st.characters(exclude_categories=())))  # surrogates and controls too
def test_escape_makes_character_data_that_parses(text):
    parsed = ET.fromstring("<t>" + svgplot.escape(text) + "</t>").text or ""
    shown = "".join(c if _xml_char(c) else "\ufffd" for c in text)
    # a parser reads the line ends "\r\n" and "\r" as "\n"
    assert parsed == shown.replace("\r\n", "\n").replace("\r", "\n")


def test_text_labels_are_escaped():
    canvas = svgplot.Canvas(10, 10)
    canvas.text(0, 0, 'a&b<c>"d\'')
    assert "a&amp;b&lt;c&gt;\"d'</text>" in canvas.tostring()


SVG = "{http://www.w3.org/2000/svg}"


def text_spans(root):
    """Each text of a parsed SVG document as (left, right, text), its width
    estimated as Canvas.text does, at 0.6 em a character."""
    spans = []
    for text in root.iter(SVG + "text"):
        content = text.text or ""
        w = 0.6 * int(text.get("font-size")) * len(content)
        left = float(text.get("x")) - {"start": 0.0, "middle": w / 2.0, "end": w}[
            text.get("text-anchor")]
        spans.append((left, left + w, content))
    return spans


def assert_texts_on_canvas(svg):
    """Parse `svg` and check that every text lies within [0, width], up to
    the rounding of x and width, each written to 0.005; return the root."""
    root = ET.fromstring(svg)
    width = float(root.get("width"))
    assert root.get("viewBox") == f"0 0 {root.get('width')} {root.get('height')}"
    background = root.find(SVG + "rect")
    assert (background.get("width"), background.get("height")) == (
        root.get("width"), root.get("height"))
    for left, right, content in text_spans(root):
        assert -0.01 <= left and right <= width + 0.01, (left, right, width, content)
    return root


def size_of(root):
    return float(root.get("width")), float(root.get("height"))


def test_grouped_bars_draws_a_rect_per_category_and_series():
    svg = svgplot.grouped_bars(["a", "b", "c"], [("mean", [1.0, 2.0, 3.0]),
                                                 ("sd", [0.5, 0.25, 0.0])], "bars")
    root = assert_texts_on_canvas(svg)
    assert size_of(root) == (720, 320)
    # 3 x 2 bars, 2 legend swatches and the background
    assert len(root.findall(SVG + "rect")) == 6 + 2 + 1
    assert [t.text for t in root.iter(SVG + "text")] == ["bars", "a", "b", "c", "mean",
                                                         "sd", "3", "0"]


def test_grouped_bars_of_zeros_scale_by_one():
    root = ET.fromstring(svgplot.grouped_bars(["a"], [("m", [0.0])], "t"))
    bar = root.findall(SVG + "rect")[1]
    assert (bar.get("y"), bar.get("height")) == ("274.00", "0.00")
    assert [t.text for t in root.iter(SVG + "text")][-2:] == ["1", "0"]


def test_curve_plot_draws_one_polyline_of_every_point():
    xs, ys = [0.0, 1.0, 2.0, 4.0], [0.0, 0.5, 2.0, 1.0]
    root = assert_texts_on_canvas(svgplot.curve_plot(xs, ys, "curve"))
    assert size_of(root) == (480, 300)
    (line,) = root.findall(SVG + "polyline")
    # x over [0, 4] onto 50..460, y over [0, 2] onto 260..28
    assert line.get("points") == "50.00,260.00 152.50,202.00 255.00,28.00 460.00,144.00"
    assert [t.text for t in root.iter(SVG + "text")] == ["curve", "0", "4", "2", "0"]


def test_curve_plot_widens_a_constant_x_and_scales_zero_ys_by_one():
    root = ET.fromstring(svgplot.curve_plot([2.0, 2.0, 2.0], [0.0, 0.0, -0.0], "flat"))
    (line,) = root.findall(SVG + "polyline")
    assert line.get("points") == "50.00,260.00 50.00,260.00 50.00,260.00"
    # the x span is [2, 3], the y span [0, 1]
    assert [t.text for t in root.iter(SVG + "text")] == ["flat", "2", "3", "1", "0"]


def test_scatter_plot_draws_each_point_and_a_two_point_line():
    xs, ys = [1.0, 2.0, 3.0, 5.0, 8.0], [2.0, 3.0, 5.0, 4.0, 9.0]
    root = assert_texts_on_canvas(
        svgplot.scatter_plot(xs, ys, 1.0, 1.0, "scatter", "geo", "ling"))
    assert size_of(root) == (480, 340)
    assert len(root.findall(SVG + "circle")) == 5
    (line,) = root.findall(SVG + "polyline")
    # y = x + 1 from x = 1 to 8, over x in [1, 8] onto 56..460 and y in [2, 9] onto 288..28
    assert line.get("points") == "56.00,288.00 460.00,28.00"
    assert [t.text for t in root.iter(SVG + "text")] == [
        "scatter", "1", "8", "9", "2", "geo", "ling"]


def test_scatter_plot_widens_a_constant_column():
    root = ET.fromstring(svgplot.scatter_plot([3.0, 3.0], [1.0, 1.0], 0.0, 1.0, "t", "x", "y"))
    assert [c.get("cx") for c in root.iter(SVG + "circle")] == ["56.00", "56.00"]
    assert [c.get("cy") for c in root.iter(SVG + "circle")] == ["288.00", "288.00"]
    assert [t.text for t in root.iter(SVG + "text")][1:5] == ["3", "4", "2", "1"]


def test_chart_labels_are_escaped():
    name = 'a&b<c>"d\''
    svgs = [svgplot.grouped_bars([name], [(name, [1.0])], name),
            svgplot.curve_plot([0.0, 1.0], [1.0, 0.0], name),
            svgplot.scatter_plot([0.0, 1.0], [1.0, 0.0], -1.0, 1.0, name, name, name)]
    for svg, count in zip(svgs, (3, 1, 3)):
        assert svg.count("a&amp;b&lt;c&gt;\"d'</text>") == count
        assert [t.text for t in ET.fromstring(svg).iter(SVG + "text")].count(name) == count


def test_a_text_wider_than_the_canvas_widens_it():
    canvas = svgplot.Canvas(100, 20)
    canvas.text(50, 10, "x" * 10, size=10, anchor="middle")  # 60 wide: fits, stays
    canvas.text(95, 10, "y" * 10, size=10)  # would end at 155: moved to end at 100
    canvas.text(10, 10, "z" * 20, size=10, anchor="end")  # 120 wide: the canvas grows
    svg = canvas.tostring()
    root = assert_texts_on_canvas(svg)
    assert size_of(root) == (120, 20)
    assert [t.get("x") for t in root.iter(SVG + "text")] == ["50.00", "40.00", "120.00"]


ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=150)  # controls too


@settings(max_examples=60, deadline=None)
@given(labels=st.lists(st.text(min_size=1, max_size=120), min_size=2, max_size=4,
                       unique=True))
def test_the_text_rule_moves_no_dendrogram_label(labels):
    n = len(labels)
    d = agglomerate(DistanceMatrix(labels, [1.0 + i for i in range(n * (n - 1) // 2)]))
    root = assert_texts_on_canvas(export_svg(d))
    longest = max(map(len, labels))
    width = 720 if longest < 80 else 204 + 8 * longest
    assert size_of(root)[0] == width
    # each label 6 right of the leaves, as placed before any text was moved
    leaf_x = width - 36 - (8 * longest + 12) + 6
    xs = [float(t.get("x")) for t in root.iter(SVG + "text")][:n]
    assert xs == [round(leaf_x, 2)] * n


def _fits(width, *texts):
    return all(0.6 * size * len(text) <= width for size, text in texts)


@settings(max_examples=60, deadline=None)
@given(title=ANY_TEXT, names=st.lists(ANY_TEXT, min_size=1, max_size=3),
       cats=st.lists(ANY_TEXT, min_size=1, max_size=4),
       x_label=ANY_TEXT, y_label=ANY_TEXT,
       values=st.lists(st.floats(0.0, 1e6), min_size=8, max_size=8))
def test_every_chart_text_stays_on_its_canvas(title, names, cats, x_label, y_label, values):
    # value labels are at most 9 characters, so never the text that widens
    bars = svgplot.grouped_bars(cats, [(name, values[:len(cats)]) for name in names], title)
    curve = svgplot.curve_plot(values[:4], values[4:], title)
    scatter = svgplot.scatter_plot(values[:4], values[4:], 0.5, 1.0, title, x_label, y_label)
    for svg, size, labels in ((bars, (720, 320), cats + names), (curve, (480, 300), []),
                              (scatter, (480, 340), [x_label, y_label])):
        root = assert_texts_on_canvas(svg)
        assert size_of(root)[1] == size[1]
        if _fits(size[0], (12, title), *((10, label) for label in labels)):
            assert size_of(root) == size
        else:
            assert size_of(root)[0] > size[0]


def test_cli_import_loads_no_network_modules(tmp_path):
    code = f"""if True:
        import json, sys
        import lingdist
        package = sorted(m for m in sys.modules if m.startswith("lingdist."))
        import lingdist.cli
        cli = set(sys.modules)
        code = lingdist.cli.main(["all-to-all", "--lexicon", {str(FIXTURES / "sheep.pl")!r},
                                  "--out", {str(tmp_path / "out")!r}])
        print(json.dumps([package, sorted(cli), code, sorted(sys.modules)]))
    """
    package, cli, code, run = json.loads(run_python(code))
    # xml.sax.saxutils imports urllib.request, which loads the network stack
    assert [m for m in ("ssl", "urllib.request", "http.client", "email") if m in cli] == []
    # what all-to-all does not run is not loaded
    assert [m for m in ("dataclasses", "inspect", "lingdist.stats", "lingdist.svgplot")
            if m in cli] == []
    assert package == []
    assert code == 0
    assert [m for m in ("lingdist.stats", "lingdist.svgplot") if m in run] == []


def test_package_exports_resolve_on_first_access():
    submodules = sorted(EAGER_EXPORTS)
    for module, names in EAGER_EXPORTS.items():
        source = importlib.import_module(f"lingdist.{module}")
        for name in names:
            assert getattr(lingdist, name) is getattr(source, name), name
    public = sorted(name for names in EAGER_EXPORTS.values() for name in names)
    assert len(public) == 43
    namespace = {}
    exec("from lingdist import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(public + submodules)
    assert len(namespace) - 1 == 50
    assert set(public + submodules) <= set(dir(lingdist))
    code = ("import lingdist\n"
            "print(lingdist.stats.kde([0.0, 1.0, 3.0], grid_points=3).xs)")
    assert run_python(code).strip() == repr(lingdist.stats.kde([0.0, 1.0, 3.0], 3).xs)


# (class, its fields in constructor order, constructor arguments, frozen)
VALUE_CLASSES = [
    (lingdist.Dendrogram, ["leaf_labels", "merges"], [("a", "b"), ((0, 1, 0.5),)], False),
    (lingdist.ClusterAssignment, ["k", "member_of"], [2, {"a": 1, "b": 2}], False),
    (lingdist.SilhouetteReport, ["per_point", "mean"], [{"a": 0.5}, 0.5], False),
    (lingdist.PurityReport, ["per_cluster", "majority", "sizes", "overall"],
     [{1: 1.0}, {1: "x"}, {1: 2}, 1.0], False),
    (lingdist.Alignment, ["columns", "raw_cost"], [(("a", None),), 1.0], True),
    (lingdist.DistanceMatrix, ["labels", "values"], [("a", "b"), [0.5]], False),
    (lingdist.WordEntry, ["variants"], [("ab", "ac")], True),
    (lingdist.Lexicon, ["functor", "entries", "concepts"],
     ["n", {"a": (lingdist.WordEntry(("ab",)),)}, ("one",)], False),
    (lingdist.DensityCurve, ["xs", "ys", "bandwidth"], [[0.0], [1.0], 0.5], False),
    (lingdist.RegressionResult, ["slope", "intercept", "r_squared", "n"],
     [1.0, 0.0, 1.0, 3], False),
]


@pytest.mark.parametrize("cls, fields, args, frozen", VALUE_CLASSES,
                         ids=[case[0].__name__ for case in VALUE_CLASSES])
def test_value_classes_behave_as_dataclasses(cls, fields, args, frozen):
    assert list(inspect.signature(cls).parameters) == fields
    value = cls(*args)
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=frozen)
    expected = twin(*(getattr(value, name) for name in fields))
    assert repr(value) == repr(expected)
    assert value == cls(*args) and not value != cls(*args)
    assert value != expected  # equal only within one class, as a dataclass
    if frozen:
        assert hash(value) == hash(cls(*args)) == hash(expected)
        with pytest.raises(AttributeError):
            setattr(value, fields[0], args[0])
        with pytest.raises(AttributeError):
            delattr(value, fields[0])
    else:
        with pytest.raises(TypeError):
            hash(value)
        setattr(value, fields[0], args[0])


def test_value_classes_lists_every_record_the_package_exports():
    # A new value class must join VALUE_CLASSES, so its repr, == and hash are checked.
    reachable = set()
    for name in lingdist.__all__:
        value = getattr(lingdist, name)
        members = vars(value).items() if inspect.ismodule(value) else [(name, value)]
        reachable |= {obj for attr, obj in members if not attr.startswith("_")
                      and inspect.isclass(obj) and issubclass(obj, Record)}
    assert reachable - {Record, FrozenRecord} == {case[0] for case in VALUE_CLASSES}
