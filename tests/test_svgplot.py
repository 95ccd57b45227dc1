"""The SVG writer's text escaping, what importing lingdist and its CLI
loads, and the names the package exports."""

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
from hypothesis import given
from hypothesis import strategies as st

import lingdist
from lingdist import svgplot
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
