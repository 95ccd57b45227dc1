"""Byte identity of every artifact on the repository fixtures.

The sha256 of each file the four subcommands write, pinned from a known-good
run: on the sheep fixtures, the `fixtures` entries of perfbench/golden.json,
read here; on `synth8x6.pl`, the values below.  A change that alters any
output byte fails here; such a change must say why and update the synthetic
values here, and the fixture values in that manifest with the benchmark.
`synth8x6.pl` has many tied distances; its `cluster` and `all-to-all`
artifacts are pinned under every linkage, so the tie rules of the
clustering are pinned too.  Every `.oc` artifact also reads back through
`read_oc` and writes back to the same text, and every `.svg` parses as XML.
"""

import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from conftest import FIXTURES
from lingdist.cli import main as cli_main
from lingdist.editdist import read_oc, write_oc

CASES = {
    "words-analyse": ["words-analyse", "--lexicon", "sheep.pl"],
    "cluster": ["cluster", "--lexicon", "sheep.pl", "--k", "2",
                "--truth", "sheep_truth.csv"],
    "relationship": ["relationship", "--lexicon", "sheep.pl",
                     "--geo", "sheep_geo.csv"],
    "all-to-all": ["all-to-all", "--lexicon", "sheep.pl"],
}

# The fixture hashes are the benchmark manifest's: perfbench/run.py fails any
# run whose fixture bytes differ from it, with the same arguments as CASES.
GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "golden.json")
                    .read_text(encoding="utf-8"))["fixtures"]


def assert_oc_artifacts_round_trip(out):
    for path in out.glob("*.oc"):
        text = path.read_text(encoding="utf-8")
        assert write_oc(read_oc(text)) == text, path.name


def assert_svg_artifacts_parse(out):
    for path in out.glob("*.svg"):
        assert ET.parse(path).getroot().tag == "{http://www.w3.org/2000/svg}svg", path.name


@pytest.mark.parametrize("command", sorted(CASES))
def test_fixture_artifacts_are_byte_identical(command, tmp_path):
    args = [str(FIXTURES / a) if a.endswith((".pl", ".csv")) else a
            for a in CASES[command]]
    out = tmp_path / "out"
    assert cli_main(args + ["--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == GOLDEN[command]
    assert_oc_artifacts_round_trip(out)
    assert_svg_artifacts_parse(out)


SYNTH = FIXTURES / "synth8x6.pl"

SYNTH_GOLDEN = {
    "cluster/single": {
        "clusters.csv":
            "d90b281557ffab9e8026446f7a46561f7894218ab8ddc472e38f6deaa0d7dc1c",
        "dendrogram.nwk":
            "18612352346620843272e389f6f447565f2f06f7132f4df22b757972b00610b7",
        "dendrogram.svg":
            "f2d31be38023a13fde74e074988f426c7a84f8af99cf5d8b01cf925de9b75f42",
        "languages.oc":
            "2e75415ca56799ec1badd2fad46eacf79580df9d2f800020ee0468454994e2bb",
        "silhouette.csv":
            "7754b3acd48c63a2cba48d5161f1f68fda09e6a4b78812f9fd755a56fb7256d5",
    },
    "cluster/complete": {
        "clusters.csv":
            "d90b281557ffab9e8026446f7a46561f7894218ab8ddc472e38f6deaa0d7dc1c",
        "dendrogram.nwk":
            "6615166e49c1da185bc58775fb2bca9c7b5ebe3af63184e128fdb27818f7a0ff",
        "dendrogram.svg":
            "52de5a1118579d0b501132b613ac8f88b4f907e5b1cb2117eeccae64ffd7612c",
        "languages.oc":
            "2e75415ca56799ec1badd2fad46eacf79580df9d2f800020ee0468454994e2bb",
        "silhouette.csv":
            "6a0f0d28a7bcdbe7aa9cc5e2352516224896aa5d7f62a4598e81080344a5701a",
    },
    "cluster/average": {
        "clusters.csv":
            "d90b281557ffab9e8026446f7a46561f7894218ab8ddc472e38f6deaa0d7dc1c",
        "dendrogram.nwk":
            "b18434f00fa760ac1d98c1239d241990bdc14f98bd0f14681d4bf11445d3e040",
        "dendrogram.svg":
            "72d6029651d3cb4d0a1a6abad4ae6b455f1ba5bda485f819fd2ed4d9099a2abe",
        "languages.oc":
            "2e75415ca56799ec1badd2fad46eacf79580df9d2f800020ee0468454994e2bb",
        "silhouette.csv":
            "6a0f0d28a7bcdbe7aa9cc5e2352516224896aa5d7f62a4598e81080344a5701a",
    },
    "all-to-all/single": {
        "all_to_all.oc":
            "69bc5e049bd742f05b405d3b92cce266b7a5da122280810b0e7d83e99dde16e3",
        "clusters_best.csv":
            "427081d44884847be5354358e10e3713abe8a14f082caa1b19fe7e529594d62e",
        "clusters_k6.csv":
            "6e9d91f97b788a3aad9a41868da6222cfde72e2982e0d1bdf5b96407bdce8a9c",
        "purity.csv":
            "b0e98df7b721179bc6e4b1b5e79550bb77900431543b686cb76f44786bb98fd5",
    },
    "all-to-all/complete": {
        "all_to_all.oc":
            "69bc5e049bd742f05b405d3b92cce266b7a5da122280810b0e7d83e99dde16e3",
        "clusters_best.csv":
            "588a6f5130c765c8af6db86c5e0fa767da8ce4331c2d69262a95e8ab56225a37",
        "clusters_k6.csv":
            "72456bb3a6dad16289ab288401b4d14abc009d500079859a0facd3c90138d45f",
        "purity.csv":
            "742d5d84e7a4fd2a2e22c3717ac8931eaf7b3efd2549b5174a4ee3be48438aee",
    },
    "all-to-all/average": {
        "all_to_all.oc":
            "69bc5e049bd742f05b405d3b92cce266b7a5da122280810b0e7d83e99dde16e3",
        "clusters_best.csv":
            "427081d44884847be5354358e10e3713abe8a14f082caa1b19fe7e529594d62e",
        "clusters_k6.csv":
            "72456bb3a6dad16289ab288401b4d14abc009d500079859a0facd3c90138d45f",
        "purity.csv":
            "742d5d84e7a4fd2a2e22c3717ac8931eaf7b3efd2549b5174a4ee3be48438aee",
    },
}


@pytest.mark.parametrize("case", sorted(SYNTH_GOLDEN))
def test_synthetic_artifacts_are_byte_identical(case, tmp_path):
    command, linkage = case.split("/")
    out = tmp_path / "out"
    assert cli_main([command, "--lexicon", str(SYNTH), "--linkage", linkage,
                     "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == SYNTH_GOLDEN[case]
    assert_oc_artifacts_round_trip(out)
    assert_svg_artifacts_parse(out)
