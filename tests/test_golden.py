"""Byte identity of every artifact on the repository fixtures.

The sha256 of each file the four subcommands write, pinned from a known-good
run.  A change that alters any output byte fails here; such a change must
say why and update these values.  The synthetic lexicon `synth8x6.pl` has
many tied distances; its `cluster` and `all-to-all` artifacts are pinned
under every linkage, so the tie rules of the clustering are pinned too.
Every `.oc` artifact also reads back through `read_oc` and writes back to
the same text.
"""

import hashlib

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

GOLDEN = {
    "words-analyse": {
        "bhatt.csv":
            "c813e719e87f84ae7d868c8f392d6abea0398455f372fe3bfe781b6c2bce5a9b",
        "bhatt_dendrogram.nwk":
            "c7838894b972fd0c6d659879e296b18e81e19da3acedb12599e3be555aba6b50",
        "bhatt_dendrogram.svg":
            "5e73edbee44c02b1950eff3a0c6e18d96a88499acc4ec03aac1f12e8ae9879bd",
        "density_w1.csv":
            "33444c1ff0fe9f68807910c1c53fd3da63fb5480ee7cb67b926fc8aae29dd4ad",
        "density_w1.svg":
            "6996c2742bba7d19ebf41d896d1afe5c9c316d84f1741e69ddb2f3fe909f3024",
        "density_w10.csv":
            "f7c2caa067567d225c3540ee2f3b050a588c074ce3ddc0652602aec37f8093d6",
        "density_w10.svg":
            "51df36a2ff5ffd40283d186506364a6dc79aace5b8fee9ec96bd88966d2b6fbc",
        "density_w2.csv":
            "f9a39384936aff70a30551d30da86053c070cd3b7fea0927fd29f850007e8cdd",
        "density_w2.svg":
            "9056e8ba9f8a72d177691c6d21c7184e582e552d717ebfc82de4c0c06e8bac71",
        "density_w3.csv":
            "8cbfec25c262a0e037b4e076e4d580bffb28bf604033349f868e57f9abd047d1",
        "density_w3.svg":
            "372f053af9063e33cfbaba2b654fc749b268678c00dfb806afeb706c9043e33c",
        "density_w4.csv":
            "46bb5c4e1c06f13eaa2b20ed4f67d76e6df6cf3a840b651ef256c6865b557915",
        "density_w4.svg":
            "12b2d6e8ec3c2a6f3cb45137079af6b499a8f842f70d5d61eec8f99d4cd9b34c",
        "density_w5.csv":
            "83639a778a03a66ff8a54bfa660f4f5935fcbe4f058ca4529cb25235235d8514",
        "density_w5.svg":
            "7a1821bf8a9a826fbeee140e8e1f43f7d3eef9d46acc302c78ce989cd2457230",
        "density_w6.csv":
            "d9da72d352b4a6b8c74c8830d54ed337f97ac8185280a247d7b5f461d3fdb388",
        "density_w6.svg":
            "83e92489ab4612c6321887fc2b7d52744ea5f71a2aa3411f5ddfe11cef078456",
        "density_w7.csv":
            "3e01679c88c011871b0164a939dbc365e73f0bd9ef0d95f2248032badc4f65c1",
        "density_w7.svg":
            "fd670204c239fa86df9efeb9541ff0fb1b0a251e499f3095d88aff992da79cd0",
        "density_w8.csv":
            "e75d6f601c75c5fcbf856080c3e0f231b2ba2aa8719c07204567eae6b83d3216",
        "density_w8.svg":
            "89a5f1cf2029267af0f1fa19451dc40d51acff111bb1461436448ffb742525cb",
        "density_w9.csv":
            "66f8e33a8d1307ef4bd3094e8aaf03e46751e974dab21b24b16a033a679d6127",
        "density_w9.svg":
            "9b22fd43a0d53874dd936b668595d103cc8812685230a5eecb399b284f320f5f",
        "mean_sd.csv":
            "2f5dc2b8f18b8f1aa5f6568d5689aaa72b1d3879e156e9c055f56e9724f5f6a8",
        "mean_sd.svg":
            "6a6569d3dfdc4b6c02cf8e935e7d62474fdfb63a73da2cc218af578fbf1ce0da",
        "tscore.csv":
            "5ceefaf51f1e666377cc2ba990e7a4e61e1e069e37bbbb26a356f694fbf735e4",
        "w1.oc":
            "adf72e9cad9bc52cb7e22ccd8924239ca1977b1543fcd0bc665ae4eaecbecfe9",
        "w10.oc":
            "f29f49fca063807cb21ac59985ccfea5ec772367d8cf9fa4382acf13465a52c1",
        "w2.oc":
            "32daebe2e2fa2ff83670bab5d5ac0a4540b71d6781039a7ca755bd78138efdd2",
        "w3.oc":
            "46cf266a77ea3d5618d8f1c37855616ff240216308469f8060f5c1524d8c8acb",
        "w4.oc":
            "7b9dcdba3c2446b34f15df5359f9a6a610edc431f0c5845558d9f43a317de63e",
        "w5.oc":
            "6b41bc01e442306c46e1b3c782bc5adccabaa576be1abe333a24a30262c797e6",
        "w6.oc":
            "1cb0d5eda17c9f8fcd354a59a442732f17fec60a10ba445b92315b984e08d37e",
        "w7.oc":
            "a0860f3d8a6f818e655ca9efdefec042d4b0b84fcaedc2b84f5826ba2490dad7",
        "w8.oc":
            "be80c5677573d4a45f08aa4af610364833182d4340cce496f4266baba6b4aa8e",
        "w9.oc":
            "fdc54d004933bc6fcda8dfd598bcc96aa9230e09f804e1f7e5013650cfa5c58c",
    },
    "cluster": {
        "clusters.csv":
            "21dcbd2808785488c7943c199d7cc9279b722099d57c7413bb96fb39e62dcf2c",
        "clusters_forced.csv":
            "78da9571fadbbd10cf0c0c26eefdd9681befd18c91e2e61c8b8f74c313a7c1fa",
        "dendrogram.nwk":
            "8dec55f09e89f8748b7853a056446e1999ea8575f6e15ba041052b782755bd22",
        "dendrogram.svg":
            "ad2ac0a3f647afd98baa813822b12818714edfc57a3a9daeb1dac4c8aad02578",
        "languages.oc":
            "389a51755950d1c4ff736730637b23d8aff907ad6cce4b0e9f7aae021be8a3fa",
        "purity.csv":
            "67e27822dec62e8563123cf3908fd8f8aebf6e7c1b5cd6bb66bba3b12e609291",
        "silhouette.csv":
            "300cd7a6f3e3dc1003f828a5338961185c5e3da6a4ec318aaf785010081a0ce1",
    },
    "relationship": {
        "pairs.csv":
            "8708c2846d98f99608655eb1bead08d74d632a5b4924fc9bafe9533bbac2834e",
        "regression.txt":
            "a35088693d266970fd7d4c9d2af4502ba5e36893f78f431370149cddfb272116",
        "scatter_log10.svg":
            "297fd9f15fec1a587986b2a32f0f1218b3dbcf81a9d8473c87ed79734eaf8337",
        "scatter_raw.svg":
            "96f1eaef9cbcef02ea7da00a92bc671feba2ab5d477d5edba899ea46376140ac",
    },
    "all-to-all": {
        "all_to_all.oc":
            "5b006f0db4a11ab3ee03803f7c0adeac192fb3897886c6c1b389234f3d505826",
        "clusters_best.csv":
            "965a1f417cf577a438cbecdda3fa2b7d95f5e6a5c3265d3dfdfbf391e941b47b",
        "clusters_k10.csv":
            "1fc0dedd42d7ce1734027d00c4c5862d2fa988c1c78174a30d10bde02c089351",
        "purity.csv":
            "9d6a434aba33d5d7b644f6e053e2dcf51babfe98b7f6dd06eb150c4feeaab7c8",
    },
}


def assert_oc_artifacts_round_trip(out):
    for path in out.glob("*.oc"):
        text = path.read_text(encoding="utf-8")
        assert write_oc(read_oc(text)) == text, path.name


@pytest.mark.parametrize("command", sorted(CASES))
def test_fixture_artifacts_are_byte_identical(command, tmp_path):
    args = [str(FIXTURES / a) if a.endswith((".pl", ".csv")) else a
            for a in CASES[command]]
    out = tmp_path / "out"
    assert cli_main(args + ["--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == GOLDEN[command]
    assert_oc_artifacts_round_trip(out)


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
