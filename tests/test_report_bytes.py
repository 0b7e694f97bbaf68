"""Report bytes are pinned.

Each digest is the SHA-256 of the CLI's stdout for one invocation: every
identity label under ``verify --n-max 8`` in JSON, CSV and text, every
statistic under ``stats --n 8`` in JSON, CSV and text, ``verify --help``,
a failing ``verify`` report, and ``enumerate --n 6`` emitting ballots and
tableaux.  The JSON reports must keep their bytes under ``--workers 2`` as
well, a report written to ``SIGNBALANCE321_OUTPUT_DIR`` must have the bytes
of stdout, and ``map --audit`` is pinned line by line.  A change that alters
any report byte fails here.  After a deliberate format
change, recompute the digests from the new output and say why in the
change log.
"""
import hashlib

import pytest

from signbalance321 import IDENTITY_LABELS, identities
from signbalance321.cli import main

FORMAT_FLAGS = {"json": ["--json"], "csv": ["--csv"], "text": []}

VERIFY_DIGESTS = {
    ("thm1.1", "json"): "5b70e3d5aa24473ac665f77c93f4c329b2105547f6a2cda7af1bfa4ea5b830eb",
    ("thm1.1", "csv"): "998358df4e2c228587fe3eded8276f85d6f40acec712be959c4f577e01555fab",
    ("thm1.1", "text"): "7ab84eba016175aed0c4906a76ba41cc6bb9dc4a4233320752588cc4fbe9e2f6",
    ("prop2.1", "json"): "b5afa17b6775239bcee8b5f27ada68e848a8f776fef3b0dda97f062eb5deb935",
    ("prop2.1", "csv"): "e77c075281816882ed879d289fad907f079151d3c7405230798ce68a357e8fb6",
    ("prop2.1", "text"): "725565e794abb056d9640c65612b8d09b5c5222fced0c7a26e7cd672320ea83b",
    ("lemma2.2", "json"): "aff3f5a6154b3efa60821292efb4f980bc419158c74ea38165907fb8dbae5a77",
    ("lemma2.2", "csv"): "e7f59aaf17fc9cb33e6e85a005d2fef7ae1b55715ccb53c9be4b27b6af805ad4",
    ("lemma2.2", "text"): "9d420278cdc45faf4a071b328efd7f32f2b506778e083a6a82664361c946a96c",
    ("prop3.1", "json"): "0df9f7167f65b206e9d9c374a52323fd53d5c3265b5f38e6ed53ae813480012f",
    ("prop3.1", "csv"): "a644d3a0393670f5137de67e9a2a2c4f88d6c3d4dfb4e9f1ecea794f2c7345c0",
    ("prop3.1", "text"): "3a10cc0308ef0cf281a84f3767b622b00bb769740c83382d8e08527ca4ad5e36",
    ("phi-involution", "json"): "457b7e83302c804a713cee477cd8378c169e91cdedb005532434aef7ba075824",
    ("phi-involution", "csv"): "225e5d638e1f79ea04ffcaf602998fcb93ce043e4744f0fdcfbcff764301b96a",
    ("phi-involution", "text"): "f2dc928daaf40ccb392ed9a1eae81a22ce0e105d9bc736b8024c328233ff3854",
    ("eo-identities", "json"): "3fa290e41f9a2c0629d3c0ee5be0ce4e9bb7127ee4eb45a87dfb443d7d45e788",
    ("eo-identities", "csv"): "d1ba8894ebed8b6be55985fabc081598ddef9dc75e4adfc908b524e64ce1a3f5",
    ("eo-identities", "text"): "662b2f27768e3a55f3ab019de1287be17fcf8d67b3fa7174484b402d5acf5a4e",
    ("thm4.1", "json"): "af8b5f8d3e0a13768b2b5b541084254dee890bdc0c3fe42b317262bcc82c06c0",
    ("thm4.1", "csv"): "b0d2d267b0e4ce4a9271edfaf5d4d71c5c3fe7d30d58456de0b69e4ed05dc90f",
    ("thm4.1", "text"): "b6a93e9b6d1aeffb7733aa6891d88c479ce0014046502771a45fad3b7da3fae2",
    ("lemma4.2-parity", "json"): "fe585ba3bb8802aa0554ec89af834be71abd182e9233e188ba5888834eefb3f6",
    ("lemma4.2-parity", "csv"): "91a47dcdd39b478eb61884ec78e22f2a8a2bb2197032664fc8ee2f0aa2d908ca",
    ("lemma4.2-parity", "text"): "53fd3b65ddb3900ac297585b23642eb6906d8182ef7351379d36d8907a1d21f1",
    ("prop4.3", "json"): "6d5c34def89bfbf3606dcb6d7fdd47a2dbc4fbf0148d9d5285c810ccb6485fec",
    ("prop4.3", "csv"): "00ac70de46b7c20ab10ecd98ebb5a8f79fb40b84fbd6bf3ed09c146d34ba9d5f",
    ("prop4.3", "text"): "ca0326b18bede86121457c1c0d07a76809c7cdd3eb0e8743cd5a6c6e26242c57",
    ("cor4.4", "json"): "a27bb4346d172d6a36d6ebac7a1fadf66c7420a54a7a322194fe61388f1b3789",
    ("cor4.4", "csv"): "96587bb41ea68ff546ed16b691bc3797608370c1c1a8da2f8ccdedaae440a707",
    ("cor4.4", "text"): "01dae492559b1717858468dba5c3dccf40a950894cf599ce2739cf4d65bf5c33",
    ("thm5.1", "json"): "1711c00ebf25e1dcc0e9b4efbecaf7d2794d0361cb1f84f702b6b8534f42bff4",
    ("thm5.1", "csv"): "0b3a0972f7a374165c62172128868230a5fba51badfe2db3e483076942d38a80",
    ("thm5.1", "text"): "e515c62700d9d16600e74cfdae5c722cde76d796b5193ce96085d231a7bdbc2a",
    ("srs-matching-consistency", "json"): "5a26bb27242e1f3a6d126a173032c8c0022bd6456af7e444f394af5c5ae8d35c",
    ("srs-matching-consistency", "csv"): "0912edbe7d2554090dedd848ca9febbebad7ab678343b757a26615364b74ad23",
    ("srs-matching-consistency", "text"): "c2e249782b419f8a63cb38f5be25103ff8e966b3e23a7ef38d2cea2ad269d33c",
}
STATS_DIGESTS = {
    ("lis", "json"): "3fef07721f0bb114cadb4cb29d475eaa22e25021d5b4ed98fc6275110e688d1f",
    ("lis", "csv"): "967b4e80f79dc780b4e9f3fa168e8d43a7f5b8553897d747c2083cbb1124aab4",
    ("lis", "text"): "a269df4000432fc9338fdc627a4d155fc58867d0d1cc2f2af4b2cbda7198e557",
    ("ldes", "json"): "b915228f156c39d8c2c20efd46fea123d6a081e81e3399a8c8c08bea3821b7d1",
    ("ldes", "csv"): "080984253b62b500fb1922affb5d9b2102ec8cb9cab3f08cda62c1e5f8dc25ee",
    ("ldes", "text"): "41ee852b29d4997c71109ee7e90d781fb746d840f9d9423a76749cc38fafc492",
    ("lind", "json"): "e89627836a994447074471068d5bfdfc2979154d61dcade76f31e88a693dba48",
    ("lind", "csv"): "4ce276000405a164f7f2120aaab58f479e6c6bab7d9a533ff0c2f45c216bbff6",
    ("lind", "text"): "840a1cdbcf1516ce78e0f3d151cc8b9c49a272a694b25fc860f4c5663ab314d6",
    ("sign", "json"): "f259a3d0ddb1927be1908e7488480378e111e60ebf7eefde62962674a0293432",
    ("sign", "csv"): "eca397e9b4076af41b39670a620ed340ee90f569e4d77df80127f21ac6ba4794",
    ("sign", "text"): "8572a576413b537687d1a284af7f02b9fff96608e75f388c50f1029f89c90375",
}
HELP_DIGEST = "4838faf51647d999ca7b87c5dfb624142f0fec10b542981fe9c9260b119a1127"
# verify --identity prop2.1 --n-max 5 in text, with the sign flipped on every
# word that starts with 1 (the prop2.1 fault of test_identities).
FAILING_VERIFY_DIGEST = "e22289cfcdd7b87572e8e3ea9384747811569b6e4f9dbe4a4c1dc8505e59230d"
ENUMERATE_DIGESTS = {
    "ballots": "df45cc6ec67b6df962c388c9bdd4191f4eaf78ee7413c33b8878f06ee76cb511",
    "tableaux": "2b4cf76d7fc6ea98d5db72a7ac047a8cbb10bfd565994858209d350f2e02f3bd",
}
EXTENSIONS = {"json": "json", "csv": "csv", "text": "txt"}
MAP_AUDITS = {
    ("Phi", "2 3 1"): "1 3 2\nbranch: P-side\np: +-+ -> ++-\nq: ++- -> ++-\nsign: 1 -> -1\n",
    ("Phi", "1 2"): "1 2\nbranch: fixed\np: ++ -> ++\nq: ++ -> ++\nsign: 1 -> 1\n",
    ("Psi", "1 4 5 2 3"): "4 1 5 2 3\nbranch: Q-psi-forward\n"
    "p: +++-- -> +++--\nq: +++-- -> +-+-+\nsign: 1 -> -1\n",
    ("Psi", "2 1 4 3"): "3 1 4 2\nbranch: P-side\n"
    "p: +-+- -> ++--\nq: +-+- -> +-+-\nsign: 1 -> -1\n",
    ("delshift", "4 1 2 5 7 8 3 6 9 12 10 11"): "4 1 2 5 7 8 3 6 9 10 12 11\n"
    "ldes: 10 -> lind: 11\n",
    ("phi", "+++--+-++++-"): "epsilon: 6\n+++---+++++-\n",
    ("psi", "+++--"): "class: A*  delta: 3  direction: forward\n+-+-+\n",
    ("psi", "+-+-+"): "class: B*+  delta: 3  direction: inverse\n+++--\n",
}


def _stdout_digest(capsys, monkeypatch, argv):
    # Help text wraps at the terminal width; pin it.
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_every_label_and_format_is_pinned():
    assert set(VERIFY_DIGESTS) == {
        (label, fmt) for label in IDENTITY_LABELS for fmt in FORMAT_FLAGS
    }


@pytest.mark.parametrize("label,fmt", sorted(VERIFY_DIGESTS))
def test_verify_report_bytes(capsys, monkeypatch, label, fmt):
    argv = ["verify", "--identity", label, "--n-max", "8"] + FORMAT_FLAGS[fmt]
    assert _stdout_digest(capsys, monkeypatch, argv) == VERIFY_DIGESTS[(label, fmt)]


@pytest.mark.parametrize("label", IDENTITY_LABELS)
def test_verify_report_bytes_with_two_workers(capsys, monkeypatch, label):
    # Worker processes check slices of each size; the merged report has the
    # serial report's bytes.
    argv = ["verify", "--identity", label, "--n-max", "8", "--json", "--workers", "2"]
    assert _stdout_digest(capsys, monkeypatch, argv) == VERIFY_DIGESTS[(label, "json")]


@pytest.mark.parametrize("statistic,fmt", sorted(STATS_DIGESTS))
def test_stats_report_bytes(capsys, monkeypatch, statistic, fmt):
    argv = ["stats", "--n", "8", "--by", statistic] + FORMAT_FLAGS[fmt]
    assert _stdout_digest(capsys, monkeypatch, argv) == STATS_DIGESTS[(statistic, fmt)]


@pytest.mark.parametrize("fmt", sorted(FORMAT_FLAGS))
@pytest.mark.parametrize(
    "argv,stem,digests,key",
    [
        (["stats", "--n", "8", "--by", "lis"], "stats-lis-n8", STATS_DIGESTS, "lis"),
        (
            ["verify", "--identity", "thm1.1", "--n-max", "8"],
            "verify-thm1.1-n8",
            VERIFY_DIGESTS,
            "thm1.1",
        ),
    ],
    ids=["stats", "verify"],
)
def test_output_dir_file_holds_the_stdout_bytes(
    capsys, monkeypatch, tmp_path, argv, stem, digests, key, fmt
):
    monkeypatch.setenv("SIGNBALANCE321_OUTPUT_DIR", str(tmp_path))
    digest = _stdout_digest(capsys, monkeypatch, argv + FORMAT_FLAGS[fmt])
    assert digest == digests[(key, fmt)]
    written = tmp_path / f"{stem}.{EXTENSIONS[fmt]}"
    assert [p.name for p in tmp_path.iterdir()] == [written.name]
    assert hashlib.sha256(written.read_bytes()).hexdigest() == digest


def test_failing_verify_text_bytes(capsys, monkeypatch):
    real = identities._sign
    monkeypatch.setattr(
        identities, "_sign", lambda values: -real(values) if values[0] == 1 else real(values)
    )
    assert main(["verify", "--identity", "prop2.1", "--n-max", "5"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == (
        'prop2.1 n=1: FAIL  lhs={"even": 1, "odd": 0, "violations": 1}  '
        'rhs={"even": 0, "odd": 1, "violations": 0}  counterexample: 1'
    )
    assert hashlib.sha256(out.encode()).hexdigest() == FAILING_VERIFY_DIGEST
    assert err == "counterexample at n=1: 1\n"


@pytest.mark.parametrize("emit", sorted(ENUMERATE_DIGESTS))
def test_enumerate_bytes(capsys, monkeypatch, emit):
    argv = ["enumerate", "--n", "6", "--emit", emit]
    assert _stdout_digest(capsys, monkeypatch, argv) == ENUMERATE_DIGESTS[emit]


@pytest.mark.parametrize("which,text", sorted(MAP_AUDITS))
def test_map_audit_bytes(capsys, which, text):
    argv = ["map", "--which", which, "--input", text, "--audit"]
    if which == "psi":
        argv += ["--d", "3"]
    assert main(argv) == 0
    assert capsys.readouterr() == (MAP_AUDITS[(which, text)], "")


def test_verify_help_bytes(capsys, monkeypatch):
    assert _stdout_digest(capsys, monkeypatch, ["verify", "--help"]) == HELP_DIGEST
