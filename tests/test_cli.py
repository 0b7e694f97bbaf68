"""The command-line interface: verbs, formats, and exit codes."""
import json

from signbalance321.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRsk:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "rsk", "2 3 1")
        assert code == 0
        assert out == "P: 1 3 / 2\nQ: 1 2 / 3\n"

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "rsk", "1 2 3")
        assert code == 0
        assert out == "P: 1 2 3\nQ: 1 2 3\n"

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "rsk", "3 2 1")
        assert code == 2
        assert "error" in err

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "rsk", "1 2 2")
        assert code == 2
        assert "error" in err


class TestUnrsk:
    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "unrsk", "--p", "+-+", "--q", "++-")
        assert code == 0
        assert out == "2 3 1\n"

    def test_shape_mismatch(self, capsys):
        code, _, err = run(capsys, "unrsk", "--p", "+-+", "--q", "+++")
        assert code == 2
        assert "error" in err


class TestMap:
    def test_capital_phi(self, capsys):
        code, out, _ = run(capsys, "map", "--which", "Phi", "--input", "2 3 1")
        assert code == 0
        assert out == "1 3 2\nbranch: P-side\n"

    def test_capital_psi_audit(self, capsys):
        code, out, _ = run(
            capsys, "map", "--which", "Psi", "--input", "1 4 5 2 3", "--audit"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "4 1 5 2 3"
        assert lines[1] == "branch: Q-psi-forward"
        assert lines[2] == "p: +++-- -> +++--"
        assert lines[3] == "q: +++-- -> +-+-+"
        assert lines[4] == "sign: 1 -> -1"

    def test_small_phi(self, capsys):
        code, out, _ = run(capsys, "map", "--which", "phi", "--input", "+-+")
        assert code == 0
        assert out == "++-\n"

    def test_small_psi_dispatch(self, capsys):
        code, out, _ = run(
            capsys, "map", "--which", "psi", "--input", "+++--", "--d", "3"
        )
        assert code == 0 and out == "+-+-+\n"
        code, out, _ = run(
            capsys, "map", "--which", "psi", "--input", "+-+-+", "--d", "3"
        )
        assert code == 0 and out == "+++--\n"

    def test_delshift(self, capsys):
        code, out, _ = run(capsys, "map", "--which", "delshift", "--input", "2 3 1")
        assert code == 0
        assert out == "2 1 3\n"

    def test_usage_errors(self, capsys):
        code, _, err = run(capsys, "map", "--which", "Phi", "--input", "2 3 1", "--d", "2")
        assert code == 2 and "error" in err
        code, _, err = run(capsys, "map", "--which", "psi", "--input", "+++--")
        assert code == 2 and "error" in err

    def test_domain_errors(self, capsys):
        code, _, err = run(capsys, "map", "--which", "phi", "--input", "+++")
        assert code == 2 and "error" in err
        code, _, err = run(capsys, "map", "--which", "psi", "--input", "++--+", "--d", "2")
        assert code == 2 and "error" in err


class TestStats:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "stats", "--n", "3", "--by", "lis")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["value", "count", "even", "odd", "signed"]
        assert lines[1].split() == ["2", "4", "2", "2", "0"]
        assert lines[2].split() == ["3", "1", "1", "0", "1"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "stats", "--n", "3", "--by", "ldes", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 3 and doc["statistic"] == "ldes"
        rows = {r["value"]: r for r in doc["rows"]}
        assert rows[0]["count"] == 1 and rows[0]["signed"] == 1

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "stats", "--n", "2", "--by", "sign", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value,count,even,odd,signed"
        assert lines[1] == "1,1,1,0,1"
        assert lines[2] == "-1,1,0,1,-1"

    def test_conflicting_formats(self, capsys):
        code, _, _ = run(capsys, "stats", "--n", "3", "--by", "lis", "--json", "--csv")
        assert code == 2

    def test_cap(self, capsys):
        code, _, err = run(capsys, "stats", "--n", "15", "--by", "lis")
        assert code == 2 and "error" in err

    def test_negative_n_exit_two(self, capsys):
        for by in ("lis", "ldes", "lind", "sign"):
            code, out, err = run(capsys, "stats", "--n", "-1", "--by", by)
            assert code == 2 and out == ""
            assert "nonnegative" in err


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "thm1.1", "--n-max", "5")
        assert code == 0
        assert "thm1.1 n=3: PASS" in out
        assert "all checks passed" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "prop2.1", "--n-max", "4", "--json"
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["n"] for r in rows] == [1, 2, 3, 4]
        assert all(r["pass"] for r in rows)

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "thm4.1", "--n-max", "4", "--csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "identity,n,key,lhs,rhs,pass"

    def test_workers_flag(self, capsys):
        code1, out1, _ = run(
            capsys, "verify", "--identity", "lemma2.2", "--n-max", "6", "--json"
        )
        code2, out2, _ = run(
            capsys,
            "verify", "--identity", "lemma2.2", "--n-max", "6", "--json",
            "--workers", "2",
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_unknown_identity_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--identity", "thm2.2", "--n-max", "4")
        assert code == 2

    def test_empty_size_range_exit_two(self, capsys):
        for n_max in ("2", "-3"):
            code, out, err = run(
                capsys, "verify", "--identity", "thm1.1", "--n-max", n_max
            )
            assert code == 2 and out == ""
            assert "n = 3" in err and "all checks passed" not in err

    def test_bad_worker_count_exit_two(self, capsys):
        for workers in ("0", "-2"):
            code, out, err = run(
                capsys,
                "verify", "--identity", "prop2.1", "--n-max", "3",
                "--workers", workers,
            )
            assert code == 2 and out == ""
            assert f"got {workers}" in err


class TestEnumerate:
    def test_perms(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["2 1 3", "2 3 1", "3 1 2", "1 3 2", "1 2 3"]

    def test_filtered(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "4", "--lis", "4")
        assert code == 0
        assert out.splitlines() == ["1 2 3 4"]
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--ldes", "2")
        assert code == 0
        assert set(out.splitlines()) == {"2 3 1", "1 3 2"}

    def test_ballots(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--emit", "ballots")
        assert code == 0
        assert out.splitlines() == ["+- +-", "++ ++"]

    def test_tableaux(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--emit", "tableaux")
        assert code == 0
        assert out.splitlines() == ["1 / 2\t1 / 2", "1 2\t1 2"]

    def test_negative_n_exit_two(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "-2")
        assert code == 2 and out == ""
        assert "nonnegative" in err

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "enumerate", "--n", "5")
        _, out2, _ = run(capsys, "enumerate", "--n", "5")
        assert out1 == out2


class TestHarness:
    def test_usage_error_exit_two(self, capsys):
        assert run(capsys, "nonsense")[0] == 2
        assert run(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SIGNBALANCE321_OUTPUT_DIR", str(tmp_path))
        code, out, _ = run(
            capsys, "verify", "--identity", "thm1.1", "--n-max", "4", "--json"
        )
        assert code == 0
        written = tmp_path / "verify-thm1.1-n4.json"
        assert written.is_file()
        assert written.read_text() == out

    def test_no_output_dir_by_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("SIGNBALANCE321_OUTPUT_DIR", raising=False)
        code, _, _ = run(capsys, "stats", "--n", "2", "--by", "lis", "--json")
        assert code == 0
        assert list(tmp_path.iterdir()) == []
