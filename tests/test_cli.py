import json

import pytest

from jordanblocks.cli import main, parse_partition


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


class TestParsing:
    def test_partition_argument(self):
        assert parse_partition("4,2,1") == (4, 2, 1)
        assert parse_partition("2,4") == (4, 2)


class TestTensor:
    def test_char2_cell(self, capsys):
        code, out, _ = run(capsys, "tensor", "--p", "2", "--law", "multiplicative",
                           "--a", "4", "--b", "4")
        assert code == 0
        assert out == "4·J4"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "tensor", "--p", "7", "--law", "additive",
                           "--lambda", "3", "--mu", "3", "--json")
        data = json.loads(out)
        assert data["partition"] == [5, 3, 1]

    def test_needs_operands(self, capsys):
        code, _, err = run(capsys, "tensor", "--p", "2", "--law", "additive")
        assert code == 2 and "lambda" in err


class TestWedgeSym:
    def test_wedge(self, capsys):
        code, out, _ = run(capsys, "wedge", "--p", "2", "--law", "additive",
                           "--lambda", "7", "--m", "2")
        assert code == 0 and out.startswith("(7^3)")

    def test_sym_json(self, capsys):
        code, out, _ = run(capsys, "sym", "--p", "2", "--law", "additive",
                           "--lambda", "7", "--m", "2", "--json")
        assert json.loads(out)["partition"] == [8, 8, 8, 1, 1, 1, 1]

    def test_law_without_symmetric_series(self, capsys, tmp_path):
        # F = 2u + v: its square does not commute with the swap, so it induces
        # no map on Sym^2 (under any symmetric law Sym^2 J3 at p = 5 is (5,1))
        path = tmp_path / "law.json"
        path.write_text(json.dumps({"p": 5, "trunc": 4, "coeffs": [{"a": 1, "b": 0, "c": "2"}]}))
        code, out, err = run(capsys, "sym", "--p", "5", "--lambda", "3", "--m", "2",
                             "--law", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestRing:
    def test_constants(self, capsys):
        code, out, _ = run(capsys, "ring", "constants", "--p", "2",
                           "--law", "multiplicative", "--a", "7", "--b", "7")
        assert code == 0
        assert out.endswith("6·J8 + J1")


class TestAdjoint:
    def test_bad_prime_json(self, capsys):
        code, out, _ = run(capsys, "adjoint", "classical", "--kind", "Sp",
                           "--lambda", "4", "--p", "2", "--json")
        data = json.loads(out)
        assert data == {"type": "Sp", "lambda": [4], "p": 2, "ad": [4, 4, 1, 1],
                        "Ad": [4, 4, 2], "equal": False, "good_characteristic": False}


class TestG2:
    def test_table_p7(self, capsys):
        code, out, _ = run(capsys, "g2", "table", "--p", "7", "--json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4
        regular = [r for r in rows if r["orbit"] == "G2reg"][0]
        assert regular["adjoint_unipotent"] == [7, 7]


class TestSpringer:
    def test_cayley(self, capsys):
        code, out, _ = run(capsys, "springer", "apply", "--p", "5", "--lambda", "3")
        assert code == 0 and "preserved=True" in out

    def test_random_deterministic(self, capsys):
        args = ("springer", "apply", "--p", "7", "--lambda", "4,2",
                "--series", "random", "--seed", "3", "--json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2


class TestPredict:
    def test_char0(self, capsys):
        code, out, _ = run(capsys, "predict", "char0", "--kind", "Sp",
                           "--lambda", "6,2", "--json")
        data = json.loads(out)
        assert data["gate"] is False
        assert data["ad"] == [11, 7, 7, 5, 3, 3]


class TestSeries:
    def test_invert(self, capsys):
        code, out, _ = run(capsys, "series", "invert", "--p", "0",
                           "--coeffs", "0,1,1", "--trunc", "5", "--json")
        data = json.loads(out)
        terms = {tuple(t["exp"]): t["c"] for t in data["inverse"]["terms"]}
        assert terms == {(1,): "1", (2,): "-1", (3,): "2", (4,): "-5"}


class TestVerify:
    def test_only_filter(self, capsys):
        code, out, _ = run(capsys, "verify", "paper", "--only", "classical-bad")
        assert code == 0
        assert out.startswith("PASS classical-bad")

    def test_prefix_filter(self, capsys):
        code, out, _ = run(capsys, "verify", "paper", "--only", "free")
        assert code == 0 and "free-jp" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "paper", "--only", "nonsense")
        assert code == 2 and "nonsense" in err

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "verify", "paper", "--only", "ring-calcs", "--json")
        data = json.loads(out)
        assert data[0]["name"] == "ring-calcs" and data[0]["ok"] is True


class TestLawFiles:
    def test_law_file(self, capsys, tmp_path):
        # documented format; linear part defaults to u + v
        path = tmp_path / "law.json"
        path.write_text(json.dumps(
            {"p": 2, "trunc": 8, "coeffs": [{"a": 1, "b": 1, "c": "1"}]}))
        code, out, _ = run(capsys, "tensor", "--p", "2", "--law", str(path),
                           "--a", "4", "--b", "4")
        assert code == 0 and out == "4·J4"

    def test_law_file_truncation_guard(self, capsys, tmp_path):
        # a shallow file law refuses operands that need deeper coefficients
        path = tmp_path / "law.json"
        path.write_text(json.dumps(
            {"p": 2, "trunc": 2, "coeffs": [{"a": 1, "b": 1, "c": "1"}]}))
        code, _, err = run(capsys, "tensor", "--p", "2", "--law", str(path),
                           "--a", "4", "--b", "4")
        assert code == 2 and "truncated" in err

    def test_corrupted_law_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{definitely not json")
        code, _, err = run(capsys, "tensor", "--p", "2", "--law", str(path),
                           "--a", "4", "--b", "4")
        assert code == 2
        assert "broken.json" in err

    @pytest.mark.parametrize("argv", [
        ("tensor", "--a", "2", "--b", "2"),
        ("wedge", "--lambda", "3,1"),
        ("sym", "--lambda", "3,1"),
        ("ring", "constants", "--a", "2", "--b", "2"),
    ], ids=["tensor", "wedge", "sym", "ring-constants"])
    def test_wrong_characteristic(self, capsys, tmp_path, argv):
        from jordanblocks.fgl import law_to_json, multiplicative
        from jordanblocks.fields import GF

        path = tmp_path / "law.json"
        path.write_text(json.dumps(law_to_json(multiplicative(GF(3)))))
        code, _, err = run(capsys, *argv, "--p", "5", "--law", str(path))
        assert code == 2 and "characteristic" in err
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ("tensor", "--p", "4", "--a", "2", "--b", "2"),
        ("adjoint", "classical", "--kind", "Sp", "--lambda", "3", "--p", "5"),
        ("ring", "constants", "--a", "0", "--b", "2", "--p", "3"),
        ("wedge", "--p", "5", "--lambda", "3", "--m", "0"),
        ("series", "invert", "--p", "0", "--coeffs", "0,1,1", "--trunc", "0"),
    ])
    def test_bad_input_exits_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("series", "invert", "--p", "5", "--coeffs", "0,1/5"),
        ("series", "invert", "--p", "5", "--coeffs", "0,x"),
        ("tensor", "--p", "5", "--a", "2", "--b", "2", "--law", "scaled:abc"),
        ("tensor", "--p", "5", "--a", "2", "--b", "2", "--law", "scaled:1/5"),
    ], ids=["denominator-p", "not-a-number", "scaled-not-a-number", "scaled-denominator-p"])
    def test_bad_scalar_exits_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_law_file_scalar_with_denominator_p_exits_2(self, capsys, tmp_path):
        path = tmp_path / "law.json"
        path.write_text(json.dumps(
            {"p": 5, "trunc": 4, "coeffs": [{"a": 1, "b": 1, "c": "1/5"}]}))
        code, _, err = run(capsys, "tensor", "--p", "5", "--law", str(path),
                           "--a", "2", "--b", "2")
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_law_file_float_scalar_exits_2(self, capsys, tmp_path):
        # a JSON number that is not an integer is refused, not truncated to 2
        path = tmp_path / "law.json"
        path.write_text(json.dumps(
            {"p": 5, "trunc": 4, "coeffs": [{"a": 1, "b": 1, "c": 2.7}]}))
        code, out, err = run(capsys, "tensor", "--p", "5", "--law", str(path),
                             "--a", "3", "--b", "3")
        assert code == 2 and not out
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "float" in err

    def test_missing_law_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "absent.json"
        code, _, err = run(capsys, "tensor", "--p", "5", "--law", str(path),
                           "--a", "2", "--b", "2")
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "absent.json" in err

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["adjoint", "classical", "--lambda", "4", "--p", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["ring", "adjoint", "g2", "springer", "predict",
                                         "series", "verify"])
    def test_unknown_action_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "frobnicate"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
