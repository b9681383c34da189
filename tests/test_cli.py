import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rainbownum import Coloring, SearchConfig, save_coloring
from rainbownum.cli import main
from rainbownum.constructions import symmetric_interval_coloring, z9_coloring
from rainbownum.formulas import RbResult
from rainbownum import cli as cli_module


def run(*argv):
    return main(list(argv))


class TestRb:
    def test_both_match(self, capsys):
        code = run("rb", "--modulus", "8", "--coeffs", "1,1,1", "--rhs", "0",
                   "--method", "both")
        out = capsys.readouterr().out
        assert code == 0
        assert "rb = 5" in out
        assert "MATCH" in out and "MISMATCH" not in out

    def test_formula_not_covered_exits_2(self, capsys):
        code = run("rb", "--modulus", "9", "--coeffs", "1,1,1", "--rhs", "0",
                   "--method", "formula")
        out = capsys.readouterr().out
        assert code == 2
        assert "not covered" in out

    def test_brute_only(self, capsys):
        code = run("rb", "--modulus", "5", "--coeffs", "1,2,3", "--rhs", "0",
                   "--method", "brute")
        out = capsys.readouterr().out
        assert code == 0
        assert "rb = 3" in out

    def test_negative_coefficients_accepted(self, capsys):
        code = run("rb", "--modulus", "5", "--coeffs", "1,1,-2", "--rhs", "0",
                   "--method", "brute")
        assert code == 0
        assert "rb = " in capsys.readouterr().out

    def test_json_mode_emits_records(self, capsys):
        code = run("rb", "--modulus", "8", "--coeffs", "1,1,1", "--rhs", "0",
                   "--method", "both", "--json")
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2
        for line in lines:
            rec = json.loads(line)
            assert list(rec) == ["n", "coefficients", "rhs", "method", "rb_value",
                                 "provenance", "elapsed_ms", "status", "reason"]
            assert rec["n"] == 8
            assert rec["coefficients"] == [1, 1, 1]
            assert rec["rhs"] == 0
            assert rec["rb_value"] == 5
            assert rec["method"] in ("formula", "brute")
            assert rec["elapsed_ms"] >= 0

    def test_json_not_covered_marker(self, capsys):
        code = run("rb", "--modulus", "9", "--coeffs", "1,1,1", "--rhs", "0",
                   "--method", "formula", "--json")
        assert code == 2
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["method"] == "formula"
        assert rec["rb_value"] is None
        assert rec["provenance"] is None
        assert rec["status"] == "not-covered"
        assert rec["reason"]

    def test_cap_exceeded_exits_3(self, capsys):
        n = SearchConfig().n_cap + 1
        code = run("rb", "--modulus", str(n), "--coeffs", "1,1,1", "--rhs", "0",
                   "--method", "brute")
        assert code == 3

    def test_mismatch_fault_injection_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli_module.formulas, "rb_formula", lambda eq: RbResult(99, "stub")
        )
        code = run("rb", "--modulus", "8", "--coeffs", "1,1,1", "--rhs", "0",
                   "--method", "both")
        out = capsys.readouterr().out
        assert code == 4
        assert "verdict: MISMATCH" in out
        assert "verdict: MATCH" not in out

    def test_usage_error_exits_1(self, capsys):
        assert run("rb", "--modulus", "8", "--coeffs", "1,1", "--rhs", "0") == 1
        assert run("rb", "--coeffs", "1,1,1") == 1
        assert run("rb", "--modulus", "11", "--coeffs", "1,1,1", "--threads", "2") == 1

    def test_both_with_uncovered_formula_skips_verdict(self, capsys):
        code = run("rb", "--modulus", "9", "--coeffs", "1,1,1", "--rhs", "0",
                   "--method", "both")
        out = capsys.readouterr().out
        assert code == 0
        assert "not covered" in out
        assert "rb = 5" in out
        assert "SKIPPED" in out


class TestWitness:
    def test_writes_witness_file(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        code = run("witness", "--modulus", "5", "--coeffs", "1,1,1", "--rhs", "0",
                   "--num-colors", "3", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 5 and len(doc["colors"]) == 5

    def test_nonexistent_exits_2(self, tmp_path):
        out = tmp_path / "w.json"
        code = run("witness", "--modulus", "5", "--coeffs", "1,1,1", "--rhs", "0",
                   "--num-colors", "4", "--out", str(out))
        assert code == 2
        assert not out.exists()

    def test_z3_exits_2(self, tmp_path):
        code = run("witness", "--modulus", "3", "--coeffs", "1,1,1", "--rhs", "0",
                   "--num-colors", "3", "--out", str(tmp_path / "w.json"))
        assert code == 2

    def test_round_trips_through_check_coloring(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert run("witness", "--modulus", "8", "--coeffs", "1,1,1", "--rhs", "0",
                   "--num-colors", "4", "--out", str(out)) == 0
        capsys.readouterr()
        code = run("check-coloring", "--file", str(out), "--coeffs", "1,1,1",
                   "--rhs", "0")
        assert code == 0
        assert "RainbowFree" in capsys.readouterr().out


class TestCheckColoring:
    def test_z9_file_rainbow_free(self, tmp_path, capsys):
        path = tmp_path / "z9.json"
        save_coloring(z9_coloring(), path)
        code = run("check-coloring", "--file", str(path), "--coeffs", "1,1,1",
                   "--rhs", "0")
        assert code == 0
        assert "RainbowFree" in capsys.readouterr().out

    def test_rainbow_witness_printed(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        save_coloring(Coloring.from_classes(5, [{0}, {1}, {2, 3, 4}]), path)
        code = run("check-coloring", "--file", str(path), "--coeffs", "1,1,1",
                   "--rhs", "0")
        out = capsys.readouterr().out
        assert code == 0
        assert "(0, 1, 4)" in out

    def test_truncated_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 5, "colors": [0, 1, 2]}')
        assert run("check-coloring", "--file", str(path), "--coeffs", "1,1,1",
                   "--rhs", "0") == 1

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 3, "colors": [0, 1, true]}',
            '{"n": 3, "colors": [0, 1, 1.0]}',
            '{"n": 3, "colors": [0, 1, "1"]}',
            '{"n": true, "colors": [0]}',
        ],
    )
    def test_non_integer_values_exit_1(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run("check-coloring", "--file", str(path), "--coeffs", "1,1,1",
                   "--rhs", "0") == 1
        assert capsys.readouterr().err.startswith("error: bad coloring file: ")

    def test_missing_file_exits_1(self, tmp_path):
        assert run("check-coloring", "--file", str(tmp_path / "nope.json"),
                   "--coeffs", "1,1,1", "--rhs", "0") == 1

    def test_characterize_thm5_agrees(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        save_coloring(Coloring.from_classes(5, [{0}, {1, 4}, {2, 3}]), path)
        code = run("check-coloring", "--file", str(path), "--coeffs", "1,1,1",
                   "--rhs", "0", "--characterize", "thm5")
        out = capsys.readouterr().out
        assert code == 0
        assert "rainbow-free = True" in out
        assert "agrees with search = True" in out

    def test_characterize_thm3_minus_one(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        save_coloring(Coloring.from_classes(5, [{0}, {1}, {2, 3, 4}]), path)
        code = run("check-coloring", "--file", str(path), "--coeffs", "1,1,1",
                   "--rhs", "0", "--characterize", "thm3:-1")
        out = capsys.readouterr().out
        assert code == 0
        assert "rainbow-free = False" in out
        assert "agrees with search = True" in out

    def test_characterize_coefficient_mismatch_is_usage_error(self, tmp_path):
        path = tmp_path / "c.json"
        save_coloring(Coloring.from_classes(5, [{0}, {1, 4}, {2, 3}]), path)
        assert run("check-coloring", "--file", str(path), "--coeffs", "1,2,3",
                   "--rhs", "0", "--characterize", "thm5") == 1

    def test_characterize_needs_three_colors(self, tmp_path):
        path = tmp_path / "c.json"
        save_coloring(Coloring.from_classes(5, [{0, 1}, {2, 3, 4}]), path)
        assert run("check-coloring", "--file", str(path), "--coeffs", "1,1,1",
                   "--rhs", "0", "--characterize", "thm5") == 1

    def test_bad_characterize_argument(self, tmp_path):
        path = tmp_path / "c.json"
        save_coloring(z9_coloring(), path)
        assert run("check-coloring", "--file", str(path), "--coeffs", "1,1,1",
                   "--rhs", "0", "--characterize", "thm7") == 1

    @pytest.mark.parametrize(
        "coloring, spec",
        [
            (symmetric_interval_coloring(5), "thm3:0"),
            (symmetric_interval_coloring(5), "thm3:5"),
            (Coloring((0, 1, 2)), "thm3:0"),
        ],
    )
    def test_characterize_non_unit_c_is_usage_error(self, tmp_path, capsys,
                                                     coloring, spec):
        path = tmp_path / "c.json"
        save_coloring(coloring, path)
        assert run("check-coloring", "--file", str(path), "--coeffs", "1,1,0",
                   "--rhs", "0", "--characterize", spec) == 1
        err = capsys.readouterr().err
        assert err == f"error: c = 0 is not a unit mod {coloring.n}\n"


class TestConstruct:
    def test_z9_exact_document(self, tmp_path):
        out = tmp_path / "z9.json"
        run("construct", "--kind", "z9", "--out", str(out))
        assert json.loads(out.read_text()) == {
            "n": 9, "colors": [0, 0, 1, 0, 0, 2, 0, 0, 3]
        }

    def test_two_power(self, tmp_path):
        out = tmp_path / "c8.json"
        assert run("construct", "--kind", "two-power", "--alpha", "3",
                   "--out", str(out)) == 0
        assert json.loads(out.read_text()) == {
            "n": 8, "colors": [0, 3, 2, 3, 1, 3, 2, 3]
        }

    def test_symmetric_interval_small_p_exits_2(self, tmp_path):
        assert run("construct", "--kind", "symmetric-interval", "--p", "3",
                   "--out", str(tmp_path / "x.json")) == 2

    def test_product_from_files(self, tmp_path, capsys):
        cp = tmp_path / "cp.json"
        ct = tmp_path / "ct.json"
        out = tmp_path / "prod.json"
        assert run("construct", "--kind", "symmetric-interval", "--p", "5",
                   "--out", str(cp)) == 0
        save_coloring(Coloring((0, 1)), ct)
        code = run("construct", "--kind", "product", "--cp-file", str(cp),
                   "--ct-file", str(ct), "--coeffs", "1,1,1", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text()) == {
            "n": 10, "colors": [0, 1, 2, 2, 1, 3, 1, 2, 2, 1]
        }

    def test_product_bad_witness_exits_2(self, tmp_path):
        cp = tmp_path / "cp.json"
        ct = tmp_path / "ct.json"
        save_coloring(Coloring.from_classes(5, [{0, 1}, {2, 3, 4}]), cp)
        save_coloring(Coloring((0, 1)), ct)
        assert run("construct", "--kind", "product", "--cp-file", str(cp),
                   "--ct-file", str(ct), "--coeffs", "1,1,1",
                   "--out", str(tmp_path / "p.json")) == 2

    def test_stdout_when_no_out(self, capsys):
        assert run("construct", "--kind", "two-power", "--alpha", "2") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"n": 4, "colors": [0, 2, 1, 2]}

    def test_missing_kind_flag_is_usage_error(self, tmp_path):
        assert run("construct", "--kind", "two-power",
                   "--out", str(tmp_path / "x.json")) == 1


class TestScan:
    def test_range_five_to_ten(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = run("scan", "--modulus-min", "5", "--modulus-max", "10",
                   "--coeffs", "1,1,1", "--rhs", "0", "--method", "both",
                   "--out", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n"] for r in rows] == ["5", "6", "7", "8", "9", "10"]
        by_n = {r["n"]: r for r in rows}
        assert by_n["5"]["rb_formula"] == "4" and by_n["5"]["match"] == "true"
        assert by_n["6"]["rb_formula"] == "" and by_n["6"]["match"] == ""
        assert by_n["7"]["rb_formula"] == "4"
        assert by_n["8"]["rb_formula"] == "5" and by_n["8"]["rb_brute"] == "5"
        assert by_n["9"]["rb_formula"] == "" and by_n["9"]["rb_brute"] == "5"
        assert by_n["10"]["rb_formula"] == "5" and by_n["10"]["match"] == "true"
        assert all(r["status"] == "ok" for r in rows)

    def test_single_modulus(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run("scan", "--modulus-min", "5", "--modulus-max", "5",
                   "--coeffs", "1,1,1", "--rhs", "0", "--method", "both",
                   "--out", str(out)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["match"] == "true"

    def test_cap_exceeded_rows_flagged(self, tmp_path):
        out = tmp_path / "cap.csv"
        code = run("scan", "--modulus-min", "5", "--modulus-max", "8",
                   "--coeffs", "1,1,1", "--rhs", "0", "--method", "both",
                   "--out", str(out), "--n-cap", "6")
        assert code == 0
        with open(out) as fh:
            rows = {r["n"]: r for r in csv.DictReader(fh)}
        assert rows["7"]["status"] == "cap-exceeded"
        assert rows["7"]["rb_brute"] == ""
        assert rows["8"]["status"] == "cap-exceeded"
        assert rows["5"]["status"] == "ok"

    def test_mismatch_exits_4(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli_module.formulas, "rb_formula", lambda eq: RbResult(99, "stub")
        )
        out = tmp_path / "bad.csv"
        code = run("scan", "--modulus-min", "5", "--modulus-max", "5",
                   "--coeffs", "1,1,1", "--rhs", "0", "--method", "both",
                   "--out", str(out))
        assert code == 4
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["match"] == "false"

    def test_bad_range_is_usage_error(self, tmp_path):
        assert run("scan", "--modulus-min", "9", "--modulus-max", "5",
                   "--coeffs", "1,1,1", "--rhs", "0",
                   "--out", str(tmp_path / "x.csv")) == 1

    def test_formula_only_leaves_brute_empty(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run("scan", "--modulus-min", "5", "--modulus-max", "8",
                   "--coeffs", "1,1,1", "--rhs", "0", "--method", "formula",
                   "--out", str(out)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["rb_brute"] == "" and r["match"] == "" for r in rows)
        assert [r["rb_formula"] for r in rows] == ["4", "", "4", "5"]

    def test_brute_only_leaves_formula_empty(self, tmp_path):
        out = tmp_path / "b.csv"
        assert run("scan", "--modulus-min", "9", "--modulus-max", "9",
                   "--coeffs", "1,1,1", "--rhs", "0", "--method", "brute",
                   "--out", str(out)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["rb_brute"] == "5" and rows[0]["rb_formula"] == ""


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "rainbownum" in capsys.readouterr().out

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_small_n_cap_is_usage_error(self, tmp_path, capsys):
        eq = ["--coeffs", "1,1,1", "--rhs", "0"]
        for cap in ("1", "0"):
            commands = [
                ["rb", "--modulus", "5", *eq],
                ["rb", "--modulus", "5", *eq, "--method", "formula"],
                ["witness", "--modulus", "5", *eq, "--num-colors", "3",
                 "--out", str(tmp_path / "w.json")],
                ["scan", "--modulus-min", "3", "--modulus-max", "5", *eq,
                 "--out", str(tmp_path / "s.csv")],
            ]
            for argv in commands:
                assert main([*argv, "--n-cap", cap]) == 1, argv
                err = capsys.readouterr().err
                assert err.startswith("usage error: n_cap must be >= 2"), argv

    def test_ctrl_c_exits_130(self, tmp_path, capsys, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "rainbow_number_brute", interrupt)
        eq = ["--coeffs", "1,1,1", "--rhs", "0"]
        for argv in (
            ["rb", "--modulus", "8", *eq, "--method", "brute"],
            ["scan", "--modulus-min", "6", "--modulus-max", "8", *eq,
             "--out", str(tmp_path / "s.csv")],
        ):
            assert main(argv) == 130, argv
            captured = capsys.readouterr()
            assert captured.err == "interrupted\n", argv


class TestUnwritableOut:
    def check(self, capsys, argv, path):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: "), err
        assert "Traceback" not in err

    def test_scan(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        self.check(capsys, ["scan", "--modulus-min", "3", "--modulus-max", "5",
                            "--coeffs", "1,1,1", "--out", str(path)], path)

    def test_witness(self, tmp_path, capsys):
        path = tmp_path / "missing" / "w.json"
        self.check(capsys, ["witness", "--modulus", "5", "--coeffs", "1,1,1",
                            "--num-colors", "3", "--out", str(path)], path)

    def test_construct(self, tmp_path, capsys):
        path = tmp_path / "missing" / "c.json"
        self.check(capsys, ["construct", "--kind", "two-power", "--alpha", "2",
                            "--out", str(path)], path)


class TestParserReuse:
    """main keeps one parser per process; no call may leave state for the next."""

    RB = ["rb", "--modulus", "12", "--coeffs", "1,1,1", "--method", "brute"]

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli_module.build_parser() is not cli_module.build_parser()

    def test_json_does_not_stick(self, capsys):
        assert main([*self.RB, "--json"]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[0])["rb_value"] == 5
        assert main(self.RB) == 0
        out = capsys.readouterr().out
        assert out.startswith("rb(Z_12, ") and "brute:   rb = 5" in out

    def test_n_cap_does_not_stick(self, capsys):
        assert main([*self.RB, "--n-cap", "5"]) == 3
        assert main(self.RB) == 0
        assert "rb = 5" in capsys.readouterr().out

    def test_usage_error_then_valid_call(self, capsys):
        assert main(["rb", "--modulus", "8", "--coeffs", "1,1"]) == 1
        assert main(self.RB) == 0
        assert "rb = 5" in capsys.readouterr().out

    def test_help_then_valid_call(self, capsys):
        assert main([]) == 1
        assert "rainbownum" in capsys.readouterr().out
        assert main(self.RB) == 0
        assert "rb = 5" in capsys.readouterr().out


class TestCommandDispatch:
    """main hands a command's arguments to that command's parser alone; the
    help texts, messages and exit codes stay those of the full parser."""

    COMMANDS = ["rb", "witness", "check-coloring", "construct", "scan"]

    def full_parser(self, capsys, argv):
        """(stdout, stderr, exit code) of main as the full parser alone
        would answer argv, up to parsing."""
        parser = cli_module.build_parser()
        try:
            args = parser.parse_args(argv)
        except cli_module._UsageError as exc:
            return capsys.readouterr().out, f"usage error: {exc}\n", 1
        except SystemExit as exc:
            return capsys.readouterr().out, "", exc.code
        assert not hasattr(args, "func"), argv
        return parser.format_help(), "", 1

    def main_answers(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return captured.out, captured.err, code

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help(self, capsys, command):
        out, err, code = self.full_parser(capsys, [command, "-h"])
        assert code == 0 and out.startswith(f"usage: rainbownum {command} ")
        assert self.main_answers(capsys, [command, "-h"]) == (out, err, code)

    @pytest.mark.parametrize("argv", [
        [],
        ["-h"],
        ["bogus"],
        ["rb", "--modulus", "5"],
        ["rb", "--modulus", "x", "--coeffs", "1,1,1"],
        ["scan", "--modulus-min", "3", "--modulus-max", "5", "--coeffs", "1,1,1",
         "--out", "s.csv", "extra"],
        ["construct", "--kind", "bad"],
    ])
    def test_full_parser_answers(self, capsys, argv):
        want = self.full_parser(capsys, argv)
        assert want[2] in (0, 1) and (want[0] or want[1])
        assert self.main_answers(capsys, argv) == want

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "s.csv"
        root = Path(__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "rainbownum.cli", "scan", "--modulus-min", "3",
             "--modulus-max", "5", "--coeffs", "1,1,1", "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")))
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"wrote 3 rows to {out}\n"
        with open(out) as fh:
            assert [row["rb_brute"] for row in csv.DictReader(fh)] == ["3", "4", "4"]
