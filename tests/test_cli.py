"""Command-line interface tests: parsing, exit codes, output formats and
determinism."""

import csv
import io
import json
import math
import re
import shlex
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from sphfun import cfun, cli
from sphfun import rankone as r1
from sphfun import rootdata as rd
from sphfun.cli import (COMMANDS, OPTIONS, main, parse_complex, parse_grid,
                        parse_space)

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"
CATALOG = Path(r1.__file__).parent / "data" / "ktypes.json"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def rows_of(csv_text):
    return list(csv.DictReader(io.StringIO(csv_text)))


def lists_command(help_text, name):
    """Whether help_text lists the command with its summary."""
    entry = f"{name} {COMMANDS[name][1]}"
    return " ".join(entry.split()) in " ".join(help_text.split())


class TestParsers:
    def test_complex(self):
        assert parse_complex("1,-0.5") == 1 - 0.5j
        assert parse_complex("2") == 2 + 0j
        with pytest.raises(Exception):
            parse_complex("a,b")

    def test_grid(self):
        assert parse_grid("0:2:5") == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert parse_grid("1:9:1") == [1.0]
        with pytest.raises(Exception):
            parse_grid("0:2")

    def test_space_selectors(self):
        assert parse_space("h2").ball_n == 2
        assert parse_space("hn:4").rankone.m_alpha == 3
        assert parse_space("rankone:2,1").rankone.m_2alpha == 1
        assert parse_space("ranke1:2,1").rankone.m_2alpha == 1
        assert parse_space("a2").datum.rank == 2
        with pytest.raises(Exception):
            parse_space("nosuch")


class TestCEval:
    def test_single_lambda_matches_library(self):
        code, out, _ = run_cli("c-eval", "--space", "h2",
                               "--lambda", "1,-0.5")
        assert code == 0
        row = rows_of(out)[0]
        expected = cfun.c_alpha(1 - 0.5j, 1, 0).value
        assert float(row["c_re"]) == pytest.approx(expected.real)
        assert float(row["c_im"]) == pytest.approx(expected.imag)
        assert row["pole_flag"] == "false"

    def test_grid_row_count(self):
        code, out, _ = run_cli("c-eval", "--space", "h2",
                               "--lambda-grid", "0:2:5", "--im", "-0.3")
        assert code == 0
        assert len(rows_of(out)) == 5

    def test_malformed_lambda_exits_2(self):
        code, _, err = run_cli("c-eval", "--space", "h2",
                               "--lambda", "oops")
        assert code == 2
        assert "oops" in err

    def test_pole_row_exits_1(self):
        code, out, _ = run_cli("c-eval", "--space", "h2",
                               "--lambda", "0,0")
        assert code == 1
        assert rows_of(out)[0]["pole_flag"] == "true"

    def test_higher_rank_vector(self):
        code, out, _ = run_cli(
            "c-eval", "--space", "a2", "--lambda", "0.9,-0.5",
            "--lambda-vec", "0.9,-0.5;0.4,-0.7")
        assert code == 0
        assert rows_of(out)[0]["c_re"]

    def test_datum_file_selector(self, tmp_path):
        path = tmp_path / "b2.json"
        path.write_text(json.dumps(rd.datum_to_dict(rd.datum_b2())),
                        encoding="utf-8")
        code, out, _ = run_cli(
            "c-eval", "--datum", str(path), "--lambda", "0.9,-0.5",
            "--lambda-vec", "0.9,-0.5;0.4,-0.7")
        assert code == 0
        code, _, err = run_cli("c-eval", "--space", "h2", "--datum",
                               str(path), "--lambda", "1,0")
        assert code == 2 and "exactly one" in err

    def test_incomplete_datum_file_exits_2(self, tmp_path):
        # A2 without alpha1 + alpha2 is not closed under the reflections
        path = tmp_path / "a2_incomplete.json"
        doc = rd.datum_to_dict(rd.datum_a2())
        doc["positive_indivisible_roots"].pop()
        doc["multiplicities"].pop()
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli("c-eval", "--space", str(path),
                                 "--lambda", "0.9,-0.5")
        assert code == 2 and out == ""
        assert "not a listed positive root" in err

    def test_zero_root_datum_file_exits_2(self, tmp_path):
        path = tmp_path / "zero_root.json"
        doc = {"rank": 1, "simple_roots": [[1.0]],
               "positive_indivisible_roots": [[1.0], [0.0]],
               "multiplicities": [{"root_index": i, "m_alpha": 1,
                                   "m_2alpha": 0} for i in range(2)]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli("c-eval", "--space", str(path),
                                 "--lambda", "1,0")
        assert code == 2 and out == ""
        assert "roots must be nonzero" in err

    def test_bad_root_index_exits_2(self, tmp_path):
        path = tmp_path / "a2_index.json"
        doc = rd.datum_to_dict(rd.datum_a2())
        doc["multiplicities"] = [{"root_index": -1, "m_alpha": 2}]
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli("c-eval", "--space", str(path),
                                 "--lambda", "0.9,-0.5")
        assert code == 2 and out == ""
        assert "root_index -1" in err

    @pytest.mark.parametrize("argv", [
        ("c-eval", "--space", "a2"),
        ("csigma-eval", "--space", "a2", "--word", "1"),
        ("det-a", "--space", "a2", "--table", str(DATA / "a2_table.json")),
    ])
    @pytest.mark.parametrize("vec", ["0.9,-0.5", "0.9,-0.5;0.4,-0.7;1,0"])
    def test_lambda_vec_component_count(self, argv, vec):
        code, out, err = run_cli(*argv, "--lambda", "0.9,-0.5",
                                 "--lambda-vec", vec)
        assert code == 2 and out == ""
        assert "rank 2" in err


class TestPhiEval:
    def test_methods_and_error_column(self):
        code, out, _ = run_cli(
            "phi-eval", "--space", "h2", "--lambda", "0.7,0.2",
            "--t-grid", "0:3:31", "--methods", "closed,series")
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 31
        assert "max_pairwise_err" in rows[0]
        # the 40-term series is accurate once t >= 1
        errs = [float(r["max_pairwise_err"]) for r in rows
                if r["max_pairwise_err"] and float(r["t"]) >= 1.0]
        assert errs and max(errs) < 1e-8

    def test_error_rows_stay_per_row(self):
        # at Im Lam = 0.6 > rho phi grows like e^{0.1 t}: it leaves the
        # double range at t = 7200 only
        code, out, _ = run_cli(
            "phi-eval", "--space", "h2", "--lambda", "0.5,0.6",
            "--t-grid", "1:7200:4", "--methods", "closed,series")
        assert code == 1
        rows = rows_of(out)
        assert [bool(r["error"]) for r in rows] == [False] * 3 + [True]
        assert rows[0]["phi_series_re"] and rows[-1]["phi_closed_re"] == ""

    def test_failing_method_keeps_the_other_values(self):
        # c(0) is a pole of the series; the closed form at Lam = 0 is
        # finite, so each row keeps it and names the series' error
        code, out, _ = run_cli(
            "phi-eval", "--space", "hn:3", "--lambda", "0,0",
            "--t-grid", "0.5:3:6", "--methods", "closed,series")
        assert code == 1
        rows = rows_of(out)
        assert len(rows) == 6
        for row in rows:
            assert row["error"] == ("series: numerator gamma pole at "
                                    "argument 0j")
            closed = r1.phi_tau(r1.RankOneSpace(2, 0), r1.TRIVIAL_KTYPE,
                                0j, float(row["t"]))
            assert float(row["phi_closed_re"]) == closed.real
            assert "phi_series_re" not in row

    def test_single_method_no_err_column(self):
        code, out, _ = run_cli(
            "phi-eval", "--space", "h2", "--lambda", "0.7,0.2",
            "--t", "1.0", "--methods", "closed")
        assert code == 0
        assert "max_pairwise_err" not in rows_of(out)[0]

    def test_negative_t_exits_2(self):
        code, _, _ = run_cli("phi-eval", "--space", "h2", "--lambda",
                             "0.7,0.2", "--t", "-1", "--methods", "closed")
        assert code == 2

    def test_ktype_quadrature(self):
        code, out, _ = run_cli(
            "phi-eval", "--space", "h2", "--lambda", "0.7,0.2",
            "--t", "1.0", "--ktype", "s1r0",
            "--methods", "closed,quadrature")
        assert code == 0
        row = rows_of(out)[0]
        # quadrature entry differs from the closed form by the fixed
        # normalization 1/s!; for s=1 they agree
        assert float(row["max_pairwise_err"]) < 1e-7

    def test_quadrature_beyond_the_rounding_of_tanh(self):
        # tanh(t/2) rounds to 1 from t = 38.2; the entry oracle integrates
        # in the boundary variable, formed from t itself, so every row
        # keeps the closed form and a quadrature within 1e-12 of it (the
        # rules in psi ran out of nodes from t of about 20)
        code, out, err = run_cli(
            "phi-eval", "--space", "h2", "--ktype", "s1r0",
            "--lambda", "1.4,-0.5", "--t-grid", "10:40:4",
            "--methods", "closed,quadrature")
        assert code == 0 and err == ""
        rows = rows_of(out)
        assert [float(r["t"]) for r in rows] == [10.0, 20.0, 30.0, 40.0]
        assert all(r["phi_closed_re"] and r["phi_closed_im"] for r in rows)
        assert all(r["error"] == "" for r in rows)
        assert all(float(r["max_pairwise_err"]) < 1e-12 for r in rows)

    def test_large_t_quadrature_warns_nothing(self):
        # at t = 40 on the plane the weight's terms are formed through
        # expm1, so nothing overflows or takes the log of 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                "phi-eval", "--space", "h2", "--lambda", "1.4,-0.5",
                "--t", "40", "--methods", "closed,quadrature")
        assert code == 0 and err == ""
        assert [w for w in caught if w.category is RuntimeWarning] == []
        row = rows_of(out)[0]
        assert row["phi_closed_re"] and row["error"] == ""

    @staticmethod
    def closed_and_quadrature(row):
        return (complex(float(row["phi_closed_re"]),
                        float(row["phi_closed_im"])),
                complex(float(row["phi_quadrature_re"]),
                        float(row["phi_quadrature_im"])))

    def test_three_ball_at_large_t_matches_the_closed_form(self):
        # the polar-angle rule in psi never sampled the kernel's peak, of
        # width e^{-t}, and printed -7.1e-13 - 4.9e-13i for
        # 2.38e-6 + 3.38e-6i with exit 0
        code, out, err = run_cli(
            "phi-eval", "--space", "hn:3", "--lambda", "1.4,-0.5",
            "--t", "24", "--methods", "closed,quadrature")
        assert code == 0 and err == ""
        closed, quad = self.closed_and_quadrature(rows_of(out)[0])
        assert abs(quad - closed) <= 1e-12 * abs(closed)

    def test_three_ball_at_t_40_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                "phi-eval", "--space", "hn:3", "--lambda", "1.4,-0.5",
                "--t", "40", "--methods", "closed,quadrature")
        assert code == 0 and err == ""
        closed, quad = self.closed_and_quadrature(rows_of(out)[0])
        assert abs(quad - closed) <= 1e-12 * abs(closed)

    def test_plane_at_t_30_prints_a_quadrature(self):
        # the rule in psi ran out of nodes here (1,048,544, then an error)
        code, out, err = run_cli(
            "phi-eval", "--space", "h2", "--lambda", "1.4,-0.5",
            "--t", "30", "--methods", "closed,quadrature")
        assert code == 0 and err == ""
        row = rows_of(out)[0]
        assert row["error"] == "" and row["phi_quadrature_re"]
        closed, quad = self.closed_and_quadrature(row)
        assert abs(quad - closed) <= 1e-12 * abs(closed)

    def test_empty_methods_exits_2(self):
        code, out, err = run_cli("phi-eval", "--space", "h2", "--lambda",
                                 "0.7,0.2", "--t", "1", "--methods", ",")
        assert code == 2 and out == ""
        assert "--methods" in err


class TestSimpleCheck:
    def test_flags(self):
        code, out, _ = run_cli("simple-check", "--space", "h2",
                               "--lambda", "0,1.5")
        assert code == 0
        assert rows_of(out)[0]["simple"] == "false"
        code, out, _ = run_cli("simple-check", "--space", "h2",
                               "--lambda", "1,-0.37")
        assert rows_of(out)[0]["simple"] == "true"

    @pytest.mark.parametrize("vec,simple", [("0,1.5;0,0", "false"),
                                            ("1,0;2,0", "true")])
    def test_lambda_vec_is_read(self, vec, simple):
        code, out, _ = run_cli("simple-check", "--space", "a2",
                               "--lambda", "0,1.5", "--lambda-vec", vec)
        assert code == 0
        assert rows_of(out)[0]["simple"] == simple

    def test_malformed_lambda_vec_exits_2(self):
        code, out, _ = run_cli("simple-check", "--space", "a2",
                               "--lambda", "0,1.5", "--lambda-vec", "garbage")
        assert code == 2 and out == ""


class TestCsigmaEval:
    def test_word_mode(self):
        code, out, _ = run_cli(
            "csigma-eval", "--space", "a2", "--word", "1",
            "--lambda", "0.8,-0.5",
            "--lambda-vec", "0.8,-0.5;0.3,-0.6")
        assert code == 0

    def test_ktype_mode_matches_library(self):
        code, out, _ = run_cli(
            "csigma-eval", "--space", "h2", "--ktype", "s1r0",
            "--lambda", "1,-0.4")
        assert code == 0
        row = rows_of(out)[0]
        expected = r1.C_sigma_minus(
            r1.RankOneSpace(1, 0), r1.sl2_ktype_for_char(2), 1 - 0.4j)
        assert float(row["c_re"]) == pytest.approx(expected.real)

    def test_word_letter_beyond_rank_exits_2(self):
        code, out, err = run_cli("csigma-eval", "--space", "a2", "--word",
                                 "1,7", "--lambda", "1,0")
        assert code == 2 and out == ""
        assert "exceeds rank" in err


class TestVerify:
    def test_suite_exit_zero(self):
        code, out, _ = run_cli("verify", "--suite", "c-vs-integral",
                               "--space", "hn:3")
        assert code == 0
        rows = rows_of(out)
        assert rows and all(r["passed"] == "true" for r in rows)
        assert all(float(r["rel_err"]) < 1e-6 for r in rows)

    def test_asymptotic_suite_with_ktype(self):
        code, out, _ = run_cli("verify", "--suite", "asymptotic",
                               "--space", "h2", "--ktype", "s2r0")
        assert code == 0

    @pytest.mark.parametrize(
        "space,name",
        [(f"rankone:{rec['space'].m_alpha},{rec['space'].m_2alpha}",
          rec["name"]) for rec in r1.load_ktype_catalog()])
    def test_asymptotic_suite_whole_catalog(self, space, name):
        # the 1e-5 bound is asserted at both decay margins for every
        # built-in K-type, at the far time the remainder rate allows
        code, out, _ = run_cli("verify", "--suite", "asymptotic",
                               "--space", space, "--ktype", name)
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 2
        assert all(r["passed"] == "true" for r in rows)

    @pytest.mark.parametrize("argv", [
        ("--suite", "hs-norm", "--space", "h2", "--ktype", "s1r0"),
        ("--suite", "all", "--space", "h2", "--ktype", "s1r0"),
        ("--suite", "asymptotic", "--ktype", "s1r0"),
    ])
    def test_ignored_ktype_exits_2(self, argv):
        # only asymptotic reads --ktype, and it needs --space to resolve it
        code, out, err = run_cli("verify", *argv)
        assert code == 2 and out == ""
        assert "--ktype" in err

    @pytest.mark.parametrize("space", ["hn:4", "hn:5"])
    def test_functional_equation_at_a_tolerance_near_rounding(self, space):
        # rel_tol 1e-15 is near the rounding of the inner phi rows: a
        # rule that bisected against a target per panel ran out of
        # bisections here; the level rule tests the whole row's sum
        code, out, err = run_cli(
            "verify", "--suite", "functional-equation", "--space", space,
            "--rel-tol", "1e-15", "--abs-tol", "1e-300")
        assert code == 0, err
        rows = rows_of(out)
        assert rows and all(r["passed"] == "true" for r in rows)

    def test_unknown_suite_exits_2(self):
        code, _, err = run_cli("verify", "--suite", "nope")
        assert code == 2
        assert "unknown suite" in err

    def test_corrupted_catalog_exits_1(self, tmp_path):
        # a catalog that mislabels the weight-4 character K-type fails
        # the second-coefficient integral comparison
        bad = [{"name": "trivial", "m_alpha": 1, "m_2alpha": 0,
                "d_alpha": 0.0, "d_2alpha": 0.0, "r": 0, "s": 0},
               {"name": "s1r0", "m_alpha": 1, "m_2alpha": 0,
                "d_alpha": -1.0, "d_2alpha": 0.0, "r": 0, "s": 1},
               {"name": "s2r0", "m_alpha": 1, "m_2alpha": 0,
                "d_alpha": -9.0, "d_2alpha": 0.0, "r": 0, "s": 3}]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        code, out, err = run_cli(
            "verify", "--suite", "csigma", "--catalog", str(path))
        assert code == 1


class TestDetA:
    def test_table_evaluation(self):
        code, out, _ = run_cli(
            "det-a", "--space", "a2", "--table",
            str(DATA / "a2_table.json"), "--lambda", "0.9,-0.5",
            "--lambda-vec", "0.9,-0.5;0.4,-0.7")
        assert code == 0
        assert rows_of(out)[0]["det_re"]

    def test_bad_table_word_is_an_error_row(self, tmp_path):
        doc = json.loads((DATA / "a2_table.json").read_text(encoding="utf-8"))
        doc["word"] = [1, 7, 1]
        path = tmp_path / "bad_word.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run_cli("det-a", "--space", "a2", "--table",
                               str(path), "--lambda", "0.9,-0.5")
        assert code == 1
        assert "exceeds rank" in rows_of(out)[0]["error"]

    def test_missing_table_exits_2(self):
        code, _, _ = run_cli("det-a", "--space", "a2",
                             "--lambda", "0.9,-0.5")
        assert code == 2


class TestLimits:
    def test_diagnostic_columns(self):
        code, out, _ = run_cli(
            "limits", "--space", "h2", "--ktype", "s2r0",
            "--lambda", "0.5,-0.8", "--t-grid", "10:18:2")
        assert code == 0
        rows = rows_of(out)
        assert float(rows[1]["large_t_rel_err"]) < \
            float(rows[0]["large_t_rel_err"])

    def test_error_row_exits_1(self):
        # at Im Lam > 0 the limit grows like cosh^{2 Im Lam} t: past the
        # double range at t = 600
        code, out, _ = run_cli("limits", "--space", "h2",
                               "--lambda", "0.5,0.6", "--t", "600")
        assert code == 1
        assert rows_of(out)[0]["error"]

    def test_error_rows_stay_per_row(self):
        # the grid is evaluated in one call; phi(-Lam, 800) underflows, so
        # only the t = 800 row carries the small-t error, after its finite
        # large-t values
        code, out, _ = run_cli("limits", "--space", "hn:3", "--ktype",
                               "s1r0", "--lambda", "0.5,-0.001",
                               "--t-grid", "0:800:5")
        assert code == 1
        rows = rows_of(out)
        assert [bool(r["error"]) for r in rows] == [False] * 4 + [True]
        assert "phi(-Lam, t) vanished" in rows[-1]["error"]
        assert math.isfinite(float(rows[-1]["large_t_re"]))
        assert rows[-1]["small_t_ratio_rel_err"] == ""

    def test_pole_of_c_is_an_error_row(self):
        # c(Lam) has a pole at Lam = 0: each t of that Lam is an error
        # row, and the other Lam of the grid keep their rows
        code, out, _ = run_cli("limits", "--space", "h2", "--lambda", "0,0",
                               "--t", "1")
        assert code == 1
        rows = rows_of(out)
        assert len(rows) == 1 and "gamma pole" in rows[0]["error"]
        code, out, _ = run_cli("limits", "--space", "h2", "--lambda-grid",
                               "0:1:3", "--t-grid", "0:4:3")
        assert code == 1
        rows = rows_of(out)
        assert [bool(r["error"]) for r in rows] == [True] * 3 + [False] * 6
        assert all(r["large_t_rel_err"] for r in rows[3:])

    @pytest.mark.parametrize("command", ["limits", "phi-eval"])
    def test_large_t_is_finite(self, command):
        # cosh t is not a double at t = 800
        code, out, _ = run_cli(command, "--space", "h2",
                               "--lambda", "0.5,-0.3", "--t", "800")
        assert code == 0
        row = rows_of(out)[0]
        assert row["error"] == ""
        values = [float(v) for k, v in row.items()
                  if k.endswith(("_re", "_im", "_err"))]
        assert values and all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize("argv", [
        ("phi-eval", "--t", "nan"),
        ("phi-eval", "--t", "inf"),
        ("phi-eval", "--t", "nan", "--methods", "quadrature"),
        ("phi-eval", "--t-grid", "0:1e309:3"),
        ("limits", "--t", "inf"),
        ("limits", "--t", "nan"),
        ("limits", "--t-grid", "0:inf:3"),
    ])
    def test_non_finite_t_exits_2(self, argv):
        code, out, err = run_cli(argv[0], "--space", "h2", "--lambda",
                                 "0.5,-0.3", *argv[1:])
        assert code == 2 and out == ""
        assert "t must be finite" in err


class TestOptionSurface:
    # each command registers only the options it reads
    @pytest.mark.parametrize("argv,flag", [
        (("c-eval", "--space", "h2", "--lambda", "1,0"),
         ("--abs-tol", "5")),
        (("limits", "--space", "h2", "--lambda", "0.5,-0.8", "--t", "10"),
         ("--lambda-vec", "0.5,-0.8")),
        (("phi-eval", "--space", "h2", "--lambda", "0.7,0.2", "--t", "1"),
         ("--lambda-vec", "0.7,0.2")),
        (("verify", "--suite", "cocycle"),
         ("--scheme", "tanh_sinh_halfline")),
    ])
    def test_dropped_flag_exits_2(self, argv, flag):
        assert run_cli(*argv)[0] == 0
        code, out, err = run_cli(*argv, *flag)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag[0]}" in err

    # a registered option that the mode or suite chosen would not read
    @pytest.mark.parametrize("argv,flag", [
        (("csigma-eval", "--space", "a2", "--word", "1,2",
          "--lambda", "0.9,-0.5"), ("--ktype", "s1r0")),
        (("csigma-eval", "--space", "a2", "--word", "1,2",
          "--lambda", "0.9,-0.5"), ("--catalog", str(CATALOG))),
        (("csigma-eval", "--space", "h2", "--ktype", "s1r0",
          "--lambda", "1,-0.4"), ("--lambda-vec", "1,-0.4")),
        (("phi-eval", "--space", "h2", "--lambda", "0.7,0.2", "--t", "1"),
         ("--abs-tol", "1e-3")),
        (("phi-eval", "--space", "h2", "--lambda", "0.7,0.2", "--t", "1",
          "--methods", "closed,series"), ("--rel-tol", "1e-3")),
        (("verify", "--suite", "cocycle"), ("--space", "h2")),
        (("verify", "--suite", "eisenstein"), ("--space", "h2")),
        (("verify", "--suite", "det-a"), ("--abs-tol", "1e-3")),
        (("verify", "--suite", "hs-norm"), ("--rel-tol", "1e-3")),
        (("verify", "--suite", "c-vs-integral"),
         ("--catalog", "/nonexistent.json")),
        (("verify", "--suite", "asymptotic", "--space", "h2"),
         ("--catalog", str(CATALOG))),
        (("phi-eval", "--space", "h2", "--lambda", "0.7,0.2", "--t", "1"),
         ("--t-grid", "0:3:4")),
        (("c-eval", "--space", "h2", "--lambda", "1,0"),
         ("--lambda-grid", "0:2:3")),
        (("phi-eval", "--space", "h2", "--lambda", "0.7,0.2", "--t", "1"),
         ("--series-n", "3")),
        (("c-eval", "--space", "h2", "--lambda", "1,0"), ("--im", "5")),
        (("limits", "--space", "h2", "--lambda", "0.5,-0.8", "--t", "10"),
         ("--catalog", "/nonexistent.json")),
        (("c-eval", "--space", "h2", "--lambda", "1,0"),
         ("--lambda-vec", "1,0;2,0")),
        (("c-eval", "--space", "a2", "--lambda-grid", "0.5:1:3"),
         ("--lambda-vec", "1,-0.5;2,-0.5")),
        (("phi-eval", "--space", "h2", "--ktype", "s1r0", "--lambda",
          "0.5,0", "--t-grid", "1:2:2"),
         ("--methods", "series", "--series-n", "20")),
    ])
    def test_unread_flag_exits_2(self, argv, flag):
        assert run_cli(*argv)[0] == 0
        code, out, err = run_cli(*argv, *flag)
        assert code == 2 and out == ""
        assert flag[0] in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "asymptotic", "--space", "h2", "--ktype",
         "s2r0", "--catalog", str(CATALOG)),
        ("verify", "--suite", "all", "--space", "h2", "--catalog",
         str(CATALOG), "--abs-tol", "1e-10"),
    ])
    def test_flags_some_suite_reads_are_accepted(self, argv):
        assert run_cli(*argv)[0] == 0

    # argparse takes "-0.5,0.2" for an option name unless it is told
    # otherwise; each space-separated value reads as its "=" form
    @pytest.mark.parametrize("argv,flag,value", [
        (("c-eval", "--space", "h2"), "--lambda", "-0.5,0.2"),
        (("c-eval", "--space", "h2"), "--lambda-grid", "-1:1:3"),
        (("c-eval", "--space", "h2", "--im", "-0.3"), "--lambda-grid",
         "-.5:1:3"),
        (("c-eval", "--space", "a2", "--lambda", "1,0"), "--lambda-vec",
         "-1,0;0.5,-0.3"),
        (("limits", "--space", "h2", "--t", "1"), "--lambda", "-0.5,-0.3"),
        (("phi-eval", "--space", "h2", "--lambda", "0.5,0.2"), "--t-grid",
         "-1:1:3"),
    ])
    def test_negative_value_reads_as_its_equals_form(self, argv, flag,
                                                     value):
        got = run_cli(*argv, flag, value)
        assert got == run_cli(*argv, f"{flag}={value}")
        assert "expected one argument" not in got[2]

    def test_tolerance_flags_are_read(self):
        # at t = 38 the loose spec stops the trapezoid rule a level before
        # the default one (96 rule points against 224)
        argv = ("phi-eval", "--space", "h2", "--lambda", "0.7,0.2",
                "--t", "38", "--methods", "quadrature")
        code, default, _ = run_cli(*argv)
        assert code == 0
        code, loose, _ = run_cli(*argv, "--abs-tol", "1e-4",
                                 "--rel-tol", "1e-4")
        assert code == 0
        assert (rows_of(loose)[0]["phi_quadrature_re"]
                != rows_of(default)[0]["phi_quadrature_re"])

    # NaN fails every comparison, so only "0 < tol < inf" rejects it
    @pytest.mark.parametrize("argv", [
        ("simple-check", "--space", "h2", "--lambda", "0,1.5", "--tol",
         "nan"),
        ("simple-check", "--space", "h2", "--lambda", "0,1.5", "--tol",
         "inf"),
        ("verify", "--suite", "c-vs-integral", "--abs-tol", "nan"),
        ("verify", "--suite", "phi-vs-integral", "--space", "hn:3",
         "--rel-tol", "nan"),
        ("verify", "--suite", "csigma", "--rel-tol", "inf"),
        ("phi-eval", "--space", "h2", "--lambda", "1,0", "--t", "1",
         "--methods", "quadrature", "--abs-tol", "nan"),
    ])
    def test_non_finite_tolerance_exits_2(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert "must be finite and > 0" in err


class TestSizedParser:
    # a call that names a command parses with that subparser alone; its
    # exit code, stdout and stderr are those of the parser of every command
    CASES = [[], ["-h"], ["--help"], ["nope"], ["phi"], ["-h", "phi-eval"]]
    CASES += [argv for name, (_, _, rules) in COMMANDS.items()
              for argv in ([name, "-h"], [name], [name, "--bogus"],
                           [name, "extra"],
                           [name, next(f for f in OPTIONS if f not in rules),
                            "1"])]

    @pytest.mark.parametrize("argv", CASES,
                             ids=lambda argv: " ".join(argv) or "none")
    def test_output_is_that_of_the_full_parser(self, monkeypatch, argv):
        sized = run_cli(*argv)
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        assert sized == run_cli(*argv)

    def test_named_command_builds_its_subparser_alone(self):
        for name in COMMANDS:
            text = cli.build_parser(name).format_help()
            for other in COMMANDS:
                assert lists_command(text, other) == (other == name)

    def test_no_argv_reads_sys_argv(self, monkeypatch):
        argv = ["simple-check", "--space", "h2", "--lambda", "0,1.5"]
        monkeypatch.setattr(sys, "argv", ["sphfun", *argv])
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main()
        assert (code, out.getvalue(), err.getvalue()) == run_cli(*argv)
        assert code == 0 and out.getvalue()


class TestOutput:
    def test_json_format(self):
        code, out, _ = run_cli("c-eval", "--space", "h2",
                               "--lambda", "1,-0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["pole_flag"] is False

    def test_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                "c-eval", "--space", "hn:3", "--lambda-grid", "0.2:2:7",
                "--im", "-0.4", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_help_exits_clean(self):
        code, out, _ = run_cli("--help")
        assert code == 0
        assert all(lists_command(out, name) for name in COMMANDS)

    def test_readme_examples_run(self, monkeypatch):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r"^## CLI$.*?^```sh$(.*?)^```$", readme,
                          re.M | re.S).group(1)
        commands = [shlex.split(line)[1:]
                    for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("sphfun ")]
        assert {argv[0] for argv in commands} == set(COMMANDS)
        monkeypatch.chdir(ROOT)  # the det-a example names a relative path
        for argv in commands:
            code, out, err = run_cli(*argv)
            assert (code, err) == (0, ""), argv
            assert out
