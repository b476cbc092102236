import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reslat.cli
import reslat.metric
import reslat.norms
import reslat.reports
from reslat.cli import main
from reslat.finite import MAX_CARRIER
from reslat.fixtures import lukasiewicz_chain
from reslat.topology import MAX_LISTED_CARRIER

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def module_run(*argv):
    """``python -m reslat ARGV`` in a subprocess that imports this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "reslat", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNorms:
    def test_family_pass(self, capsys):
        code, out, _ = run(capsys, "norms", "--family", "lukasiewicz", "--grid", "8")
        assert code == 0
        assert "result: PASS" in out

    def test_drastic_without_residuum_passes(self, capsys):
        code, out, _ = run(capsys, "norms", "--family", "drastic", "--grid", "8")
        assert code == 0
        assert "standard definition" in out

    def test_all_families_sections(self, capsys):
        code, out, _ = run(capsys, "norms", "--all", "--grid", "4")
        assert code == 0
        for kind in ("lukasiewicz", "goedel", "product", "drastic"):
            assert f"{kind}: duality" in out

    def test_unknown_family_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["norms", "--family", "frank"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("option", ["--residuum", "--approx"])
    def test_removed_options_are_usage_errors(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["norms", "--family", "drastic", "--grid", "4", option])
        _, err = capsys.readouterr()
        assert exc.value.code == 2
        assert err.startswith("usage: ") and f"unrecognized arguments: {option}" in err

    def test_help_prints_the_grid_default(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["norms", "--help"])
        out, _ = capsys.readouterr()
        assert exc.value.code == 0
        assert "(default: 64)" in out and "--residuum" not in out and "--approx" not in out


class TestMetric:
    def test_checks_pass(self, capsys):
        code, out, _ = run(capsys, "metric", "--family", "goedel", "--grid", "8", "--grid4", "4")
        assert code == 0
        assert "metric axioms" in out and "continuity contracts" in out

    def test_law_selector(self, capsys):
        code, out, _ = run(
            capsys, "metric", "--family", "product", "--grid", "4", "--grid4", "4",
            "--laws", "d1..d15", "--laws-grid", "4",
        )
        assert code == 0
        assert "D15" in out

    def test_ball_output(self, capsys):
        code, out, _ = run(capsys, "metric", "--family", "lukasiewicz", "--ball", "0.5,1")
        assert code == 0
        assert "ball: [0, 1]" in out

    def test_ball_invalid_radius(self, capsys):
        code, _, err = run(capsys, "metric", "--family", "lukasiewicz", "--ball", "1/2,0")
        assert code == 2
        assert "radius" in err

    @pytest.mark.parametrize(
        "ball, message",
        [
            ("1/0,1/2", "'1/0' is not a number"),
            ("1/2,1/0", "'1/0' is not a number"),
            ("x,1/2", "'x' is not a number"),
            (",1/2", "--ball expects CENTER,RADIUS"),
            (" ,1/2", "--ball expects CENTER,RADIUS"),
            ("1/2,", "--ball expects CENTER,RADIUS"),
            ("1/2", "--ball expects CENTER,RADIUS"),
        ],
    )
    def test_ball_malformed_exit_2(self, capsys, ball, message):
        code, out, err = run(capsys, "metric", "--family", "product", "--ball", ball)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("ball", ["1e-1000000000,1/2", "1/2,1e-1000000000"])
    def test_ball_huge_exponent_fails_fast(self, capsys, ball):
        start = time.perf_counter()
        code, out, err = run(capsys, "metric", "--family", "product", "--ball", ball)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "exponent" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_ball_end_too_many_digits_exit_2(self, capsys, fmt):
        # Both inputs parse, but the upper end c + r(1 - c) has a 6001-digit denominator.
        code, out, err = run(capsys, "metric", "--family", "product", "--ball", "2e-3000,1e-3000", "--format", fmt)
        assert code == 2 and out == ""
        assert err == "error: ball end has a denominator of more than 4300 digits\n"

    @pytest.mark.parametrize(
        "laws", [["--laws", "d0..d3"], ["--laws", "d1,d16"], ["--laws", "d1..d3", "--laws-grid", "1"]]
    )
    def test_bad_laws_refused_before_any_sweep(self, capsys, monkeypatch, laws):
        sweeps = []
        for name in ("d_star_closed_form_check", "metric_axioms_check", "continuity_inequalities_check"):
            monkeypatch.setattr(reslat.metric, name, lambda *args, name=name: sweeps.append(name) or [])
        code, out, err = run(capsys, "metric", "--family", "product", *laws)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert sweeps == []


    @pytest.mark.parametrize("laws", ["d3,", "d1..", "dx", "..d3", "d1..d3..d5", ",", "d1,,d2", "d1 d2"])
    def test_malformed_law_selector_exit_2(self, capsys, laws):
        code, out, err = run(capsys, "metric", "--family", "product", "--laws", laws)
        assert code == 2 and out == ""
        assert err == f"error: bad law selector {laws.strip().lower()!r}\n"

    @pytest.mark.parametrize(
        "selector, ids",
        [
            ("d1..d15", [f"D{i}" for i in range(1, 16)]),
            ("D3..d5", ["D3", "D4", "D5"]),
            (" d2 .. 4 ", ["D2", "D3", "D4"]),
            ("d3,d10", ["D3", "D10"]),
            ("D3, 10 ,d1", ["D3", "D10", "D1"]),
            ("7", ["D7"]),
        ],
    )
    def test_law_selector_forms(self, selector, ids):
        assert reslat.cli._parse_law_selector(selector, "D", 15) == ids


class TestAlgebra:
    def test_check_valid(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "algebra", "check", str(fixtures_dir / "l4.alg"))
        assert code == 0
        assert "result: PASS" in out

    def test_check_corrupt_fails_with_witness(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "algebra", "check", str(fixtures_dir / "l4-corrupt.alg"))
        assert code == 1
        assert "BL3" in out and "(2/3, 1/3, 2/3)" in out

    def test_topology_listing(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "algebra", "topology", str(fixtures_dir / "l4.alg"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "{}"
        assert lines[-1] == "16 open sets"

    def test_dualize_round_trip(self, capsys, fixtures_dir, tmp_path):
        code, out, _ = run(capsys, "algebra", "dualize", str(fixtures_dir / "g3.alg"))
        assert code == 0
        doc = json.loads(out)
        assert doc["signature"] == "DBL"
        dual_path = tmp_path / "g3-dual.alg"
        dual_path.write_text(out)
        code, out, _ = run(capsys, "algebra", "check", str(dual_path))
        assert code == 0
        assert "D15" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "algebra", "check", str(tmp_path / "nope.alg"))
        assert code == 2
        assert err.startswith("error:")

    def test_carrier_cap_exit_2(self, capsys, tmp_path):
        path = tmp_path / "big.alg"
        path.write_text(json.dumps(lukasiewicz_chain(MAX_CARRIER + 1)), encoding="utf-8")
        code, _, err = run(capsys, "algebra", "check", str(path))
        assert code == 2
        assert err == f"error: carrier has {MAX_CARRIER + 1} elements; at most {MAX_CARRIER} are supported\n"

    def test_check_counts_opens_beyond_listing_bound(self, capsys, tmp_path):
        path = tmp_path / "l16.alg"
        path.write_text(json.dumps(lukasiewicz_chain(16)), encoding="utf-8")
        code, out, _ = run(capsys, "algebra", "check", str(path))
        assert code == 0
        assert "note: topology: 65536 open sets\n" in out

    def test_listing_order_on_a_discrete_chain(self, capsys, tmp_path):
        doc = lukasiewicz_chain(12)
        path = tmp_path / "l12.alg"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "algebra", "topology", str(path))
        # A chain's topology is discrete: every subset, by size, then by index tuple.
        subsets = [c for k in range(13) for c in itertools.combinations(range(12), k)]
        lines = ["{" + ", ".join(doc["carrier"][i] for i in c) + "}" for c in subsets]
        assert (code, err) == (0, "")
        assert out == "\n".join(lines) + "\n4096 open sets\n"

    def test_listing_needs_no_flag_up_to_the_limit(self, capsys, tmp_path):
        path = tmp_path / "l16.alg"
        path.write_text(json.dumps(lukasiewicz_chain(16)), encoding="utf-8")
        code, out, _ = run(capsys, "algebra", "topology", str(path))
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 65537 and lines[-1] == "65536 open sets"

    def test_listing_refuses_carriers_above_the_limit(self, capsys, tmp_path):
        path = tmp_path / "l21.alg"
        path.write_text(json.dumps(lukasiewicz_chain(MAX_LISTED_CARRIER + 1)), encoding="utf-8")
        code, out, err = run(capsys, "algebra", "topology", str(path))
        assert code == 2 and out == ""
        assert err == f"error: carrier size {MAX_LISTED_CARRIER + 1} exceeds the listing limit {MAX_LISTED_CARRIER}\n"

    @pytest.mark.parametrize(
        "command", [["algebra", "check"], ["algebra", "dualize"], ["eval", "p -> p", "--sweep", "--algebra"]]
    )
    @pytest.mark.parametrize(
        "field, label, where",
        [
            ("bottom", ["0"], "bottom"),
            ("top", {"a": 1}, "top"),
            ("leq", [["0"], "1"], "leq"),
            ("star", ["0"], "star table"),
            ("arrow", {"0": "1"}, "arrow table"),
        ],
    )
    def test_non_string_label_exit_2(self, capsys, tmp_path, fixtures_dir, command, field, label, where):
        doc = json.loads((fixtures_dir / "l4.alg").read_text(encoding="utf-8"))
        if field == "leq":
            doc["leq"][0] = label
            label = label[0]
        elif field in ("star", "arrow"):
            doc[field][1][2] = label
        else:
            doc[field] = label
        path = tmp_path / "bad.alg"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, *command, str(path))
        assert code == 2 and out == ""
        assert err == f"error: unknown label {label!r} in {where}\n"


class TestEval:
    def test_assign(self, capsys):
        code, out, _ = run(capsys, "eval", "p -> q", "--t-algebra", "lukasiewicz",
                           "--assign", "p=3/10,q=4/5")
        assert code == 0
        assert out.strip() == "1"

    def test_sweep_constant(self, capsys):
        code, out, _ = run(capsys, "eval", "(p->q)|(q->p)", "--t-algebra", "product", "--sweep", "16")
        assert code == 0
        assert out.strip() == "constant 1 over 289 valuations"

    def test_finite_no_atoms(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "eval", "0 -> 0", "--algebra", str(fixtures_dir / "g3.alg"))
        assert code == 0
        assert out.strip() == "1"

    def test_finite_sweep(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "eval", "(p->q)|(q->p)", "--algebra", str(fixtures_dir / "l4.alg"),
                           "--sweep")
        assert code == 0
        assert out.strip() == "constant 1 over 16 valuations"

    @pytest.mark.parametrize("text, value", [("0.25", "1/4"), ("1e-3", "1/1000"), ("3/10", "3/10")])
    def test_assign_exact_decimals(self, capsys, text, value):
        code, out, _ = run(capsys, "eval", "p", "--t-algebra", "product", "--assign", f"p={text}")
        assert code == 0
        assert out.strip() == value

    @pytest.mark.parametrize("text", ["1e-1000000000", "1E+99999999999", "1e-4301", "1e-" + "9" * 5000])
    def test_assign_huge_exponent_fails_fast(self, capsys, text):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "p", "--t-algebra", "product", "--assign", f"p={text}")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == "error: decimal exponent exceeds 4300 in magnitude\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "formula, value, message",
        [
            ("p", "1e-4300", "result has a denominator of more than 4300 digits"),
            ("p", "1/" + "9" * 5000, "input value has a number of more than 4300 digits"),
            ("p & p", "1e-3000", "result has a denominator of more than 4300 digits"),
            ("p", "1e4300", "value outside [0, 1] has a numerator of more than 4300 digits"),
        ],
    )
    def test_too_many_digits_exit_2(self, capsys, formula, value, message, fmt):
        code, out, err = run(capsys, "eval", formula, "--t-algebra", "product", "--assign", f"p={value}",
                             "--format", fmt)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("text", ["", "1/0", "abc", "1/2/3", "0x1"])
    def test_assign_not_a_number_exit_2(self, capsys, text):
        code, out, err = run(capsys, "eval", "p", "--t-algebra", "goedel", "--assign", f"p={text}")
        assert (code, out, err) == (2, "", f"error: {text!r} is not a number\n")

    @pytest.mark.parametrize("backend", [["--t-algebra", "goedel"], ["--algebra", "g3.alg"]])
    @pytest.mark.parametrize("source", ["--assign", "--assign-file"])
    @pytest.mark.parametrize("entry", ["=1", "P=1", "1x=1", "p q=1"])
    def test_assign_to_a_non_atom_exit_2(self, capsys, tmp_path, fixtures_dir, backend, source, entry):
        if backend[0] == "--algebra":
            backend = ["--algebra", str(fixtures_dir / "g3.alg")]
        text = f"p=1,{entry}"
        if source == "--assign-file":
            path = tmp_path / "valuation.txt"
            path.write_text(f"p = 1\n{entry}\n", encoding="utf-8")
            text = str(path)
        code, out, err = run(capsys, "eval", "p", *backend, source, text)
        assert (code, out, err) == (2, "", f"error: valuation entry {entry!r} does not name an atom\n")

    def test_syntax_error_position_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "p -> (", "--t-algebra", "product", "--assign", "p=1")
        assert code == 2
        assert "column 7" in err

    @pytest.mark.parametrize("formula", ["(" * 500 + "p" + ")" * 500, "!" * 2000 + "p"])
    def test_deep_nesting_exit_2(self, capsys, formula):
        code, out, err = run(capsys, "eval", formula, "--t-algebra", "product", "--assign", "p=1/2")
        assert code == 2 and out == ""
        assert err.startswith("error: line 1, column 101: ") and err.count("\n") == 1

    def test_missing_assignment(self, capsys):
        code, _, err = run(capsys, "eval", "p & q", "--t-algebra", "product")
        assert code == 2
        assert "assign" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("backend", [["--t-algebra", "product"], ["--algebra", "g3.alg"]])
    @pytest.mark.parametrize("source", ["--assign", "--assign-file"])
    def test_atom_assigned_twice_exit_2(self, capsys, tmp_path, fixtures_dir, backend, source, fmt):
        if backend[0] == "--algebra":
            backend = ["--algebra", str(fixtures_dir / "g3.alg")]
        text = "p=1,p=0"
        if source == "--assign-file":
            path = tmp_path / "valuation.txt"
            path.write_text("p = 1\nq = 0\np = 0\n", encoding="utf-8")
            text = str(path)
        code, out, err = run(capsys, "eval", "p & q", *backend, source, text, "--format", fmt)
        assert code == 2 and out == ""
        assert err == "error: atom 'p' is assigned more than once\n"

    def test_sweep_too_large_refused_before_it_starts(self, capsys):
        chain = " & ".join(f"p{i}" for i in range(24))
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", chain, "--t-algebra", "goedel", "--sweep", "2")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == f"error: a sweep of 3^24 valuations is over the limit of {reslat.cli.MAX_SWEEP}\n"

    def test_sweep_grid_too_fine_refused_before_it_starts(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "1", "--t-algebra", "goedel", "--sweep", str(10**9))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == f"error: sweep grid denominator {10**9} is over the limit of {reslat.cli.MAX_SWEEP}\n"

    def test_sweep_limit_is_far_above_every_tested_sweep(self, capsys):
        # The largest sweep a test or benchmark op runs is 33^2 valuations.
        assert reslat.cli.MAX_SWEEP >= 100 * 33**2
        points = math.isqrt(reslat.cli.MAX_SWEEP) + 1  # the smallest grid whose square is over the limit
        code, out, err = run(capsys, "eval", "p & q", "--t-algebra", "goedel", "--sweep", str(points - 1))
        assert code == 2 and out == ""
        assert f"a sweep of {points}^2 valuations" in err

    @pytest.mark.parametrize("sweep", ["3", "2", "0", "1", "-2"])
    def test_finite_sweep_takes_no_grid(self, capsys, fixtures_dir, sweep):
        code, out, err = run(capsys, "eval", "p", "--algebra", str(fixtures_dir / "g3.alg"), "--sweep", sweep)
        assert code == 2 and out == ""
        assert err == "error: --sweep N sets a grid for --t-algebra; --algebra sweeps its carrier\n"

    # A typed 0 is a grid like any other N, not the bare --sweep.
    @pytest.mark.parametrize("sweep", ["0", "1", "-2"])
    def test_sweep_grid_below_two_refused(self, capsys, sweep):
        code, out, err = run(capsys, "eval", "p | q", "--t-algebra", "goedel", "--sweep", sweep)
        assert code == 2 and out == ""
        assert err == "error: grid denominator must be >= 2\n"

    def test_bare_sweep_takes_the_default_grid(self, capsys):
        code, out, _ = run(capsys, "eval", "p", "--t-algebra", "goedel", "--sweep")
        assert code == 0
        assert out.splitlines()[0] == "65 distinct values over 65 valuations:"

    # --algebra F --sweep N is refused for its grid whatever else is given.
    @pytest.mark.parametrize("source", ["--assign", "--assign-file"])
    @pytest.mark.parametrize("backend, sweep", [("t-algebra", []), ("t-algebra", ["4"]), ("algebra", [])])
    def test_sweep_with_a_valuation_refused(self, capsys, fixtures_dir, tmp_path, backend, sweep, source):
        if backend == "algebra":
            backend_args = ["--algebra", str(fixtures_dir / "g3.alg")]
        else:
            backend_args = ["--t-algebra", "goedel"]
        text = "p=1/2"
        if source == "--assign-file":
            path = tmp_path / "valuation.txt"
            path.write_text("p = 1/2\n", encoding="utf-8")
            text = str(path)
        code, out, err = run(capsys, "eval", "p", *backend_args, source, text, "--sweep", *sweep)
        assert code == 2 and out == ""
        assert err == "error: --sweep evaluates every valuation; it cannot be given with --assign or --assign-file\n"

    def test_approx_flag(self, capsys):
        code, out, _ = run(capsys, "eval", "q -> p", "--t-algebra", "lukasiewicz",
                           "--assign", "p=3/10,q=4/5", "--approx")
        assert code == 0
        assert out.strip() == "1/2 (0.5)"


class TestOutputStability:
    def test_json_deterministic(self, capsys, fixtures_dir):
        args = ("algebra", "check", str(fixtures_dir / "l4-corrupt.alg"), "--format", "json")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert (code1, out1) == (code2, out2) == (1, out1)
        doc = json.loads(out1)
        assert doc["ok"] is False

    def test_norms_json_shape(self, capsys):
        code, out, _ = run(capsys, "norms", "--family", "goedel", "--grid", "4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert any(s["title"] == "ordering chains" for s in doc["sections"])


class TestEnvironment:
    """A command's output depends only on its arguments and input files."""

    @pytest.mark.parametrize("value", ["4", "1", "abc"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["algebra", "check", "l4.alg"],
            ["algebra", "dualize", "l4.alg"],
            ["algebra", "topology", "l4.alg"],
            ["eval", "p -> q", "--t-algebra", "goedel", "--assign", "p=1/2,q=1/3"],
            ["eval", "p", "--algebra", "g3.alg", "--sweep"],
            ["eval", "p", "--t-algebra", "product", "--sweep", "4"],
            ["eval", "p", "--t-algebra", "goedel", "--sweep"],
            ["metric", "--family", "product", "--ball", "1/2,1/4"],
            ["metric", "--family", "goedel", "--grid4", "2"],
            ["metric", "--family", "goedel", "--grid", "4", "--grid4", "2"],
            ["norms", "--family", "goedel"],
            ["norms", "--family", "goedel", "--grid", "4"],
        ],
        ids=" ".join,
    )
    def test_grid_env_changes_nothing(self, capsys, monkeypatch, fixtures_dir, argv, value):
        argv = [str(fixtures_dir / a) if a.endswith(".alg") else a for a in argv]
        monkeypatch.delenv("RESLAT_GRID", raising=False)
        expected = run(capsys, *argv)
        monkeypatch.setenv("RESLAT_GRID", value)
        assert run(capsys, *argv) == expected
        assert expected[0] == 0


class TestSweepBudget:
    """``norms`` and ``metric`` count their tuples before any sweep starts."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["norms", "--all", "--grid", "8"],
            ["norms", "--family", "drastic", "--grid", "5"],
            ["norms", "--family", "product", "--grid", "20"],
            ["metric", "--family", "product", "--grid", "5", "--grid4", "3", "--laws", "d1..d15", "--laws-grid", "3"],
            ["metric", "--family", "lukasiewicz", "--grid", "20", "--grid4", "2", "--laws", "d2,d15", "--laws-grid", "4"],
            ["metric", "--family", "goedel", "--grid", "3", "--grid4", "4"],
        ],
        ids=" ".join,
    )
    def test_count_is_the_sum_of_the_checked_counts(self, capsys, monkeypatch, argv):
        counts = []
        budget = reslat.cli._refuse_over_budget
        monkeypatch.setattr(reslat.cli, "_refuse_over_budget", lambda tuples: counts.append(tuples) or budget(tuples))
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert counts == [sum(r["checked"] for section in doc["sections"] for r in section["reports"])]

    def test_budget_is_far_above_every_tested_command(self):
        # norms --all --grid 64 is the largest command a test or benchmark op runs.
        largest = reslat.norms.tuples_checked(list(reslat.norms.NormKind), 64)
        assert largest == 4_213_712
        assert reslat.cli.MAX_TUPLES >= 10 * largest

    @pytest.mark.parametrize(
        "argv",
        [
            ["norms", "--family", "lukasiewicz", "--grid", "100000"],
            ["norms", "--all", "--grid", str(10**30)],
            ["metric", "--family", "product", "--grid", "1000"],
            ["metric", "--family", "goedel", "--grid4", "100"],
            ["metric", "--family", "lukasiewicz", "--laws", "d15", "--laws-grid", "100"],
        ],
        ids=" ".join,
    )
    def test_over_the_budget_refused_before_it_starts(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.startswith("error: a sweep of ") and err.endswith(f" tuples is over the limit of {reslat.cli.MAX_TUPLES}\n")

    def test_just_under_the_budget_is_accepted(self, capsys, monkeypatch):
        grid = 2
        while reslat.norms.tuples_checked([reslat.norms.NormKind.GOEDEL], grid + 1) <= reslat.cli.MAX_TUPLES:
            grid += 1
        monkeypatch.setattr(reslat.norms, "norm_axioms_check", lambda *args: [])
        monkeypatch.setattr(reslat.norms, "duality_check", lambda *args: reslat.reports.LawReport("duality"))
        monkeypatch.setattr(reslat.norms, "adjointness_check", lambda *args: reslat.reports.LawReport("adjointness"))
        monkeypatch.setattr(reslat.norms, "ordering_chain_check", lambda *args: reslat.reports.LawReport("ordering"))
        assert run(capsys, "norms", "--family", "goedel", "--grid", str(grid))[0] == 0
        assert run(capsys, "norms", "--family", "goedel", "--grid", str(grid + 1))[0] == 2


def test_module_entry_point(fixtures_dir):
    proc = module_run("eval", "p -> q", "--t-algebra", "goedel", "--assign", "p=1/2,q=1/2")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


@pytest.mark.parametrize("formula", ["(" * 500 + "p" + ")" * 500, "!" * 2000 + "p"])
def test_module_entry_point_deep_nesting_has_no_traceback(formula):
    proc = module_run("eval", formula, "--t-algebra", "product", "--assign", "p=1/2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: line 1, column 101: ") and proc.stderr.count("\n") == 1
