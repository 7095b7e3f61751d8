"""CLI surface: subcommands, JSON reports, exit codes, determinism."""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from oracles import clear_caches

from schubres import biflag, building, exactlin, grassfib, suite
from schubres.cli import REPORTS, build_parser, run
from schubres.exactlin import rows_bound
from schubres.permcomb import Permutation

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# 61,60,...,1, whose grid bound at p=251 has over 4 300 digits, and 2,4,...,100
DESCENT_61 = ",".join(map(str, range(61, 0, -1)))
EVEN_100 = ",".join(map(str, range(2, 101, 2)))


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBuilding:
    def test_sigma_example(self, capsys):
        code, rep = run_json(capsys, ["building", "--perm", "4,8,6,2,7,3,1,5"])
        assert code == 0
        assert rep["counts"]["per_level"] == [3, 5, 4, 4, 4, 3, 2]
        assert rep["counts"]["total"] == 25
        assert rep["counts"]["raw_per_level"] == [18, 10, 8, 6, 4, 3, 2]
        assert rep["passed"] is True

    def test_bubblesort(self, capsys):
        code, rep = run_json(capsys, ["bubblesort", "--perm", "2,3,1"])
        assert code == 0
        assert rep["counts"]["word"] == [1, 2]
        assert rep["counts"]["length"] == 2

    def test_rankmatrix_identity(self, capsys):
        code, rep = run_json(capsys, ["rankmatrix", "--perm", "1,2,3"])
        assert code == 0
        assert rep["counts"]["matrix"] == [[1, 1, 1], [1, 2, 2], [1, 2, 3]]


class TestDispatch:
    def test_table_matches_parser(self):
        # every (command, action) the parser accepts has one report
        # function, and every table entry is reachable from the parser
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        pairs = []
        for command, parser in sub.choices.items():
            actions = [a.choices for a in parser._actions if a.dest == "action"]
            pairs += [(command, action) for action in (actions[0] if actions else [None])]
        assert len(pairs) == len(set(pairs)) == len(REPORTS)
        assert set(pairs) == set(REPORTS)

    def test_parser_is_built_once(self):
        # one parser per process; each parse gives a fresh namespace
        parser = build_parser()
        assert build_parser() is parser
        a = parser.parse_args(["biflag", "verify", "--perm", "2,1", "--field", "3"])
        b = parser.parse_args(["biflag", "verify", "--perm", "1,2"])
        assert a is not b
        assert (a.perm, a.field, b.perm, b.field) == ("2,1", 3, "1,2", 2)


class TestExitCodes:
    def test_invalid_perm_is_2(self, capsys):
        assert run(["building", "--perm", "1,1,2"]) == 2

    def test_invalid_beta_is_2(self, capsys):
        assert run(["grass", "verify-phi", "--n", "4", "--beta", "4,2"]) == 2

    def test_k_option_is_rejected_2(self, capsys):
        # k is the length of --beta; there is no separate option for it
        assert run(["grass", "verify-phi", "--n", "4", "--k", "2", "--beta", "2,4"]) == 2

    def test_budget_exceeded_is_2(self, capsys):
        assert run(["biflag", "enumerate", "--perm", "4,3,2,1", "--budget", "2"]) == 2

    @pytest.mark.parametrize(
        "command",
        [
            pytest.param(["grass", "verify-phi"], id="verify-phi"),
            pytest.param(["grass", "verify-phistar"], id="verify-phistar"),
            pytest.param(["grass", "verify-transversal"], id="verify-transversal"),
            pytest.param(["embres", "verify"], id="embres-verify"),
        ],
    )
    def test_oversized_grassmannian_refused_before_inputs(self, command, capsys):
        # Gr_2(GF(3)^7) has 99463 points; the refusal must come before the
        # 34992 inputs of the conjugate parametrization are enumerated, and
        # before the 3^10 graphs of the embedded resolution's chart are built
        argv = command + ["--n", "7", "--beta", "2,4", "--field", "3"]
        start = time.perf_counter()
        assert run(argv + ["--budget", "100"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "Gr_2(GF(3)^7)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["biflag", "verify", "--perm", DESCENT_61], id="biflag-verify"),
            pytest.param(["bs", "iso", "--perm", DESCENT_61], id="bs-iso"),
            pytest.param(
                ["grass", "verify-phi", "--n", "100", "--beta", EVEN_100, "--budget", "1"],
                id="grass-verify-phi",
            ),
        ],
    )
    def test_bound_of_over_4300_digits_is_2(self, argv, capsys):
        # Python 3.11 and later refuse str() of such a bound; the refusal
        # prints it as a power of ten instead of failing as an internal error
        assert run(argv + ["--field", "251"]) == 2
        assert "points" in capsys.readouterr().err

    def test_non_prime_field_is_2(self, capsys):
        assert run(["biflag", "verify", "--perm", "2,1", "--field", "4"]) == 2
        assert run(["grass", "verify-phi", "--n", "4", "--beta", "2,4", "--field", "6"]) == 2

    def test_unknown_subcommand_is_2(self, capsys):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize("command", ["rankmatrix", "building", "bubblesort"])
    def test_budget_on_a_command_that_enumerates_nothing_is_2(self, command, capsys):
        # argparse refuses the option; run returns its code instead of
        # raising, so a caller that runs many argvs in turn goes on
        assert run([command, "--perm", "2,1", "--budget", "5"]) == 2
        assert "unrecognized arguments: --budget 5" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["biflag", "verify", "--help"]])
    def test_help_is_0(self, argv, capsys):
        assert run(argv) == 0
        assert capsys.readouterr().out.startswith("usage: ")

    def test_fault_in_a_verifier_is_3(self, capsys, monkeypatch):
        # a ValueError raised once the configuration is valid is a fault
        # in the program, not an invalid configuration
        def broken(cfg, budget):
            raise ValueError("vector outside onto + along")

        monkeypatch.setattr(grassfib, "verify_phi", broken)
        assert run(["grass", "verify-phi", "--n", "4", "--beta", "2,4"]) == 3
        assert "internal error: ValueError" in capsys.readouterr().err


def run_optimized(script):
    """Exit code and stderr of ``script`` under ``python -O``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    return proc.returncode, proc.stderr


class TestChecksSurviveOptimize:
    # python -O strips asserts; these checks must still stop the run
    def test_phi_star_canonical_row_check(self):
        # a 1 at the first coordinate of every graph row is a nonzero
        # entry before the pivot of row 1 of the first input, whose line 1
        # is e2
        code, err = run_optimized(
            "import sys\n"
            "from schubres import cli, exactlin, grassfib\n"
            "assert False, 'asserts are on'\n"
            "grassfib.graph_rows = lambda a: [(1,) + r[1:] for r in exactlin.graph_rows(a)]\n"
            "sys.exit(cli.run(['grass', 'verify-phistar', '--n', '4', '--beta', '2,4']))\n"
        )
        assert code == 3, err
        assert "internal error: InvariantError: phi_star graph row 1 is not canonical" in err

    def test_graph_dimension_check(self):
        # with the disjointness check fooled, the graph of -1 on a line
        # inside the target is zero
        code, err = run_optimized(
            "from schubres import exactlin as ex\n"
            "assert False, 'asserts are on'\n"
            "ex.intersect = lambda a, b: ex.zero_subspace(a.n, a.p)\n"
            "line = ex.span([(1, 0)], 2, 2)\n"
            "ex.graph(ex.LinearMap(line, line, ((1,),)))\n"
        )
        assert code == 1
        assert "InvariantError: graph has dimension 0, its domain 1" in err

    def test_family_flag_dimension_check(self):
        # with the graph sums dropped, each family flag space sums one
        # graph and its complements, one dimension short from space 2 on
        code, err = run_optimized(
            "import sys\n"
            "from schubres import cli, embres\n"
            "assert False, 'asserts are on'\n"
            "embres.subspace_sum = lambda a, b: a\n"
            "sys.exit(cli.run(['embres', 'verify', '--n', '4', '--beta', '2,4']))\n"
        )
        assert code == 3, err
        assert "internal error: InvariantError: psi_tilde space 2 has dimension 3, not b_2" in err

    def test_psi_tilde_dimension_check(self):
        # with the complements dropped, space i is the i-dimensional l_i
        code, err = run_optimized(
            "from schubres import grassfib, wflag\n"
            "assert False, 'asserts are on'\n"
            "cfg = grassfib.make_frame(4, 2, (2, 4))\n"
            "wflag.subspace_sum = lambda a, b: a\n"
            "wflag.psi_tilde(cfg, (cfg.lines_prefix(1), cfg.lines_prefix(2)))\n"
        )
        assert code == 1
        assert "InvariantError: psi_tilde space 1 has dimension 1, not b_1" in err

    def test_building_floor_rows_check(self):
        # with max pinned to 1, the second floor of 3,2,1 holds (1, 1) twice
        code, err = run_optimized(
            "import sys\n"
            "from schubres import building, cli\n"
            "assert False, 'asserts are on'\n"
            "building.max = lambda a, b: 1\n"
            "sys.exit(cli.run(['building', '--perm', '3,2,1']))\n"
        )
        assert code == 3, err
        assert "internal error: InvariantError: floor 2 labels share a row" in err

    def test_building_top_apartment_check(self):
        # with max taken as min, the top floor of 2,1 is (1, 1)
        code, err = run_optimized(
            "import sys\n"
            "from schubres import building, cli\n"
            "assert False, 'asserts are on'\n"
            "building.max = min\n"
            "sys.exit(cli.run(['building', '--perm', '2,1']))\n"
        )
        assert code == 3, err
        assert "InvariantError: the top floor is [(1, 1)], not the apartment (2, 2)" in err

    def test_bubblesort_word_check(self):
        # a permutation whose values all read 1 disagrees with its one-line form
        code, err = run_optimized(
            "from schubres import permcomb\n"
            "assert False, 'asserts are on'\n"
            "w = permcomb.Permutation((1, 2))\n"
            "permcomb.Permutation.__call__ = lambda self, i: 1\n"
            "permcomb.bubblesort_word(w)\n"
        )
        assert code == 1
        assert "InvariantError: bubblesort of (1, 2) ends at (2, 1)" in err


class TestEnumerationCommands:
    def test_biflag_enumerate(self, capsys):
        code, rep = run_json(
            capsys, ["biflag", "enumerate", "--perm", "2,3,1", "--field", "2"]
        )
        assert code == 0
        assert rep["counts"]["points"] == 9

    def test_biflag_full_grid(self, capsys):
        code, rep = run_json(
            capsys,
            ["biflag", "enumerate", "--perm", "1,2,3", "--variety", "flw", "--field", "2"],
        )
        assert code == 0
        assert rep["counts"]["points"] == 21

    def test_bs_enumerate(self, capsys):
        code, rep = run_json(capsys, ["bs", "enumerate", "--perm", "2,1", "--field", "3"])
        assert code == 0
        assert rep["counts"]["points"] == 4

    def test_wflag_lift(self, capsys):
        code, rep = run_json(
            capsys, ["wflag", "lift", "--n", "4", "--beta", "1,3", "--field", "2"]
        )
        assert code == 0
        names = {c["name"] for c in rep["checks"]}
        assert "lift_is_a_section" in names


class TestVerifyCommands:
    def test_grass_transversal(self, capsys):
        code, rep = run_json(
            capsys, ["grass", "verify-transversal", "--n", "4", "--beta", "2,4"]
        )
        assert code == 0 and rep["passed"]

    def test_wflag_verify(self, capsys):
        code, rep = run_json(capsys, ["wflag", "verify", "--n", "4", "--beta", "2,4"])
        assert code == 0 and rep["passed"]

    def test_embres_verify_merges_reports(self, capsys):
        code, rep = run_json(
            capsys, ["embres", "verify", "--n", "4", "--beta", "2,4", "--field", "2"]
        )
        assert code == 0
        names = {c["name"] for c in rep["checks"]}
        assert any(n.startswith("chart.") for n in names)
        assert any(n.startswith("resolution.") for n in names)


class TestSharedGraph:
    """``biflag verify`` and ``bs iso`` of one (w, p) walk one cached row
    graph (``biflag.shat_graph``)."""

    RUNS = [
        ["biflag", "verify", "--perm", "2,4,1,3", "--field", "3"],
        ["bs", "iso", "--perm", "2,4,1,3", "--field", "3"],
        ["bs", "iso", "--perm", "3,4,1,2", "--field", "3"],
        ["biflag", "verify", "--perm", "2,4,1,3", "--field", "2"],
    ]

    @staticmethod
    def _masked(capsys, argv):
        assert run(argv) == 0
        text = capsys.readouterr().out
        out, count = re.subn(r'"wall_time_s": [-+.0-9e]+', '"wall_time_s": _', text)
        assert count == 1
        return out

    def test_reports_equal_those_from_empty_caches(self, capsys):
        clear_caches()
        chained = [self._masked(capsys, argv) for argv in self.RUNS]
        # only the bs iso right after the biflag verify of its (w, p) hit
        info = biflag.shat_graph.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 3, 1)
        for argv, text in zip(self.RUNS, chained):
            clear_caches()
            assert biflag.shat_graph.cache_info().currsize == 0
            assert self._masked(capsys, argv) == text, argv

    @pytest.mark.parametrize("command", [["biflag", "verify"], ["bs", "iso"]])
    def test_budget_refused_before_any_row_with_the_graph_cached(
        self, command, capsys, monkeypatch
    ):
        w = Permutation((2, 4, 1, 3))
        bound = rows_bound(*biflag.grid_rows(w, 2, pinned_last_row=True))
        argv = ["--perm", "2,4,1,3", "--field", "2"]
        assert run(["biflag", "verify", *argv]) == 0
        assert biflag.shat_graph.cache_info().currsize == 1
        assert biflag.shat_graph(w, 2).memos[0]

        def no_row(lower, upper, dim):
            raise AssertionError("a row was built")

        monkeypatch.setattr(exactlin, "enumerate_between", no_row)
        capsys.readouterr()
        assert run([*command, *argv, "--budget", str(bound - 1)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: tower needs up to {bound} points, budget is {bound - 1}\n"


class TestSuite:
    def test_suite_runs_all_criteria(self, capsys):
        code = run(["suite"])
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        assert code == 0
        names = [c["name"] for c in rep["checks"]]
        assert sum(1 for n in names if not n.endswith("-within-time")) == 10
        assert rep["passed"] is True
        assert captured.err.count("PASS") == 10


    def test_failing_criterion_carries_its_witnesses(self, capsys, monkeypatch):
        sweep = [c for c in suite.CRITERIA if c[0] == "criterion-2-building-sweep"]
        monkeypatch.setattr(suite, "CRITERIA", sweep)
        check_counts = building.check_counts
        monkeypatch.setattr(
            building, "check_counts", lambda w: w.one_line != (2, 1) and check_counts(w)
        )
        code, rep = run_json(capsys, ["suite"])
        assert code == 1
        assert rep["checks"][0]["passed"] is False
        assert rep["checks"][0]["witnesses"] == [["totals_and_oracle_agree", [[2, 1]]]]


class TestTextOutput:
    # ``--no-json`` prints a verdict line and one line per check instead
    # of the JSON report
    def test_passing_report(self, capsys):
        assert run(["biflag", "verify", "--perm", "2,3,1", "--no-json"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "biflag verify: PASS",
            "  ok tower_count_is_(p+1)^l 9 vs 9",
            "  ok image_in_closed_variety",
            "  ok cell_count_is_p^l 4 vs 4",
            "  ok cell_fibers_are_singletons",
            "  ok cell_fiber_is_intersection_grid",
            "  ok image_equals_closed_variety point surjectivity observed at this field size",
        ]

    def test_failing_report(self, capsys, monkeypatch):
        # every flag read as the longest word lies outside the variety of
        # 2,3,1 and off its cell: each space of dimension d gets the jumps
        # n-d+1..n
        def longest(space):
            return sum(range(space.n - space.dim + 1, space.n + 1))

        monkeypatch.setattr(biflag, "_jump_sum", longest)
        assert run(["biflag", "verify", "--perm", "2,3,1", "--no-json"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "biflag verify: FAIL"
        assert [line for line in lines if line.startswith("  FAIL ")] == [
            "  FAIL image_in_closed_variety",
            "  FAIL cell_count_is_p^l 0 vs 4",
            "  FAIL image_equals_closed_variety point surjectivity observed at this field size",
        ]
        assert len(lines) == 7


class TestReportHygiene:
    def test_determinism_modulo_wall_time(self, capsys):
        _, rep1 = run_json(capsys, ["biflag", "verify", "--perm", "2,3,1"])
        _, rep2 = run_json(capsys, ["biflag", "verify", "--perm", "2,3,1"])
        rep1.pop("wall_time_s")
        rep2.pop("wall_time_s")
        assert json.dumps(rep1) == json.dumps(rep2)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = run(["building", "--perm", "2,1", "--out", str(target)])
        assert code == 0
        on_disk = json.loads(target.read_text())
        assert on_disk["counts"]["per_level"] == [2]

    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_unwritable_out_is_2(self, where, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
        assert run(["building", "--perm", "2,1", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write --out")
        assert "Traceback" not in captured.err

    def test_unwritable_out_is_refused_before_the_build(self, capsys, monkeypatch, tmp_path):
        # a built report would end as an internal error, exit 3
        def broken(w, p, budget):
            raise RuntimeError("the report was built")

        monkeypatch.setattr(biflag, "verify_flres", broken)
        target = tmp_path / "missing" / "x.json"
        assert run(["biflag", "verify", "--perm", "2,1", "--out", str(target)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_refused_run_leaves_an_existing_out_file_intact(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("old report\n")
        argv = ["biflag", "enumerate", "--perm", "4,3,2,1", "--budget", "2"]
        assert run(argv + ["--out", str(target)]) == 2
        assert target.read_text() == "old report\n"

    def test_refused_run_leaves_no_new_out_file(self, capsys, tmp_path):
        # the writability check creates the file, then removes it again
        target = tmp_path / "new.json"
        argv = ["biflag", "verify", "--perm", "9,8,7,6,5,4,3,2,1", "--field", "2"]
        assert run(argv + ["--out", str(target)]) == 2
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_crashed_run_leaves_no_new_out_file(self, capsys, monkeypatch, tmp_path):
        def broken(w, p, budget):
            raise RuntimeError("a fault in the verifier")

        monkeypatch.setattr(biflag, "verify_flres", broken)
        target = tmp_path / "new.json"
        assert run(["biflag", "verify", "--perm", "2,1", "--out", str(target)]) == 3
        assert "internal error: RuntimeError" in capsys.readouterr().err
        assert not target.exists()

    def test_crashed_run_leaves_an_existing_out_file_intact(self, capsys, monkeypatch, tmp_path):
        def broken(w, p, budget):
            raise RuntimeError("a fault in the verifier")

        monkeypatch.setattr(biflag, "verify_flres", broken)
        target = tmp_path / "report.json"
        target.write_text("old report\n")
        assert run(["biflag", "verify", "--perm", "2,1", "--out", str(target)]) == 3
        assert target.read_text() == "old report\n"

    def test_schema_fields(self, capsys):
        _, rep = run_json(capsys, ["building", "--perm", "2,1,3"])
        assert set(rep) == {"command", "config", "counts", "checks", "passed", "wall_time_s"}
        for check in rep["checks"]:
            assert set(check) == {"name", "passed", "detail", "witnesses", "informational"}
