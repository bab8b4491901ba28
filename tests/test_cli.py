"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_estimate_defaults(self):
        args = build_parser().parse_args(["estimate"])
        assert args.method == "G-S"
        assert args.problem == "iread"

    def test_compare_methods_list(self):
        args = build_parser().parse_args(
            ["compare", "--methods", "MNIS", "G-S"]
        )
        assert args.methods == ["MNIS", "G-S"]

    def test_unknown_problem_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "--problem", "nope"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_workers_default_serial(self):
        args = build_parser().parse_args(["estimate"])
        assert args.workers is None

    def test_workers_flag_parsed(self):
        args = build_parser().parse_args(["compare", "--workers", "4"])
        assert args.workers == 4

    @pytest.mark.parametrize("command", ["estimate", "compare"])
    def test_short_verbose_flag(self, command):
        assert build_parser().parse_args([command, "-v"]).verbose


class TestCommands:
    def test_region_command(self, capsys):
        code = main(["region", "--problem", "iread", "--grid", "31"])
        assert code == 0
        out = capsys.readouterr().out
        assert "#" in out and "failing fraction" in out

    def test_region_rejects_high_dimensional_problem(self, capsys):
        code = main(["region", "--problem", "rnm"])
        assert code == 2
        assert "2-D only" in capsys.readouterr().err

    def test_estimate_command_small_budget(self, capsys):
        code = main([
            "estimate", "--problem", "iread", "--method", "G-S",
            "--n-gibbs", "40", "--n-second", "400", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "G-S: P_f" in out
        assert "Gibbs samples" in out

    def test_estimate_short_verbose_prints_summary(self, capsys):
        code = main([
            "estimate", "--problem", "iread", "--method", "G-S",
            "--n-gibbs", "40", "--n-second", "400", "--seed", "1", "-v",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "telemetry summary [repro-estimate]" in err
        assert "read.newton_lanes" in err

    def test_estimate_mc(self, capsys):
        code = main([
            "estimate", "--problem", "iread", "--method", "MC",
            "--n-second", "5000",
        ])
        assert code == 0
        assert "MC: P_f" in capsys.readouterr().out

    def test_estimate_mc_workers_matches_worker_free_reference(self, capsys):
        """--workers shards the run; the estimate depends on the seed only."""
        assert main([
            "estimate", "--problem", "iread", "--method", "MC",
            "--n-second", "4000", "--seed", "9", "--workers", "2",
        ]) == 0
        line_sharded = [
            line for line in capsys.readouterr().out.splitlines()
            if "MC: P_f" in line
        ][0]
        assert main([
            "estimate", "--problem", "iread", "--method", "MC",
            "--n-second", "4000", "--seed", "9", "--workers", "1",
        ]) == 0
        line_reference = [
            line for line in capsys.readouterr().out.splitlines()
            if "MC: P_f" in line
        ][0]
        assert line_sharded == line_reference

    def test_estimate_twrite_problem(self, capsys):
        code = main([
            "estimate", "--problem", "twrite", "--method", "G-C",
            "--n-gibbs", "30", "--n-second", "300", "--doe-budget", "120",
            "--seed", "3",
        ])
        assert code == 0
        assert "G-C: P_f" in capsys.readouterr().out

    def test_compare_command_small_budget(self, capsys):
        code = main([
            "compare", "--problem", "iread", "--methods", "MNIS", "G-S",
            "--n-gibbs", "40", "--n-second", "400", "--doe-budget", "80",
            "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MNIS" in out and "G-S" in out
        assert "agreement check" in out
