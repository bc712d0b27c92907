"""Tests for the onion-dtn command-line interface."""

import os

import pytest

from repro.cli import main


class TestWorkers:
    def test_figure_does_not_depend_on_the_cpu_count(self, capsys, monkeypatch):
        argv = ["figure", "r1", "--sessions", "4", "--workers", "2"]
        assert main(argv) == 0
        unpatched = capsys.readouterr().out
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert main(argv) == 0
        assert capsys.readouterr().out == unpatched


class TestList:
    def test_lists_all_figures(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for number in (4, 11, 19):
            assert f"figure {number:>2}" in out


class TestFigure:
    def test_security_figure_prints_table(self, capsys):
        assert main(["figure", "6", "--trials", "50"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out
        assert "Analysis: 3 onions" in out
        assert "Simulation: 3 onions" in out

    def test_markdown_output(self, capsys):
        assert main(["figure", "8", "--trials", "50", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("### Fig. 8")
        assert "|" in out

    def test_seed_override_reproducible(self, capsys):
        main(["figure", "6", "--trials", "50", "--seed", "123"])
        first = capsys.readouterr().out
        main(["figure", "6", "--trials", "50", "--seed", "123"])
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "99"])

    def test_nonpositive_trials_rejected(self, capsys):
        for bad in ("0", "-5", "2.5"):
            with pytest.raises(SystemExit):
                main(["figure", "6", "--trials", bad])
            assert "integer" in capsys.readouterr().err

    def test_compromise_model_forwarded(self, capsys):
        assert main([
            "figure", "6", "--trials", "50",
            "--compromise-model", "targeted",
        ]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out

    def test_compromise_model_changes_simulation(self, capsys):
        main(["figure", "6", "--trials", "50", "--seed", "3"])
        uniform = capsys.readouterr().out
        main(["figure", "6", "--trials", "50", "--seed", "3",
              "--compromise-model", "targeted"])
        targeted = capsys.readouterr().out
        assert uniform != targeted

    def test_compromise_model_rejected_on_delivery_figure(self, capsys):
        assert main([
            "figure", "4", "--compromise-model", "uniform",
        ]) == 2
        err = capsys.readouterr().err
        assert "--compromise-model only applies to the security" in err

    @pytest.mark.parametrize(
        "argv, family",
        [
            (["figure", "4", "--trials", "3"], "security"),
            (["figure", "6", "--sessions", "9"], "simulated"),
            (["figure", "e1", "--workers", "2"], "parallel"),
            (["figure", "e2", "--workers", "1"], "parallel"),
            (["figure", "14", "--compromise-model", "stake"], "security"),
        ],
        ids=["4-trials", "6-sessions", "e1-workers", "e2-workers-1", "14-compromise"],
    )
    def test_inapplicable_flag_rejected(self, capsys, argv, family):
        assert main(argv) == 2
        captured = capsys.readouterr()
        flag = argv[2]
        assert f"{flag} only applies to the {family} figures" in captured.err
        assert captured.out == ""

    def test_inapplicable_flag_error_lists_the_figures_that_take_it(self, capsys):
        assert main(["figure", "e1", "--workers", "2"]) == 2
        takers = capsys.readouterr().err.split("(")[1].rstrip(")\n").split(", ")
        assert takers == [str(n) for n in range(4, 20)] + ["r1", "r2"]

    def test_unknown_compromise_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "6", "--compromise-model", "nonsense"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
