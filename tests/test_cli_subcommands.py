"""Tests for the model/plan/simulate/trace CLI subcommands."""

import pytest

from repro.cli import main
from repro.contacts.traces import ContactTrace


class TestModel:
    def test_prints_all_four_models(self, capsys):
        assert main(["model", "--n", "50", "-g", "5", "-K", "3"]) == 0
        out = capsys.readouterr().out
        assert "delivery rate" in out
        assert "traceable rate" in out
        assert "path anonymity" in out
        assert "transmission bound" in out

    def test_copies_affect_bound(self, capsys):
        main(["model", "-K", "3", "-L", "4"])
        out = capsys.readouterr().out
        assert "20" in out  # (3+2)*4


class TestPlan:
    def test_deadline_mode(self, capsys):
        assert main(["plan", "--n", "50", "--target", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "deadline for a 0.9 delivery target at L=1:" in out

    def test_copies_mode(self, capsys):
        assert main(
            ["plan", "--n", "50", "--target", "0.9", "--deadline", "120"]
        ) == 0
        out = capsys.readouterr().out
        assert "copies for a 0.9 delivery target within T=120: L=" in out

    @pytest.mark.parametrize("target", ["0.9999", "0.9999999"])
    @pytest.mark.parametrize("deadline", [None, "2000"])
    def test_target_is_printed_unrounded(self, capsys, target, deadline):
        argv = ["plan", "--n", "50", "--target", target]
        if deadline is not None:
            argv += ["--deadline", deadline]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"for a {target} delivery target" in out
        assert "100%" not in out


class TestSimulate:
    @pytest.mark.parametrize(
        "protocol", ["single", "multi", "arden", "epidemic", "spray", "direct"]
    )
    def test_each_protocol_runs(self, capsys, protocol):
        code = main(
            [
                "simulate",
                "--protocol", protocol,
                "--n", "30",
                "--trials", "5",
                "--deadline", "400",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"protocol={protocol}" in out
        assert "delivery_rate=" in out


class TestSimulateStreams:
    def test_trial_streams_are_spawned_children(self, capsys, monkeypatch):
        # Trial i's contacts come from the i-th child spawned from the
        # seed, whatever the other trials read from their own streams.
        import numpy as np

        from repro.contacts import events
        from repro.utils.rng import spawn_rng

        seen = []
        original = events.ExponentialContactProcess

        class Recording(original):
            def __init__(self, graph, rng=None, **kwargs):
                seen.append(rng.bit_generator.state)
                super().__init__(graph, rng=rng, **kwargs)

        monkeypatch.setattr(events, "ExponentialContactProcess", Recording)
        args = ["simulate", "--n", "30", "--trials", "4", "--deadline", "400",
                "--seed", "17", "--availability", "0.6"]
        assert main(args) == 0
        expected = spawn_rng(np.random.default_rng(17), 4)
        assert seen == [child.bit_generator.state for child in expected]

    def test_output_is_reproducible(self, capsys):
        args = ["simulate", "--n", "30", "--trials", "6", "--deadline", "400",
                "--seed", "5", "--death-rate", "0.002"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestTraceStats:
    def test_stats_output(self, capsys, tmp_path):
        trace = ContactTrace.from_rows(
            [(0, 1, 0, 10), (1, 2, 20, 30), (0, 1, 40, 50)]
        )
        path = tmp_path / "trace.txt"
        trace.dump(path)
        assert main(["trace", "stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "nodes:     3" in out
        assert "contacts:  3" in out
        assert "pairs met: 2" in out


class TestFigureChart:
    def test_chart_flag(self, capsys):
        assert main(["figure", "6", "--trials", "30", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out


class TestFigureSave:
    def test_save_json(self, capsys, tmp_path):
        from repro.experiments.persistence import load_figure

        path = tmp_path / "fig6.json"
        assert main(["figure", "6", "--trials", "30", "--save", str(path)]) == 0
        figure = load_figure(path)
        assert figure.figure_id == "Fig. 6"
        assert any(label.startswith("Analysis") for label in figure.labels)


class TestSimulateFaults:
    def test_churn_and_greyhole_flags(self, capsys):
        code = main(
            [
                "simulate",
                "--protocol", "single",
                "--n", "30",
                "--trials", "8",
                "--deadline", "400",
                "--availability", "0.7",
                "--drop-prob", "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "delivery_rate=" in out
        assert "outcomes:" in out

    def test_recovery_flags(self, capsys):
        code = main(
            [
                "simulate",
                "--protocol", "multi",
                "--copies", "3",
                "--n", "30",
                "--trials", "8",
                "--deadline", "400",
                "--death-rate", "0.001",
                "--custody-timeout", "30",
            ]
        )
        assert code == 0
        assert "outcomes:" in capsys.readouterr().out

    def test_drop_prob_needs_onion_protocol(self, capsys):
        code = main(
            [
                "simulate",
                "--protocol", "epidemic",
                "--n", "30",
                "--trials", "5",
                "--deadline", "400",
                "--drop-prob", "0.5",
            ]
        )
        assert code == 2

    def test_faultless_output_unchanged(self, capsys):
        code = main(
            [
                "simulate",
                "--protocol", "single",
                "--n", "30",
                "--trials", "5",
                "--deadline", "400",
            ]
        )
        assert code == 0
        assert "outcomes:" not in capsys.readouterr().out


class TestFigureKeys:
    def test_list_includes_robustness_keys(self, capsys):
        # `list` must render every registered key, including the
        # extension/robustness string keys that broke naive sorting.
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "r1" in out
        assert "r2" in out

    def test_fig_prefix_alias_accepted(self, capsys):
        # "Fig. R1" and "r1" normalise to the same key; exercise the
        # converter without paying for a full figure run.
        from repro.cli import _figure_key

        assert _figure_key("Fig. R1") == "r1"
        assert _figure_key("fig4") == 4
        assert _figure_key("10") == 10

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "zz"])

    @pytest.mark.parametrize(
        "argv",
        [["4", "--sessions", "0"], ["4", "--sessions", "-3"], ["r1", "--sessions", "0"]],
    )
    def test_non_positive_sessions_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", *argv])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestNonPositiveCounts:
    """Counts below 1 are usage errors (exit 2), never tracebacks."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--trials", "0"],
            ["simulate", "--trials", "-5"],
            ["model", "--n", "0"],
            ["model", "-g", "0"],
            ["model", "-K", "0"],
            ["model", "-L", "0"],
            ["plan", "--n", "-1"],
            ["simulate", "--protocol", "single", "-K", "0"],
        ],
    )
    def test_rejected_with_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err


class TestOutOfRangeNumbers:
    """Numbers outside a flag's range are usage errors (exit 2), never tracebacks."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--deadline", "0"], "--deadline"),
            (["simulate", "--deadline", "nan"], "--deadline"),
            (["simulate", "--death-rate", "-1"], "--death-rate"),
            (["simulate", "--churn-cycle", "-3"], "--churn-cycle"),
            (["simulate", "--custody-timeout", "-1"], "--custody-timeout"),
            (["simulate", "--max-retries", "-1"], "--max-retries"),
            (["simulate", "--availability", "1.5"], "--availability"),
            (["simulate", "--drop-prob", "1.5"], "--drop-prob"),
            (["simulate", "--drop-compromise", "1"], "--drop-compromise"),
            (["simulate", "--seed", "-1"], "--seed"),
            (["plan", "--target", "1.5"], "--target"),
            (["plan", "--target", "1"], "--target"),
            (["plan", "--target", "0.5", "--deadline", "-5"], "--deadline"),
            (["model", "--deadline", "-5"], "--deadline"),
            (["model", "--compromise", "1.5"], "--compromise"),
            (["figure", "4", "--seed", "-1"], "--seed"),
        ],
    )
    def test_rejected_with_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"argument {flag}: expected" in errors[0]
        assert "Traceback" not in err


class TestRouteConfig:
    """Flag combinations no route can satisfy are usage errors (exit 2)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "20", "--trials", "2"],
            ["model", "--n", "20"],
            ["plan", "--n", "20", "--target", "0.9"],
        ],
    )
    def test_too_few_groups_for_k_relays(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "-K 3 needs K + 2 = 5 onion groups" in errors[0]
        assert "Traceback" not in err

    def test_group_larger_than_network(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["model", "--n", "10", "-g", "20"])
        assert excinfo.value.code == 2
        assert "-g 20 exceeds --n 10" in capsys.readouterr().err

    def test_smallest_valid_network_runs(self, capsys):
        assert main(["model", "--n", "25", "-g", "5", "-K", "3"]) == 0


class TestPlanUnreachable:
    def test_unreachable_target_is_one_line(self, capsys):
        code = main(["plan", "--target", "0.9999", "--deadline", "1", "--n", "30"])
        assert code != 0
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert "unreachable within T=1" in lines[0]
        assert "64-copy limit" in lines[0]
        assert "Traceback" not in captured.err
        assert captured.out == ""


# Backends the registry once held; selecting one must now fail loudly.
REMOVED_BACKENDS = ("numba", "cupy")


class TestBackends:
    def test_lists_every_registered_backend(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("numpy", "cc"):
            assert name in out
        # numpy is the always-available reference and the default.
        assert "(default)" in out

    def test_unavailable_backends_name_their_degradation(self, capsys, monkeypatch):
        # Hide the C compiler so cc is unavailable in every environment,
        # then check the degradation reason is printed.
        from repro.sim.backend import CcBackend, _reset_backend_caches

        _reset_backend_caches()
        monkeypatch.setattr(CcBackend, "_compiler", classmethod(lambda cls: None))
        try:
            assert main(["backends"]) == 0
            out = capsys.readouterr().out
            assert "degrades to numpy: no C compiler" in out
        finally:
            _reset_backend_caches()

    @pytest.mark.parametrize("name", REMOVED_BACKENDS)
    def test_removed_backend_name_is_rejected(self, capsys, monkeypatch, name):
        from repro.sim.backend import ENV_VAR

        monkeypatch.setenv(ENV_VAR, name)
        assert main(["figure", "4", "--sessions", "2"]) == 2
        err = capsys.readouterr().err
        assert f"${ENV_VAR}" in err and name in err

    def test_kernel_backend_flag_is_gone(self, capsys):
        # The environment variable is the only backend selection.
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "4", "--kernel-backend", "cc"])
        assert excinfo.value.code == 2
        assert "--kernel-backend" in capsys.readouterr().err

    @pytest.mark.parametrize("name", REMOVED_BACKENDS)
    def test_removed_backend_in_env_raises(self, monkeypatch, name):
        from repro.sim.backend import ENV_VAR, resolve_backend

        monkeypatch.setenv(ENV_VAR, name)
        with pytest.raises(ValueError, match="numpy, cc"):
            resolve_backend(None)

    def test_env_override_reported(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
        assert main(["backends"]) == 0
        assert "REPRO_KERNEL_BACKEND" in capsys.readouterr().out
