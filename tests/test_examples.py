"""Smoke tests: every example script must run end to end.

Each runs as a real subprocess so a packaging or import regression cannot
hide. Every example drives library code that a CLI command, a benchmark or
a script also runs; no module is kept alive by an example alone (see
``TestReachability`` in test_api_conventions.py).
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(script: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestQuickstart:
    @pytest.fixture(scope="class")
    def output(self):
        return _run("quickstart.py")

    def test_prints_route_and_models(self, output):
        assert "route:" in output
        assert "model delivery rate" in output
        assert "simulated delivery rate" in output
        assert "model path anonymity" in output

    def test_models_simulation_consistent(self, output):
        # the documented model-vs-simulation caveat line is present
        assert "optimistic on the last hop" in output


class TestBattlefield:
    @pytest.fixture(scope="class")
    def output(self):
        return _run("battlefield_messaging.py")

    def test_full_stack_ran(self, output):
        assert "onion:" in output
        assert "peeled layer" in output
        assert "field unit reads:" in output
        assert "traceable rate" in output


class TestAnonymityTradeoff:
    @pytest.fixture(scope="class")
    def output(self):
        return _run("anonymity_tradeoff.py")

    def test_design_table_and_recommendation(self, output):
        assert "delivery anonymity traceable" in output
        assert "recommended:" in output
        assert "takeaways" in output


class TestTraceAnalysis:
    @pytest.fixture(scope="class")
    def output(self):
        return _run("trace_analysis.py")

    def test_both_traces_compared_to_the_model(self, output):
        assert "Cambridge-like trace" in output
        assert "Infocom-2005-like trace" in output
        assert output.count("deadline (s)    model  measured") == 2

