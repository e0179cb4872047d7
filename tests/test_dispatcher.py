"""`python -m repro`: the one CLI spelling."""

import os
import subprocess
import sys

import pytest

from repro import __main__ as dispatcher

COMMANDS = ("run", "lint", "perf", "report", "fault-analysis")


def run_module(module, *args):
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestDispatcher:
    def test_help_lists_every_command(self):
        result = run_module("repro", "--help")
        assert result.returncode == 0
        for command in COMMANDS:
            assert command in result.stdout
        assert set(dispatcher.COMMANDS) == set(COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_delegates_to_subsystem_help(self, command):
        result = run_module("repro", command, "--help")
        assert result.returncode == 0
        assert result.stdout.startswith(f"usage: python -m repro {command}")
        assert result.stderr == ""

    def test_unknown_command_fails_cleanly(self):
        result = run_module("repro", "frobnicate")
        assert result.returncode != 0

    @pytest.mark.parametrize(
        "package", ("harness", "lint", "obs.perf", "fault.analysis")
    )
    def test_legacy_entry_points_are_gone(self, package):
        result = run_module(f"repro.{package}", "--help")
        assert result.returncode != 0
        assert "cannot be directly executed" in result.stderr
