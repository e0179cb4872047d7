"""`python -m repro` dispatcher and legacy entry-point notices."""

import os
import subprocess
import sys

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

    def test_delegates_to_subsystem_help(self):
        result = run_module("repro", "lint", "--help")
        assert result.returncode == 0
        assert "lint" in result.stdout
        # The new spelling carries no deprecation chatter.
        assert "deprecated" not in result.stderr

    def test_unknown_command_fails_cleanly(self):
        result = run_module("repro", "frobnicate")
        assert result.returncode != 0

    def test_legacy_entry_points_note_once(self):
        result = run_module("repro.lint", "--help")
        assert result.returncode == 0
        assert result.stderr.count("deprecated") == 1
        assert "python -m repro lint" in result.stderr
