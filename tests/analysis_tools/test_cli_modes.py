"""Tests for the CLI's changed-only mode and its exit-code contract.

``--changed`` wraps the same lint pipeline as a full scan, so the tests
pin the *contract*: exit codes, which findings fail the run, and that
``--changed`` narrows reporting without narrowing the whole-program
analysis.
"""

import subprocess
from pathlib import Path

import pytest

from repro.analysis_tools.ripplelint.cli import main

CLEAN = "def f(sim):\n    return sim.now\n"
DIRTY = "import random\n\ndef f(sim):\n    return sim.now\n"


def write_tree(root: Path, text: str, name: str = "mod.py") -> Path:
    target = root / "src" / "repro" / "net"
    target.mkdir(parents=True, exist_ok=True)
    path = target / name
    path.write_text(text, encoding="utf-8")
    return path


# -- changed-only mode -----------------------------------------------------


def git(cwd: Path, *args: str) -> str:
    proc = subprocess.run(
        ["git", "-c", "user.email=t@example.com", "-c", "user.name=t",
         *args],
        cwd=cwd, capture_output=True, text=True, check=True)
    return proc.stdout


@pytest.fixture
def git_repo(tmp_path, monkeypatch):
    git(tmp_path, "init", "-q", "-b", "main")
    write_tree(tmp_path, CLEAN, "stale.py")
    write_tree(tmp_path, CLEAN, "touched.py")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-qm", "seed")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestChanged:
    def test_only_changed_files_are_reported(self, git_repo, capsys):
        # Both files become dirty, but only one changed since HEAD:
        # --changed reports just the touched file.
        stale = write_tree(git_repo, DIRTY, "stale.py")
        git(git_repo, "add", str(stale))
        git(git_repo, "commit", "-qm", "preexisting debt")
        write_tree(git_repo, DIRTY, "touched.py")
        assert main(["src", "--changed", "HEAD"]) == 1
        out = capsys.readouterr().out
        assert "touched.py" in out
        assert "stale.py" not in out

    def test_untracked_files_are_linted(self, git_repo, capsys):
        write_tree(git_repo, DIRTY, "brandnew.py")
        assert main(["src", "--changed", "HEAD"]) == 1
        assert "brandnew.py" in capsys.readouterr().out

    def test_no_changes_is_green(self, git_repo, capsys):
        assert main(["src", "--changed", "HEAD"]) == 0
        assert "no changed python files" in capsys.readouterr().err

    def test_changed_outside_scope_is_ignored(self, git_repo, capsys):
        (git_repo / "notes.py").write_text("import random\n")
        assert main(["src", "--changed", "HEAD"]) == 0


# -- contract regressions --------------------------------------------------


class TestContract:
    def test_exit_codes_and_github_format(self, tmp_path, capsys):
        write_tree(tmp_path, DIRTY)
        src = str(tmp_path / "src")
        assert main([src]) == 1
        assert main([src, "--rule", "RPL002"]) == 0
        assert main([src, "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out and "RPL001" in out

    def test_unknown_rule_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path), "--rule", "RPL999"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flags", (["--baseline", "debt.json"],
                                       ["--write-baseline"]))
    def test_baseline_options_are_gone(self, tmp_path, flags):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path), *flags])
        assert excinfo.value.code == 2
