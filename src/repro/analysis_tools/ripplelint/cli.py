"""ripplelint's command line: full-scan and changed-only modes.

Exit codes are part of the CI contract: ``0`` clean, ``1`` at least one
finding, ``2`` usage error (argparse).  ``--format github`` emits
problem-matcher lines that annotate the PR diff.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import Sequence

from .engine import Rule, iter_python_files, lint_paths
from .rules import RULES

__all__ = ["main"]


def _git(*args: str) -> str | None:
    """Stdout of a git command, or None on failure (not a repo, bad ref)."""
    try:
        proc = subprocess.run(["git", *args], capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout


def _diff_base(explicit: str) -> str:
    """The ref to diff against: explicit, else merge-base with main."""
    if explicit:
        return explicit
    for candidate in ("origin/main", "main"):
        merged = _git("merge-base", "HEAD", candidate)
        if merged is not None and merged.strip():
            return merged.strip()
    return "HEAD"


def _changed_paths(requested: Sequence[str], base: str) -> list[str]:
    """Changed-in-git python files that fall under the requested paths.

    Union of ``git diff --name-only <base>`` and untracked files, so a
    brand-new module is linted before its first commit.  Deleted files
    drop out naturally (they no longer exist on disk).
    """
    listed: set[str] = set()
    for output in (_git("diff", "--name-only", base, "--"),
                   _git("ls-files", "--others", "--exclude-standard")):
        if output:
            listed.update(line.strip() for line in output.splitlines()
                          if line.strip())
    scoped = {file.resolve() for file in iter_python_files(requested)}
    changed = []
    for name in sorted(listed):
        path = Path(name)
        if path.exists() and path.resolve() in scoped:
            changed.append(name)
    return changed


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis_tools.ripplelint",
        description="AST-based invariant checks for the RIPPLE codebase")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "github"),
                        default="text",
                        help="'github' emits ::error problem-matcher lines")
    parser.add_argument("--rule", action="append", metavar="RPLxxx",
                        help="restrict to specific rule ids (repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--changed", nargs="?", const="", default=None,
                        metavar="BASE",
                        help="lint only files changed since BASE (default: "
                             "merge-base with origin/main), still judging "
                             "reachability over the whole program")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.id}  {rule.summary}")
        return 0

    rules: Sequence[Rule] = RULES
    if args.rule:
        wanted = set(args.rule)
        unknown = wanted - {rule.id for rule in RULES}
        if unknown:
            parser.error(f"unknown rule id(s): {sorted(unknown)}")
        rules = [rule for rule in RULES if rule.id in wanted]

    paths: Sequence[str] = args.paths
    if args.changed is not None:
        base = _diff_base(args.changed)
        paths = _changed_paths(args.paths, base)
        if not paths:
            print("ripplelint: no changed python files in scope",
                  file=sys.stderr)
            return 0

    findings = lint_paths(paths, rules)

    for finding in findings:
        print(finding.render(args.format))
    if findings:
        print(f"ripplelint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0
