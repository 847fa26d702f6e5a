"""ripplelint: whole-program AST invariant checks for the RIPPLE codebase.

Once a single 1,100-line module, now a pipeline:

* :mod:`.engine` — findings, parsed modules, suppression, rule registry
  plumbing, and the lazily-derived whole-program :class:`Project`;
* :mod:`.symbols` / :mod:`.callgraph` / :mod:`.reachability` — the
  import-resolving symbol table, the conservative call graph, and the
  simulation-reachability pass that scopes the determinism rules by
  "can this code run inside a simulation?" rather than by directory;
* :mod:`.rules` — the RPL001-RPL015 catalogue;
* :mod:`.cli` — the command line (``--changed``, ``--rule``,
  ``--format github``).

The public surface re-exported here is what the test-suite and the
``tools/ripplelint`` launcher consume; it is a strict superset of the
old single-module API.
"""

from .cli import main
from .engine import (Finding, ParsedModule, Project, Rule,
                     SIM_FALLBACK_SCOPE, iter_python_files, lint_module,
                     lint_paths, lint_source)
from .reachability import ENTRY_POINTS
from .rules import RULES

__all__ = [
    "ENTRY_POINTS",
    "Finding",
    "ParsedModule",
    "Project",
    "RULES",
    "Rule",
    "SIM_FALLBACK_SCOPE",
    "iter_python_files",
    "lint_module",
    "lint_paths",
    "lint_source",
    "main",
]
