"""Smoke tests: the example scripts run end to end.

The heavyweight examples (nba_allstars, photo_diversity) are exercised by
the experiment suite's equivalents; here we run the fast ones as real
subprocesses so a packaging or API regression that only bites script
users is caught.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = ["quickstart.py", "midas_anatomy.py",
                 "overlay_genericity.py", "vertical_middleware.py"]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "examples must print their findings"


def test_midas_anatomy_lists_every_visited_peer():
    """Figure 3 prints one ``visit`` line per peer the query processed."""
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "midas_anatomy.py")],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    figure3 = proc.stdout.split("=== Figure 3")[1].splitlines()
    visits = [line for line in figure3 if line.startswith("  visit ")]
    summary = next(line for line in figure3 if "peers visited" in line)
    assert len(visits) == int(summary.split("/")[0].split()[-1])


def test_overlay_genericity_matches_readme_matrix():
    """The example's overlay roster stays consistent with the README.

    Every overlay the genericity demo exercises must be a row of the
    README overlay matrix, and the demo's printed skip-graph degree must
    respect the constant cap the matrix advertises ("6 (constant)").
    """
    readme = (EXAMPLES.parent / "README.md").read_text(encoding="utf-8")
    rows = [line.split("|")[1].strip().lower()
            for line in readme.splitlines()
            if line.startswith("|") and line.count("|") >= 6
            and "---" not in line and "overlay" != line.split("|")[1].strip()]
    assert {"midas", "can", "chord", "rainbow skip graph"} <= set(rows)

    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / "overlay_genericity.py")],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    printed = {line.split("(")[0].strip().lower()
               for line in proc.stdout.splitlines() if "correct;" in line}
    assert printed == {"midas", "can", "chord", "rainbow skip graph"}
    assert printed <= set(rows), "example exercises an overlay the " \
        "README matrix does not document"

    skip_line = next(line for line in proc.stdout.splitlines()
                     if line.lower().startswith("rainbow skip graph"))
    degree = int(skip_line.split("max-degree=")[1].split()[0])
    skip_row = next(line for line in readme.splitlines()
                    if line.lower().startswith("| rainbow skip graph"))
    assert "6 (constant)" in skip_row
    assert degree <= 6


def test_examples_directory_complete():
    present = {p.name for p in EXAMPLES.glob("*.py")}
    assert {"quickstart.py", "nba_allstars.py", "photo_diversity.py",
            "midas_anatomy.py", "overlay_genericity.py",
            "vertical_middleware.py"} <= present
