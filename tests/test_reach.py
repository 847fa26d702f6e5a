"""The call-reach report.

Runs ``tools/reach`` as a real subprocess on a two-function fixture
package and pins its contract: the function no run called is reported,
with its module and physical length, and the called one is not.
"""

import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "reach"


def test_reports_exactly_the_uncalled_function(tmp_path):
    package = tmp_path / "fixture"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "def called():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def uncalled():\n"
        "    x = 2\n"
        "    return x\n")
    (tmp_path / "main.py").write_text(
        "from fixture import mod\n"
        "mod.called()\n")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--src", str(package),
         "--run", str(tmp_path / "main.py")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# 1 of 2 functions")
    assert "fixture.mod  (1 functions, 3 lines)" in lines
    assert [line.split() for line in lines if line.startswith("  ")] == [
        ["5", "uncalled", "(3", "lines)"]]


def test_a_failing_run_is_reported(tmp_path):
    package = tmp_path / "fixture"
    package.mkdir()
    (package / "__init__.py").write_text("def f():\n    return 1\n")
    (tmp_path / "main.py").write_text("import sys\nsys.exit(3)\n")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--src", str(package),
         "--run", str(tmp_path / "main.py")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "run failed" in proc.stderr
    assert "  1  f  (2 lines)" in proc.stdout
