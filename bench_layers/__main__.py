"""``python -m bench_layers``: the benchmark's command line."""

from __future__ import annotations

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")


def _bootstrap() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    The benchmark measures the program in *this* checkout, never an
    installed copy, so a checkout without ``src/repro`` is an error.
    """
    if not os.path.isdir(os.path.join(_SRC, "repro")):
        sys.exit(f"bench_layers: no program to measure: {_SRC}/repro "
                 "is missing")
    sys.path.insert(0, _SRC)
    if _ROOT not in sys.path:
        sys.path.insert(1, _ROOT)


if __name__ == "__main__":
    _bootstrap()
    from bench_layers.cli import main
    sys.exit(main(sys.argv[1:]))
