"""Entry point by path: ``python3 benchmarks/perf/run.py ...`` from the
root of a checkout (``BENCHMARK.json``'s command). Replaces this
directory on the path with the checkout and its ``src``, then hands
over to :mod:`benchmarks.perf.cli`."""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    sys.path[:1] = [str(root / "src"), str(root)]
    from benchmarks.perf.cli import main

    sys.exit(main())
