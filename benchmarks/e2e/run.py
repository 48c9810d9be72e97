"""Script entry of the benchmark: ``python3 benchmarks/e2e/run.py ARGS``.

Same arguments as ``python -m benchmarks.e2e`` (see cli.py); this form
needs no ``PYTHONPATH`` because it puts the checkout root on the path.
"""

import os
import sys

# Replace this script's own directory, whose module names would shadow
# top-level imports, with the checkout root.
sys.path[0] = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
