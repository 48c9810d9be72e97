"""``python -m benchmarks.e2e``: see :mod:`benchmarks.e2e.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
