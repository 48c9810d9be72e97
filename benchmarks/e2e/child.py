"""Child-process entry: ``python -m benchmarks.e2e.child REQUEST_JSON``.

Runs one unit (see :mod:`benchmarks.e2e.units`) and prints its result as
one JSON line. The parent stamps the spawn time; the imports below count
toward the unit's set-up time, as they do for a user's command.
"""

from __future__ import annotations

import json
import sys

from .units import run_unit


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    print(json.dumps(run_unit(json.loads(argv[0]))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
