"""The table commands run on the standard library alone.

numpy is not a dependency: trace generation and every simulation tier
are pure Python. A fresh interpreter proves no code path imports it,
which an in-process check could not (another test may already have).
An empty ``numpy`` package shadows any installed one, so an import —
guarded by ``try`` or not — is caught whether or not numpy is present.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import sys
import numpy
assert numpy.__file__.startswith(sys.argv[1]), numpy.__file__
del sys.modules["numpy"]
from repro.cli import main
argv = ["table4.2", "--scale", "0.1", "--repetitions", "1", "--quiet"]
assert main(argv) == 0
assert "numpy" not in sys.modules, "the table run imported numpy"
"""


def test_table_run_never_imports_numpy(tmp_path):
    stub = tmp_path / "numpy"
    stub.mkdir()
    (stub / "__init__.py").write_text("")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tmp_path), str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                            env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    assert "Table 4.2" in result.stdout
