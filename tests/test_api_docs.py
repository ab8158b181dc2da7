"""docs/api.md must match what ``make docs`` generates from the code.

The reference is generated from live signatures and docstrings, so a
public API change without a regenerated file fails here.  The generator
runs in a fresh interpreter: module state other tests touch must not
leak into the rendered values.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_committed_api_reference_is_current(tmp_path):
    output = tmp_path / "api.md"
    subprocess.run([sys.executable, str(ROOT / "scripts" /
                                        "generate_api_docs.py"), str(output)],
                   check=True, capture_output=True, cwd=ROOT)
    committed = (ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    assert output.read_text(encoding="utf-8") == committed, (
        "docs/api.md is stale: run `make docs`")
