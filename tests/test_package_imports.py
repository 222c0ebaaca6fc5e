"""What ``import repro`` loads, and that its public names resolve.

The catalog's own layers are what the package root loads; the
warehouse, the serving tier, the columnar snapshot and the chaos
harness are imported from their own modules by the code that uses them.
The import check runs in a fresh interpreter, so what earlier tests
imported cannot hide a regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.gsdb

SRC = Path(__file__).resolve().parents[1] / "src"

#: Module name prefixes ``import repro; import repro.views`` must not load.
NOT_LOADED = (
    "repro.warehouse",
    "repro.gsdb.columnar",
    "repro.serving",
    "repro.chaos",
)


def test_import_repro_loads_no_optional_layer():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = (
        "import json, sys\n"
        "import repro\n"
        "import repro.views\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    loaded = json.loads(result.stdout)
    assert "repro.views" in loaded
    assert [
        name
        for name in loaded
        if any(name == p or name.startswith(p + ".") for p in NOT_LOADED)
    ] == []


@pytest.mark.parametrize("package", [repro, repro.gsdb], ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    assert package.__all__
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
