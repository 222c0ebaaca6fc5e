"""A detached cycle must not hang the write path or the serving tier.

``root -> x -> y``; then ``insert(y, x)`` and ``delete(root, x)`` leave
x and y a cycle in which each has one parent, and ``insert(y, v)``
makes a screen walk up from y.  An upward walk without a visited set
loops there until memory runs out, so each scenario runs in a child
process under an address-space cap and a timeout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

resource = pytest.importorskip("resource")

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import resource, sys
cap = 600 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from repro import ViewCatalog
from repro.gsdb.updates import Delete, Insert

catalog = ViewCatalog()
store = catalog.store
store.add_atomic("v", "b", 9)
store.add_set("y", "y", [])
store.add_set("x", "c", ["y"])
store.add_set("root", "root", ["x"])
if sys.argv[1] == "view":
    catalog.define("define mview V as: SELECT root.a X WHERE X.b > 5")
else:
    server = catalog.enable_serving()
    assert server.evaluate_oids("SELECT y.b X") == set()
for update in (Insert("y", "x"), Delete("root", "x"), Insert("y", "v")):
    catalog.apply_batch([update])
if sys.argv[1] == "view":
    assert catalog.check("V").ok
else:
    assert server.evaluate_oids("SELECT y.b X") == {"v"}
print("ok")
"""


@pytest.mark.parametrize("mode", ["view", "serving"])
def test_detached_cycle_terminates(mode):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "ok"
