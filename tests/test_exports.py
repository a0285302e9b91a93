"""Every exported name resolves, and importing the package stays small.

A deletion that forgets an ``__all__`` entry leaves a name that
``from tensormotion.x import *`` fails on; this guard catches it for the
package and for each of its modules. The package uses only
``scipy.spatial`` and ``scipy.linalg``; a fresh interpreter that imports
it and its CLI must not load the large scipy subpackages.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tensormotion

SRC = Path(__file__).resolve().parent.parent / "src"
UNUSED_SCIPY = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.interpolate")

MODULES = ["tensormotion"] + [
    f"tensormotion.{info.name}" for info in pkgutil.iter_modules(tensormotion.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_import_loads_no_unused_scipy_subpackage():
    probe = (
        "import sys, tensormotion, tensormotion.cli\n"
        f"unused = {UNUSED_SCIPY!r}\n"
        "print(sorted(m for m in sys.modules if m.startswith(unused)))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"
