"""Every exported name resolves.

A deletion that forgets an ``__all__`` entry leaves a name that
``from tensormotion.x import *`` fails on; this guard catches it for the
package and for each of its modules.
"""

import importlib
import pkgutil

import pytest

import tensormotion

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
