"""Every function the traced benchmark wraps must still exist under its name.

`mcbench.trace` looks each name up when a traced run starts and raises
KeyError on a missing one, so a rename in mechcat would otherwise surface
only in `--trace 1` runs.
"""

import importlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from mcbench import trace  # noqa: E402


@pytest.mark.parametrize("name, module, path", trace.SPANS + trace.COUNTS,
                         ids=[name for name, _, _ in trace.SPANS + trace.COUNTS])
def test_traced_name_resolves_to_a_mechcat_callable(name, module, path):
    importlib.import_module(module)
    owner, attr = trace._resolve(module, path)
    fn = owner.__dict__[attr]
    assert callable(fn)
    assert fn.__module__ == module
