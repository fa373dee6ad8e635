"""Every name the traced benchmark wraps still exists in the library.

``fqbench/spans.py`` wraps fqsurf functions by ``(module, name)``, and a
traced run reports a name it cannot find instead of failing.  This test
reads that table (run from source, so nothing is written under
``fqbench``) and fails as soon as a wrapped name is renamed or deleted.
"""

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "fqbench" / "spans.py"
LAYERS = runpy.run_path(str(SPANS))["LAYERS"]
WRAPPED = sorted({pair for pairs in LAYERS.values() for pair in pairs})


@pytest.mark.parametrize("module,name", WRAPPED, ids=[f"{m}.{n}" for m, n in WRAPPED])
def test_wrapped_name_is_a_callable_in_fqsurf(module, name):
    target = importlib.import_module(f"fqsurf.{module}")
    assert callable(getattr(target, name, None))
