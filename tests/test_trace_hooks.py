"""The benchmark's trace hooks name attributes that exist in the program.

`bench/tracing.py` wraps functions and methods of `dnl_lab` by name, looking
each up in the `__dict__` of its module or class.  A rename in `src/` that
leaves a hook dangling fails here instead of in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hooks = [(m, path) for m, path, _ in tracing.SPANS + tracing.LEAVES]
    return hooks + list(tracing.POINT_COUNTS) + [tracing.VALID_COUNT]


@pytest.mark.parametrize("module, path", _hooks())
def test_hook_resolves(module, path):
    owner = importlib.import_module(f"dnl_lab.{module}")
    *outer, name = path.split(".")
    for part in outer:
        owner = owner.__dict__[part]
    assert callable(owner.__dict__[name])
