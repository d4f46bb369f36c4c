"""The benchmark's tracing hooks must name attributes that still exist.

``perfbench/workloads.py`` rebinds public functions at their callers' module
attributes under ``--trace 1``.  A hook whose attribute was renamed or
deleted would break tracing without failing any other test.
"""

import sys
import types
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    # Executed from its source text, so nothing is written next to it.
    module = types.ModuleType("_perfbench_workloads")
    module.__file__ = str(WORKLOADS)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_every_hook_resolves():
    hooks = _load_workloads().HOOKS
    assert hooks
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in hooks if not hasattr(owner, attr)]
    assert not missing, f"hooks name missing attributes: {missing}"
