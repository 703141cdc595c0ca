"""Every span of the benchmark's tracer names a function the library has.

The traced benchmark run wraps library functions by name; a name that no
longer exists breaks that run.  This test reads perfbench/ and changes
nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for targets in tracing.SPANS.values():
        for target in targets:
            module_name, attr = target.rsplit(".", 1)
            module = importlib.import_module("zncomplex." + module_name)
            if not callable(getattr(module, attr, None)):
                missing.append(target)
    assert not missing, f"the tracer spans missing functions: {missing}"
