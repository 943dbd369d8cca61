"""The benchmark's traced run (perfbench/tracing.py) wraps dstgap functions
by module and name; a renamed or deleted one would break only that run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_is_a_dstgap_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PACKAGE == "dstgap" and tracing.LAYERS
    missing = [
        f"{mod_name}.{fn_name}" for mod_name, fn_name in tracing.LAYERS
        if not callable(getattr(importlib.import_module(
            f"{tracing.PACKAGE}.{mod_name}"), fn_name, None))
    ]
    assert not missing, f"traced layers missing from dstgap: {missing}"
