"""Every layer the pipeline benchmark traces names a function of the package.

``perfbench/tracing.py`` looks each target up by module and attribute name
and reports a missing one as null, so renaming a traced function would
silently drop its layer from the benchmark.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_layer_target_is_a_package_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    missing = []
    for layer, (module, attr_path) in tracing.LAYERS.items():
        target = importlib.import_module(f"sentid.{module}")
        for attr in attr_path.split("."):
            target = getattr(target, attr, None)
        # a classmethod resolves to a bound method of its class
        if not inspect.isfunction(getattr(target, "__func__", target)):
            missing.append(f"{layer}: sentid.{module}.{attr_path}")
    assert missing == []
