"""The benchmark tracer's wrapped names still exist in the package.

``perfbench/layers.py`` wraps curvint functions by owner and attribute
name and raises ``MissingLayer`` when one has moved, which would stop
``perfbench/run.py --trace 1``.  This loads the table from its file,
without changing anything there, and resolves every entry.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layer_wraps():
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_WRAPS


def test_every_traced_name_resolves():
    missing = []
    for owner_path, attr, name, _ in _layer_wraps():
        module, _, cls = owner_path.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{owner_path}.{attr} (layer {name})")
    assert not missing, missing
