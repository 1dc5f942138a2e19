"""The benchmark tracer's wrapped names still exist in the package, and
its traces see every block.

``perfbench/layers.py`` wraps curvint functions by owner and attribute
name and raises ``MissingLayer`` when one has moved, which would stop
``perfbench/run.py --trace 1``.  These tests load it from its file,
without changing anything there.
"""

import importlib
import importlib.util
from pathlib import Path

from curvint import cli, quadrature

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layer_wraps():
    return _layers().LAYER_WRAPS


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


def test_a_traced_pass_records_every_block(monkeypatch, capsys):
    """A traced catalog verify at 48^3 and 2 workers, above the dispatch
    threshold, records one ``quadrature.block`` span per block that it
    dispatches: the traced passes run in this process, where the tracer
    is."""
    monkeypatch.setattr(quadrature, "default_workers", lambda: 2)
    tracer = _layers().Tracer()
    tracer.install()
    try:
        code = cli.main(["verify", "--surface", "sphere3", "--field", "hopf",
                         "--grid", "48", "--workers", "2"])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert tracer.check_restored()
    assert code == 0
    assert tracer.counts["quadrature.blocks"] > 0
    assert tracer.counts["spans.quadrature.block"] == tracer.counts["quadrature.blocks"]
